"""The four speech acts, their planner operators, and the belief updates
their performance triggers.

Following Perrault's default-logic reading of speech acts, an act is
defined by its conventional preconditions (attitudes of the speaker)
alone.  ``ACTS`` is the fixed table of the four acts; everything else is
derived from it:

* the planner operator (:func:`act_operator`, compiled once into
  ``ACT_OPERATORS``; a performed act builds its ground step once) needs the
  preconditions and adds bel(hearer, C(speaker, ...)) for each one C;
* speaker side: for every precondition C, the speaker's view of the hearer
  gains bel(C) (the speaker assumes the act communicated its preconditions);
* hearer side: for every precondition C, the hearer's view of the speaker
  gains C itself (Perrault's default reading of the hearer update).

Both updates use default-ascription semantics: attitudes blocked by
contrary evidence or the nesting cap are skipped and traced.  Hearer
acceptance of a communicated proposition is not an update here: it is the
planner operator ``inference.accept_belief_operator``.  An act name outside
``ACTS`` raises :class:`ActError` at first use, a bad role name at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .beliefs import Attitude, BeliefStore, Expectation, assert_attitude, default_ascribe
from .planner import Operator
from .terms import Compound, Term, TermError, _atom, _check_name, render, struct, var
from .trace import Trace

SPEAKER = var("speaker")
HEARER = var("hearer")
CONTENT = var("content")


class ActError(ValueError):
    """Unknown act, bad roles, or a missing discourse expectation."""


@dataclass(frozen=True)
class ActSchema:
    """A speech act: the speaker's preconditions over the roles."""

    name: str
    preconditions: tuple[Attitude, ...]
    registers_expectation: bool = False
    needs_expectation: bool = False


@dataclass(frozen=True)
class ActInstance:
    """One performed act: act name, speaker, hearer, content term."""

    schema: str
    speaker: str
    hearer: str
    content: Term

    def __post_init__(self) -> None:
        try:
            for role in ("speaker", "hearer"):
                object.__setattr__(self, role, _check_name(getattr(self, role), role))
        except TermError as e:
            raise ActError(str(e)) from None
        if self.speaker == self.hearer:
            raise ActError("speaker and hearer must differ")

    @cached_property
    def step(self) -> Operator:
        """The compiled operator with the roles bound, built on first use."""
        return ACT_OPERATORS[_schema_for(self).name].substituted({
            SPEAKER.name: _atom(self.speaker),
            HEARER.name: _atom(self.hearer),
            CONTENT.name: self.content,
        })

    def term(self) -> Term:
        return struct(self.schema, _atom(self.speaker), _atom(self.hearer), self.content)

    def __str__(self) -> str:
        return render(self.term())


def _bel(agent: Term, p: Term) -> Term:
    return struct("bel", agent, p)


def _or_not(p: Term) -> Term:
    return struct("or", p, struct("not", p))


def _informs(p: Term) -> tuple[Attitude, ...]:
    """The speaker wants the hearer to believe p and believes p itself."""
    return (Attitude("goal", _bel(HEARER, p)), Attitude("bel", p))


#: The four acts by name.  A yes-no question carries the answer proposition
#: as a true/false disjunction: the asker wants to believe or(P, not(P))
#: resolved and believes the hearer already believes one way or the other.
#: The answer acts mirror inform with content P / not(P) and presuppose the
#: pending question's expectation.
ACTS: MappingProxyType[str, ActSchema] = MappingProxyType(
    {
        a.name: a
        for a in (
            ActSchema("inform", _informs(CONTENT)),
            ActSchema(
                "question",
                (
                    Attitude("goal", _bel(SPEAKER, _or_not(CONTENT))),
                    Attitude("bel", _bel(HEARER, _or_not(CONTENT))),
                ),
                registers_expectation=True,
            ),
            ActSchema("yes_answer", _informs(CONTENT), needs_expectation=True),
            ActSchema("no_answer", _informs(struct("not", CONTENT)), needs_expectation=True),
        )
    }
)


def _schema_for(act: ActInstance) -> ActSchema:
    try:
        return ACTS[act.schema]
    except KeyError:
        raise ActError(f"unknown act schema {act.schema!r}") from None


def act_operator(schema: ActSchema) -> Operator:
    """Planner operator for a speech act.

    Preconditions are the speaker's attitudes C(speaker, ...) (plus the
    pending-question fact for answer acts).  Add-effects are derived from
    them: the hearer update bel(hearer, C(speaker, ...)) for each
    precondition, last precondition first (plus the expectation fact a
    question registers).
    """
    pre: list[Term] = [
        Compound(c.kind, (SPEAKER, c.content)) for c in schema.preconditions
    ]
    add: list[Term] = [struct("bel", HEARER, c) for c in reversed(pre)]
    if schema.needs_expectation:
        pre.append(struct("answer_expected", SPEAKER, HEARER, CONTENT))
    if schema.registers_expectation:
        add.append(struct("answer_expected", HEARER, SPEAKER, CONTENT))
    return Operator(
        name=schema.name,
        args=(SPEAKER, HEARER, CONTENT),
        preconditions=tuple(pre),
        add=tuple(add),
        actor=SPEAKER,
        positive_constraints=(CONTENT,),
    )


#: Each act's planner operator, compiled once.
ACT_OPERATORS: MappingProxyType[str, Operator] = MappingProxyType(
    {name: act_operator(schema) for name, schema in ACTS.items()}
)


def _speaker_preconditions(act: ActInstance) -> tuple[Term, ...]:
    """The step's first preconditions: the act's C(speaker, content)."""
    return act.step.preconditions[: len(_schema_for(act).preconditions)]


def instantiated_preconditions(act: ActInstance) -> tuple[Attitude, ...]:
    """The act's preconditions with roles and content filled in, read off
    the step's first preconditions C(speaker, content).

    Each is an attitude of the speaker; the stored form omits the speaker.
    """
    return tuple(Attitude(c.functor, c.args[1]) for c in _speaker_preconditions(act))


def _answered(act: ActInstance) -> Expectation:
    """The expectation an answer act discharges."""
    return Expectation(asker=act.hearer, answerer=act.speaker, content=act.content)


def check_expectation(store: BeliefStore, act: ActInstance) -> None:
    """Raise unless a pending question licenses this answer act."""
    if _schema_for(act).needs_expectation and _answered(act) not in store.expectations:
        raise ActError(f"no pending question licenses {act}")


def accommodate_preconditions(
    store: BeliefStore,
    act: ActInstance,
    trace: Trace | None = None,
) -> BeliefStore:
    """Assert the act's preconditions in the speaker's own environment.

    Performing an act presupposes its preconditions hold; scenario files
    need not restate them.
    """
    for c in instantiated_preconditions(act):
        store = assert_attitude(
            store, (act.speaker,), c, trace=trace, cause=f"presupposition:{act.schema}"
        )
    return store


def apply_speaker_update(
    store: BeliefStore,
    act: ActInstance,
    trace: Trace | None = None,
) -> BeliefStore:
    """For every precondition C: the speaker's view of the hearer gains bel(C)."""
    for c_term in _speaker_preconditions(act):
        store = default_ascribe(
            store,
            (act.speaker,),
            (act.speaker, act.hearer),
            Attitude("bel", c_term),
            trace=trace,
            cause=f"speaker-update:{act.schema}",
        ).store
    return store


def apply_hearer_update(
    store: BeliefStore,
    act: ActInstance,
    trace: Trace | None = None,
) -> BeliefStore:
    """Ascribe each precondition into the hearer's view of the speaker, then
    register or discharge the act's discourse expectation."""
    schema = _schema_for(act)
    for c in instantiated_preconditions(act):
        store = default_ascribe(
            store,
            (act.hearer,),
            (act.hearer, act.speaker),
            c,
            trace=trace,
            cause=f"hearer-update:{act.schema}",
        ).store
    if schema.registers_expectation:
        exp = Expectation(asker=act.speaker, answerer=act.hearer, content=act.content)
        store = store.with_expectation(exp)
        if trace:
            trace.emit(
                "dialogue-acts",
                "expectation",
                asker=exp.asker,
                answerer=exp.answerer,
                content=render(exp.content),
            )
    if schema.needs_expectation:
        store = store.drop_expectation(_answered(act))
    return store

"""Speech-act schemas and the belief updates their performance triggers.

Acts are defined by their conventional preconditions (attitudes of the
speaker), not by effects.  Performing an act updates both participants'
belief environments:

* speaker side: for every precondition C, the speaker's view of the hearer
  gains bel(C) (the speaker assumes the act communicated its preconditions);
* hearer side: for every precondition C, the hearer's view of the speaker
  gains C itself (Perrault's default reading of the hearer update).

The preconditions are an act's only definition: its planner operator adds
exactly the hearer-side facts, bel(hearer, C(speaker, ...)) for each C.
Both updates use default-ascription semantics: attitudes blocked by
contrary evidence or the nesting cap are skipped and traced.
accept_belief moves a communicated proposition into the hearer's own space
when there is no contrary evidence and the speaker is a reliable source
for its topic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beliefs import (
    Attitude,
    BeliefStore,
    Expectation,
    assert_attitude,
    contrary_evidence,
    default_ascribe,
    holds,
    topic_of,
)
from .terms import Atom, Compound, Substitution, Term, apply, render, struct, unify, var
from .trace import Trace

SPEAKER = var("speaker")
HEARER = var("hearer")
CONTENT = var("content")


class ActError(ValueError):
    """Unknown schema, bad roles, or a missing discourse expectation."""


@dataclass(frozen=True)
class ActSchema:
    """A speech-act operator: the speaker's preconditions over the roles."""

    name: str
    preconditions: tuple[Attitude, ...]
    registers_expectation: bool = False
    needs_expectation: bool = False


@dataclass(frozen=True)
class ActInstance:
    """One performed act: schema name, speaker, hearer, content term."""

    schema: str
    speaker: str
    hearer: str
    content: Term

    def __post_init__(self) -> None:
        if self.speaker == self.hearer:
            raise ActError("speaker and hearer must differ")

    def term(self) -> Term:
        return struct(self.schema, Atom(self.speaker), Atom(self.hearer), self.content)

    def __str__(self) -> str:
        return render(self.term())


def _bel(agent: Term, p: Term) -> Term:
    return struct("bel", agent, p)


def _or_not(p: Term) -> Term:
    return struct("or", p, struct("not", p))


def builtin_schemas() -> dict[str, ActSchema]:
    """The four built-in acts: inform, question, yes_answer, no_answer.

    Yes-no questions carry the answer proposition as a true/false
    disjunction: the asker wants to believe or(P, not(P)) resolved and
    believes the hearer already believes one way or the other.  The answer
    acts mirror inform with content P / not(P) and presuppose the pending
    question's expectation.
    """
    p = CONTENT
    inform = ActSchema(
        name="inform",
        preconditions=(
            Attitude("goal", _bel(HEARER, p)),
            Attitude("bel", p),
        ),
    )
    question = ActSchema(
        name="question",
        preconditions=(
            Attitude("goal", _bel(SPEAKER, _or_not(p))),
            Attitude("bel", _bel(HEARER, _or_not(p))),
        ),
        registers_expectation=True,
    )
    yes_answer = ActSchema(
        name="yes_answer",
        preconditions=(
            Attitude("goal", _bel(HEARER, p)),
            Attitude("bel", p),
        ),
        needs_expectation=True,
    )
    not_p = struct("not", p)
    no_answer = ActSchema(
        name="no_answer",
        preconditions=(
            Attitude("goal", _bel(HEARER, not_p)),
            Attitude("bel", not_p),
        ),
        needs_expectation=True,
    )
    return {s.name: s for s in (inform, question, yes_answer, no_answer)}


def role_subst(act: ActInstance) -> Substitution:
    """The act's speaker, hearer and content bound to the schema roles."""
    return Substitution(
        {
            SPEAKER.name: Atom(act.speaker),
            HEARER.name: Atom(act.hearer),
            CONTENT.name: act.content,
        }
    )


def _schema_for(act: ActInstance, schemas: dict[str, ActSchema]) -> ActSchema:
    try:
        return schemas[act.schema]
    except KeyError:
        raise ActError(f"unknown act schema {act.schema!r}") from None


def instantiated_preconditions(
    act: ActInstance, schemas: dict[str, ActSchema]
) -> tuple[Attitude, ...]:
    """The act's preconditions with roles and content filled in.

    Each is an attitude of the speaker; the stored form omits the speaker.
    """
    schema = _schema_for(act, schemas)
    s = role_subst(act)
    return tuple(Attitude(c.kind, apply(s, c.content)) for c in schema.preconditions)


def _expectation_for(act: ActInstance, store: BeliefStore) -> Expectation | None:
    for exp in store.expectations:
        if exp.answerer == act.speaker and exp.asker == act.hearer:
            if unify(exp.content, act.content) is not None:
                return exp
    return None


def check_expectation(store: BeliefStore, act: ActInstance, schemas: dict[str, ActSchema]) -> None:
    """Raise unless a pending question licenses this answer act."""
    if _schema_for(act, schemas).needs_expectation and _expectation_for(act, store) is None:
        raise ActError(f"no pending question licenses {act}")


def accommodate_preconditions(
    store: BeliefStore,
    act: ActInstance,
    schemas: dict[str, ActSchema],
    trace: Trace | None = None,
) -> BeliefStore:
    """Assert the act's preconditions in the speaker's own environment.

    Performing an act presupposes its preconditions hold; scenario files
    need not restate them.
    """
    for c in instantiated_preconditions(act, schemas):
        store = assert_attitude(
            store, (act.speaker,), c, trace=trace, cause=f"presupposition:{act.schema}"
        )
    return store


def apply_speaker_update(
    store: BeliefStore,
    act: ActInstance,
    schemas: dict[str, ActSchema],
    trace: Trace | None = None,
) -> BeliefStore:
    """For every precondition C: the speaker's view of the hearer gains bel(C)."""
    for c in instantiated_preconditions(act, schemas):
        c_term = Compound(c.kind, (Atom(act.speaker), c.content))
        result = default_ascribe(
            store,
            (act.speaker,),
            (act.speaker, act.hearer),
            Attitude("bel", c_term),
            trace=trace,
            cause=f"speaker-update:{act.schema}",
        )
        store = result.store
    return store


def apply_hearer_update(
    store: BeliefStore,
    act: ActInstance,
    schemas: dict[str, ActSchema],
    trace: Trace | None = None,
) -> BeliefStore:
    """Ascribe each precondition into the hearer's view of the speaker, then
    register or discharge the act's discourse expectation."""
    schema = _schema_for(act, schemas)
    for c in instantiated_preconditions(act, schemas):
        result = default_ascribe(
            store,
            (act.hearer,),
            (act.hearer, act.speaker),
            c,
            trace=trace,
            cause=f"hearer-update:{act.schema}",
        )
        store = result.store
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
        exp = _expectation_for(act, store)
        if exp is not None:
            store = store.drop_expectation(exp)
    return store


@dataclass(frozen=True)
class AcceptResult:
    store: BeliefStore
    accepted: bool
    reason: str | None = None


def accept_belief(
    store: BeliefStore,
    hearer: str,
    speaker: str,
    p: Term,
    trace: Trace | None = None,
) -> AcceptResult:
    """Move a communicated proposition into the hearer's own space.

    Requires evidence bel(hearer, bel(speaker, p)), no contrary evidence in
    the hearer's space, and a reliability declaration for p's topic.
    Refusal is a normal, traced outcome.
    """
    reason = None
    if not holds(store, (hearer, speaker), Attitude("bel", p)):
        reason = "no_evidence"
    elif contrary_evidence(store, (hearer,), p):
        reason = "contrary_evidence"
    elif (speaker, topic_of(p)) not in store.reliability:
        reason = "unreliable_source"
    if reason is not None:
        if trace:
            trace.emit(
                "dialogue-acts",
                "refuse",
                hearer=hearer,
                speaker=speaker,
                content=render(p),
                cause=reason,
            )
        return AcceptResult(store, accepted=False, reason=reason)
    store = assert_attitude(
        store, (hearer,), Attitude("bel", p), trace=trace, cause="accept_belief"
    )
    if trace:
        trace.emit(
            "dialogue-acts", "accept", hearer=hearer, speaker=speaker, content=render(p)
        )
    return AcceptResult(store, accepted=True)

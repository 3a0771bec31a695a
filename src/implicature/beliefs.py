"""Nested belief environments with default and stereotypical ascription.

A :class:`BeliefStore` maps viewpoint paths (agent nesting sequences, e.g.
``(system, expert)`` for "system's view of expert") to sets of attitudes.
An attitude is stored without its outermost agent; the path supplies it.
Chains of the form ``bel(a, bel(b, X))`` are normalized into the path, so
the same fact has exactly one storage location.

Default ascription copies an attitude one nesting level inward unless there
is contrary evidence; stereotypical ascription instantiates a stereotype's
attitude templates at a path, skipping blocked ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .terms import (
    Atom,
    Compound,
    Substitution,
    Term,
    apply,
    render,
    unify,
)
from .trace import Trace

ATTITUDE_KINDS = ("bel", "goal", "int")

#: Deepest permitted viewpoint nesting; bounds recognition search.
MAX_NESTING = 4

Path = tuple[str, ...]


class BeliefError(ValueError):
    """Invalid store operation (bad path, unknown kind, bad intention)."""


class ContradictionError(BeliefError):
    """Asserting bel(p) where bel(not(p)) already holds, or vice versa."""


@dataclass(frozen=True)
class Attitude:
    """A propositional stance: bel, goal or int over a content term.

    For ``int`` the content must be an action term (optionally wrapped in
    not(...)); action functors are registered on the store.
    """

    kind: str
    content: Term

    def __post_init__(self) -> None:
        if self.kind not in ATTITUDE_KINDS:
            raise BeliefError(f"unknown attitude kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}({self.content})"


@dataclass(frozen=True)
class Expectation:
    """Discourse expectation left by a question: answerer owes asker an answer."""

    asker: str
    answerer: str
    content: Term


@dataclass(frozen=True)
class Stereotype:
    """Attitudes and candidate goals attached to a class of agents."""

    name: str
    members: frozenset[str]
    attitudes: tuple[Attitude, ...] = ()
    goal_library: tuple[Term, ...] = ()


def negate(t: Term) -> Term:
    """not(t), collapsing double negation."""
    if isinstance(t, Compound) and t.functor == "not" and len(t.args) == 1:
        return t.args[0]
    return Compound("not", (t,))


def _is_agent_chain(t: Term) -> bool:
    return (
        isinstance(t, Compound)
        and t.functor in ATTITUDE_KINDS
        and len(t.args) == 2
        and isinstance(t.args[0], Atom)
    )


def normalize(path: Path, att: Attitude) -> tuple[Path, Attitude]:
    """Absorb bel(agent, <attitude>) chains into the path.

    bel at path (a,) with content goal(b, X) is the same fact as goal at
    path (a, b) with content X.  Only bel is transparent; goal and int
    contents are left untouched.
    """
    while att.kind == "bel" and _is_agent_chain(att.content):
        inner = att.content
        assert isinstance(inner, Compound)
        agent = inner.args[0]
        assert isinstance(agent, Atom)
        path = path + (agent.name,)
        att = Attitude(inner.functor, inner.args[1])
    return path, att


def render_attitude(path: Path, att: Attitude) -> Term:
    """The fully agentified term for an attitude at a path.

    (system, expert) with goal(X) renders as bel(system, goal(expert, X)).
    """
    t: Term = Compound(att.kind, (Atom(path[-1]), att.content))
    for agent in reversed(path[:-1]):
        t = Compound("bel", (Atom(agent), t))
    return t


def attitude_from_term(t: Term) -> tuple[str, Attitude]:
    """Split an agentified attitude term into (outer agent, stored form)."""
    if not _is_agent_chain(t):
        raise BeliefError(f"not an attitude term: {render(t)}")
    assert isinstance(t, Compound)
    agent = t.args[0]
    assert isinstance(agent, Atom)
    return agent.name, Attitude(t.functor, t.args[1])


@dataclass(frozen=True)
class BeliefStore:
    """Immutable map from viewpoint paths to attitude sets.

    Also carries the scenario-level context the dialogue machinery needs:
    reliability declarations, registered action functors, and pending
    discourse expectations.  All updates return a new store.
    """

    spaces: dict[Path, frozenset[Attitude]] = field(default_factory=dict)
    reliability: frozenset[tuple[str, str]] = frozenset()
    actions: frozenset[str] = frozenset()
    expectations: tuple[Expectation, ...] = ()

    def attitudes_at(self, path: Path) -> frozenset[Attitude]:
        return self.spaces.get(tuple(path), frozenset())

    def paths(self) -> list[Path]:
        return sorted(self.spaces)

    def with_reliability(self, pairs: Iterable[tuple[str, str]]) -> "BeliefStore":
        return replace(self, reliability=self.reliability | frozenset(pairs))

    def with_actions(self, names: Iterable[str]) -> "BeliefStore":
        return replace(self, actions=self.actions | frozenset(names))

    def with_expectation(self, exp: Expectation) -> "BeliefStore":
        if exp in self.expectations:
            return self
        return replace(self, expectations=self.expectations + (exp,))

    def drop_expectation(self, exp: Expectation) -> "BeliefStore":
        if exp not in self.expectations:
            return self
        return replace(
            self, expectations=tuple(e for e in self.expectations if e != exp)
        )


def topic_of(t: Term) -> str:
    """Root functor of a proposition, looking through not(...)."""
    while isinstance(t, Compound) and t.functor == "not" and len(t.args) == 1:
        t = t.args[0]
    if isinstance(t, Compound):
        return t.functor
    if isinstance(t, Atom):
        return t.name
    raise BeliefError(f"no topic for variable {t}")


def _validate_path(path: Path) -> Path:
    path = tuple(path)
    if not path:
        raise BeliefError("viewpoint path must be nonempty")
    return path


def _validate_intention(store: BeliefStore, att: Attitude) -> None:
    if att.kind != "int":
        return
    content = att.content
    if isinstance(content, Compound) and content.functor == "not" and len(content.args) == 1:
        content = content.args[0]
    name = content.functor if isinstance(content, Compound) else getattr(content, "name", None)
    if store.actions and name not in store.actions:
        raise BeliefError(f"intention content {render(att.content)} is not a registered action")


def assert_attitude(
    store: BeliefStore,
    path: Path,
    att: Attitude,
    trace: Trace | None = None,
    cause: str = "assert",
) -> BeliefStore:
    """Add an attitude at a path; value-semantics, idempotent.

    Raises :class:`ContradictionError` when a bel would contradict an
    existing bel at the same path (explicit not(...) only, no entailment).
    Asserts past the nesting cap are skipped and traced, not fatal.
    """
    path, att = normalize(_validate_path(path), att)
    if len(path) > MAX_NESTING:
        if trace:
            trace.emit(
                "belief-spaces",
                "block",
                path=list(path),
                attitude=str(att),
                cause="nesting-depth-cap",
            )
        return store
    _validate_intention(store, att)
    existing = store.attitudes_at(path)
    if att in existing:
        return store
    if att.kind == "bel" and contrary_evidence(store, path, att.content):
        raise ContradictionError(
            f"bel({render(att.content)}) contradicts evidence at {'/'.join(path)}"
        )
    spaces = dict(store.spaces)
    spaces[path] = existing | {att}
    if trace:
        trace.emit(
            "belief-spaces", "assert", path=list(path), attitude=str(att), cause=cause
        )
    return replace(store, spaces=spaces)


def holds(store: BeliefStore, path: Path, att: Attitude) -> bool:
    """True iff the attitude is at the path, directly or via a stored template."""
    path, att = normalize(_validate_path(path), att)
    stored = store.attitudes_at(path)
    if att in stored:
        return True
    for other in stored:
        if other.kind == att.kind and unify(other.content, att.content) is not None:
            return True
    return False


def contrary_evidence(store: BeliefStore, path: Path, content: Term) -> bool:
    """True iff not(content) is believed at path (or content is not(q) and q is)."""
    return holds(store, path, Attitude("bel", negate(content)))


@dataclass(frozen=True)
class AscribeResult:
    store: BeliefStore
    blocked: bool


def _ascribe(
    store: BeliefStore,
    path: Path,
    att: Attitude,
    trace: Trace | None,
    cause: str,
) -> AscribeResult:
    """Assert an attitude at a path unless blocked, tracing the outcome.

    Blocked (past the nesting cap, or a bel with contrary evidence at the
    normalized path) is a normal outcome: the store is returned unchanged
    and a ``block`` event names the reason.
    """
    norm_path, norm_att = normalize(path, att)
    reason = None
    if len(norm_path) > MAX_NESTING:
        reason = "nesting-depth-cap"
    elif norm_att.kind == "bel" and contrary_evidence(store, norm_path, norm_att.content):
        reason = "contrary-evidence"
    if reason is not None:
        if trace:
            trace.emit(
                "belief-spaces",
                "block",
                path=list(norm_path),
                attitude=str(norm_att),
                cause=reason,
            )
        return AscribeResult(store, blocked=True)
    updated = assert_attitude(store, path, att, cause=cause)
    if trace and updated is not store:
        trace.emit(
            "belief-spaces",
            "ascribe",
            path=list(norm_path),
            attitude=str(norm_att),
            cause=cause,
        )
    return AscribeResult(updated, blocked=False)


def default_ascribe(
    store: BeliefStore,
    from_path: Path,
    to_path: Path,
    att: Attitude,
    trace: Trace | None = None,
    cause: str = "default-ascription",
) -> AscribeResult:
    """Push an attitude one nesting level inward unless blocked.

    Blocked (contrary evidence at the target for the attitude's content, or
    the nesting cap) is a normal outcome, reported in the trace.
    """
    from_path = _validate_path(from_path)
    to_path = _validate_path(to_path)
    if to_path[: len(from_path)] != from_path or len(to_path) != len(from_path) + 1:
        raise BeliefError(
            f"ascription target {to_path} must extend {from_path} by one agent"
        )
    return _ascribe(store, to_path, att, trace, cause)


def stereotype_ascribe(
    store: BeliefStore,
    path: Path,
    st: Stereotype,
    bindings: Substitution,
    trace: Trace | None = None,
) -> BeliefStore:
    """Assert every instantiated template attitude at the path.

    Templates blocked by contrary evidence or the nesting cap are skipped
    and traced; the trigger check belongs to the caller.
    """
    path = _validate_path(path)
    for template in st.attitudes:
        att = Attitude(template.kind, apply(bindings, template.content))
        store = _ascribe(store, path, att, trace, f"stereotype:{st.name}").store
    return store


def render_store(store: BeliefStore) -> list[Term]:
    """Flat, deterministic snapshot of every attitude plus context facts.

    Used as the planner's initial state: each (path, attitude) renders to
    its fully agentified term; reliability pairs become reliable(agent,
    topic) facts and pending expectations become answer_expected(answerer,
    asker, content) facts.
    """
    out: list[Term] = []
    for path in store.paths():
        atts = sorted(store.attitudes_at(path), key=lambda a: (a.kind, render(a.content)))
        for att in atts:
            out.append(render_attitude(path, att))
    for agent, topic in sorted(store.reliability):
        out.append(Compound("reliable", (Atom(agent), Atom(topic))))
    for exp in store.expectations:
        out.append(
            Compound(
                "answer_expected",
                (Atom(exp.answerer), Atom(exp.asker), exp.content),
            )
        )
    return out

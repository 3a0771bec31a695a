"""Nested belief environments with default ascription.

A :class:`BeliefStore` maps viewpoint paths (agent nesting sequences, e.g.
``(system, expert)`` for "system's view of expert") to sets of attitudes.
An attitude is stored without its outermost agent; the path supplies it.
Chains of the form ``bel(a, bel(b, X))`` are normalized into the path, so
the same fact has exactly one storage location.

The store is ground: both writes, :func:`assert_attitude` and
:func:`default_ascribe`, reject content with variables, so :func:`holds` is
a membership test.  Agent names are checked and lowercased where they
enter (the writes, :func:`holds`, ``attitudes_at``, reliability pairs,
expectations), so snapshots build their atoms unchecked.  Default ascription copies an attitude one nesting
level inward unless there is contrary evidence or the nesting cap blocks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from .terms import (
    Atom, Compound, Term, TermError, _atom, _check_name, _compound, is_ground, render
)
from .trace import Trace

if TYPE_CHECKING:
    from .closure import Closure

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
    """Candidate goals attached to a class of agents."""

    name: str
    members: frozenset[str]
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
    t: Term = _compound(att.kind, (_atom(path[-1]), att.content))
    for agent in reversed(path[:-1]):
        t = _compound("bel", (_atom(agent), t))
    return t


#: A space, its facts in snapshot order, and each attitude's sort key and fact.
_Rendered = tuple[
    frozenset[Attitude], tuple[Term, ...], dict[Attitude, tuple[tuple[str, str], Term]]
]


@dataclass(frozen=True)
class BeliefStore:
    """Immutable map from viewpoint paths to attitude sets.

    Also carries the scenario-level context the dialogue machinery needs:
    reliability declarations, registered action functors, and pending
    discourse expectations.  All updates return a new store.

    ``carried`` is opaque to the store: the relevance closure the last
    gate turn of this store's lineage left for the next one to extend
    (:attr:`closure.RelevanceGate.carried`).  Every update keeps it;
    :func:`inference.infer` replaces it, and the gate checks it against
    the snapshot before it extends it, so a store edited in any other way
    still gives exact answers.  It takes no part in equality or ``repr``.

    ``rendered`` is :func:`render_store`'s memo, opaque and outside
    equality and ``repr`` like ``carried``: per path, the space it last
    rendered, that space's facts in snapshot order, and each attitude's
    sort key and fact.  Every update passes the same dict on, so a
    lineage's stores, and its branches, share it.
    """

    spaces: dict[Path, frozenset[Attitude]] = field(default_factory=dict)
    reliability: frozenset[tuple[str, str]] = frozenset()
    actions: frozenset[str] = frozenset()
    expectations: tuple[Expectation, ...] = ()
    carried: Closure | None = field(default=None, compare=False, repr=False)
    rendered: dict[Path, _Rendered] = field(default_factory=dict, compare=False, repr=False)

    def attitudes_at(self, path: Path) -> frozenset[Attitude]:
        """The attitudes stored at ``path``, whose agent names are checked
        and lowercased as the writes and :func:`holds` check them."""
        return self.spaces.get(_validate_path(path), frozenset())

    def paths(self) -> list[Path]:
        return sorted(self.spaces)

    def with_reliability(self, pairs: Iterable[tuple[str, str]]) -> "BeliefStore":
        """Adds (agent, topic) pairs, both names checked and lowercased."""
        checked = {_checked(pair, "reliability") for pair in pairs}
        return replace(self, reliability=self.reliability | checked)

    def with_actions(self, names: Iterable[str]) -> "BeliefStore":
        return replace(self, actions=self.actions | frozenset(names))

    def with_expectation(self, exp: Expectation) -> "BeliefStore":
        """Adds a pending expectation, its two agent names checked and
        lowercased; BeliefError on a bad one."""
        asker, answerer = _checked((exp.asker, exp.answerer), "agent")
        exp = replace(exp, asker=asker, answerer=answerer)
        if exp in self.expectations:
            return self
        return replace(self, expectations=self.expectations + (exp,))

    def drop_expectation(self, exp: Expectation) -> "BeliefStore":
        if exp not in self.expectations:
            return self
        return replace(
            self, expectations=tuple(e for e in self.expectations if e != exp)
        )


def _checked(names: Iterable[str], what: str) -> tuple[str, ...]:
    """``names`` checked and lowercased; BeliefError on a bad one."""
    try:
        return tuple(_check_name(name, what) for name in names)
    except TermError as e:
        raise BeliefError(str(e)) from None


def _validate_path(path: Path) -> Path:
    path = _checked(path, "agent")
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


def _ground_normalized(path: Path, att: Attitude) -> tuple[Path, Attitude]:
    if not is_ground(att.content):
        raise BeliefError(f"attitude content must be ground: {att}")
    return normalize(path, att)


def _block(trace: Trace | None, path: Path, att: Attitude, cause: str) -> None:
    if trace:
        trace.emit("belief-spaces", "block", path=list(path), attitude=str(att), cause=cause)


def _stored(store: BeliefStore, path: Path) -> frozenset[Attitude]:
    """The attitudes at a path already checked, without checking it again."""
    return store.spaces.get(path, frozenset())


def _insert(store: BeliefStore, path: Path, att: Attitude) -> BeliefStore:
    spaces = dict(store.spaces)
    spaces[path] = _stored(store, path) | {att}
    return replace(store, spaces=spaces)


def assert_attitude(
    store: BeliefStore,
    path: Path,
    att: Attitude,
    trace: Trace | None = None,
    cause: str = "assert",
) -> BeliefStore:
    """Add a ground attitude at a path; value-semantics, idempotent.

    Raises :class:`ContradictionError` when a bel would contradict an
    existing bel at the same path (explicit not(...) only, no entailment).
    Asserts past the nesting cap are skipped and traced, not fatal.
    """
    path, att = _ground_normalized(_validate_path(path), att)
    if len(path) > MAX_NESTING:
        _block(trace, path, att, "nesting-depth-cap")
        return store
    _validate_intention(store, att)
    if att in _stored(store, path):
        return store
    if att.kind == "bel" and contrary_evidence(store, path, att.content):
        raise ContradictionError(
            f"bel({render(att.content)}) contradicts evidence at {'/'.join(path)}"
        )
    if trace:
        trace.emit(
            "belief-spaces", "assert", path=list(path), attitude=str(att), cause=cause
        )
    return _insert(store, path, att)


def holds(store: BeliefStore, path: Path, att: Attitude) -> bool:
    """True iff the attitude, normalized, is stored at its path."""
    path, att = normalize(_validate_path(path), att)
    return att in _stored(store, path)


def contrary_evidence(store: BeliefStore, path: Path, content: Term) -> bool:
    """True iff not(content) is believed at path (or content is not(q) and q is)."""
    return holds(store, path, Attitude("bel", negate(content)))


@dataclass(frozen=True)
class AscribeResult:
    store: BeliefStore
    blocked: bool


def default_ascribe(
    store: BeliefStore,
    from_path: Path,
    to_path: Path,
    att: Attitude,
    trace: Trace | None = None,
    cause: str = "default-ascription",
) -> AscribeResult:
    """Push a ground attitude one nesting level inward unless blocked.

    Blocked (past the nesting cap, or a bel with contrary evidence at the
    normalized target) is a normal outcome: the store is returned unchanged
    and a ``block`` event names the reason.
    """
    from_path = _validate_path(from_path)
    to_path = _validate_path(to_path)
    if to_path[: len(from_path)] != from_path or len(to_path) != len(from_path) + 1:
        raise BeliefError(
            f"ascription target {to_path} must extend {from_path} by one agent"
        )
    path, att = _ground_normalized(to_path, att)
    reason = None
    if len(path) > MAX_NESTING:
        reason = "nesting-depth-cap"
    elif att.kind == "bel" and contrary_evidence(store, path, att.content):
        reason = "contrary-evidence"
    if reason is not None:
        _block(trace, path, att, reason)
        return AscribeResult(store, blocked=True)
    _validate_intention(store, att)
    if att not in _stored(store, path):
        store = _insert(store, path, att)
        if trace:
            trace.emit(
                "belief-spaces", "ascribe", path=list(path), attitude=str(att), cause=cause
            )
    return AscribeResult(store, blocked=False)


def render_store(store: BeliefStore) -> list[Term]:
    """Flat, deterministic snapshot of every attitude plus context facts.

    Used as the planner's initial state: each (path, attitude) renders to
    its fully agentified term; reliability pairs become reliable(agent,
    topic) facts and pending expectations become answer_expected(answerer,
    asker, content) facts.

    Spaces render from the store's ``rendered`` memo: a space that is the
    very set last rendered at its path gives the same facts again, and a
    changed one renders only the attitudes it gained, reusing each kept
    attitude's sort key and fact.  The output is the same whichever store
    of the lineage rendered last; unchanged attitudes give the same fact
    objects, so the carried closure's set lookups hit on identity.
    """
    out: list[Term] = []
    for path in store.paths():
        space = _stored(store, path)
        entry = store.rendered.get(path)
        if entry is None or entry[0] is not space:
            known = entry[2] if entry else {}
            rows = {
                att: known.get(att)
                or ((att.kind, render(att.content)), render_attitude(path, att))
                for att in space
            }
            facts = tuple(fact for _, fact in sorted(rows.values(), key=lambda row: row[0]))
            entry = store.rendered[path] = (space, facts, rows)
        out.extend(entry[1])
    for agent, topic in sorted(store.reliability):
        out.append(_compound("reliable", (_atom(agent), _atom(topic))))
    for exp in store.expectations:
        out.append(
            _compound("answer_expected", (_atom(exp.answerer), _atom(exp.asker), exp.content))
        )
    return out

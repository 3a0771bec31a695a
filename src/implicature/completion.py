"""Completion search and DOT export.

Completion search serves the goal-ascription rules: for each of several
goals, a shortest ordered action sequence entered from a designated state,
found by one breadth-first search shared by all the goals.  It reads the
recognized candidate's closure (:mod:`closure`) when that reached its
fixpoint, and otherwise grows a closure of its ambient facts, one round per
search level it reaches; the searches from every entry state of an
ascription rule share it, and a state's applicable instances are those
whose preconditions it holds.  Its goal test runs the closure's one-way
matcher on the goals whose shape fits a fact's.  :func:`to_dot` draws a
plan (:mod:`planner`), with an optional completion overlay, as a DOT
digraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .closure import Closure, PlannerError, _check_ground, _match
from .planner import GOAL_ID, INIT_ID, Operator, Plan, asserted_states, linearize
from .terms import Atom, Compound, Term, render


@dataclass(frozen=True)
class Completion:
    """An ordered sub-plan grafted from an entry state to an extra goal."""

    actions: tuple[Operator, ...]
    entry_state: Term
    achieved_goal: Term

    def __post_init__(self) -> None:
        if not self.actions:
            raise PlannerError("a completion has at least one action")


# ---------------------------------------------------------------------------
# Completion search
# ---------------------------------------------------------------------------


def _head(t: Term) -> tuple[str, int] | str | None:
    """A compound's functor and arity, an atom's name, None for a variable."""
    if type(t) is Compound:
        return t.functor, len(t.args)
    return t.name if type(t) is Atom else None


def _shape(t: Term) -> tuple | str | None:
    """The shape of a term: an atom's name, a compound's functor with the
    :func:`_head` of each argument, None for a variable.  Facts are ground,
    so only a goal's shape holds None."""
    if type(t) is Compound:
        return t.functor, tuple(map(_head, t.args))
    return _head(t)


def _fits(goal: tuple | str | None, fact: tuple | str) -> bool:
    """Whether a goal of shape ``goal`` may match a fact of shape ``fact``:
    a None in the goal's shape fits anything."""
    if goal is None or goal == fact:
        return True
    if type(goal) is not tuple or type(fact) is not tuple or goal[0] != fact[0]:
        return False
    if len(goal[1]) != len(fact[1]):
        return False
    for g, f in zip(goal[1], fact[1]):
        if g is not None and g != f:
            return False
    return True


class _GoalIndex:
    """The goals of one completion search, for its goal test.

    A fact can match only the goals with its root name, or variables.  Where
    several goals share that name, they are told apart by :func:`_fits` on
    the fact's shape, once per shape, and the matcher runs only on the
    goals that fit.
    """

    def __init__(self, goals: Sequence[Term]) -> None:
        self.goals = goals
        self.shapes = [_shape(g) for g in goals]
        #: the variable goals, and by root name the goals with that name
        #: together with the variable ones
        self.anywhere = [i for i, s in enumerate(self.shapes) if s is None]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.shapes):
            if s is not None:
                name = s if type(s) is str else s[0]
                self.by_name.setdefault(name, list(self.anywhere)).append(i)
        self.fitting: dict[tuple | str, list[int]] = {}  # fact shape -> the goals that fit

    def matched(self, facts: Iterable[Term]) -> dict[int, list[Term]]:
        """Goal position -> the facts of the ground ``facts`` that the goal
        matches, for the goals that match any."""
        out: dict[int, list[Term]] = {}
        for f in facts:
            fit = self.by_name.get(f.functor if type(f) is Compound else f.name, self.anywhere)
            if len(fit) > 1:
                key = _shape(f)
                narrowed = self.fitting.get(key)
                if narrowed is None:
                    narrowed = self.fitting[key] = [i for i in fit if _fits(self.shapes[i], key)]
                fit = narrowed
            for i in fit:
                if _match(self.goals[i], f, {}) is not None:
                    out.setdefault(i, []).append(f)
        return out


def complete_from(
    state: Term,
    goals: list[Term] | tuple[Term, ...],
    ops: list[Operator] | tuple[Operator, ...],
    bound: int,
    ambient: set[Term] | frozenset[Term],
    *,
    closure: Closure | None = None,
) -> tuple[Completion | None, ...]:
    """Shortest nonempty action sequence from `state` to each of `goals`.

    Returns one entry per goal, in goal order: the completion, or None when
    no sequence within `bound` actions reaches the goal.  `state` and
    `ambient` must be ground; the goals need not be.  The first action
    must have `state` among its preconditions; every action executes in
    the ambient context.  A goal may contain variables; it is reached when
    it matches a fact of a generated state (the least such fact in render
    order is the goal's instance).

    One breadth-first search serves every goal.  Its expansion order
    (frontier, operators, ground instances, visited states) does not depend
    on the goals; a goal is settled at the first generated state with a
    fact it matches, and the search stops once no goal is pending.  A
    one-goal search stops at that same first hit, so each answer is
    exactly the one a search for that goal alone returns.

    Applicable instances come from `closure`: either closed and holding
    every ambient fact, or a closure of exactly `ambient` under `ops`
    (built here at one round when None).  A closed closure holds every
    instance applicable in a state the search reaches, and maybe more that
    no state admits.  A closure of `ambient` grows lazily: before the
    search expands level ``d`` (the states ``d`` actions reach), it grows
    to ``d + 1`` rounds, so it holds every instance applicable there, and
    a search that settles every goal at level ``d`` grounds nothing
    deeper.  :class:`TermError` fires when one of those rounds derives a
    fact nested deeper than ``MAX_DERIVED_DEPTH``; the closure ignores
    deletes, so that instance need not apply in any state the search
    visits.  A caller searching from several entry states shares one
    closure and checks `ambient` once.  A state's instances are those of
    :meth:`Closure.rows` whose preconditions it holds, so the search
    expands exactly as one that grounds every operator at every state.

    The goal test looks only at facts that can be new.  A frontier state
    past the start was tested when it was generated, so a pending goal
    matches none of its facts: at depth 2 and beyond only the action's
    add-effects can reach it, and at depth 1 also the ambient facts the
    action does not delete.  The matcher runs only on the goals that a
    :class:`_GoalIndex` finds for a fact: those with its root name, told
    apart by shape where several share it.  The facts each goal matches
    are found once per search: for the ambient facts at the first action,
    and for each instance's add-effects when the instance first applies.
    """
    if bound < 1:
        raise PlannerError("bound must be >= 1")
    _check_ground((state,), "entry state")
    if closure is None:
        closure = Closure(ambient, ops, 1)
    found: list[Completion | None] = [None] * len(goals)
    pending = len(goals)
    start = frozenset(ambient)
    # built at the first applicable instance, which enters from ``state``
    index: _GoalIndex | None = None
    at_start: dict[int, list[Term]] = {}  # the ambient facts each goal matches
    # id(instance) -> the instance's add-effects each goal matches; the
    # closure keeps every instance alive, so ids stay unique
    hits: dict[int, dict[int, list[Term]]] = {}
    frontier: list[tuple[frozenset[Term], tuple[Operator, ...]]] = [(start, ())]
    visited: set[frozenset[Term]] = {start}
    for level in range(bound):
        if not frontier or not pending:
            break
        closure.grow(level + 1)
        rows = closure.rows()
        nxt: list[tuple[frozenset[Term], tuple[Operator, ...]]] = []
        for current, seq in frontier:
            for row in rows:
                for inst in row:
                    if not seq and state not in inst.preconditions:
                        continue
                    if not current.issuperset(inst.preconditions):
                        continue
                    if index is None:
                        index = _GoalIndex(goals)
                        at_start = index.matched(start)
                    reached_by = hits.get(id(inst))
                    if reached_by is None:
                        reached_by = hits[id(inst)] = index.matched(inst.add)
                    deleted = set(inst.delete)
                    if not seq:
                        reached_by = dict(reached_by)
                        for i, facts in at_start.items():
                            kept = [f for f in facts if f not in deleted]
                            if kept:
                                reached_by[i] = reached_by.get(i, []) + kept
                    new_seq = seq + (inst,)
                    for i, reached in reached_by.items():
                        if found[i] is None:
                            # a matched fact is the goal's instance under the match
                            found[i] = Completion(
                                actions=new_seq,
                                entry_state=state,
                                achieved_goal=min(reached, key=render),
                            )
                            pending -= 1
                    if not pending:
                        return tuple(found)
                    new_state = frozenset((current - deleted) | set(inst.add))
                    if new_state not in visited:
                        visited.add(new_state)
                        nxt.append((new_state, new_seq))
        frontier = nxt
    return tuple(found)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_escape(s: str) -> str:
    return s.replace('"', '\\"')


def to_dot(p: Plan, overlay: Completion | None = None) -> str:
    """DOT digraph of a plan: one node per step, solid edges for causal
    links labeled with the condition, dashed edges for pure ordering, and a
    dashed overlay for a completion."""
    lines = ["digraph plan {", "  rankdir=TB;", '  init [shape=box, label="init"];']
    goal_label = " & ".join(render(g) for g in p.goal_conditions)
    lines.append(f'  goal [shape=box, label="{_dot_escape(goal_label)}"];')
    for sid in linearize(p):
        label = _dot_escape(render(p.steps[sid].head()))
        lines.append(f'  s{sid} [label="{label}"];')

    def node(sid: int) -> str:
        if sid == INIT_ID:
            return "init"
        if sid == GOAL_ID:
            return "goal"
        return f"s{sid}"

    linked: set[tuple[int, int]] = set()
    for link in sorted(
        p.links, key=lambda l: (l.producer, l.consumer, render(l.condition))
    ):
        linked.add((link.producer, link.consumer))
        lines.append(
            f'  {node(link.producer)} -> {node(link.consumer)} '
            f'[label="{_dot_escape(render(link.condition))}"];'
        )
    for a, b in sorted(p.orderings):
        if (a, b) in linked or a == INIT_ID or b == GOAL_ID:
            continue
        lines.append(f"  {node(a)} -> {node(b)} [style=dashed];")
    if overlay is not None:
        producer = "init"
        for sid, t in asserted_states(p):
            if t == overlay.entry_state:
                producer = node(sid)
                break
        prev = producer
        for i, action in enumerate(overlay.actions):
            name = f"c{i}"
            label = _dot_escape(render(action.head()))
            lines.append(f'  {name} [label="{label}", style=dashed];')
            edge_label = (
                _dot_escape(render(overlay.entry_state)) if i == 0 else ""
            )
            lines.append(f'  {prev} -> {name} [style=dashed, label="{edge_label}"];')
            prev = name
        lines.append(
            f'  cgoal [shape=box, style=dashed, '
            f'label="{_dot_escape(render(overlay.achieved_goal))}"];'
        )
        lines.append(f"  {prev} -> cgoal [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"

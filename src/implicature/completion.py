"""Completion search and DOT export.

Completion search serves the goal-ascription rules: for each of several
goals, a shortest ordered action sequence entered from a designated state,
found by one breadth-first search shared by all the goals.  It reads the
recognized candidate's closure (:mod:`closure`) when that reached its
fixpoint, and otherwise grows a closure of its ambient facts, one round per
search level it reaches; the searches from every entry state of an
ascription rule share it, and a state's applicable instances are those
whose preconditions it holds.  Its goal test uses the closure's one-way
matcher.  :func:`to_dot` draws a plan (:mod:`planner`), with an optional
completion overlay, as a DOT digraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import Closure, PlannerError, _check_ground, _match
from .planner import GOAL_ID, INIT_ID, Operator, Plan, asserted_states, linearize
from .terms import Term, render


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
    on the goals; each pending goal is tested at every generated state and
    settled at its first hit, and the search stops once none is pending.
    A one-goal search stops at that same first hit, so each answer is
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
    action does not delete.
    """
    if bound < 1:
        raise PlannerError("bound must be >= 1")
    _check_ground((state,), "entry state")
    if closure is None:
        closure = Closure(ambient, ops, 1)
    found: list[Completion | None] = [None] * len(goals)
    pending = list(range(len(goals)))
    start = frozenset(ambient)
    at_start: list[list[Term]] = []  # the ambient facts each goal matches
    # (instance, goal index) -> the instance's add-effects that the goal
    # matches; the closure keeps every instance alive, so ids stay unique
    hits: dict[tuple[int, int], list[Term]] = {}
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
                    if not seq and not at_start:
                        at_start = [
                            [f for f in start if _match(g, f, {}) is not None] for g in goals
                        ]
                    deleted = set(inst.delete)
                    new_seq = seq + (inst,)
                    for i in tuple(pending):
                        goal = goals[i]
                        reached = hits.get((id(inst), i))
                        if reached is None:
                            reached = [e for e in inst.add if _match(goal, e, {}) is not None]
                            hits[id(inst), i] = reached
                        if not seq:
                            reached = reached + [f for f in at_start[i] if f not in deleted]
                        if reached:
                            # a matched fact is the goal's instance under the match
                            found[i] = Completion(
                                actions=new_seq,
                                entry_state=state,
                                achieved_goal=min(reached, key=render),
                            )
                            pending.remove(i)
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

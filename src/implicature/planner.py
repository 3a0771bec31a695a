"""Partial-order causal-link planner over belief-state operators.

States are sets of ground terms; negation is explicit not(...) plus delete
effects.  The planner searches ground operator instances: those of the
delete-relaxed closure of its initial facts (the gate's :class:`Closure`),
which holds every step a plan within the bound can use.  Every open
condition is a ground fact, closed by a causal link from an equal initial
fact, from an existing step that adds it, or from a new step taken from
the instances that add it.  Any step that adds or deletes a protected
condition and could come between the link's ends is a threat, resolved by
promotion or demotion only.  As in SNLP/UCPOP, a refinement checks only
the pairs it creates: a new link against every step, and a new step
against the links already there.  No final sweep is needed: steps are
ground and orderings only grow along a branch, so a pair that is no
threat when its later half appears never becomes one.  A goal with
variables is grounded over the closure's facts, and each grounding is
searched.  Iterative deepening on
step count makes the returned plan cost-minimal; among equal-cost plans
the least under ``_plan_key`` (operator names in linearized order first)
wins.  Every complete plan of the cheapest depth is compared, with no
cap, so identical inputs yield identical plans and the tie-break is
exact.  A caller that reads only the cost may skip the comparison
(``plan(..., tie_break=False)``) and take the first complete plan of the
cheapest depth.  A caller that has proved no acceptable plan is cheaper
than some cost may start the deepening there (``plan(..., min_cost=...)``):
the depths it skips hold no plan, so the result is the same.  A node with an
open condition that no initial fact, earlier step or new step can close is
dropped before it is expanded (forward checking).

Besides plan construction this module provides the plan-comparison
machinery the goal-ascription rules need: simulation, asserted states and
exclusive states.  Recognition and the efficiency audit plan over the
recognized candidate's closure (:mod:`closure`), the audit only below the
recognized plan's cost, and joint planning over that closure extended with
the second goal's seeds.  Completion search and DOT export are in
:mod:`completion`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .closure import (
    Closure,
    PlannerError,
    _constraints_of,
    _ground_instances,
    _instantiate,
    _propagate_constraints,
)
from .terms import Atom, Compound, Term, is_ground, render, variables

INIT_ID = 0
GOAL_ID = 1
FIRST_STEP_ID = 2

#: Default search bound on plan steps; CLI-overridable.
DEFAULT_BOUND = 8


class CycleError(RuntimeError):
    """Ordering constraints are cyclic: internal invariant violation."""


class PreconditionFailure(RuntimeError):
    """Simulation hit an operator whose preconditions do not hold."""

    def __init__(self, index: int, condition: Term) -> None:
        super().__init__(f"step {index}: unmet precondition {render(condition)}")
        self.index = index
        self.condition = condition


@dataclass(frozen=True)
class Operator:
    """An action schema or instance.

    ``args`` may contain variables (schema) or be ground (instance); every
    variable in the effects and the actor must appear in the args or be
    bound by a topic constraint, and every precondition variable must too
    or be anonymous.  Every arg and add-effect variable must also occur in
    a precondition or in a topic constraint over bound variables.
    ``actor`` names the agent that performs the action (used by the
    causality side-condition).
    ``topic_constraints`` are (proposition, topic) pairs where the topic
    term must equal the proposition's root functor, looking through not().
    ``positive_constraints`` are terms that may not instantiate to a
    negation (dialogue acts carry positive content; denial is its own act).
    The constructor does not check these rules: :func:`validate_operator`
    does, once, where operators come in from scenario text.
    """

    name: str
    args: tuple[Term, ...] = ()
    preconditions: tuple[Term, ...] = ()
    add: tuple[Term, ...] = ()
    delete: tuple[Term, ...] = ()
    actor: Term | None = None
    topic_constraints: tuple[tuple[Term, Term], ...] = ()
    positive_constraints: tuple[Term, ...] = ()

    def head(self) -> Term:
        if self.args:
            return Compound(self.name, self.args)
        return Atom(self.name)

    def substituted(self, bindings: Mapping[str, Term]) -> Operator:
        """The instance under the ground ``bindings``; a PlannerError when
        they leave a variable of any field free."""

        def ground(t: Term) -> Term:
            out = _instantiate(t, bindings)
            if out is None:
                raise PlannerError(f"operator {self.name}: an instance is not ground")
            return out

        return Operator(
            name=self.name,
            args=tuple(map(ground, self.args)),
            preconditions=tuple(map(ground, self.preconditions)),
            add=tuple(map(ground, self.add)),
            delete=tuple(map(ground, self.delete)),
            actor=None if self.actor is None else ground(self.actor),
            topic_constraints=tuple((ground(p), ground(t)) for p, t in self.topic_constraints),
            positive_constraints=tuple(map(ground, self.positive_constraints)),
        )


def _unbound_variable(op: Operator) -> str | None:
    """A variable of op's args or add-effects that neither its preconditions
    nor its topic constraints bind, if any."""
    bound: set[str] = set()
    for p in op.preconditions:
        bound |= variables(p)
    for p, t in op.topic_constraints:
        if variables(p) <= bound:
            bound |= variables(t)
    for t in op.args + op.add:
        free = variables(t) - bound
        if free:
            return min(free)
    return None


def validate_operator(op: Operator) -> None:
    """Raise PlannerError unless every variable of op's effects and actor is
    among its args or bound by a topic constraint, every precondition
    variable is too or is anonymous, every arg and add-effect variable
    occurs in a precondition or a topic constraint over bound variables,
    and no term is both added and deleted.

    The third rule is Datalog's safety (range restriction): matching the
    preconditions against ground facts grounds every instance, so forward
    grounding (the relevance gate, completion search) finds them all, and
    the states it builds from ground facts stay ground.
    """
    allowed = variables(op.head())
    for _, t in op.topic_constraints:
        allowed |= variables(t)
    effects_and_actor = op.add + op.delete + ((op.actor,) if op.actor is not None else ())
    for group, anonymous_ok in ((op.preconditions, True), (effects_and_actor, False)):
        for t in group:
            for v in variables(t):
                if v not in allowed and not (anonymous_ok and v.startswith("_a")):
                    raise PlannerError(
                        f"operator {op.name}: variable ?{v} not among parameters"
                    )
    name = _unbound_variable(op)
    if name is not None:
        raise PlannerError(f"operator {op.name}: variable ?{name} bound by no precondition")
    overlap = {render(t) for t in op.add} & {render(t) for t in op.delete}
    if overlap:
        raise PlannerError(f"operator {op.name}: add/delete overlap {overlap}")


@dataclass(frozen=True)
class CausalLink:
    producer: int
    condition: Term
    consumer: int


@dataclass(frozen=True)
class Plan:
    """A complete partial-order plan: every condition has a causal link and
    every step is ground.  Steps exclude the init/goal pseudo-steps."""

    steps: dict[int, Operator]
    initial: tuple[Term, ...]
    goal_conditions: tuple[Term, ...]
    orderings: frozenset[tuple[int, int]]
    links: frozenset[CausalLink]


def cost(p: Plan) -> int:
    """Number of plan steps, pseudo-steps excluded."""
    return len(p.steps)


def _reachable(orderings: frozenset[tuple[int, int]], start: int) -> set[int]:
    succ: dict[int, list[int]] = {}
    for a, b in orderings:
        succ.setdefault(a, []).append(b)
    seen: set[int] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _ordered_before(orderings: frozenset[tuple[int, int]], a: int, b: int) -> bool:
    return b in _reachable(orderings, a)


def linearize(p: Plan) -> list[int]:
    """Total order of step ids consistent with the ordering constraints.

    Deterministic: among ready steps the smallest id goes first.
    """
    ids = set(p.steps)
    indeg: dict[int, int] = {i: 0 for i in ids}
    succ: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in p.orderings:
        if a in ids and b in ids:
            succ[a].append(b)
            indeg[b] += 1
    ready = [i for i in sorted(ids) if indeg[i] == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        out.append(node)
        for nxt in sorted(succ[node]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(out) != len(ids):
        raise CycleError("ordering constraints contain a cycle")
    return out


def simulate(initial: list[Term] | tuple[Term, ...], seq: list[Operator]) -> set[Term]:
    """Run a ground operator sequence forward; error at the first unmet precondition."""
    state = set(initial)
    for i, op in enumerate(seq):
        if not is_ground(op.head()):
            raise PlannerError(f"simulate needs ground operators, got {render(op.head())}")
        for cond in op.preconditions:
            if cond not in state:
                raise PreconditionFailure(i, cond)
        state -= set(op.delete)
        state |= set(op.add)
    return state


def asserted_states(p: Plan) -> list[tuple[int, Term]]:
    """Initial facts and every step's add-effects, tagged with the producer.

    Order: init facts first, then steps in linearization order; the first
    producer of a repeated term wins.
    """
    out: list[tuple[int, Term]] = []
    seen: set[Term] = set()
    for f in p.initial:
        if f not in seen:
            seen.add(f)
            out.append((INIT_ID, f))
    for sid in linearize(p):
        for e in p.steps[sid].add:
            if e not in seen:
                seen.add(e)
                out.append((sid, e))
    return out


def exclusive_states(a: Plan, b: Plan) -> list[Term]:
    """States asserted in a and not asserted in b, in a's order.

    A complete plan's asserted states are ground (:func:`plan` takes ground
    initial facts and its steps are ground instances), so a state of a
    matches a state of b only when it is that state.
    """
    b_states = {t for _, t in asserted_states(b)}
    return [t for _, t in asserted_states(a) if t not in b_states]


# ---------------------------------------------------------------------------
# Systematic causal-link search over ground instances
# ---------------------------------------------------------------------------


class _Node(NamedTuple):
    """A search node.  Children are built with the positional constructor
    (fields in this order), which is cheaper than copying a dataclass."""

    steps: tuple[tuple[int, Operator], ...]
    agenda: tuple[tuple[int, Term], ...]
    orderings: frozenset[tuple[int, int]]
    links: tuple[CausalLink, ...]
    threats: tuple[tuple[CausalLink, int, Operator], ...]


@dataclass
class _Problem:
    """One :func:`plan` call: its initial facts (``facts`` as a set), the
    closure new steps come from, and the goal and step limit under way."""

    initial: tuple[Term, ...]
    goal: tuple[Term, ...]
    closure: Closure
    limit: int
    facts: frozenset[Term]


def _is_threat(
    orderings: frozenset[tuple[int, int]], link: CausalLink, sid: int, op: Operator
) -> bool:
    """Step ``sid`` (operator ``op``) adds or deletes the protected
    condition and could come between the link's producer and consumer
    under ``orderings``."""
    if sid in (link.producer, link.consumer):
        return False
    if link.condition not in op.add and link.condition not in op.delete:
        return False
    return not (
        _ordered_before(orderings, sid, link.producer)
        or _ordered_before(orderings, link.consumer, sid)
    )


def _add_ordering(
    orderings: frozenset[tuple[int, int]], a: int, b: int
) -> frozenset[tuple[int, int]] | None:
    if a == b:
        return None
    if (a, b) in orderings:
        return orderings
    if _ordered_before(orderings, b, a):
        return None
    return orderings | {(a, b)}


def _with_link(
    node: _Node,
    producer: int,
    cond: Term,
    consumer: int,
    new_step: Operator | None = None,
) -> _Node | None:
    """The node plus a causal link, or None when its ordering clashes.

    Queues only the threats this refinement creates: the new link against
    every step and, when the producer is ``new_step`` (just added), that
    step against the links already there.  Queued entries that stop being
    threats are dropped when popped.
    """
    orderings = node.orderings
    if producer != INIT_ID:
        maybe = _add_ordering(orderings, producer, consumer)
        if maybe is None:
            return None
        orderings = maybe
    link = CausalLink(producer, cond, consumer)
    found: list[tuple[CausalLink, int, Operator]] = []
    if new_step is not None:
        found.extend(
            (old, producer, new_step)
            for old in node.links
            if _is_threat(orderings, old, producer, new_step)
        )
    found.extend(
        (link, sid, op) for sid, op in node.steps if _is_threat(orderings, link, sid, op)
    )
    return _Node(
        node.steps, node.agenda, orderings, node.links + (link,), node.threats + tuple(found)
    )


def _may_close(prob: _Problem, node: _Node, consumer: int, cond: Term) -> bool:
    """Whether some refinement of ``node`` may still close the open condition
    ``cond`` of step ``consumer``: an initial fact equals it, a new step
    within the step limit adds it (an instance of the closure does), or a
    step other than the consumer that is not ordered after it adds it.

    Along a branch orderings and steps only grow, so a False answer stays
    False in every descendant.
    """
    if cond in prob.facts or (len(node.steps) < prob.limit and prob.closure.achievers(cond)):
        return True
    after = _reachable(node.orderings, consumer)
    for sid, op in node.steps:
        if sid != consumer and sid not in after and cond in op.add:
            return True
    return False


def _expand(prob: _Problem, node: _Node) -> list[_Node] | None:
    """Children of a search node; None when the node is complete.

    Threats come first, then the first open condition on the agenda (FIFO).
    Before that condition is refined, forward checking (Haralick & Elliott
    1980) drops the node when another open condition has no possible
    refinement (:func:`_may_close`); a first condition with none yields no
    child anyway.  No complete plan lies below a dropped node, and the live
    nodes keep their order, so the search finds the same plans.  The check
    runs at every expansion.  The condition is closed by an equal initial
    fact, by a step that adds it and may come before its consumer, or by a
    new step from the instances that add it (:meth:`Closure.achievers`).
    """
    # resolve threats first
    steps, agenda, orderings, links, threats = node
    while threats:
        (link, sid, op), threats = threats[0], threats[1:]
        if not _is_threat(orderings, link, sid, op):
            continue
        children = []
        promoted = _add_ordering(orderings, sid, link.producer)
        if promoted is not None:
            children.append(_Node(steps, agenda, promoted, links, threats))
        demoted = _add_ordering(orderings, link.consumer, sid)
        if demoted is not None:
            children.append(_Node(steps, agenda, demoted, links, threats))
        return children
    if not agenda:
        return None
    if not all(_may_close(prob, node, c, cond) for c, cond in agenda[1:]):
        return []
    (consumer, cond), agenda = agenda[0], agenda[1:]
    node = _Node(steps, agenda, orderings, links, ())
    children: list[_Node] = []
    producers = [INIT_ID] if cond in prob.facts else []
    producers += [
        sid
        for sid, op in steps
        if sid != consumer
        and cond in op.add
        and not _ordered_before(orderings, consumer, sid)
    ]
    for pid in producers:
        child = _with_link(node, pid, cond, consumer)
        if child is not None:
            children.append(child)
    if len(steps) < prob.limit:
        sid = FIRST_STEP_ID + len(steps)
        grown = orderings | {(INIT_ID, sid), (sid, GOAL_ID)}
        for inst in prob.closure.achievers(cond):
            base = _Node(
                steps + ((sid, inst),),
                agenda + tuple((sid, p) for p in inst.preconditions),
                grown,
                links,
                (),
            )
            child = _with_link(base, sid, cond, consumer, inst)
            if child is not None:
                children.append(child)
    return children


def _finish(prob: _Problem, node: _Node) -> Plan:
    return Plan(
        steps=dict(node.steps),
        initial=prob.initial,
        goal_conditions=prob.goal,
        orderings=_canonical(node.orderings),
        links=frozenset(node.links),
    )


def _canonical(orderings: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """``orderings`` without the step-to-step pairs the others imply.

    Which redundant orderings a branch adds depends on when it meets each
    threat, not on the plan; dropping them (the transitive reduction among
    the steps of an acyclic order) leaves one ordering set per plan.  The
    pairs with the init or goal pseudo-step stay.
    """
    succ: dict[int, list[int]] = {}
    for a, b in orderings:
        succ.setdefault(a, []).append(b)
    return frozenset(
        (a, b)
        for a, b in orderings
        if a < FIRST_STEP_ID
        or b < FIRST_STEP_ID
        or not any(b in _reachable(orderings, c) for c in succ[a] if c != b)
    )


def _search_depth(
    prob: _Problem,
    root: _Node,
    connected_from: int | None,
    best: tuple | None,
    tie_break: bool,
) -> tuple | None:
    """The least of ``best`` and every complete plan within ``prob.limit``
    steps under :func:`_plan_key`, as a (key, plan) pair, or None.  With
    ``connected_from``, only plans whose causal links route that step to
    the goal count.  Without ``tie_break``, the first complete plan found
    is returned at once, with no key."""
    stack = [root]
    while stack:
        node = stack.pop()
        children = _expand(prob, node)
        if children is None:
            plan = _finish(prob, node)
            if connected_from is not None and not _ordered_before(
                frozenset((l.producer, l.consumer) for l in plan.links), connected_from, GOAL_ID
            ):
                continue
            if not tie_break:
                return (None, plan)
            key = _plan_key(plan)
            if best is None or key < best[0]:
                best = (key, plan)
            continue
        stack.extend(reversed(children))
    return best


def _plan_key(p: Plan) -> tuple:
    """The tie-break among equal-cost plans: operator names in linearized
    order, then step heads, links and orderings, then the goal conditions
    (two goals that ground to one fact share one link, so the links alone
    do not tell such groundings apart)."""
    order = linearize(p)
    names = tuple(p.steps[sid].name for sid in order)
    heads = tuple(render(p.steps[sid].head()) for sid in order)
    links = tuple(
        sorted(
            (l.producer, render(l.condition), l.consumer) for l in p.links
        )
    )
    goals = tuple(map(render, p.goal_conditions))
    return (names, heads, links, tuple(sorted(p.orderings)), goals)


def plan(
    initial: list[Term] | tuple[Term, ...],
    goal: Term | list[Term] | tuple[Term, ...],
    ops: list[Operator] | tuple[Operator, ...],
    bound: int = DEFAULT_BOUND,
    required_step: Operator | None = None,
    *,
    min_cost: int = 0,
    closure: Closure | None = None,
    tie_break: bool = True,
) -> Plan | None:
    """Minimal-cost complete plan within the step bound, or None.

    ``required_step`` pre-seeds a mandatory step, which must be ground in
    every part, and the plan must route a causal-link path from that step
    to the goal.  Iterative deepening on step count guarantees minimality.
    Ties break on the linearized operator name sequence, then on step
    heads, links and orderings, over every complete plan of that cost: the
    result is the lexicographically least one.

    The steps are ground instances of ``ops`` from ``closure``: the
    delete-relaxed closure of the initial facts and the required step's
    add-effects, capped at ``bound`` rounds (built here when None, which
    checks that the facts are ground).  Every step of a plan within the
    bound is relaxed-reachable in fewer than ``bound`` rounds, so the
    closure holds it; a closure of more facts, or one that ran more rounds,
    holds more instances but admits the same plans.  A goal with variables
    is grounded over the closure's facts, each grounding is searched, and
    the least plan over all of them is the result.

    The search drops a node as soon as one of its open conditions can no
    longer be closed: no initial fact equals it, no step that may come
    before its consumer adds it, and no new step can (the step limit is
    reached, or no instance adds it).  This forward check removes only
    nodes below which no complete plan lies, so the result is that of the
    unpruned search.

    ``min_cost`` is a lower bound the caller has proved on the cost of
    every plan this call accepts; deepening starts there instead of at the
    seeded step count.  Each depth is searched on its own, and the depths
    skipped hold no acceptable plan, so the result is the one a search
    from the seeded step count returns.  The bound must be proved, not
    guessed: a plan cheaper than ``min_cost`` is never found.

    With ``tie_break`` false, the search stops at the first complete plan
    of the first depth that has one, and skips the comparison among
    equal-cost plans.  That plan has the minimal cost, but it need not be
    the least under the tie-break, so a caller that passes False relies on
    nothing but the plan's cost.
    """
    if bound < 1:
        raise PlannerError("bound must be >= 1")
    initial = tuple(initial)
    goals = tuple(goal) if isinstance(goal, (list, tuple)) else (goal,)
    ops = tuple(ops)

    steps: tuple[tuple[int, Operator], ...] = ()
    agenda: tuple[tuple[int, Term], ...] = ()
    orderings: frozenset[tuple[int, int]] = frozenset({(INIT_ID, GOAL_ID)})
    seeded: tuple[Term, ...] = ()
    if required_step is not None:
        r = required_step
        if not all(map(is_ground, (r.head(), *r.preconditions, *r.add, *r.delete))):
            raise PlannerError("required step must be ground")
        steps = ((FIRST_STEP_ID, r),)
        orderings = orderings | {(INIT_ID, FIRST_STEP_ID), (FIRST_STEP_ID, GOAL_ID)}
        agenda = tuple((FIRST_STEP_ID, p) for p in r.preconditions)
        seeded = r.add
    if closure is None:
        closure = Closure(initial + seeded, ops, bound)
    elif closure.bound < bound or (closure.ops is not ops and closure.ops != ops):
        raise PlannerError("a closure handed to plan must be over its operators and bound")
    groundings = [
        inst.preconditions
        for inst in _ground_instances(Operator("goal", preconditions=goals), closure.index)
    ]
    if required_step is not None and _propagate_constraints(
        {}, _constraints_of(required_step)
    ) is None:
        # the step breaks its own topic or positivity constraint
        groundings = []
    prob = _Problem(
        initial=initial, goal=goals, closure=closure, limit=0, facts=frozenset(initial)
    )
    start = max(len(steps), min_cost)
    connected_from = FIRST_STEP_ID if required_step is not None else None
    for limit in range(start, bound + 1):
        prob.limit = limit
        best = None
        for grounding in groundings:
            prob.goal = grounding
            root = _Node(
                steps=steps,
                agenda=tuple((GOAL_ID, g) for g in grounding) + agenda,
                orderings=orderings,
                links=(),
                threats=(),
            )
            best = _search_depth(prob, root, connected_from, best, tie_break)
            if best is not None and not tie_break:
                break
        if best is not None:
            return best[1]
    return None

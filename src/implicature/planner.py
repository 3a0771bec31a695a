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
exact.  A caller that has proved no acceptable plan is cheaper than some
cost may start the deepening there (``plan(..., min_cost=...)``): the
depths it skips hold no plan, so the result is the same.  A node with an
open condition that no initial fact, earlier step or new step can close is
dropped before it is expanded (forward checking).

Besides plan construction this module provides the plan-comparison
machinery the goal-ascription rules need: simulation, asserted states,
exclusive states, and completion search (for each of several goals, a
shortest ordered action sequence entered from a designated state, found by
one breadth-first search shared by all the goals); and the relevance gate
recognition runs before planning (delete-relaxed reachability over ground
operator instances, then the shortest chain of those instances from the
utterance's add-effects to the goal, which also bounds the plan's cost
from below).  The gate builds one relaxed closure per turn, semi-naively
and for at most ``bound`` rounds, or extends the one an earlier turn's
gate carried when that gives the same closure, and extends it with each
candidate goal's seeds; recognition and the efficiency audit plan over the
recognized candidate's closure, and joint planning over that closure
extended with the second goal's seeds.  Completion search reads the
candidate's closure when that reached its fixpoint, and otherwise grows a
closure of its ambient facts, one round per search level it reaches; the
searches from every entry state of an ascription rule share it, and a
state's applicable instances are those whose preconditions it holds.  All
of them ground operators with one matcher and one closure routine: each
precondition is matched one way against ground facts, binding variables in
a plain dict, and the candidate facts come from an index on root and first
argument (Warren 1983; Ramakrishnan, Sekar & Voronkov 2001, "Term
indexing").  The goal tests of the gate and of completion search use the
same matcher.  Each instance is built once from its bindings by
:func:`_instantiate`, the module's only substitution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import chain
from typing import Collection, Iterable, Mapping, Sequence

from .terms import (
    MAX_TERM_DEPTH,
    Atom,
    Compound,
    Term,
    TermError,
    Var,
    _atom,
    _compound,
    is_ground,
    render,
    variables,
)

INIT_ID = 0
GOAL_ID = 1
FIRST_STEP_ID = 2

#: Default search bound on plan steps; CLI-overridable.
DEFAULT_BOUND = 8

#: Deepest fact the gate and completion search may derive: an input term
#: (at most ``MAX_TERM_DEPTH``) plus half as many levels again for the
#: belief paths and effects wrapped around it.  Rendering or comparing a
#: term takes about four interpreter frames per level, so facts this deep
#: stay well inside Python's recursion limit.  An operator instance that
#: would add a deeper fact is an input error (:class:`TermError`).
MAX_DERIVED_DEPTH = MAX_TERM_DEPTH + MAX_TERM_DEPTH // 2


class PlannerError(ValueError):
    pass


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
# Systematic causal-link search over ground instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
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


def _is_threat(node: _Node, link: CausalLink, sid: int, op: Operator) -> bool:
    """Step ``sid`` (operator ``op``) adds or deletes the protected
    condition and could come between the link's producer and consumer."""
    if sid in (link.producer, link.consumer):
        return False
    if link.condition not in op.add and link.condition not in op.delete:
        return False
    return not (
        _ordered_before(node.orderings, sid, link.producer)
        or _ordered_before(node.orderings, link.consumer, sid)
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
    candidate = replace(node, orderings=orderings, links=node.links + (link,))
    found: list[tuple[CausalLink, int, Operator]] = []
    if new_step is not None:
        found.extend(
            (old, producer, new_step)
            for old in node.links
            if _is_threat(candidate, old, producer, new_step)
        )
    found.extend(
        (link, sid, op) for sid, op in node.steps if _is_threat(candidate, link, sid, op)
    )
    return replace(candidate, threats=node.threats + tuple(found))


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
    while node.threats:
        (link, sid, op), rest = node.threats[0], node.threats[1:]
        node = replace(node, threats=rest)
        if not _is_threat(node, link, sid, op):
            continue
        children = []
        promoted = _add_ordering(node.orderings, sid, link.producer)
        if promoted is not None:
            children.append(replace(node, orderings=promoted))
        demoted = _add_ordering(node.orderings, link.consumer, sid)
        if demoted is not None:
            children.append(replace(node, orderings=demoted))
        return children
    if not node.agenda:
        return None
    if not all(_may_close(prob, node, c, cond) for c, cond in node.agenda[1:]):
        return []
    (consumer, cond), agenda = node.agenda[0], node.agenda[1:]
    node = replace(node, agenda=agenda)
    children: list[_Node] = []
    producers = [INIT_ID] if cond in prob.facts else []
    producers += [
        sid
        for sid, op in node.steps
        if sid != consumer
        and cond in op.add
        and not _ordered_before(node.orderings, consumer, sid)
    ]
    for pid in producers:
        child = _with_link(node, pid, cond, consumer)
        if child is not None:
            children.append(child)
    if len(node.steps) < prob.limit:
        sid = FIRST_STEP_ID + len(node.steps)
        orderings = node.orderings | {(INIT_ID, sid), (sid, GOAL_ID)}
        for inst in prob.closure.achievers(cond):
            base = replace(
                node,
                steps=node.steps + ((sid, inst),),
                agenda=node.agenda + tuple((sid, p) for p in inst.preconditions),
                orderings=orderings,
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
    prob: _Problem, root: _Node, connected_from: int | None, best: tuple | None
) -> tuple | None:
    """The least of ``best`` and every complete plan within ``prob.limit``
    steps under :func:`_plan_key`, as a (key, plan) pair, or None.  With
    ``connected_from``, only plans whose causal links route that step to
    the goal count."""
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


def _check_ground(facts: tuple[Term, ...], what: str) -> None:
    for f in facts:
        if not is_ground(f):
            raise PlannerError(f"{what} must be ground, got {render(f)}")


def plan(
    initial: list[Term] | tuple[Term, ...],
    goal: Term | list[Term] | tuple[Term, ...],
    ops: list[Operator] | tuple[Operator, ...],
    bound: int = DEFAULT_BOUND,
    required_step: Operator | None = None,
    *,
    min_cost: int = 0,
    closure: Closure | None = None,
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
            best = _search_depth(prob, root, connected_from, best)
        if best is not None:
            return best[1]
    return None


# ---------------------------------------------------------------------------
# Ground matching and the delete-relaxed closure: one one-way matcher over
# an indexed ground state and one semi-naive closure, grown round by round,
# serve the relevance gate, plan's goal groundings and completion search
# ---------------------------------------------------------------------------


def _key(t: Term) -> tuple[str, int] | None:
    if isinstance(t, Compound):
        return t.functor, len(t.args)
    if isinstance(t, Atom):
        return t.name, 0
    return None


class _FactIndex:
    """The facts of one ground state in render order, bucketed by (functor,
    arity) and, within a bucket, by first argument, plus any facts added
    later.

    ``buckets`` maps a root (functor, arity) to its facts, and ``firsts``
    maps a root and a first argument to the facts of that bucket with that
    first argument (the sub-bucket a pattern with a bound first argument
    is matched against).  Every list keeps the render order, so the facts
    of a list that match a pattern come in the same order as scanning the
    whole sorted state would find them.  Added facts go after the others,
    in the order given, in every list they belong to.  The state and each
    batch of added facts hold distinct facts.  The states are ground
    because the callers check their input facts and
    :func:`validate_operator` keeps every instance's effects ground.  An
    index lives as long as the closure that owns it, and holds nothing but
    facts.
    """

    __slots__ = ("facts", "members", "buckets", "firsts")

    def __init__(self, state: Collection[Term] = ()) -> None:
        self.facts: list[Term] = []
        self.members: set[Term] = set()
        self.buckets: dict[tuple[str, int] | None, list[Term]] = {}
        self.firsts: dict[tuple[tuple[str, int] | None, Term], list[Term]] = {}
        self.add(sorted(state, key=render))

    def add(self, facts: Collection[Term]) -> None:
        """Index ``facts``, distinct and none indexed yet, after the others."""
        for f in facts:
            self.facts.append(f)
            key = _key(f)
            self.buckets.setdefault(key, []).append(f)
            if isinstance(f, Compound):
                self.firsts.setdefault((key, f.args[0]), []).append(f)
        self.members.update(facts)

    def copy(self, size: int | None = None) -> _FactIndex:
        """A copy of the index of its first ``size`` facts (all by default):
        the later facts are the last of every list they are in."""
        twin = _FactIndex()
        twin.facts = self.facts[:size]
        twin.buckets = {k: list(v) for k, v in self.buckets.items()}
        twin.firsts = {k: list(v) for k, v in self.firsts.items()}
        dropped = self.facts[len(twin.facts):]
        for f in reversed(dropped):
            key = _key(f)
            twin.buckets[key].pop()
            if isinstance(f, Compound):
                twin.firsts[key, f.args[0]].pop()
        twin.members = self.members.difference(dropped) if dropped else set(self.members)
        return twin

    def candidates(self, pattern: Term, bindings: dict[str, Term]) -> Sequence[Term]:
        """The facts that may match ``pattern`` under the ground
        ``bindings``, in index order.

        These are the facts that share the pattern's root and, when the
        bindings ground it, its first argument (every fact, for a free
        variable).  When the bindings ground the whole pattern and several
        facts share its first argument, a membership test replaces the
        scan: the candidates are the pattern's instance if the index holds
        it, else none.
        """
        if isinstance(pattern, Var):
            bound = bindings.get(pattern.name)
            if bound is None:
                return self.facts
            return (bound,) if bound in self.members else ()
        if isinstance(pattern, Atom):
            return (pattern,) if pattern in self.members else ()
        key = (pattern.functor, len(pattern.args))
        first = _instantiate(pattern.args[0], bindings)
        if first is None:
            return self.buckets.get(key, ())
        found = self.firsts.get((key, first), ())
        if len(found) > 1:
            fact = _instantiate(pattern, bindings)
            if fact is not None:
                return (fact,) if fact in self.members else ()
        return found


def _instantiate(t: Term, bindings: Mapping[str, Term]) -> Term | None:
    """``t`` under the ground ``bindings``, or None when they leave one of
    its variables free.  A subterm the bindings leave unchanged (ground, or
    a bound variable's value) is returned as the same object, not rebuilt."""
    if isinstance(t, Var):
        return bindings.get(t.name)
    if isinstance(t, Compound):
        args = []
        changed = False
        for a in t.args:
            arg = _instantiate(a, bindings)
            if arg is None:
                return None
            changed = changed or arg is not a
            args.append(arg)
        return _compound(t.functor, tuple(args)) if changed else t
    return t


def _match(pattern: Term, fact: Term, bindings: dict[str, Term]) -> dict[str, Term] | None:
    """``bindings`` extended so that ``pattern`` instantiates to the ground
    ``fact``, or None.

    One-way matching: the fact and the bindings are ground, so there is no
    occurs check and no chain of bindings to walk.  ``bindings`` is never
    changed; it is returned itself when the match binds nothing new, and
    copied only when a match succeeds with new bindings.
    """
    new: dict[str, Term] = {}
    if not _match_into(pattern, fact, bindings, new):
        return None
    return {**bindings, **new} if new else bindings


def _match_into(
    pattern: Term, fact: Term, bindings: dict[str, Term], new: dict[str, Term]
) -> bool:
    if isinstance(pattern, Var):
        bound = bindings.get(pattern.name)
        if bound is None:
            bound = new.setdefault(pattern.name, fact)
        return bound is fact or bound == fact
    if isinstance(pattern, Compound):
        if (
            not isinstance(fact, Compound)
            or pattern.functor != fact.functor
            or len(pattern.args) != len(fact.args)
        ):
            return False
        for p, f in zip(pattern.args, fact.args):
            if not _match_into(p, f, bindings, new):
                return False
        return True
    return pattern == fact


def _strip_not(t: Term, bindings: dict[str, Term]) -> Term:
    """``t`` under the ground ``bindings``, looking through not(), down to
    a variable the bindings leave free or a term that is not a negation."""
    while True:
        if isinstance(t, Var):
            t = bindings.get(t.name, t)
            if isinstance(t, Var):
                return t
        if not (isinstance(t, Compound) and t.functor == "not" and len(t.args) == 1):
            return t
        t = t.args[0]


Constraint = tuple[str, Term, "Term | None"]


def _constraints_of(op: Operator) -> tuple[Constraint, ...]:
    out: list[Constraint] = [("topic", p, t) for p, t in op.topic_constraints]
    out.extend(("positive", p, None) for p in op.positive_constraints)
    return tuple(out)


def _propagate_constraints(
    bindings: dict[str, Term], constraints: tuple[Constraint, ...]
) -> tuple[dict[str, Term], tuple[Constraint, ...]] | None:
    """Resolve topic/positivity constraints under the ground ``bindings``;
    None on a clash.

    Returns the bindings, extended by the topics the constraints fix (a
    copy when they fix one), and the constraints still pending on a free
    variable.
    """
    pending = constraints
    changed = True
    while changed and pending:
        changed = False
        rest: list[Constraint] = []
        for kind, p, t in pending:
            if kind == "positive":
                w = bindings.get(p.name, p) if isinstance(p, Var) else p
                if isinstance(w, Var):
                    rest.append((kind, p, t))
                elif isinstance(w, Compound) and w.functor == "not" and len(w.args) == 1:
                    return None
                continue
            w = _strip_not(p, bindings)
            if isinstance(w, Var):
                rest.append((kind, p, t))
                continue
            functor = w.functor if isinstance(w, Compound) else w.name
            assert t is not None
            topic = bindings.get(t.name, t) if isinstance(t, Var) else t
            if isinstance(topic, Var):
                bindings = {**bindings, topic.name: _atom(functor)}
                changed = True
            elif not (isinstance(topic, Atom) and topic.name == functor):
                return None
        pending = tuple(rest)
    return bindings, pending


def _ground_instances(
    op: Operator, index: _FactIndex, delta: _FactIndex | None = None
) -> list[Operator]:
    """All ground instantiations of op whose preconditions hold in the
    indexed (ground) state, in precondition-match order.

    Each precondition in turn is matched one way against the candidate
    facts the index gives for it under the bindings so far
    (:meth:`_FactIndex.candidates`), and the topic and positivity
    constraints resolve as bindings land, pruning early and binding topics
    before the preconditions that mention them are matched.

    With ``delta``, which holds some of the indexed facts (those new in the
    last round of a fixpoint), only the instances with a precondition in
    ``delta``, each found once: its first precondition that ``delta`` holds
    (the pivot) is matched first, against ``delta``; the preconditions
    before the pivot then match the other indexed facts, and those after
    it match every indexed fact.  An operator without preconditions has no
    such instance.  No instance is found twice: its preconditions are the
    facts it matched.  Raises :class:`PlannerError` for an instance the
    match leaves non-ground (an operator that :func:`validate_operator`
    would reject), then :class:`TermError` for one that would add a fact
    nested deeper than ``MAX_DERIVED_DEPTH``.
    """
    results: list[Operator] = []
    pre = op.preconditions

    def join(
        order: tuple[tuple[int, _FactIndex, _FactIndex | None], ...],
        k: int,
        bindings: dict[str, Term],
        constraints: tuple[Constraint, ...],
    ) -> None:
        propagated = _propagate_constraints(bindings, constraints)
        if propagated is None:
            return
        bindings, constraints = propagated
        if k == len(order):
            # a pending constraint's variable is free, which substituted rejects
            inst = op.substituted(bindings)
            if any(_depth(e) > MAX_DERIVED_DEPTH for e in inst.add):
                raise TermError(
                    f"operator {op.name} derives a fact nested deeper than "
                    f"{MAX_DERIVED_DEPTH} levels"
                )
            results.append(inst)
            return
        i, source, excluded = order[k]
        for f in source.candidates(pre[i], bindings):
            if excluded is not None and f in excluded.members:
                continue
            extended = _match(pre[i], f, bindings)
            if extended is not None:
                join(order, k + 1, extended, constraints)

    if delta is None:
        join(tuple((i, index, None) for i in range(len(pre))), 0, {}, _constraints_of(op))
        return results
    for pivot in range(len(pre)):
        key = _key(pre[pivot])
        if key is not None and key not in delta.buckets:
            continue
        order = (
            (pivot, delta, None),
            *((i, index, delta) for i in range(pivot)),
            *((i, index, None) for i in range(pivot + 1, len(pre))),
        )
        join(order, 0, {}, _constraints_of(op))
    return results


def _relaxed_levels(
    facts: tuple[Term, ...], instances: Iterable[Operator], size: int
) -> dict[Term, int] | None:
    """The relaxed level of each fact that ``instances`` derive from
    ``facts`` (h_max over them), round by round, or None when they reach
    fewer than ``size`` facts in all, ``facts`` included."""
    known = set(facts)
    levels: dict[Term, int] = {}
    pending = list(instances)
    level = 0
    while pending:
        level += 1
        new: dict[Term, int] = {}
        rest = []
        for inst in pending:
            if known.issuperset(inst.preconditions):
                new.update((e, level) for e in inst.add if e not in known)
            else:
                rest.append(inst)
        if not new:
            break
        known.update(new)
        levels.update(new)
        pending = rest
    return levels if len(known) == size else None


def _depth(t: Term) -> int:
    """Nesting depth (an atom or variable is 1), level by level, so that a
    fact past ``MAX_DERIVED_DEPTH`` is measured without recursion."""
    depth, level = 0, [t]
    while level:
        depth += 1
        level = [a for c in level if isinstance(c, Compound) for a in c.args]
    return depth


class Closure:
    """The delete-relaxed closure of the ground ``facts`` under ``ops``,
    grown semi-naively round by round, with the ground instances it found.

    ``index`` holds the facts and their consequences, ``actions[i]`` the
    instances of ``ops[i]``, ``rounds`` how many rounds have run and
    ``closed`` whether a round derived no new fact (the fixpoint).  The
    constructor runs :meth:`grow` to ``bound`` rounds, and so do
    :meth:`with_facts` and :meth:`extend`.  The constructor checks that
    ``facts`` are ground; so do :meth:`with_facts` and :meth:`extend` for
    the facts they add.  :meth:`achievers` maps a fact to the instances
    that add it, for :func:`plan`, and :meth:`rows` sorts each operator's
    instances, for :func:`complete_from`.

    Levels: ``levels`` maps each derived fact to an upper bound on its
    relaxed level from ``facts`` (h_max, Bonet & Geffner 2001: the round in
    which a fresh closure of ``facts`` derives it); a fact of ``facts`` has
    level 0 and no entry, and ``height`` is the largest level.  Both stay
    None until :meth:`extend` needs them.  An entry never changes:
    ``facts`` only grow, and more facts only lower a level.
    """

    __slots__ = ("facts", "ops", "bound", "index", "actions", "rounds", "closed", "levels",
                 "height", "_delta", "_achievers", "_rows", "_mark")

    def __init__(
        self,
        facts: Iterable[Term],
        ops: list[Operator] | tuple[Operator, ...],
        bound: int,
    ) -> None:
        if bound < 1:
            raise PlannerError("bound must be >= 1")
        self.facts = tuple(facts)
        _check_ground(self.facts, "initial facts")
        self.ops = tuple(ops)
        self.bound = bound
        self.levels: dict[Term, int] | None = None
        self.height: int | None = None
        self._mark: tuple[int, int, list[int], int | None] | None = None
        self._run(_FactIndex(set(self.facts)), None, [[] for _ in self.ops])

    def _run(
        self, index: _FactIndex, delta: _FactIndex | None, actions: list[list[Operator]]
    ) -> None:
        self.index = index
        self.actions = actions
        self.rounds = 0
        self.closed = False
        self._delta = delta
        self.grow(self.bound)

    def grow(self, rounds: int) -> None:
        """Run rounds until ``rounds`` have run in all or one derives no new
        fact.

        ``_delta`` holds the indexed facts no round has matched yet (None:
        all of them, and the round is one plain pass).  Each round grounds
        only the instances with a precondition in the last round's delta, so
        no instance is found twice; it appends each to ``actions[i]``, ``i``
        its operator's position in ``ops``, and indexes their new
        add-effects.  After ``r`` rounds, ``actions`` hold every instance
        whose preconditions all lie in the relaxed closure's level ``r - 1``.
        """
        while self.rounds < rounds and not self.closed:
            starts = None if self.levels is None else [len(found) for found in self.actions]
            new: dict[Term, None] = {}
            for op, found in zip(self.ops, self.actions):
                for inst in _ground_instances(op, self.index, self._delta):
                    found.append(inst)
                    new.update((e, None) for e in inst.add if e not in self.index.members)
            self.rounds += 1
            self._achievers = self._rows = None
            if new:
                self.index.add(new)
                self._delta = _FactIndex(new)
                if starts is not None:
                    self._level(new, starts)
            else:
                self.closed = True

    def _level(self, new: dict[Term, None], starts: list[int]) -> None:
        """Record the levels of the facts ``new`` in the last round, whose
        instances come after ``starts`` in ``actions``."""
        levels = self.levels
        assert levels is not None and self.height is not None
        for found, start in zip(self.actions, starts):
            for inst in found[start:]:
                level = 1 + max([levels.get(p, 0) for p in inst.preconditions], default=0)
                for e in inst.add:
                    if e in new and level < levels.get(e, level + 1):
                        levels[e] = level
        self.height = max(self.height, max(levels[e] for e in new))

    def with_facts(self, seeds: Iterable[Term]) -> Closure:
        """The closure of ``facts`` plus the ground ``seeds``.

        If this closure reached its fixpoint, a copy continues it with the
        seeds it lacks as the first delta.  If not, seeds may reach some of
        its facts in fewer rounds than it did, so the union is closed
        afresh.  With no seed to add, this closure itself.
        """
        seeds = tuple(seeds)
        _check_ground(seeds, "seed facts")
        fresh = [f for f in dict.fromkeys(seeds) if f not in self.index.members]
        if not (fresh or (seeds and not self.closed)):
            return self
        twin = Closure.__new__(Closure)
        twin.ops, twin.bound = self.ops, self.bound
        twin.levels = twin.height = twin._mark = None
        if self.closed:
            twin.facts = self.facts + tuple(fresh)
            index = self.index.copy()
            index.add(fresh)
            twin._run(index, _FactIndex(fresh), [list(found) for found in self.actions])
        else:
            twin.facts = self.facts + seeds
            twin._run(_FactIndex(set(twin.facts)), None, [[] for _ in self.ops])
        return twin

    def extend(self, facts: Iterable[Term]) -> None:
        """Add the ground ``facts`` to ``facts`` in place, and continue this
        closed closure with those it lacks as the first delta (as
        :meth:`with_facts` does on a copy).  A fact it derives is one level
        above the highest precondition of an instance that adds it; levels
        not recorded yet are found first (:func:`_relaxed_levels`)."""
        if not self.closed:
            raise PlannerError("only a closed closure is extended")
        if self.levels is None:
            levels = _relaxed_levels(self.facts, self.instances(), len(self.index.facts))
            assert levels is not None, "a closure derives every fact it holds"
            self.levels, self.height = levels, max(levels.values(), default=0)
        inputs = set(self.facts)
        added = tuple(f for f in dict.fromkeys(facts) if f not in inputs)
        fresh = tuple(f for f in added if f not in self.index.members)
        _check_ground(fresh, "added facts")
        self.facts += added
        if fresh:
            self.index.add(fresh)
            self._run(self.index, _FactIndex(fresh), self.actions)

    def checkpoint(self) -> None:
        """Mark this closure as it stands, closed, for :meth:`resumed`."""
        if not self.closed:
            raise PlannerError("only a closed closure is marked")
        self._mark = (
            len(self.facts), len(self.index.facts), [len(f) for f in self.actions], self.height
        )

    def resumed(self, facts: Iterable[Term]) -> Closure | None:
        """A copy of this closure as it stood at its :meth:`checkpoint`,
        extended with ``facts``; None without a checkpoint.

        What came after the checkpoint ends every list, so the copy cuts
        each list there.  A fact it was closed over that ``facts`` lack is
        dropped from its facts when its instances derive it from the rest
        (a deletion with nothing to delete, in Gupta, Mumick & Subrahmanian
        1993's terms), and the copy is None when they do not.  The levels
        are then found again, as when none were recorded."""
        if self._mark is None:
            return None
        count, size, lengths, height = self._mark
        facts = tuple(facts)
        given = set(facts)
        kept = self.facts[:count]
        actions = [found[:n] for found, n in zip(self.actions, lengths)]
        if height is not None and given.issuperset(kept):
            assert self.levels is not None
            levels = dict(self.levels)
            for f in self.index.facts[size:]:
                levels.pop(f, None)
        else:
            kept = tuple(f for f in kept if f in given)
            found = _relaxed_levels(kept, chain.from_iterable(actions), size)
            if found is None:
                return None
            levels, height = found, max(found.values(), default=0)
        twin = Closure.__new__(Closure)
        twin.facts, twin.ops, twin.bound = kept, self.ops, self.bound
        twin.index = self.index.copy(size)
        twin.actions = actions
        twin.levels, twin.height, twin._mark = levels, height, None
        twin.rounds, twin.closed, twin._delta = 0, True, None
        twin._achievers = twin._rows = None
        twin.extend(facts)
        return twin

    def instances(self) -> Iterable[Operator]:
        return chain.from_iterable(self.actions)

    def achievers(self, fact: Term) -> Sequence[Operator]:
        """The instances that add ``fact``, in ``ops`` order and, within an
        operator, in the order the rounds found them."""
        if self._achievers is None:
            self._achievers = {}
            for inst in self.instances():
                for e in dict.fromkeys(inst.add):
                    self._achievers.setdefault(e, []).append(inst)
        return self._achievers.get(fact, ())

    def rows(self) -> list[list[Operator]]:
        """Each operator's instances, in ``ops`` order, sorted by their
        preconditions' renders: the order in which matching a state's facts
        sorted by render finds them.  No two instances of one operator share
        their preconditions (:func:`validate_operator` puts every head
        variable in one), so the instances a state admits come in one order
        from any closure that holds them."""
        if self._rows is None:
            self._rows = [
                sorted(found, key=lambda inst: tuple(map(render, inst.preconditions)))
                for found in self.actions
            ]
        return self._rows


# ---------------------------------------------------------------------------
# Relevance gate
# ---------------------------------------------------------------------------


def _chain_depth(goal: Term, start: tuple[Term, ...], actions: Iterable[Operator]) -> int | None:
    """The first layer of the chain from ``start`` over ``actions`` with a
    fact that ``goal`` matches, or None."""
    layer = set(start)
    seen = set(layer)
    pending = actions
    depth = 0
    while layer:
        if any(_match(goal, f, {}) is not None for f in layer):
            return depth
        nxt: set[Term] = set()
        rest: list[Operator] = []
        for a in pending:
            if any(p in layer for p in a.preconditions):
                nxt.update(e for e in a.add if e not in seen)
            else:
                rest.append(a)
        pending = rest
        seen |= nxt
        layer = nxt
        depth += 1
    return None


class RelevanceGate:
    """The relevance gate of one turn: for each candidate goal, the fewest
    actions a chain from the ground utterance ``step`` to the goal needs.

    ``initial`` (the facts every candidate plans from) must be ground.  A
    candidate plans from ``initial`` plus its own ground seed facts.
    :meth:`depth` answers for one candidate.  Every plan that
    ``plan(initial + seeds, goal, ops, bound, required_step=step)`` accepts
    has at least ``1 + depth`` steps, and none exists when ``depth`` is
    None.  The operators must pass :func:`validate_operator`, so forward
    grounding finds every instance a plan can use; an instance that
    grounding leaves non-ground raises :class:`PlannerError`.

    Reachability: the delete-relaxed closure of a candidate's facts plus
    the step's add-effects under the ground instances of ``ops``, capped
    at ``bound`` rounds (FF's relaxed planning graph).  Every step but
    ``step`` of a plan within ``bound`` steps has relaxed level below
    ``bound``, so the capped closure finds it.  The :class:`Closure` of
    ``initial`` plus the step's add-effects is built once; a candidate's
    closure is :meth:`Closure.with_facts` of its seeds.

    Chain: layer 0 is the step's add-effects, and layer d+1 holds the
    add-effects of every found instance with a precondition in layer d
    that no earlier layer holds.  ``depth`` is the first layer with a fact
    that the goal matches.  A connected plan's causal-link path from
    the step to the goal is such a chain, one action per link past the
    step, so the plan has at least ``1 + depth`` steps.  This verdict is
    that of backward relevance (from the goal facts, add the preconditions
    of every instance adding a relevant fact; the step is relevant when it
    adds one): both ask whether a chain ``step.add -> a1 -> ... -> goal
    fact`` of found instances exists.

    With no chain, ``depth`` is None when the candidate's closure reached
    its fixpoint, else ``bound``: no plan within ``bound`` steps exists,
    and ``plan`` never searches the cost ``1 + bound``.

    Carrying across turns: ``volatile`` holds facts that candidates also
    plan from but a later turn may lack.  :attr:`carried` is this turn's
    closure, marked (:meth:`Closure.checkpoint`) for the next turn's gate,
    or None when it is not closed.  Given an earlier gate's ``carried``
    over the same operators and bound, a gate resumes it
    (:meth:`Closure.resumed`) with ``initial`` and the step's add-effects,
    marks it there and extends it with ``volatile``.  That is this turn's
    closure when it is closed with ``height`` below ``bound``: a fresh
    capped closure then holds the same facts and instances (in another
    order, which no answer depends on).  Otherwise, as on a dialogue's
    first gate turn, the closure of all the facts is built fresh and
    marked whole; the next gate resumes it when its instances rederive
    the volatile facts that turn lacks (Bancilhon & Ramakrishnan 1986,
    with the facts that can be retracted kept out of the carried part).
    """

    def __init__(
        self,
        initial: list[Term] | tuple[Term, ...],
        ops: list[Operator] | tuple[Operator, ...],
        step: Operator,
        bound: int,
        volatile: tuple[Term, ...] = (),
        carried: Closure | None = None,
    ) -> None:
        self.step = step
        self.bound = bound
        lasting = tuple(initial) + step.add
        closure = None
        if carried is not None and carried.bound == bound and (
            carried.ops is ops or carried.ops == tuple(ops)
        ):
            resumed = carried.resumed(lasting)
            if resumed is not None and resumed.closed:
                resumed.checkpoint()
                resumed.extend(volatile)
                if resumed.closed and resumed.height < bound:
                    closure = resumed
        #: Whether this turn's closure extends ``carried``.
        self.from_carried = closure is not None
        if closure is None:
            closure = Closure(lasting + tuple(volatile), ops, bound)
            if closure.closed:
                closure.checkpoint()
        self.closure = closure
        #: This turn's closure if it is marked, for the next turn's gate.
        self.carried = closure if closure._mark is not None else None

    def depth(self, goal: Term, seeds: Iterable[Term] = ()) -> int | None:
        """The chain depth for the candidate with ``goal`` and ``seeds``."""
        return self.candidate(goal, seeds)[0]

    def candidate(
        self, goal: Term, seeds: Iterable[Term] = ()
    ) -> tuple[int | None, Closure]:
        """The chain depth for the candidate with ``goal`` and ``seeds``, and
        the candidate's closure, which holds every instance its plans use."""
        closure = self.closure.with_facts(seeds)
        found = _chain_depth(goal, self.step.add, closure.instances())
        if found is None and not closure.closed:
            return self.bound, closure
        return found, closure


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

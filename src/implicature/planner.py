"""Partial-order causal-link planner over belief-state operators.

States are sets of ground terms; negation is explicit not(...) plus delete
effects.  The search is systematic: open conditions are closed by causal
links from existing or freshly instantiated steps, and any step whose add
or delete effect matches a protected condition is a threat, resolved by
promotion or demotion only.  A threat is forced when the match is
necessary under the current bindings.  As in SNLP/UCPOP, a refinement
checks only the pairs it creates: a new link against every step, and a
new step against the links already there.  A later binding can make an
older pair a threat, so a final sweep over all pairs runs once the agenda
is empty.  A plan is built only from a node with no open condition and
only when every step grounds, so every :class:`Plan` is complete and
ground; the functions that take a plan rely on that.  Iterative deepening
on step count makes the returned plan cost-minimal; among equal-cost
plans the least under ``_plan_key`` (operator names in linearized order
first) wins.  Every complete plan of the cheapest depth is compared, with
no cap, so identical inputs yield identical plans and the tie-break is
exact.  A caller that has proved no acceptable plan is cheaper than some
cost may start the deepening there (``plan(..., min_cost=...)``): the
depths it skips hold no plan, so the result is the same.  An open
condition is closed by a new step only from the schemas with an
add-effect whose root (functor, arity) can match the condition's; each
schema is renamed at most once per plan call and counter.

Besides plan construction this module provides the plan-comparison
machinery the goal-ascription rules need: simulation, asserted states,
exclusive states, and completion search (for each of several goals, a
shortest ordered action sequence entered from a designated state, found by
one breadth-first search shared by all the goals); and the relevance gate
recognition runs before planning (delete-relaxed reachability over ground
operator instances, then the shortest chain of those instances from the
utterance's add-effects to the goal, which also bounds the plan's cost
from below).  The gate and completion search ground operators with one
matcher over an indexed state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from .terms import (
    Atom,
    Compound,
    EMPTY_SUBST,
    Substitution,
    Term,
    Var,
    apply,
    is_ground,
    render,
    unify,
    variables,
)
from .trace import Trace

INIT_ID = 0
GOAL_ID = 1
FIRST_STEP_ID = 2

#: Default search bound on plan steps; CLI-overridable.
DEFAULT_BOUND = 8


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
    variable in the effects must appear in the args or be bound by a topic
    constraint, and every precondition variable must too or be anonymous.
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

    def substituted(self, s: Substitution) -> "Operator":
        return Operator(
            name=self.name,
            args=tuple(apply(s, a) for a in self.args),
            preconditions=tuple(apply(s, p) for p in self.preconditions),
            add=tuple(apply(s, e) for e in self.add),
            delete=tuple(apply(s, e) for e in self.delete),
            actor=apply(s, self.actor) if self.actor is not None else None,
            topic_constraints=tuple(
                (apply(s, p), apply(s, t)) for p, t in self.topic_constraints
            ),
            positive_constraints=tuple(
                apply(s, p) for p in self.positive_constraints
            ),
        )


def validate_operator(op: Operator) -> None:
    """Raise PlannerError unless every variable of op's effects is among its
    args or bound by a topic constraint, every precondition variable is too
    or is anonymous, and no term is both added and deleted.

    So every ground instance adds and deletes only ground facts, and the
    states that matching builds from ground facts stay ground.
    """
    allowed = variables(op.head())
    for _, t in op.topic_constraints:
        allowed |= variables(t)
    for group, anonymous_ok in ((op.preconditions, True), (op.add + op.delete, False)):
        for t in group:
            for v in variables(t):
                if v not in allowed and not (anonymous_ok and v.startswith("_a")):
                    raise PlannerError(
                        f"operator {op.name}: variable ?{v} not among parameters"
                    )
    overlap = {render(t) for t in op.add} & {render(t) for t in op.delete}
    if overlap:
        raise PlannerError(f"operator {op.name}: add/delete overlap {overlap}")


def rename_operator(op: Operator, counter: int) -> tuple[Operator, int]:
    """Fresh-variable copy of an operator schema.

    Variables are named ``?v<N>`` from ``counter`` on, in order of first
    occurrence across args, preconditions, add, delete, actor, topic
    constraints and positive constraints; returns the copy and the next
    unused counter.  Each old name maps straight to its new one, so a
    schema that already names a variable ``?v1`` is renamed without
    capture.  A ground operator comes back unchanged.
    """
    mapping: dict[str, Var] = {}

    def fresh(t: Term) -> Term:
        nonlocal counter
        if isinstance(t, Var):
            new = mapping.get(t.name)
            if new is None:
                new = mapping[t.name] = Var(f"v{counter}")
                counter += 1
            return new
        if isinstance(t, Compound):
            args = tuple(fresh(a) for a in t.args)
            if any(a is not b for a, b in zip(args, t.args)):
                return Compound(t.functor, args)
        return t

    def each(ts: tuple[Term, ...]) -> tuple[Term, ...]:
        return tuple(fresh(x) for x in ts)

    renamed = Operator(
        name=op.name,
        args=each(op.args),
        preconditions=each(op.preconditions),
        add=each(op.add),
        delete=each(op.delete),
        actor=None if op.actor is None else fresh(op.actor),
        topic_constraints=tuple((fresh(p), fresh(t)) for p, t in op.topic_constraints),
        positive_constraints=each(op.positive_constraints),
    )
    return (renamed if mapping else op), counter


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
    """States asserted in a that unify with no state asserted in b, in a's
    order.

    A complete plan's asserted states are ground (:func:`plan` takes ground
    initial facts and :func:`_finish` grounds every step), so "unifies with
    no state of b" is "is not a state of b".
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
# Systematic causal-link search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    steps: tuple[tuple[int, Operator], ...]
    agenda: tuple[tuple[int, Term], ...]
    orderings: frozenset[tuple[int, int]]
    links: tuple[CausalLink, ...]
    subst: Substitution
    threats: tuple[tuple[CausalLink, int, Operator], ...]
    constraints: tuple["Constraint", ...]
    counter: int


@dataclass
class _Problem:
    initial: tuple[Term, ...]
    goal: tuple[Term, ...]
    ops: tuple[Operator, ...]
    limit: int
    hit_limit: bool = False
    #: per schema of ``ops``, the root keys of its add-effects; None when
    #: an add-effect is a variable, which can match any condition
    add_keys: tuple[frozenset[tuple[str, int]] | None, ...] = ()
    #: (schema index, counter) -> rename_operator's result, for this call
    renamed: dict[tuple[int, int], tuple[Operator, int]] = field(default_factory=dict)


def _add_keys(op: Operator) -> frozenset[tuple[str, int]] | None:
    keys = frozenset(_key(e) for e in op.add)
    return None if None in keys else keys


def _strip_not(t: Term, s: Substitution) -> Term:
    t = s.walk(t)
    while isinstance(t, Compound) and t.functor == "not" and len(t.args) == 1:
        t = s.walk(t.args[0])
    return t


Constraint = tuple[str, Term, "Term | None"]


def _constraints_of(op: Operator) -> tuple[Constraint, ...]:
    out: list[Constraint] = [("topic", p, t) for p, t in op.topic_constraints]
    out.extend(("positive", p, None) for p in op.positive_constraints)
    return tuple(out)


def _propagate_constraints(
    subst: Substitution, constraints: tuple[Constraint, ...]
) -> tuple[Substitution, tuple[Constraint, ...]] | None:
    """Resolve topic/positivity constraints as bindings land; None on clash."""
    pending = list(constraints)
    changed = True
    while changed:
        changed = False
        rest: list[Constraint] = []
        for kind, p, t in pending:
            if kind == "positive":
                w = subst.walk(p)
                if isinstance(w, Var):
                    rest.append((kind, p, t))
                    continue
                if isinstance(w, Compound) and w.functor == "not" and len(w.args) == 1:
                    return None
                continue
            w = _strip_not(p, subst)
            if isinstance(w, Var):
                rest.append((kind, p, t))
                continue
            functor = w.functor if isinstance(w, Compound) else w.name
            assert t is not None
            u = unify(t, Atom(functor), subst)
            if u is None:
                return None
            if u is not subst:
                subst = u
                changed = True
        pending = rest
    return subst, tuple(pending)


def _is_threat(node: _Node, link: CausalLink, sid: int, op: Operator) -> bool:
    """Necessary threat: an effect of step ``sid`` (operator ``op``) equals
    the protected condition under the current bindings and the step could
    come between.

    Possibly-unifying pairs are left alone (promotion/demotion without
    separation would over-commit); they are re-checked by the final sweep
    once bindings are settled.
    """
    if sid in (link.producer, link.consumer):
        return False
    # unify returns the substitution itself exactly when the terms are
    # already equal under it
    s = node.subst
    if all(unify(e, link.condition, s) is not s for e in op.add + op.delete):
        return False
    return not (
        _ordered_before(node.orderings, sid, link.producer)
        or _ordered_before(node.orderings, link.consumer, sid)
    )


def _all_threats(node: _Node) -> tuple[tuple[CausalLink, int, Operator], ...]:
    return tuple(
        (link, sid, op)
        for link in node.links
        for sid, op in node.steps
        if _is_threat(node, link, sid, op)
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
    subst: Substitution,
    new_step: Operator | None = None,
) -> _Node | None:
    """The node plus a causal link, or None when its bindings or ordering clash.

    Queues only the threats this refinement creates: the new link against
    every step and, when the producer is ``new_step`` (just added), that
    step against the links already there.  A binding can also turn an older
    pair into a threat; the final sweep in :func:`_expand` catches those.
    Queued entries that stop being threats are dropped when popped.
    """
    propagated = _propagate_constraints(subst, node.constraints)
    if propagated is None:
        return None
    subst, constraints = propagated
    orderings = node.orderings
    if producer != INIT_ID:
        maybe = _add_ordering(orderings, producer, consumer)
        if maybe is None:
            return None
        orderings = maybe
    link = CausalLink(producer, cond, consumer)
    candidate = replace(
        node,
        orderings=orderings,
        links=node.links + (link,),
        subst=subst,
        constraints=constraints,
    )
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


def _expand(prob: _Problem, node: _Node) -> list[_Node] | None:
    """Children of a search node; None when the node is complete."""
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
        # final sweep: with bindings settled, catch threats that were only
        # possible (not necessary) when their link or step appeared
        swept = _all_threats(node)
        if swept:
            return [replace(node, threats=swept)]
        return None
    (consumer, cond), agenda = node.agenda[0], node.agenda[1:]
    node = replace(node, agenda=agenda)
    children: list[_Node] = []
    producers = [(INIT_ID, prob.initial)] + [(sid, op.add) for sid, op in node.steps]
    for pid, effects in producers:
        if pid == consumer:
            continue
        if _ordered_before(node.orderings, consumer, pid):
            continue
        for e in effects:
            u = unify(e, cond, node.subst)
            if u is None:
                continue
            child = _with_link(node, pid, cond, consumer, u)
            if child is not None:
                children.append(child)
    if len(node.steps) < prob.limit:
        # a schema whose add-effects all have a root (functor, arity) other
        # than the condition's cannot close it; a variable root matches any
        cond_key = _key(node.subst.walk(cond))
        for i, op in enumerate(prob.ops):
            keys = prob.add_keys[i]
            if cond_key is not None and keys is not None and cond_key not in keys:
                continue
            memo = (i, node.counter)
            if memo not in prob.renamed:
                prob.renamed[memo] = rename_operator(op, node.counter)
            renamed, counter = prob.renamed[memo]
            for e in renamed.add:
                u = unify(e, cond, node.subst)
                if u is None:
                    continue
                sid = FIRST_STEP_ID + len(node.steps)
                orderings = node.orderings | {(INIT_ID, sid), (sid, GOAL_ID)}
                base = replace(
                    node,
                    steps=node.steps + ((sid, renamed),),
                    agenda=node.agenda + tuple((sid, p) for p in renamed.preconditions),
                    orderings=orderings,
                    constraints=node.constraints + _constraints_of(renamed),
                    counter=counter,
                )
                child = _with_link(base, sid, cond, consumer, u, renamed)
                if child is not None:
                    children.append(child)
    else:
        prob.hit_limit = True
    return children


def _finish(prob: _Problem, node: _Node) -> Plan | None:
    s = node.subst
    if node.constraints:
        resolved = _propagate_constraints(s, node.constraints)
        if resolved is None or resolved[1]:
            return None
        s = resolved[0]
    steps: dict[int, Operator] = {}
    for sid, op in node.steps:
        ground_op = op.substituted(s)
        parts = (ground_op.head(),) + ground_op.preconditions + ground_op.add + ground_op.delete
        if not all(is_ground(part) for part in parts):
            return None
        steps[sid] = ground_op
    links = frozenset(
        CausalLink(l.producer, apply(s, l.condition), l.consumer) for l in node.links
    )
    return Plan(
        steps=steps,
        initial=prob.initial,
        goal_conditions=tuple(apply(s, g) for g in prob.goal),
        orderings=node.orderings,
        links=links,
    )


def _search_depth(prob: _Problem, root: _Node, connected_from: int | None) -> Plan | None:
    """The least complete plan within ``prob.limit`` steps under
    :func:`_plan_key`, or None.  With ``connected_from``, only plans whose
    causal links route that step to the goal count."""
    best: Plan | None = None
    best_key: tuple | None = None
    stack = [root]
    while stack:
        node = stack.pop()
        children = _expand(prob, node)
        if children is None:
            plan = _finish(prob, node)
            if plan is None:
                continue
            if connected_from is not None and not _ordered_before(
                frozenset((l.producer, l.consumer) for l in plan.links), connected_from, GOAL_ID
            ):
                continue
            key = _plan_key(plan)
            if best_key is None or key < best_key:
                best, best_key = plan, key
            continue
        stack.extend(reversed(children))
    return best


def _plan_key(p: Plan) -> tuple:
    order = linearize(p)
    names = tuple(p.steps[sid].name for sid in order)
    heads = tuple(render(p.steps[sid].head()) for sid in order)
    links = tuple(
        sorted(
            (l.producer, render(l.condition), l.consumer) for l in p.links
        )
    )
    return (names, heads, links, tuple(sorted(p.orderings)))


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
    trace: Trace | None = None,
    *,
    min_cost: int = 0,
) -> Plan | None:
    """Minimal-cost complete plan within the step bound, or None.

    ``required_step`` pre-seeds a mandatory (ground) step, and the plan
    must route a causal-link path from that step to the goal.  Iterative
    deepening on step count guarantees minimality.  Ties break on the linearized operator name sequence, then
    on step heads, links and orderings, over every complete plan of that
    cost: the result is the lexicographically least one.

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
    _check_ground(initial, "initial facts")
    goals = tuple(goal) if isinstance(goal, (list, tuple)) else (goal,)
    ops = tuple(ops)

    steps: tuple[tuple[int, Operator], ...] = ()
    agenda: list[tuple[int, Term]] = [(GOAL_ID, g) for g in goals]
    orderings: frozenset[tuple[int, int]] = frozenset({(INIT_ID, GOAL_ID)})
    constraints: tuple[Constraint, ...] = ()
    if required_step is not None:
        if not is_ground(required_step.head()):
            raise PlannerError("required step must be ground")
        steps = ((FIRST_STEP_ID, required_step),)
        orderings = orderings | {(INIT_ID, FIRST_STEP_ID), (FIRST_STEP_ID, GOAL_ID)}
        agenda.extend((FIRST_STEP_ID, p) for p in required_step.preconditions)
        constraints = _constraints_of(required_step)

    root = _Node(
        steps=steps,
        agenda=tuple(agenda),
        orderings=orderings,
        links=(),
        subst=EMPTY_SUBST,
        threats=(),
        constraints=constraints,
        counter=0,
    )
    start = max(len(steps), min_cost)
    prob = _Problem(
        initial=initial,
        goal=goals,
        ops=ops,
        limit=start,
        add_keys=tuple(_add_keys(op) for op in ops),
    )
    connected_from = FIRST_STEP_ID if required_step is not None else None
    for limit in range(start, bound + 1):
        prob.limit = limit
        prob.hit_limit = False
        best = _search_depth(prob, root, connected_from)
        if best is not None:
            if trace:
                trace.emit(
                    "planner",
                    "plan-found",
                    cost=cost(best),
                    steps=[render(best.steps[s].head()) for s in linearize(best)],
                )
            return best
    if trace:
        trace.emit(
            "planner",
            "plan-none",
            cause="bound-exceeded" if prob.hit_limit else "unsolvable",
            bound=bound,
        )
    return None


# ---------------------------------------------------------------------------
# Ground matching: shared by the relevance gate and completion search
# ---------------------------------------------------------------------------


def _key(t: Term) -> tuple[str, int] | None:
    if isinstance(t, Compound):
        return t.functor, len(t.args)
    if isinstance(t, Atom):
        return t.name, 0
    return None


class _FactIndex:
    """The facts of one ground state in render order, bucketed by (functor,
    arity).

    A bucket keeps the render order, so matching a pattern against its
    bucket visits the facts that can unify with it in the same order as
    scanning the whole sorted state would.  The states are ground because
    the callers check their input facts and :func:`validate_operator` keeps
    every instance's effects ground.
    """

    __slots__ = ("facts", "members", "buckets")

    def __init__(self, state: set[Term] | frozenset[Term]) -> None:
        self.facts = sorted(state, key=render)
        self.members = frozenset(state)
        self.buckets: dict[tuple[str, int] | None, list[Term]] = {}
        for f in self.facts:
            self.buckets.setdefault(_key(f), []).append(f)

    def matching(self, pattern: Term) -> list[Term]:
        """Facts that may unify with pattern, in render order."""
        key = _key(pattern)
        if key is None:
            return self.facts
        if is_ground(pattern):
            # only the pattern itself unifies with a ground pattern
            return [pattern] if pattern in self.members else []
        return self.buckets.get(key, [])


def _ground_instances(op: Operator, index: _FactIndex) -> list[Operator]:
    """All ground instantiations of op whose preconditions hold in the
    indexed (ground) state, in precondition-match order."""
    results: list[Operator] = []

    def match(i: int, s: Substitution, constraints: tuple[Constraint, ...]) -> None:
        # constraints resolve as bindings land, pruning early and binding
        # topics before the preconditions that mention them are matched
        propagated = _propagate_constraints(s, constraints)
        if propagated is None:
            return
        s, constraints = propagated
        if i == len(op.preconditions):
            if constraints:
                return
            inst = op.substituted(s)
            if is_ground(inst.head()) and inst not in results:
                results.append(inst)
            return
        pre = op.preconditions[i]
        for f in index.matching(apply(s, pre)):
            u = unify(pre, f, s)
            if u is not None:
                match(i + 1, u, constraints)

    match(0, EMPTY_SUBST, _constraints_of(op))
    return results


# ---------------------------------------------------------------------------
# Relevance gate
# ---------------------------------------------------------------------------


def _depth(t: Term) -> int:
    if isinstance(t, Compound):
        return 1 + max(_depth(a) for a in t.args)
    return 1


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


def relevance_depth(
    initial: list[Term] | tuple[Term, ...],
    goal: Term,
    ops: list[Operator] | tuple[Operator, ...],
    step: Operator,
    bound: int,
) -> tuple[int | None, tuple[str, str] | None]:
    """The fewest actions a chain from the ground ``step`` to ``goal`` needs.

    ``initial`` must be ground.  Returns ``(depth, fallback)``.  ``depth``
    is None when no chain exists: then ``plan(initial, goal, ops, bound,
    required_step=step)`` returns None.  Otherwise every plan that call
    accepts has at least ``1 + depth`` steps.  ``fallback`` is a (cause,
    detail) pair, with ``depth`` None, when the gate cannot decide.

    Reachability: a delete-relaxed fixpoint over the ground instances of
    ``ops`` from ``initial`` plus the step's add-effects.  Every step of a
    complete plan is a ground instance whose preconditions are
    relaxed-reachable, so it is among the instances the fixpoint finds.

    Chain: layer 0 is the step's add-effects, and layer d+1 holds the
    add-effects of every found instance with a precondition in layer d
    that no earlier layer holds.  ``depth`` is the first layer with a fact
    that unifies with the goal.  A connected plan's causal-link path from
    the step to the goal is such a chain, one action per link past the
    step, so the plan has at least ``1 + depth`` steps, and none when no
    layer reaches the goal.  This verdict is that of backward relevance
    (from the goal facts, add the preconditions of every instance adding a
    relevant fact; the step is relevant when it adds one): both ask whether
    a chain ``step.add -> a1 -> ... -> goal fact`` of found instances exists.

    Two cases fall back.  Cause ``"unbound-variable"``: an operator has an
    arg or add-effect variable that only the planner could bind (from the
    goal), so forward grounding misses its instances.  Cause
    ``"nesting-limit"``: a derived fact nests deeper than any fact of a plan
    within ``bound`` steps can, which also keeps the fixpoint finite.
    """
    _check_ground(tuple(initial) + step.add, "initial facts and step effects")
    for op in ops:
        name = _unbound_variable(op)
        if name is not None:
            return None, ("unbound-variable", f"{op.name} ?{name}")
    facts = set(initial) | set(step.add)
    # each step nests its add-effects at most (template depth - 1) deeper
    # than the facts it consumes
    growth = max((_depth(e) - 1 for op in ops for e in op.add), default=0)
    limit = max(_depth(f) for f in facts) + bound * growth
    actions: dict[Operator, None] = {}
    while True:
        index = _FactIndex(facts)
        new: set[Term] = set()
        for op in ops:
            for inst in _ground_instances(op, index):
                actions.setdefault(inst)
                new.update(e for e in inst.add if e not in facts)
        if not new:
            break
        deepest = max(new, key=_depth)
        if _depth(deepest) > limit:
            return None, ("nesting-limit", render(deepest))
        facts |= new
    layer = set(step.add)
    seen = set(layer)
    pending = list(actions)
    depth = 0
    while layer:
        if any(unify(goal, f) is not None for f in layer):
            return depth, None
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
    return None, None


# ---------------------------------------------------------------------------
# Completion search
# ---------------------------------------------------------------------------


def complete_from(
    state: Term,
    goals: list[Term] | tuple[Term, ...],
    ops: list[Operator] | tuple[Operator, ...],
    bound: int,
    ambient: set[Term] | frozenset[Term],
) -> tuple[Completion | None, ...]:
    """Shortest nonempty action sequence from `state` to each of `goals`.

    Returns one entry per goal, in goal order: the completion, or None when
    no sequence within `bound` actions reaches the goal.  `state` and
    `ambient` must be ground; the goals need not be.  The first action
    must have a precondition unifying with `state`; every action executes
    in the ambient context.  A goal may contain variables; it is reached
    when it unifies with a fact of a generated state (the least such fact
    in render order instantiates it).

    One breadth-first search serves every goal.  Its expansion order
    (frontier, operators, ground instances, visited states) does not depend
    on the goals; each pending goal is tested at every generated state and
    settled at its first hit, and the search stops once none is pending.
    A one-goal search stops at that same first hit, so each answer is
    exactly the one a search for that goal alone returns.

    The goal test looks only at facts that can be new.  A frontier state
    past the start was tested when it was generated, so a pending goal
    unifies with none of its facts: at depth 2 and beyond only the action's
    add-effects can reach it, and at depth 1 also the ambient facts the
    action does not delete.
    """
    if bound < 1:
        raise PlannerError("bound must be >= 1")
    _check_ground((state, *ambient), "entry state and ambient facts")
    found: list[Completion | None] = [None] * len(goals)
    pending = list(range(len(goals)))
    start = frozenset(ambient)
    at_start: list[list[Term]] = []  # the ambient facts each goal unifies with
    frontier: list[tuple[frozenset[Term], tuple[Operator, ...]]] = [(start, ())]
    visited: set[frozenset[Term]] = {start}
    for _ in range(bound):
        if not frontier or not pending:
            break
        nxt: list[tuple[frozenset[Term], tuple[Operator, ...]]] = []
        for current, seq in frontier:
            index = _FactIndex(current)
            for op in ops:
                for inst in _ground_instances(op, index):
                    if not seq:
                        if all(unify(pre, state) is None for pre in inst.preconditions):
                            continue
                        if not at_start:
                            at_start = [
                                [f for f in start if unify(g, f) is not None]
                                for g in goals
                            ]
                    deleted = set(inst.delete)
                    new_seq = seq + (inst,)
                    for i in tuple(pending):
                        goal = goals[i]
                        reached = [e for e in inst.add if unify(goal, e) is not None]
                        if not seq:
                            reached += [f for f in at_start[i] if f not in deleted]
                        if reached:
                            u = unify(goal, min(reached, key=render))
                            assert u is not None
                            found[i] = Completion(
                                actions=new_seq,
                                entry_state=state,
                                achieved_goal=apply(u, goal),
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

"""Independent oracles for planner verification.

Everything here deliberately avoids the planner's search machinery: plans
are checked against exhaustive breadth-first search over ground action
sequences, and random domains are generated from a seeded RNG so failures
reproduce.  :func:`unify` and :func:`apply` over a :class:`Substitution`
are the reference unifier: a two-way term algebra with an occurs check,
which the engine does not use (it grounds, plans and tests goals with the
one-way matcher ``closure._match`` over ground facts) and which the tests
check that matcher against.  :func:`naive_ground_instances` is the
reference grounder: the nested-loop join by two-way unification that the
planner's one-way matcher over a first-argument index replaced; it builds
each instance with its own copy of the ``apply``-based build that the
planner's one-pass instantiation replaced.  The naive relevance closure and
the per-state completion search ground with it.  They use neither the
semi-naive rounds nor the closure that the gate and completion search
read, which is what they check.  :func:`reference_snapshot` is the belief
snapshot as it was built before :func:`implicature.beliefs.render_store`
kept a memo.
"""

from __future__ import annotations

import random
from typing import Collection, Iterator, Mapping, Sequence

from implicature.beliefs import BeliefStore, render_attitude
from implicature.closure import MAX_DERIVED_DEPTH, PlannerError, _check_ground
from implicature.completion import Completion
from implicature.planner import Operator
from implicature.terms import (
    Atom,
    Compound,
    Term,
    TermError,
    Var,
    is_ground,
    render,
    struct,
    var,
)

# ---------------------------------------------------------------------------
# Reference unifier: two-way unification over substitutions
# ---------------------------------------------------------------------------


def occurs(name: str, t: Term, s: "Substitution") -> bool:
    t = s.walk(t)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Compound):
        return any(occurs(name, a, s) for a in t.args)
    return False


class Substitution(Mapping[str, Term]):
    """Immutable variable bindings.

    Bindings may chain (?x -> ?y, ?y -> b); :func:`apply` resolves chains to
    a fixpoint, so applying a substitution twice equals applying it once.
    The occurs check in :func:`unify` guarantees chains are acyclic.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Term] | None = None) -> None:
        self._bindings: dict[str, Term] = dict(bindings or {})

    def __getitem__(self, name: str) -> Term:
        return self._bindings[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k} -> {v}" for k, v in sorted(self._bindings.items()))
        return "{" + inner + "}"

    def bind(self, name: str, value: Term) -> "Substitution":
        new = dict(self._bindings)
        new[name] = value
        return Substitution(new)

    def walk(self, t: Term) -> Term:
        """Follow variable bindings at the root until a non-var or free var."""
        while isinstance(t, Var) and t.name in self._bindings:
            t = self._bindings[t.name]
        return t


EMPTY_SUBST = Substitution()


def unify(a: Term, b: Term, s: Substitution = EMPTY_SUBST) -> Substitution | None:
    """Most general unifier of a and b extending s, or None.

    Failure is a normal outcome (functor/arity clash or occurs check).
    Returns ``s`` itself exactly when a and b are already equal under s.
    """
    a = s.walk(a)
    b = s.walk(b)
    if isinstance(a, Var):
        if isinstance(b, Var) and a.name == b.name:
            return s
        if occurs(a.name, b, s):
            return None
        return s.bind(a.name, b)
    if isinstance(b, Var):
        return unify(b, a, s)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return s if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s2 = unify(x, y, s)
            if s2 is None:
                return None
            s = s2
        return s
    return None


def apply(s: Substitution, t: Term) -> Term:
    """Replace every bound variable in t, resolving chains to a fixpoint."""
    t = s.walk(t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(apply(s, a) for a in t.args))
    return t


def _root(t: Term) -> tuple[str, int] | None:
    if isinstance(t, Compound):
        return t.functor, len(t.args)
    if isinstance(t, Atom):
        return t.name, 0
    return None


def _depth(t: Term) -> int:
    depth, level = 0, [t]
    while level:
        depth += 1
        level = [a for c in level if isinstance(c, Compound) for a in c.args]
    return depth


def _propagate(
    s: Substitution, constraints: list[tuple[str, Term, Term | None]]
) -> tuple[Substitution, list] | None:
    """Resolve topic/positivity constraints under ``s`` by unification;
    None on a clash."""
    changed = True
    while changed:
        changed = False
        rest = []
        for kind, p, t in constraints:
            w = s.walk(p)
            if kind == "topic":
                while isinstance(w, Compound) and w.functor == "not" and len(w.args) == 1:
                    w = s.walk(w.args[0])
            if isinstance(w, Var):
                rest.append((kind, p, t))
                continue
            if kind == "positive":
                if isinstance(w, Compound) and w.functor == "not" and len(w.args) == 1:
                    return None
                continue
            u = unify(t, Atom(w.functor if isinstance(w, Compound) else w.name), s)
            if u is None:
                return None
            if u is not s:
                s, changed = u, True
        constraints = rest
    return s, constraints


def _substituted(op: Operator, s: Substitution) -> Operator:
    """``op`` under ``s``, field by field through ``apply``, which resolves
    chains and leaves free variables as they are: the instance build that
    the planner's one-pass ``Operator.substituted`` replaced."""
    return Operator(
        name=op.name,
        args=tuple(apply(s, a) for a in op.args),
        preconditions=tuple(apply(s, p) for p in op.preconditions),
        add=tuple(apply(s, e) for e in op.add),
        delete=tuple(apply(s, e) for e in op.delete),
        actor=apply(s, op.actor) if op.actor is not None else None,
        topic_constraints=tuple((apply(s, p), apply(s, t)) for p, t in op.topic_constraints),
        positive_constraints=tuple(apply(s, p) for p in op.positive_constraints),
    )


def naive_ground_instances(
    op: Operator, facts: Sequence[Term], delta: Collection[Term] | None = None
) -> list[Operator]:
    """The reference for :func:`implicature.closure._ground_instances`.

    ``facts`` is the ground state in index order, ``delta`` the facts of
    it new in the last round, which are matched in render order.  Each
    precondition in turn is instantiated under the substitution so far
    (``apply``), its candidates are the facts sharing its root (only
    itself, when it is ground; every fact, when it is a variable), and
    each candidate is unified with it.  Constraints
    resolve as bindings land.  With ``delta``, the pivot scheme of the
    semi-naive rounds: the first precondition ``delta`` holds is matched
    first, against ``delta``, the earlier ones against the other facts and
    the later ones against every fact.  Each instance is built by
    :func:`_substituted`, not by the planner's ``Operator.substituted``,
    and checked after it is built: first a :class:`TermError` for an
    instance adding a fact deeper than ``MAX_DERIVED_DEPTH``, then a
    :class:`PlannerError` for a pending constraint or a non-ground head or
    add-effect.  The instances are deduplicated.
    """
    members = set(facts)
    buckets: dict[tuple[str, int] | None, list[Term]] = {}
    for f in facts:
        buckets.setdefault(_root(f), []).append(f)
    constraints = [("topic", p, t) for p, t in op.topic_constraints]
    constraints += [("positive", p, None) for p in op.positive_constraints]
    pre = op.preconditions
    results: list[Operator] = []

    def candidates(source: Sequence[Term], pattern: Term) -> Sequence[Term]:
        if source is not facts:
            return source
        if _root(pattern) is None:
            return facts
        if is_ground(pattern):
            return [pattern] if pattern in members else []
        return buckets.get(_root(pattern), [])

    def match(order, k: int, s: Substitution, pending) -> None:
        propagated = _propagate(s, pending)
        if propagated is None:
            return
        s, pending = propagated
        if k == len(order):
            inst = _substituted(op, s)
            if any(_depth(e) > MAX_DERIVED_DEPTH for e in inst.add):
                raise TermError(f"operator {op.name} derives too deep a fact")
            if pending or not all(map(is_ground, (inst.head(), *inst.add))):
                raise PlannerError(f"operator {op.name}: an instance is not ground")
            if inst not in results:
                results.append(inst)
            return
        i, source, excluded = order[k]
        for f in candidates(source, apply(s, pre[i])):
            if f in excluded:
                continue
            u = unify(pre[i], f, s)
            if u is not None:
                match(order, k + 1, u, pending)

    if delta is None:
        match(tuple((i, facts, ()) for i in range(len(pre))), 0, EMPTY_SUBST, constraints)
        return results
    delta_set = set(delta)
    new = sorted(delta_set, key=render)
    for pivot in range(len(pre)):
        order = (
            (pivot, new, ()),
            *((i, facts, delta_set) for i in range(pivot)),
            *((i, facts, ()) for i in range(pivot + 1, len(pre))),
        )
        match(order, 0, EMPTY_SUBST, constraints)
    return results


def applicable(op: Operator, state: frozenset[Term]) -> bool:
    return all(p in state for p in op.preconditions)


def step(op: Operator, state: frozenset[Term]) -> frozenset[Term]:
    return frozenset((state - set(op.delete)) | set(op.add))


def bfs_min_cost(
    initial: list[Term],
    goals: list[Term],
    ground_ops: list[Operator],
    bound: int,
    require_used: str | None = None,
    connected: bool = False,
) -> int | None:
    """Length of the shortest ground action sequence reaching all goals.

    None if no sequence of length <= bound works.  With ``require_used``
    only sequences containing an action of that name count.  With
    ``connected`` as well, that action must start a chain: each later
    chain action has a precondition an earlier chain action added, and a
    chain action adds a goal.  The linearization of a plan whose causal
    links route the action to the goal is such a sequence.
    """

    def satisfied(node) -> bool:
        state, used, _, reached = node
        if connected:
            used = reached
        return all(g in state for g in goals) and (require_used is None or used)

    def advance(node, op: Operator):
        state, used, carried, reached = node
        on_chain = connected and (
            op.name == require_used or any(p in carried for p in op.preconditions)
        )
        if on_chain:
            carried = carried | frozenset(op.add)
            reached = reached or any(g in op.add for g in goals)
        return (step(op, state), used or op.name == require_used, carried, reached)

    start = (frozenset(initial), require_used is None, frozenset(), False)
    if satisfied(start):
        return 0
    frontier = [start]
    visited = {start}
    for depth in range(1, bound + 1):
        nxt = []
        for node in frontier:
            for op in ground_ops:
                if not applicable(op, node[0]):
                    continue
                child = advance(node, op)
                if child in visited:
                    continue
                if satisfied(child):
                    return depth
                visited.add(child)
                nxt.append(child)
        frontier = nxt
        if not frontier:
            return None
    return None


def per_state_completion(
    state: Term,
    goals: list[Term] | tuple[Term, ...],
    ops: list[Operator],
    bound: int,
    ambient: set[Term] | frozenset[Term],
) -> tuple[Completion | None, ...]:
    """Completion search that grounds every operator afresh at every state.

    The reference for :func:`implicature.completion.complete_from`: a
    breadth-first search from ``ambient`` whose first action must have a
    precondition unifying with ``state``.  Each state is indexed and every
    operator matched against it; ``visited`` holds states alone.  Each goal
    is settled at the first generated state with a fact that unifies with
    it (at the first action, also the ambient facts it keeps), by the
    least such fact in render order.
    """
    _check_ground((state, *ambient), "entry state and ambient facts")
    found: list[Completion | None] = [None] * len(goals)
    pending = list(range(len(goals)))
    start = frozenset(ambient)
    frontier: list[tuple[frozenset[Term], tuple[Operator, ...]]] = [(start, ())]
    visited = {start}
    for _ in range(bound):
        if not frontier or not pending:
            break
        nxt = []
        for current, seq in frontier:
            facts = sorted(current, key=render)
            for op in ops:
                for inst in naive_ground_instances(op, facts):
                    if not seq and all(unify(p, state) is None for p in inst.preconditions):
                        continue
                    kept = current - set(inst.delete)
                    new_seq = seq + (inst,)
                    for i in tuple(pending):
                        reached = [e for e in inst.add if unify(goals[i], e) is not None]
                        if not seq:
                            reached += [f for f in kept if unify(goals[i], f) is not None]
                        if reached:
                            u = unify(goals[i], min(reached, key=render))
                            found[i] = Completion(new_seq, state, apply(u, goals[i]))
                            pending.remove(i)
                    if not pending:
                        return tuple(found)
                    new_state = frozenset(kept | set(inst.add))
                    if new_state not in visited:
                        visited.add(new_state)
                        nxt.append((new_state, new_seq))
        frontier = nxt
    return tuple(found)


def random_ground_domain(
    rng: random.Random,
) -> tuple[list[Term], Term, list[Operator]]:
    """A small random STRIPS domain: <= 8 atoms, <= 6 ground operators."""
    n_atoms = rng.randint(3, 8)
    atoms: list[Term] = [Atom(f"p{i}") for i in range(n_atoms)]
    ops: list[Operator] = []
    for i in range(rng.randint(2, 6)):
        pre = rng.sample(atoms, rng.randint(0, 2))
        add = rng.sample(atoms, rng.randint(1, 2))
        deletable = [a for a in atoms if a not in add]
        dele = rng.sample(deletable, rng.randint(0, 1)) if deletable else []
        ops.append(
            Operator(
                name=f"o{i}",
                preconditions=tuple(pre),
                add=tuple(add),
                delete=tuple(dele),
                actor=Atom(rng.choice(["spk", "hrr"])),
            )
        )
    initial = rng.sample(atoms, rng.randint(0, 3))
    goal = rng.choice(atoms)
    return initial, goal, ops


def random_lifted_domain(rng: random.Random):
    """Lifted operators over f/1, g/2 and h/1 whose args their preconditions
    bind, a ground utterance instance of one of them and a goal that may
    contain a variable."""
    consts = [Atom(c) for c in ("a", "b", "c")]
    x, y = var("x"), var("y")

    def fact(args):
        shape = rng.choice(["f", "g", "h"])
        if shape == "g":
            return struct("g", rng.choice(args), rng.choice(args))
        return struct(shape, rng.choice(args))

    ops: list[Operator] = []
    for i in range(rng.randint(2, 5)):
        params = (x,) if rng.random() < 0.5 else (x, y)
        pre = [struct("g", x, y)] if len(params) == 2 else [struct(rng.choice("fh"), x)]
        pre += [fact(list(params) + consts) for _ in range(rng.randint(0, 1))]
        add = [fact(list(params) + consts) for _ in range(rng.randint(1, 2))]
        ops.append(
            Operator(
                name=f"o{i}",
                args=params,
                preconditions=tuple(pre),
                add=tuple(dict.fromkeys(add)),
                actor=Atom("spk"),
            )
        )
    initial = [fact(consts) for _ in range(rng.randint(1, 4))]
    u_op = rng.choice(ops)
    u = u_op.substituted({v.name: rng.choice(consts) for v in u_op.args})
    goal = fact(consts + [var("z")]) if rng.random() < 0.5 else fact(consts)
    return initial, goal, ops, u


def _naive_rounds(
    facts: set[Term], ops: list[Operator], actions: dict[Operator, None], rounds: int
) -> bool:
    """At most ``rounds`` rounds, each grounding every operator over every
    fact; adds the instances to ``actions`` and their effects to
    ``facts``.  True when a round derived no new fact."""
    for _ in range(rounds):
        ordered = sorted(facts, key=render)
        new: set[Term] = set()
        for op in ops:
            for inst in naive_ground_instances(op, ordered):
                actions.setdefault(inst)
                new.update(e for e in inst.add if e not in facts)
        if not new:
            return True
        facts |= new
    return False


def naive_levels(facts: list[Term], ops: list[Operator], rounds: int) -> dict[Term, int]:
    """The relaxed level of every fact at most ``rounds`` naive rounds
    reach from ``facts``: the round it first holds in (0 for ``facts``)."""
    levels = dict.fromkeys(facts, 0)
    for level in range(1, rounds + 1):
        ordered = sorted(levels, key=render)
        new = [e for op in ops for inst in naive_ground_instances(op, ordered) for e in inst.add]
        new = [e for e in dict.fromkeys(new) if e not in levels]
        if not new:
            break
        levels.update(dict.fromkeys(new, level))
    return levels


def naive_relevance_depth(
    base: list[Term],
    seeds: list[Term],
    goal: Term,
    ops: list[Operator],
    step: Operator,
    bound: int,
) -> int | None:
    """The relevance gate's depth for one candidate, by naive rounds:
    every round grounds every operator over every fact.

    Stage one runs at most ``bound`` rounds from ``base`` plus the step's
    add-effects.  A candidate with seeds runs stage two, at most ``bound``
    rounds more: from that result plus the seeds when stage one reached
    its fixpoint, else from its own facts (``base``, the seeds and the
    step's add-effects) alone.  The answer is the chain depth, else None
    when the last stage reached its fixpoint, else ``bound``.  The
    reference for :class:`implicature.closure.RelevanceGate`, which
    shares one semi-naive closure among the candidates of a turn.
    """
    _check_ground(tuple(base) + tuple(seeds) + step.add, "initial facts and step effects")
    facts = set(base) | set(step.add)
    actions: dict[Operator, None] = {}
    closed = _naive_rounds(facts, ops, actions, bound)
    if seeds:
        if not closed:
            facts, actions = set(base) | set(step.add), {}
        facts |= set(seeds)
        closed = _naive_rounds(facts, ops, actions, bound)
    layer = set(step.add)
    seen = set(layer)
    pending = list(actions)
    depth = 0
    while layer:
        if any(unify(goal, f) is not None for f in layer):
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
    return None if closed else bound


def reference_snapshot(store: BeliefStore) -> list[Term]:
    """:func:`implicature.beliefs.render_store` without its memo: every
    space sorted by kind and rendered content and every attitude rendered
    afresh, then the reliability and expectation facts."""
    out = [
        render_attitude(path, att)
        for path in store.paths()
        for att in sorted(store.spaces[path], key=lambda a: (a.kind, render(a.content)))
    ]
    out += [Compound("reliable", (Atom(a), Atom(topic))) for a, topic in sorted(store.reliability)]
    out += [
        Compound("answer_expected", (Atom(e.answerer), Atom(e.asker), e.content))
        for e in store.expectations
    ]
    return out

"""Ground matching, the delete-relaxed closure and the relevance gate.

The relevance gate runs before recognition plans: delete-relaxed
reachability over ground operator instances, then the shortest chain of
those instances from the utterance's add-effects to the goal, which also
bounds the plan's cost from below.  The gate builds one relaxed closure per
turn, semi-naively and for at most ``bound`` rounds, or extends the one an
earlier turn's gate carried when that gives the same closure, and extends
it with each candidate goal's seeds.  The planner (:mod:`planner`) and
completion search (:mod:`completion`) read these closures too.  All of them
ground operators with one matcher and one closure routine: each
precondition is matched one way against ground facts, binding variables in
a plain dict, and the candidate facts come from an index on root and first
argument (Warren 1983; Ramakrishnan, Sekar & Voronkov 2001, "Term
indexing").  The goal tests of the gate and of completion search use the
same matcher.  Each instance is built once from its bindings by
:func:`_instantiate`, the engine's only substitution.

This module imports nothing from :mod:`planner` or :mod:`completion`.
``Operator`` (:class:`planner.Operator`) appears here only in annotations:
the closure reads an operator's fields and calls its ``substituted``.
:class:`PlannerError`, ``MAX_DERIVED_DEPTH`` and :func:`_check_ground` are
defined here because the closure raises, bounds and checks with them.
"""

from __future__ import annotations

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
)

#: Deepest fact the gate and completion search may derive: an input term
#: (at most ``MAX_TERM_DEPTH``) plus half as many levels again for the
#: belief paths and effects wrapped around it.  Rendering or comparing a
#: term takes about four interpreter frames per level, so facts this deep
#: stay well inside Python's recursion limit.  An operator instance that
#: would add a deeper fact is an input error (:class:`TermError`).
MAX_DERIVED_DEPTH = MAX_TERM_DEPTH + MAX_TERM_DEPTH // 2


class PlannerError(ValueError):
    pass


def _check_ground(facts: tuple[Term, ...], what: str) -> None:
    for f in facts:
        if not is_ground(f):
            raise PlannerError(f"{what} must be ground, got {render(f)}")


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
        if not self.closed:
            return Closure(self.facts + seeds, self.ops, self.bound)
        twin = Closure.__new__(Closure)
        twin.ops, twin.bound = self.ops, self.bound
        twin.levels = twin.height = twin._mark = None
        twin.facts = self.facts + tuple(fresh)
        index = self.index.copy()
        index.add(fresh)
        twin._run(index, _FactIndex(fresh), [list(found) for found in self.actions])
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


"""The grounding kernel against the reference grounder.

:func:`implicature.closure._ground_instances` matches each precondition one
way against the facts a first-argument index offers for it.
:func:`oracles.naive_ground_instances` is the nested-loop join by two-way
unification it replaced.  On random states and operators, with and without
a delta of new facts, both must return the same instances in the same
order, or raise the same exception class.
"""

import random
from collections import Counter

from implicature.closure import (
    MAX_DERIVED_DEPTH,
    PlannerError,
    _FactIndex,
    _ground_instances,
)
from implicature.planner import Operator
from implicature.terms import Atom, Compound, Term, TermError, parse_term, struct, var, variables

from oracles import naive_ground_instances, random_ground_domain, random_lifted_domain

t = parse_term

CONSTS = [Atom(c) for c in ("s", "h", "a", "b", "f", "bel", "or")]
VARS = ["s", "h", "c", "p", "x", "t"]

#: preconditions the engine's operators use, and shapes that stress the
#: matcher: repeated variables, nesting, negation, a bare variable
TEMPLATES = [
    "bel(?s, bel(?h, or(?c, not(?c))))",
    "goal(?s, bel(?h, ?c))",
    "bel(?s, ?c)",
    "bel(?h, bel(?s, ?p))",
    "reliable(?s, ?t)",
    "g(?x, ?x)",
    "g(?x, f(?x))",
    "bel(?s, not(?c))",
    "f(?p)",
    "bel(s, ?c)",
    "?p",
]


def _term(rng: random.Random, depth: int, leaves) -> Term:
    if depth <= 1 or rng.random() < 0.4:
        return rng.choice(leaves)
    shape = rng.choice(["bel", "or", "not", "f", "g"])
    arity = 1 if shape in ("not", "f") else 2
    return Compound(shape, tuple(_term(rng, depth - 1, leaves) for _ in range(arity)))


def _ground(rng: random.Random, pattern: Term, values: dict) -> Term:
    """``pattern`` with each variable replaced by a random ground term,
    the same one at each occurrence."""
    if isinstance(pattern, Compound):
        return Compound(pattern.functor, tuple(_ground(rng, a, values) for a in pattern.args))
    if isinstance(pattern, Atom):
        return pattern
    if pattern.name not in values:
        values[pattern.name] = _term(rng, 3, CONSTS)
    return values[pattern.name]


def _random_operator(rng: random.Random) -> Operator:
    pre = [t(rng.choice(TEMPLATES)) for _ in range(rng.choice((1, 2, 2, 3)))]
    if rng.random() < 0.2:
        pre.append(_term(rng, 3, CONSTS + [var(v) for v in VARS]))
    bound = sorted(set().union(*map(variables, pre)))
    names = bound + (["z"] if rng.random() < 0.05 else [])  # z: bound by nothing
    leaves = [var(v) for v in names] + CONSTS[:3]
    topics = []
    if rng.random() < 0.4:
        prop = var(rng.choice(names)) if names else Atom("a")
        if rng.random() < 0.3:
            prop = struct("not", prop)
        topics.append((prop, rng.choice([var("t"), Atom("bel"), Atom("f")])))
    positives = [var(rng.choice(names))] if names and rng.random() < 0.4 else []
    args = tuple(var(v) for v in names if rng.random() < 0.7)
    add = tuple(dict.fromkeys(struct("w", _term(rng, 2, leaves)) for _ in range(rng.randint(1, 2))))
    return Operator(
        name="o",
        args=args,
        preconditions=tuple(pre),
        add=add,
        topic_constraints=tuple(topics),
        positive_constraints=tuple(positives),
    )


def _random_case(rng: random.Random) -> tuple[Operator, list[Term]]:
    """An operator and ground facts, many of which match its preconditions."""
    kind = rng.random()
    if kind < 0.15:
        initial, _, ops = random_ground_domain(rng)
        op = rng.choice(ops)
        facts = initial + [a for o in ops for a in o.preconditions + o.add if rng.random() < 0.5]
        return op, facts
    if kind < 0.3:
        initial, _, ops, u = random_lifted_domain(rng)
        extra = [_ground(rng, p, {}) for o in ops for p in o.preconditions]
        return rng.choice(ops), initial + list(u.add) + extra
    op = _random_operator(rng)
    facts = [_term(rng, 4, CONSTS) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 2)):
        values: dict = {}
        facts.extend(_ground(rng, p, values) for p in op.preconditions)
    facts.extend(struct("reliable", rng.choice(CONSTS[:2]), rng.choice(CONSTS)) for _ in range(2))
    if rng.random() < 0.1:
        deep: Term = Atom("a")
        for _ in range(MAX_DERIVED_DEPTH):
            deep = struct("f", deep)
        facts.append(struct("g", deep, deep))
    return op, facts


def _outcome(run):
    try:
        return run()
    except (TermError, PlannerError) as e:  # both must raise the same class
        return type(e)


def test_one_way_matching_equals_the_reference_grounder():
    rng = random.Random(1818)
    seen: Counter = Counter()
    for _ in range(2000):
        op, facts = _random_case(rng)
        facts = list(dict.fromkeys(facts))
        split = rng.randint(0, len(facts))
        index = _FactIndex(facts[:split])
        index.add(facts[split:])
        delta = _FactIndex(facts[split:])
        got = (
            _outcome(lambda: _ground_instances(op, index)),
            _outcome(lambda: _ground_instances(op, index, delta)),
        )
        assert got == (
            _outcome(lambda: naive_ground_instances(op, index.facts)),
            _outcome(lambda: naive_ground_instances(op, index.facts, delta.facts)),
        )
        for outcome in got:
            seen.update({"instances": len(outcome)} if isinstance(outcome, list) else [outcome])
    # the draws must exercise the join and both error paths
    assert seen["instances"] > 2000, seen
    assert seen[TermError] >= 10 and seen[PlannerError] >= 10, seen

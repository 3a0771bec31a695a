"""Independent oracles for planner verification.

Everything here deliberately avoids the planner's search machinery: plans
are checked against exhaustive breadth-first search over ground action
sequences, and random domains are generated from a seeded RNG so failures
reproduce.
"""

from __future__ import annotations

import random

from implicature.planner import Operator
from implicature.terms import Atom, Term


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

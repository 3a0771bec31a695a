"""The planner still returns its frozen plans on random domains.

``tests/golden/plan_reference.json`` holds, for each call of
:func:`calls` in order, the first 16 hex digits of the SHA-256 of the DOT
export of the plan :func:`implicature.planner.plan` returns, or "none".
The calls cover 600 random domains (half ground, half lifted) at bounds 3
and 5, with and without a required step, and 400 calls with a goal
conjunction, some of whose goals share a variable.  The digests were
frozen from the lifted partial-order search before it was replaced by the
search over ground instances, which must reproduce every one.

After a deliberate change of behaviour, regenerate the file with

    PYTHONPATH=src python tests/test_plan_reference.py
"""

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from implicature.completion import to_dot
from implicature.planner import plan
from implicature.terms import Atom, struct, var

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import random_ground_domain, random_lifted_domain  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "plan_reference.json"


def _lifted_goal(rng: random.Random):
    """An f/1, g/2 or h/1 fact over a, b, c and the variables ?z and ?w."""
    leaves = [Atom(c) for c in ("a", "b", "c")] + [var("z"), var("w")]
    shape = rng.choice(["f", "g", "h"])
    if shape == "g":
        return struct("g", rng.choice(leaves), rng.choice(leaves))
    return struct(shape, rng.choice(leaves))


def calls() -> list[tuple]:
    """(initial, goal, ops, bound, required step) for every frozen call."""
    rng = random.Random(1717)
    out = []
    for i in range(600):
        if i % 2:
            initial, goal, ops = random_ground_domain(rng)
            u = rng.choice(ops)
        else:
            initial, goal, ops, u = random_lifted_domain(rng)
        out.extend((initial, goal, ops, bound, step) for bound in (3, 5) for step in (None, u))
    for i in range(200):
        if i % 2:
            initial, goal, ops = random_ground_domain(rng)
            atoms = sorted({a for o in ops for a in o.preconditions + o.add}, key=str)
            goals = [goal] + rng.sample(atoms, min(len(atoms), rng.randint(1, 2)))
            u = rng.choice(ops)
        else:
            initial, goal, ops, u = random_lifted_domain(rng)
            goals = [goal] + [_lifted_goal(rng) for _ in range(rng.randint(1, 2))]
        out.extend((initial, goals, ops, 4, step) for step in (None, u))
    return out


def digest(p) -> str:
    if p is None:
        return "none"
    return hashlib.sha256(to_dot(p).encode("utf-8")).hexdigest()[:16]


@functools.cache
def plans() -> tuple:
    """The plan, or None, of every call of :func:`calls`, in order."""
    return tuple(
        plan(initial, goal, ops, bound=bound, required_step=step)
        for initial, goal, ops, bound, step in calls()
    )


def digests() -> list[str]:
    return [digest(p) for p in plans()]


def test_plans_match_the_frozen_reference():
    frozen = json.loads(GOLDEN.read_text())["digests"]
    got = digests()
    assert len(got) == len(frozen) >= 2800
    differing = [i for i, (a, b) in enumerate(zip(got, frozen)) if a != b]
    assert not differing, f"{len(differing)} calls differ, the first at {differing[:10]}"
    # the reference must hold real plans, lifted goals and conjunctions among them
    assert sum(d != "none" for d in frozen[:2400]) >= 700
    assert sum(d != "none" for d in frozen[2400:]) >= 100


def _after(orderings, a: int) -> set[int]:
    """The steps the orderings put after step ``a``."""
    seen, stack = set(), [a]
    while stack:
        node = stack.pop()
        for x, y in orderings:
            if x == node and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def test_no_step_threatens_a_link():
    """A step other than a link's ends that adds or deletes its condition
    is ordered before the producer or after the consumer, in every plan."""
    checked = 0
    for p in plans():
        if p is None:
            continue
        for link in p.links:
            for sid, step in p.steps.items():
                if sid in (link.producer, link.consumer):
                    continue
                if link.condition in step.add or link.condition in step.delete:
                    checked += 1
                    assert link.producer in _after(p.orderings, sid) or sid in _after(
                        p.orderings, link.consumer
                    ), (link, sid)
    assert checked >= 100


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"digests": digests()}, indent=0) + "\n")
    print(f"wrote {GOLDEN}")

"""Independent oracle for the benchmark: ground operators, a set-based
simulator, breadth-first search, and the reading of one utterance.

Nothing here imports the engine.  Facts are canonical term strings
(``functor(a, b)``); operators are written out ground, from the act
definitions, by the generator.  The reading follows the definitions the
engine implements (recognition by the cheapest connected plan, the
efficiency audit, the conjunctive and avoidance rules) by exhaustive
search over ground action sequences instead of partial-order planning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class OracleError(RuntimeError):
    """The generator's construction and the oracle's search disagree."""


@dataclass(frozen=True)
class GroundOp:
    head: str
    pre: tuple[str, ...]
    add: tuple[str, ...]
    actor: str


def bel(agent: str, p: str) -> str:
    return f"bel({agent}, {p})"


def goal(agent: str, p: str) -> str:
    return f"goal({agent}, {p})"


def neg(p: str) -> str:
    return f"not({p})"


# Ground instances of the built-in acts, written out from their definitions:
# preconditions are the speaker's attitudes (plus the pending question for
# answers); effects land in the hearer's environment.


def inform(s: str, h: str, c: str) -> GroundOp:
    return GroundOp(
        f"inform({s}, {h}, {c})",
        (goal(s, bel(h, c)), bel(s, c)),
        (bel(h, bel(s, c)), bel(h, goal(s, bel(h, c)))),
        s,
    )


def yes_answer(s: str, h: str, c: str) -> GroundOp:
    return GroundOp(
        f"yes_answer({s}, {h}, {c})",
        (goal(s, bel(h, c)), bel(s, c), f"answer_expected({s}, {h}, {c})"),
        (bel(h, bel(s, c)), bel(h, goal(s, bel(h, c)))),
        s,
    )


def no_answer(s: str, h: str, c: str) -> GroundOp:
    return GroundOp(
        f"no_answer({s}, {h}, {c})",
        (goal(s, bel(h, neg(c))), bel(s, neg(c)), f"answer_expected({s}, {h}, {c})"),
        (bel(h, bel(s, neg(c))), bel(h, goal(s, bel(h, neg(c))))),
        s,
    )


def accept_belief(h: str, s: str, p: str, topic: str) -> GroundOp:
    return GroundOp(
        f"accept_belief({h}, {s}, {p})",
        (bel(h, bel(s, p)), f"reliable({s}, {topic})"),
        (bel(h, p),),
        h,
    )


# ---------------------------------------------------------------------------
# Simulation and search
# ---------------------------------------------------------------------------


def simulate(initial: frozenset[str], seq: list[GroundOp]) -> frozenset[str]:
    """Run ground operators forward; raise at the first unmet precondition."""
    state = set(initial)
    for i, op in enumerate(seq):
        missing = [p for p in op.pre if p not in state]
        if missing:
            raise OracleError(f"step {i} {op.head}: unmet precondition {missing[0]}")
        state.update(op.add)
    return frozenset(state)


def asserted(initial: frozenset[str], seq: list[GroundOp]) -> list[str]:
    """Initial facts, then each step's add-effects in order, first producer wins."""
    out = list(initial)
    seen = set(initial)
    for op in seq:
        for f in op.add:
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


def shortest(
    initial: frozenset[str],
    goals: tuple[str, ...],
    ops: list[GroundOp],
    bound: int,
    required: str | None = None,
) -> list[GroundOp] | None:
    """Shortest action sequence reaching every goal, or None within bound.

    With ``required`` (an operator head) the sequence must contain that
    operator and every goal must descend from it: a fact is tainted when
    the required operator adds it, or when an operator with a tainted
    precondition adds it.
    """
    if required is None and all(g in initial for g in goals):
        return []
    start = (initial, frozenset())
    frontier = [(start, [])]
    visited = {start}
    for _ in range(bound):
        nxt = []
        for (state, tainted), seq in frontier:
            for op in ops:
                new_state = state.union(op.add)
                if required is None:
                    new_tainted = tainted
                elif op.head == required or any(p in tainted for p in op.pre):
                    new_tainted = tainted.union(op.add)
                else:
                    new_tainted = tainted
                if (new_state, new_tainted) == (state, tainted):
                    continue
                if any(p not in state for p in op.pre):
                    continue
                node = (new_state, new_tainted)
                if node in visited:
                    continue
                visited.add(node)
                new_seq = seq + [op]
                reached = new_tainted if required is not None else new_state
                if all(g in reached for g in goals):
                    return new_seq
                nxt.append((node, new_seq))
        frontier = nxt
        if not frontier:
            break
    return None


def template_pattern(template: str) -> re.Pattern[str]:
    """Regex matching the ground instances of a term with ?variables."""
    out: list[str] = []
    seen: set[str] = set()
    for token in re.split(r"(\?[a-z0-9_]+)", template):
        if token.startswith("?"):
            name = token[1:]
            out.append(f"(?P={name})" if name in seen else f"(?P<{name}>[a-z0-9_]+)")
            seen.add(name)
        else:
            out.append(re.escape(token))
    return re.compile("".join(out) + r"\Z")


def completion(
    entry: str,
    target: str,
    ops: list[GroundOp],
    bound: int,
    ambient: frozenset[str],
) -> tuple[list[GroundOp], str] | None:
    """Shortest nonempty sequence from the ambient state whose first action
    consumes ``entry`` and after which some fact matches ``target``."""
    pattern = template_pattern(target)
    frontier: list[tuple[frozenset[str], list[GroundOp]]] = [(ambient, [])]
    visited = {ambient}
    for _ in range(bound):
        nxt = []
        for state, seq in frontier:
            for op in ops:
                if any(p not in state for p in op.pre):
                    continue
                if not seq and entry not in op.pre:
                    continue
                new_state = state.union(op.add)
                new_seq = seq + [op]
                hits = sorted(f for f in new_state if pattern.match(f))
                if hits:
                    return new_seq, hits[0]
                if new_state not in visited:
                    visited.add(new_state)
                    nxt.append((new_state, new_seq))
        frontier = nxt
        if not frontier:
            break
    return None


# ---------------------------------------------------------------------------
# The reading of one utterance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    goal: str  # goal(speaker, content)
    content: str
    seeds: tuple[str, ...]


@dataclass
class TurnSpec:
    """What the oracle needs about one answer or inform turn."""

    speaker: str
    utterance: str  # head of the performed act
    candidates: list[Candidate]
    ops: list[GroundOp]
    initial: frozenset[str]
    bound: int
    library: list[str] = field(default_factory=list)  # goal(speaker, template)
    avoid: list[str] = field(default_factory=list)


@dataclass
class Reading:
    rank: int
    goal: str
    g1: str
    initial: frozenset[str]
    plan_r: list[GroundOp]
    plan_o: list[GroundOp]
    kind: str  # "optimal" | "inefficient"
    skipped: list[str]  # candidates before the recognized one
    checks: list[tuple[str, str, int | None, int, bool]] = field(default_factory=list)
    report: str = "none"
    report_goal: str | None = None
    completion: list[GroundOp] = field(default_factory=list)

    @property
    def cost_r(self) -> int:
        return len(self.plan_r)

    @property
    def cost_o(self) -> int:
        return len(self.plan_o)


def seeds_for(speaker: str, content: str) -> tuple[str, ...]:
    """Hypothesis facts for goal(speaker, content): the goal itself and, when
    it wants another agent to believe q, the speaker's belief in q."""
    m = re.fullmatch(r"bel\(([a-z0-9_]+), (.*)\)", content)
    seeds = [goal(speaker, content)]
    if m and m.group(1) != speaker:
        seeds.append(bel(speaker, m.group(2)))
    return tuple(s for s in seeds if "?" not in s)


def _content(goal_term: str) -> str:
    m = re.fullmatch(r"goal\([a-z0-9_]+, (.*)\)", goal_term)
    if m is None:
        raise OracleError(f"not a goal term: {goal_term}")
    return m.group(1)


def read(spec: TurnSpec) -> Reading:
    skipped: list[str] = []
    for rank, cand in enumerate(spec.candidates):
        if "?" in cand.content:
            raise OracleError(f"oracle reached a template candidate {cand.goal}")
        initial = spec.initial | set(cand.seeds)
        pr = shortest(initial, (cand.content,), spec.ops, spec.bound, spec.utterance)
        if pr is None:
            skipped.append(cand.goal)
            continue
        po = shortest(initial, (cand.content,), spec.ops, spec.bound)
        assert po is not None  # pr itself reaches the goal
        kind = "inefficient" if len(po) < len(pr) else "optimal"
        r = Reading(rank, cand.goal, cand.content, initial, pr, po, kind, skipped)
        if kind == "inefficient":
            _conjunctive(spec, r) or _avoidance(spec, r)
        return r
    raise OracleError(f"no candidate reachable for {spec.utterance}")


def _exclusive(a: list[str], b: list[str]) -> list[str]:
    others = set(b)
    return [f for f in a if f not in others]


def _conjunctive(spec: TurnSpec, r: Reading) -> bool:
    library = [g for g in spec.library if not template_pattern(g).match(r.goal)]
    if not library:
        return False
    ambient = simulate(r.initial, r.plan_r)
    won = False
    states = _exclusive(asserted(r.initial, r.plan_r), asserted(r.initial, r.plan_o))
    for s in states:
        for g2 in library:
            found = completion(s, _content(g2), spec.ops, spec.bound, ambient)
            if found is None:
                continue
            seq, achieved = found
            joint_initial = r.initial | set(seeds_for(spec.speaker, achieved))
            joint = shortest(joint_initial, (r.g1, achieved), spec.ops, spec.bound)
            joint_cost = None if joint is None else len(joint)
            extended = r.cost_r + len(seq)
            passed = joint_cost == extended
            r.checks.append((g2, s, joint_cost, extended, passed))
            if passed and not won:
                won = True
                r.report, r.report_goal, r.completion = "conjunctive", goal(spec.speaker, achieved), seq
    return won


def _avoidance(spec: TurnSpec, r: Reading) -> bool:
    if not spec.avoid:
        return False
    ambient = simulate(r.initial, r.plan_o)
    states = _exclusive(asserted(r.initial, r.plan_o), asserted(r.initial, r.plan_r))
    for s in states:
        for ag in spec.avoid:
            found = completion(s, ag, spec.ops, spec.bound, ambient)
            if found is None:
                continue
            seq, achieved = found
            if any(op.actor == spec.speaker for op in seq):
                continue
            r.report, r.report_goal, r.completion = "avoidance", neg(achieved), seq
            return True
    return False

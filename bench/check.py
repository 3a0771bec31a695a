"""Checks of the engine's output against the oracle.

:func:`expected_readings` runs the oracle on every turn specification of a
round and compares its reading with the one the generator's construction
predicts.  :func:`check_dialogue` compares one dialogue's outcomes and
canonical JSON trace with those readings: the recognized goal and its
rank, the verdict and both costs, the ascription kind and goal, the
recognition skips, every efficiency check the conjunctive rule traced (the
joint optimum against the recognized plan plus the completion), and an
independent simulation of the recognized plan, the re-planned optimum and
the ascribed completion over the oracle's ground operators.
"""

from __future__ import annotations

import heapq

from gen import Dialogue, Expected
from oracle import GroundOp, OracleError, Reading, TurnSpec, read, shortest, simulate

RECOGNITION_SKIPS = ("irrelevant-utterance", "unreachable")


def expected_readings(round_: list[Dialogue]) -> list[list[Reading | None]]:
    out = []
    for d in round_:
        readings: list[Reading | None] = []
        for turn in d.turns:
            if turn is None:
                readings.append(None)
                continue
            spec, expected = turn
            reading = read(spec)
            _agree(d.name, reading, expected)
            readings.append(reading)
        out.append(readings)
    return out


def _agree(name: str, r: Reading, e: Expected) -> None:
    got = (r.rank, r.goal, r.cost_r, r.cost_o, r.report, r.report_goal)
    want = (e.rank, e.goal, e.cost_r, e.cost_o, e.report, e.report_goal)
    if got != want:
        raise OracleError(f"{name}: oracle search gives {got}, construction {want}")


def _order(plan) -> list[int]:
    """A topological order of the plan's steps, smallest id first."""
    ids = set(plan.steps)
    preds = {i: set() for i in ids}
    for a, b in plan.orderings:
        if a in ids and b in ids:
            preds[b].add(a)
    ready = [i for i in ids if not preds[i]]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for j in sorted(ids):
            if i in preds[j]:
                preds[j].discard(i)
                if not preds[j]:
                    heapq.heappush(ready, j)
    if len(out) != len(ids):
        raise OracleError("plan orderings are cyclic")
    return out


def _ground(engine, ops: dict[str, GroundOp], engine_ops) -> list[GroundOp]:
    """The oracle's operators for engine steps, refusing any mismatch."""
    out = []
    for op in engine_ops:
        head = engine.render(op.head())
        mine = ops.get(head)
        if mine is None:
            raise OracleError(f"step {head} is not among the oracle's ground operators")
        pre = {engine.render(p) for p in op.preconditions}
        add = {engine.render(a) for a in op.add}
        if pre != set(mine.pre) or add != set(mine.add) or op.delete:
            raise OracleError(f"step {head} differs from its act definition")
        out.append(mine)
    return out


def _plan_problems(engine, plan, ops, initial, goal_fact, cost, required=None) -> list[str]:
    seq = _ground(engine, ops, [plan.steps[i] for i in _order(plan)])
    final = simulate(initial, seq)
    problems = []
    if goal_fact not in final:
        problems.append(f"plan does not reach {goal_fact}")
    if len(seq) != cost:
        problems.append(f"plan has {len(seq)} steps, oracle optimum {cost}")
    if required is not None:
        # the utterance must feed the goal: replay with only the plan's steps
        if shortest(initial, (goal_fact,), seq, len(seq), required) is None:
            problems.append("plan does not route the utterance to the goal")
    return problems


def check_turn(engine, spec: TurnSpec, r: Reading, outcome, events: list[dict]) -> list[str]:
    render = engine.render
    rec, verdict, report = outcome.recognition, outcome.verdict, outcome.report
    if rec is None or verdict is None:
        return [f"{spec.utterance}: nothing recognized, oracle recognizes {r.goal}"]
    problems = []
    got = (render(rec.ascribed_goal), rec.candidate_rank, verdict.kind, verdict.cost_r, verdict.cost_o)
    want = (r.goal, r.rank, r.kind, r.cost_r, r.cost_o)
    if got != want:
        problems.append(f"reading {got}, oracle {want}")
    got_report = (report.kind, render(report.goal) if report.goal is not None else None)
    if got_report != (r.report, r.report_goal):
        problems.append(f"ascription {got_report}, oracle {(r.report, r.report_goal)}")
    if problems:
        return problems
    ops = {op.head: op for op in spec.ops}
    try:
        problems += _plan_problems(engine, rec.plan_r, ops, r.initial, r.g1, r.cost_r, spec.utterance)
        problems += _plan_problems(engine, verdict.plan_o, ops, r.initial, r.g1, r.cost_o)
        if report.completion is not None:
            problems += _completion_problems(engine, spec, r, report, ops)
    except OracleError as exc:
        problems.append(str(exc))
    skipped = [e["payload"]["goal"] for e in events
               if e["kind"] == "candidate-skipped" and e["payload"]["cause"] in RECOGNITION_SKIPS]
    if skipped != r.skipped:
        problems.append(f"recognition skipped {skipped}, oracle finds unreachable {r.skipped}")
    checks = [
        (p["goal"], p["exclusive_state"], p["joint_optimum"], p["recognized_plus_completion"], p["passed"])
        for p in (e["payload"] for e in events if e["kind"] == "efficiency-check")
    ]
    if checks != r.checks:
        problems.append(f"efficiency checks {checks}, oracle {r.checks}")
    return problems


def _completion_problems(engine, spec: TurnSpec, r: Reading, report, ops) -> list[str]:
    render = engine.render
    seq = _ground(engine, ops, report.completion.actions)
    plan = r.plan_r if report.kind == "conjunctive" else r.plan_o
    ambient = simulate(r.initial, plan)
    entry = render(report.exclusive_state)
    achieved = render(report.completion.achieved_goal)
    problems = []
    if entry not in seq[0].pre:
        problems.append(f"completion does not start from {entry}")
    if achieved not in simulate(ambient, seq):
        problems.append(f"completion does not reach {achieved}")
    if len(seq) != len(r.completion):
        problems.append(f"completion has {len(seq)} actions, oracle {len(r.completion)}")
    if report.kind == "avoidance" and any(op.actor == spec.speaker for op in seq):
        problems.append("avoidance completion has the speaker acting")
    if report.kind == "conjunctive" and [render(t) for t in report.intentions] != [op.head for op in seq]:
        problems.append("intentions differ from the completion")
    return problems


def check_dialogue(engine, d: Dialogue, readings: list[Reading | None], result, events) -> list[str]:
    problems = []
    if len(result.outcomes) != len(d.turns):
        return [f"{len(result.outcomes)} outcomes for {len(d.turns)} turns"]
    for i, (outcome, reading) in enumerate(zip(result.outcomes, readings)):
        first, last = result.event_ranges[i]
        if reading is None:
            if outcome.recognition is not None or outcome.report.kind != "none":
                problems.append(f"turn {i}: a question was read as {outcome.report.kind}")
            continue
        spec = d.turns[i][0]
        for p in check_turn(engine, spec, reading, outcome, events[first:last]):
            problems.append(f"turn {i}: {p}")
    return problems

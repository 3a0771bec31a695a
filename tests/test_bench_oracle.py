"""The engine agrees with the benchmark's oracle on random dialogues.

The benchmark's generator (``bench/gen.py``) builds dialogues of three
families: warnings reaching the no-answer through a chain of scenario
operators, avoidance, and question/answer exchanges.  Its oracle
(``bench/oracle.py``) reads each turn by breadth-first search over ground
operators written out from the act definitions, independently of the
engine.  This test draws about 60 random parameter sets, runs each
dialogue through ``bench/run.py``'s ``run_dialogue`` and requires
``bench/check.py``'s ``check_dialogue`` against ``oracle.read`` to report
nothing.  A draw the oracle cannot read (``OracleError``) or the generator
cannot build (``StopIteration``) is skipped.

Warnings drawn at ``bound = depth + 1`` are one step short of the
no-answer plan, so the engine falls through to the library's templates,
which the oracle cannot read.  For those the test requires that both
answer candidates are skipped as ``unreachable`` and that the same
dialogue at ``depth + 2`` agrees with the oracle.
"""

import json
import random

import pytest

from implicature import inference, scenario, terms, trace

from test_bench_golden import load_run

run = load_run()  # puts bench/ on sys.path

import gen  # noqa: E402
from check import check_dialogue  # noqa: E402
from oracle import OracleError, read  # noqa: E402

ENGINE = run.Engine(
    load_scenario=scenario.load_scenario,
    setup=scenario.setup,
    infer=inference.infer,
    emit_json=scenario.emit_json,
    Trace=trace.Trace,
    render=terms.render,
)


def events_of(d: gen.Dialogue) -> tuple[run.Result, list[dict]]:
    result = run.run_dialogue(ENGINE, d, probed=False)
    return result, json.loads(result.json_text)["events"]


def draw(rng: random.Random, name: str) -> gen.Dialogue:
    family = rng.choice(("warning", "avoidance", "exchange"))
    if family == "warning":
        depth = rng.randint(1, 7)
        return gen.warning_dialogue(
            rng, name, depth, bound=rng.randint(depth + 2, 9),
            failing=rng.randint(0, 3), unreachable=rng.randint(0, 4),
        )
    if family == "avoidance":
        return gen.avoidance_dialogue(
            rng, name, rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 2)
        )
    exchanges = rng.randint(2, 6)
    return gen.exchange_dialogue(
        rng, name, rng.randint(2, 4), exchanges, rng.randint(0, 2), rng.randint(0, 2)
    )


def test_random_dialogues_match_the_oracle():
    rng = random.Random(2017)
    checked, problems = 0, []
    for i in range(60):
        try:
            d = draw(rng, f"random-{i}")
            readings = [None if turn is None else read(turn[0]) for turn in d.turns]
        except (OracleError, StopIteration):
            continue
        result, events = events_of(d)
        problems += [f"{d.name}: {p}" for p in check_dialogue(ENGINE, d, readings, result, events)]
        checked += 1
    assert not problems, problems[:5]
    assert checked >= 50


def test_warning_one_step_past_the_bound_skips_both_answers():
    rng = random.Random(1901)
    for depth in [*range(1, 8)] * 2:
        seed, failing, unreachable = rng.random(), rng.randint(0, 3), rng.randint(0, 4)

        def warning(bound: int) -> gen.Dialogue:
            return gen.warning_dialogue(
                random.Random(seed), f"warning-{depth}-{bound}", depth, bound=bound,
                failing=failing, unreachable=unreachable,
            )

        short = warning(depth + 1)
        spec = short.turns[1][0]
        with pytest.raises(OracleError, match="template candidate"):
            read(spec)
        _, events = events_of(short)
        skipped = [(e["payload"]["goal"], e["payload"]["cause"])
                   for e in events if e["kind"] == "candidate-skipped"]
        assert skipped[:2] == [(c.goal, "unreachable") for c in spec.candidates[:2]]

        fits = warning(depth + 2)
        readings = [None if turn is None else read(turn[0]) for turn in fits.turns]
        result, events = events_of(fits)
        assert check_dialogue(ENGINE, fits, readings, result, events) == []

#!/usr/bin/env python3
"""Benchmark for the implicature engine.

One client runs a closed loop: parse a dialogue, ``setup``, every turn
through ``infer``, ``emit_json``, then the next dialogue.  Dialogues come
in rounds from a seeded generator; a run attempts whole rounds until
``--seconds`` have passed, and checks every output against the oracle.

    python3 bench/run.py --workload deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (counted in dialogues) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (per dialogue)
with ``--trace 1``.  The engine is imported from ``src/`` beside this
directory and nowhere else; without it the benchmark exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from check import RECOGNITION_SKIPS, check_dialogue, expected_readings  # noqa: E402
from layers import SKIP_CAUSES, Tracer  # noqa: E402

WORKLOADS = ("paper", "deep", "wide", "dialogues")

#: how many times set-up is repeated per run; the median is reported
SETUP_REPEATS = 9

#: seconds :func:`probe` takes at the reference speed: the median probe time
#: over the benchmark runs on a 2-vCPU x86-64 host with Python 3.11, so that
#: scaled times read as that host's wall time at its usual speed; every
#: reported time is scaled to it
REFERENCE_PROBE_S = 0.024

#: per workload, the percentile reported as ``utterance_ms_tail``: the
#: highest that leaves at least ten samples beyond it in a run of the
#: default length; ``deep`` and ``wide`` collect fewer than forty samples,
#: which give no tail, so they report the median
TAIL = {"paper": 0.75, "deep": 0.5, "wide": 0.5, "dialogues": 0.75}

END_TO_END_UNITS = {
    "utterance_ms_p50": "ms",
    "utterance_ms_tail": "ms",
    "dialogues_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def build_round(workload: str, seed: int) -> list[gen.Dialogue]:
    """One round of dialogues: a fixed shape per workload, names and order
    drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper":
        round_ = gen.paper_dialogues()
    elif workload == "deep":
        # the middle depth five times, so that the median rests on more
        # than one sample per round
        round_ = [gen.warning_dialogue(rng, f"deep-{k}-{i}", k)
                  for i, k in enumerate((2, 3, 4, 4, 4, 4, 4, 5, 6))]
    elif workload == "wide":
        round_ = [
            gen.warning_dialogue(rng, "wide-teach-8", 1, failing=1, unreachable=6),
            gen.warning_dialogue(rng, "wide-teach-16", 1, failing=1, unreachable=14),
            gen.avoidance_dialogue(rng, "wide-avoid-12", 1, 11, 2),
        ]
    elif workload == "dialogues":
        round_ = [
            gen.exchange_dialogue(rng, "dialogues-2x8", 2, 8, 1, 2),
            gen.exchange_dialogue(rng, "dialogues-4x16", 4, 16, 2, 4),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(round_)
    return round_


# ---------------------------------------------------------------------------
# The engine, imported from this checkout only
# ---------------------------------------------------------------------------


@dataclass
class Engine:
    load_scenario: object
    setup: object
    infer: object
    emit_json: object
    Trace: object
    render: object


def import_engine() -> Engine:
    """(Re-)import the engine from ``src/``, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "implicature" or m.startswith("implicature.")]:
        del sys.modules[name]
    package = importlib.import_module("implicature")
    if Path(package.__file__).resolve().parent != (SRC / "implicature").resolve():
        raise SystemExit(f"bench: imported implicature from {package.__file__}, not {SRC}")
    scenario = sys.modules["implicature.scenario"]
    return Engine(
        load_scenario=scenario.load_scenario,
        setup=scenario.setup,
        infer=sys.modules["implicature.inference"].infer,
        emit_json=scenario.emit_json,
        Trace=sys.modules["implicature.trace"].Trace,
        render=sys.modules["implicature.terms"].render,
    )


def measure_setup(round_: list[gen.Dialogue]) -> tuple[float, Engine]:
    """Import the engine, then load and set up every dialogue of the round;
    the time is scaled to the reference speed measured around it."""
    before = probe()
    started = time.perf_counter()
    engine = import_engine()
    for d in round_:
        engine.setup(engine.load_scenario(d.text))
    elapsed = time.perf_counter() - started
    return elapsed * speed_scale(before, probe()), engine


def probe() -> float:
    """Seconds a fixed pure-Python computation takes now.

    It builds and walks nested tuples and counts leaves in a dict, the kind
    of work the engine does, and shares no code with it.  The collector is
    off while it runs, so its time does not grow with the objects the
    engine keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()

    def build(depth: int, k: int) -> tuple:
        return ("f", k) if depth == 0 else ("g", build(depth - 1, k), build(depth - 1, k + 1))

    def walk(t: tuple, counts: dict) -> None:
        if t[0] == "f":
            counts[t] = counts.get(t, 0) + 1
        else:
            walk(t[1], counts)
            walk(t[2], counts)

    counts: dict = {}
    for k in range(80):
        walk(build(9, k), counts)
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to the reference
    speed, at which a probe takes ``REFERENCE_PROBE_S``."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


@dataclass
class Result:
    seconds: float = 0.0  # at the reference speed
    raw_seconds: float = 0.0  # as the clock read them
    latencies: list[float] = field(default_factory=list)  # answers and informs, at the reference speed
    json_text: str = ""
    outcomes: list = field(default_factory=list)
    event_ranges: list[tuple[int, int]] = field(default_factory=list)


def run_dialogue(engine: Engine, d: gen.Dialogue, tracer: Tracer | None = None,
                 probed: bool = True) -> Result:
    """One dialogue through the engine, timed piece by piece.

    The probe runs before the dialogue, before every inference-bearing
    turn and at the end, outside the timed pieces; each piece is scaled by
    the probes either side of it.  With ``probed`` false nothing is scaled.
    """
    clock = time.perf_counter
    result = Result()
    last = probe() if probed else 0.0
    raw, waiting = 0.0, []  # time and latencies since the last probe

    def settle() -> None:
        nonlocal last, raw, waiting
        scale = 1.0
        if probed:
            now = probe()
            scale, last = speed_scale(last, now), now
        result.seconds += raw * scale
        result.raw_seconds += raw
        result.latencies.extend(x * scale for x in waiting)
        raw, waiting = 0.0, []

    t0 = clock()
    scenario = engine.load_scenario(d.text)
    trace = engine.Trace()
    store, domain = engine.setup(scenario, trace=trace)
    raw += clock() - t0
    for i, turn in enumerate(scenario.turns):
        if d.turns[i] is not None:
            settle()
        if tracer is not None:
            tracer.turn = i
            tracer.turn_kind = turn_kind(d, i)
            tracer.store_sizes.append(sum(len(a) for a in store.spaces.values()))
        first = len(trace.events)
        t0 = clock()
        outcome = engine.infer(store, turn, domain, trace=trace)
        t1 = clock()
        raw += t1 - t0
        if d.turns[i] is not None:
            waiting.append(t1 - t0)
        store = outcome.store
        result.outcomes.append(outcome)
        result.event_ranges.append((first, len(trace.events)))
    t0 = clock()
    result.json_text = engine.emit_json(trace)
    raw += clock() - t0
    settle()
    return result


def turn_kind(d: gen.Dialogue, i: int) -> str:
    if d.turns[i] is None:
        return "question"
    _, expected = d.turns[i]
    if expected.cost_r > expected.cost_o:
        return "indirect"
    return "direct"


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # what the engine raised
    problems: list[str] = field(default_factory=list)  # outputs the oracle refutes
    rounds: int = 0
    latencies: list[float] = field(default_factory=list)  # answers and informs
    busy: float = 0.0  # seconds spent in completed dialogues, at reference speed
    raw_busy: float = 0.0  # the same, as the clock read them
    #: per round, completed dialogues per second of their own time
    round_rates: list[float] = field(default_factory=list)
    #: candidates tried and skipped, by cause, from the canonical traces
    events: Counter = field(default_factory=Counter)


def measure(engine: Engine, round_: list[gen.Dialogue], readings, seconds: float,
            tracer: Tracer | None = None) -> Run:
    run = Run()
    # warm-up: one short dialogue through every layer, neither timed nor
    # counted, the same for every workload
    run_dialogue(engine, next(d for d in gen.paper_dialogues() if d.name == "burnt_cakes"), probed=False)
    if tracer is not None:
        tracer.reset()
    # whole rounds, at least two, ending as close to ``seconds`` as they can
    started = time.perf_counter()
    rounds = 0
    while rounds < 2 or (time.perf_counter() - started) * (1 + 0.5 / rounds) < seconds:
        done, spent = 0, 0.0
        for j, d in enumerate(round_):
            run.attempted += 1
            if tracer is not None:
                tracer.dialogue = f"{rounds}.{d.name}"
            gc.collect()  # start every dialogue from the same heap
            try:
                result = run_dialogue(engine, d, tracer)
            except Exception as exc:  # an engine fault: the operation failed
                run.failed += 1
                run.failures.append(f"{d.name}: {type(exc).__name__}: {exc}")
                continue
            if tracer is not None:
                tracer.scale[tracer.dialogue] = result.seconds / result.raw_seconds
            run.busy += result.seconds
            run.raw_busy += result.raw_seconds
            done, spent = done + 1, spent + result.seconds
            run.latencies.extend(result.latencies)
            events = json.loads(result.json_text)["events"]
            count_events(run.events, events)
            for problem in check_dialogue(engine, d, readings[j], result, events):
                run.problems.append(f"{d.name}: {problem}")
        if done:
            run.round_rates.append(done / spent)
        rounds += 1
    run.rounds = rounds
    return run


def count_events(counter: Counter, events: list[dict]) -> None:
    for e in events:
        if e["module"] != "implicature":
            continue
        if e["kind"] == "candidate-skipped":
            cause = e["payload"]["cause"]
            counter[f"inference.candidates_skipped.{cause}"] += 1
            if cause in RECOGNITION_SKIPS:
                counter["inference.candidates_tried"] += 1
        elif e["kind"] == "plan-found":
            counter["inference.candidates_tried"] += 1


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "implicature" / "__init__.py").is_file():
        raise SystemExit(f"bench: no engine source at {SRC / 'implicature'}")
    round_ = build_round(workload, seed)
    readings = expected_readings(round_)
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, engine = measure_setup(round_)
        setups.append(elapsed)
    gc.freeze()  # the inputs and oracle readings stay out of the engine's collections
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        engine.load_scenario = tracer.wrap("scenario.load", engine.load_scenario)
        engine.setup = tracer.wrap("scenario.setup", engine.setup)
        engine.infer = tracer.wrap("inference.infer", engine.infer)
        engine.emit_json = tracer.wrap("scenario.emit_json", engine.emit_json)
    try:
        run = measure(engine, round_, readings, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for line in run.failures[:10] + run.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    completed = run.attempted - run.failed
    if completed == 0:
        raise SystemExit(f"bench: every {workload} dialogue failed")
    # a failed operation is counted in ``failed``, not held against correctness
    correct = not run.problems
    if traced:
        metrics = layer_metrics(tracer, completed, run)
        spans = HERE / "out" / f"spans-{workload}-{seed}.json"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        samples = sorted(run.latencies)
        level = TAIL[workload]
        high = samples[min(len(samples) - 1, int(level * len(samples)))]
        print(f"{workload}: {run.rounds} rounds of {len(round_)} dialogues, {len(samples)} utterances; "
              f"utterance_ms_tail is p{level * 100:.0f} with {len(samples) - 1 - samples.index(high)} "
              f"samples beyond it; setup_s is the median of {SETUP_REPEATS}; the clock read "
              f"{completed / run.raw_busy:.4f} dialogues/s, the machine ran at "
              f"{run.busy / run.raw_busy:.3f} of the reference speed")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "utterance_ms_p50": statistics.median(samples) * 1000,
            "utterance_ms_tail": (statistics.median(samples) if level == 0.5 else high) * 1000,
            "dialogues_per_s": statistics.median(run.round_rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def layer_metrics(tracer: Tracer, dialogues: int, run: Run) -> dict:
    """Per-layer totals over the run, per completed dialogue."""
    totals = tracer.totals()  # scaled to the reference speed per dialogue
    totals["scenario.dialogue_ms"] = run.busy * 1000
    totals.update({name: float(n) for name, n in tracer.counts.items()})
    totals.update({name: float(n) for name, n in run.events.items()})
    sizes = tracer.store_sizes
    out = {"beliefs.store_attitudes": {"value": sum(sizes) / len(sizes), "unit": "count/turn"}}
    for name in LAYER_METRICS:
        if name not in out:
            unit = "ms/dialogue" if name.endswith("_ms") else "count/dialogue"
            out[name] = {"value": totals.get(name, 0.0) / dialogues, "unit": unit}
    return out


LAYER_METRICS = (
    "scenario.dialogue_ms",
    "scenario.load_ms",
    "scenario.setup_ms",
    "scenario.emit_json_ms",
    "inference.infer_ms",
    "acts.update_ms",
    "beliefs.snapshot_ms",
    "beliefs.store_attitudes",
    "inference.recognize_ms",
    "inference.recognize_self_ms",
    "inference.candidates_tried",
    *(f"inference.candidates_skipped.{cause}" for cause in SKIP_CAUSES),
    "inference.audit_ms",
    "inference.ascription_ms",
    "inference.conjunctive_ms",
    "inference.conjunctive_self_ms",
    "inference.avoidance_ms",
    "planner.plan_calls",
    "planner.plan_ms",
    "planner.plan_recognition_ms",
    "planner.plan_audit_ms",
    "planner.plan_joint_ms",
    "planner.plan_none_calls",
    "planner.plan_none_ms",
    "planner.complete_from_calls",
    "planner.complete_from_ms",
    "planner.exclusive_states_ms",
    "terms.unify_calls",
    "terms.apply_calls",
    "terms.rename_apart_calls",
    "terms.render_calls",
)


def run_in_process(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """One workload in a process of its own; its notes go to our stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    *notes, last = proc.stdout.strip().splitlines()
    print("\n".join(notes))
    return json.loads(last)


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Each workload in its own process, one after another."""
    results = {w: run_in_process(w, seed, seconds, traced) for w in WORKLOADS}
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

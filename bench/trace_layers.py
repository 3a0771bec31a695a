#!/usr/bin/env python3
"""Traced run of every workload: per-layer metrics, spans and overhead.

    python3 bench/trace_layers.py --seed 1 --seconds 25

For each workload this runs ``run.py`` twice, one process after the other:
untraced (end-to-end metrics) and traced (per-layer metrics, spans written
to ``bench/out/spans-<workload>-<seed>.json``).  It writes both results to
``bench/out/layers-<workload>-<seed>.json``, prints the layer table, the
shares that show what each workload stresses, and the tracing overhead:
the traced run's mean dialogue time against the untraced run's.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORKLOADS, run_in_process


def ascription_on(spans: list[dict], kind: str) -> tuple[float, float, int]:
    """Ascription and whole-utterance milliseconds on turns of one kind, and
    how many such turns there were."""
    infers = [s for s in spans if s["name"] == "inference.infer" and s["turn_kind"] == kind]
    ascription = sum((s["end"] - s["start"]) * 1000 for s in spans
                     if s["turn_kind"] == kind
                     and s["name"] in ("inference.ascribe_conjunctive", "inference.ascribe_avoidance"))
    return ascription, sum((s["end"] - s["start"]) * 1000 for s in infers), len(infers)


def shares(layers: dict) -> dict[str, float]:
    v = {k: m["value"] for k, m in layers.items()}
    infer = v["inference.infer_ms"]
    planner = v["planner.plan_ms"] + v["planner.complete_from_ms"] + v["planner.exclusive_states_ms"]
    return {
        "recognize_self": v["inference.recognize_self_ms"] / infer,
        "planner": planner / infer,
        "ascription": v["inference.ascription_ms"] / infer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    summary = {}
    for w in workloads:
        plain = run_in_process(w, args.seed, args.seconds, traced=False)
        traced = run_in_process(w, args.seed, args.seconds, traced=True)
        layers = traced["metrics"]
        spans = json.loads((out_dir / f"spans-{w}-{args.seed}.json").read_text())
        direct_ms, direct_infer_ms, direct_turns = ascription_on(spans, "direct")
        untraced_ms = 1000 / plain["metrics"]["dialogues_per_s"]["value"]
        overhead = layers["scenario.dialogue_ms"]["value"] / untraced_ms - 1
        summary[w] = {
            "untraced": plain,
            "traced": traced,
            "shares_of_infer": shares(layers),
            "ascription_ms_on_direct_answers": direct_ms,
            "infer_ms_on_direct_answers": direct_infer_ms,
            "direct_answers": direct_turns,
            "tracing_overhead": overhead,
        }
        (out_dir / f"layers-{w}-{args.seed}.json").write_text(json.dumps(summary[w], indent=1))
        print(f"== {w}: correct={plain['correct'] and traced['correct']} "
              f"tracing overhead {overhead:+.1%} (dialogue {layers['scenario.dialogue_ms']['value']:.1f} ms "
              f"traced, {untraced_ms:.1f} ms untraced)")
        for name, m in layers.items():
            print(f"  {name:52s} {m['value']:14.3f} {m['unit']}")
        print("  shares of inference.infer_ms: "
              + ", ".join(f"{k} {s:.1%}" for k, s in summary[w]["shares_of_infer"].items()))
        if direct_turns:
            print(f"  direct answers: {direct_turns}, ascription {direct_ms:.3f} ms "
                  f"of {direct_infer_ms:.1f} ms inference in all")
    if set(workloads) == set(WORKLOADS):
        s = {w: summary[w]["shares_of_infer"] for w in WORKLOADS}
        paper = summary["paper"]["traced"]["metrics"]
        leaves = ("inference.recognize_self_ms", "planner.plan_ms", "planner.complete_from_ms",
                  "inference.audit_ms", "inference.conjunctive_self_ms", "inference.avoidance_ms",
                  "acts.update_ms", "beliefs.snapshot_ms", "scenario.load_ms", "scenario.emit_json_ms")
        leader = max(leaves, key=lambda k: paper[k]["value"])
        claims = [
            ("inference.recognize_self_ms leads on paper", leader == "inference.recognize_self_ms"),
            ("planner share larger on deep than on paper", s["deep"]["planner"] > s["paper"]["planner"]),
            ("ascription share largest on wide",
             all(s["wide"]["ascription"] > s[w]["ascription"] for w in WORKLOADS if w != "wide")),
            ("ascription near zero on direct answers of dialogues",
             summary["dialogues"]["ascription_ms_on_direct_answers"]
             <= 0.001 * summary["dialogues"]["infer_ms_on_direct_answers"]),
        ]
        for claim, ok in claims:
            print(f"{'CONFIRMED' if ok else 'NOT CONFIRMED'}: {claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

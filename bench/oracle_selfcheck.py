#!/usr/bin/env python3
"""Self-check of the oracle, and a printout of the readings it expects.

    python3 bench/oracle_selfcheck.py                       # computer_off only
    python3 bench/oracle_selfcheck.py --workload wide --seed 3

Without the engine: the oracle must reproduce the published reading of
``computer_off`` by search alone (the indirect no-answer recognized at
cost 3, the direct route at cost 2, the teaching goal ascribed through one
accept_belief).  With ``--workload`` it prints every turn's expected
reading for that seed; the benchmark computes the same readings on every
run, so nothing is stored.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from check import expected_readings  # noqa: E402
from oracle import read  # noqa: E402


def computer_off_ok() -> bool:
    d = next(d for d in gen.paper_dialogues() if d.name == "computer_off")
    spec, _ = d.turns[1]
    r = read(spec)
    return (
        r.goal == "goal(expert, bel(system, not(permission(system, switch(system, computer_off)))))"
        and (r.kind, r.cost_r, r.cost_o) == ("inefficient", 3, 2)
        and [op.head.split("(")[0] for op in r.plan_o] == ["no_answer", "accept_belief"]
        and r.report == "conjunctive"
        and r.report_goal == "goal(expert, bel(system, cause(switch(system, computer_off), damage(hard_drive))))"
        and [op.head.split("(")[0] for op in r.completion] == ["accept_belief"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper", "deep", "wide", "dialogues"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = computer_off_ok()
    print(f"oracle self-check {'PASS' if ok else 'FAIL'}: computer_off inefficient 3 vs 2, teaching goal")
    if args.workload:
        from run import build_round

        round_ = build_round(args.workload, args.seed)
        for d, readings in zip(round_, expected_readings(round_)):
            print(f"== {d.name}")
            for i, r in enumerate(readings):
                if r is None:
                    continue
                print(f"  turn {i}: {r.goal} rank {r.rank}, {r.kind} {r.cost_r} vs {r.cost_o}, "
                      f"{r.report} {r.report_goal or ''}".rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

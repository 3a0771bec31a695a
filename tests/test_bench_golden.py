"""The seed-1 and seed-2 benchmark dialogues still produce their frozen output.

``tests/golden/bench_seed<N>.json`` holds, for each ``deep``, ``wide`` and
``dialogues`` dialogue of ``bench/run.py``'s ``build_round`` at seed N, the
SHA-256 of its canonical trace and of the DOT export of its last plan (as
``implicature run --dot`` writes it).  The bundled ``paper`` scenarios are
pinned byte for byte by ``test_scenario.py::TestGoldenTrace``.

After a deliberate change of behaviour, regenerate the files with

    PYTHONPATH=src python tests/test_bench_golden.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from implicature.cli import _last_plan
from implicature.completion import to_dot
from implicature.scenario import emit_json, load_scenario, run_detailed

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("deep", "wide", "dialogues")
SEEDS = (1, 2)


def load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def golden(seed: int) -> Path:
    return GOLDEN / f"bench_seed{seed}.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(text: str) -> dict[str, str]:
    """SHA-256 of the canonical trace and of the last plan's DOT export
    (empty when no plan was recognized)."""
    trace, _store, outcomes = run_detailed(load_scenario(text))
    plan, completion = _last_plan(outcomes)
    dot = "" if plan is None else to_dot(plan, completion)
    return {"trace": _sha(emit_json(trace)), "dot": _sha(dot)}


def dialogues() -> dict[int, dict[str, str]]:
    """Each seed's dialogues, by name (the names repeat across seeds)."""
    build_round = load_run().build_round
    return {
        seed: {d.name: d.text for w in WORKLOADS for d in build_round(w, seed)}
        for seed in SEEDS
    }


DIALOGUES = dialogues()


@pytest.mark.parametrize(
    "seed, name",
    [
        # seed-1 ids stay the bare dialogue names, so existing test ids are stable
        pytest.param(seed, name, id=name if seed == 1 else f"seed{seed}-{name}")
        for seed in SEEDS
        for name in sorted(DIALOGUES[seed])
    ],
)
def test_matches_frozen_digests(seed, name):
    frozen = json.loads(golden(seed).read_text())
    assert digests(DIALOGUES[seed][name]) == frozen[name]


if __name__ == "__main__":
    for seed in SEEDS:
        frozen = {name: digests(text) for name, text in sorted(DIALOGUES[seed].items())}
        golden(seed).write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(frozen)} digests to {golden(seed)}", file=sys.stderr)

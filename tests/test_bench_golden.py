"""The seed-1 benchmark dialogues still produce their frozen output.

``tests/golden/bench_seed1.json`` holds, for each seed-1 ``deep``, ``wide``
and ``dialogues`` dialogue of ``bench/run.py``'s ``build_round``, the
SHA-256 of its canonical trace and of the DOT export of its last plan (as
``implicature run --dot`` writes it).  The bundled ``paper`` scenarios are
pinned byte for byte by ``test_scenario.py::TestGoldenTrace``.

After a deliberate change of behaviour, regenerate the file with

    PYTHONPATH=src python tests/test_bench_golden.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from implicature.cli import _last_plan
from implicature.planner import to_dot
from implicature.scenario import emit_json, load_scenario, run_detailed

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "bench_seed1.json"
WORKLOADS = ("deep", "wide", "dialogues")


def load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(text: str) -> dict[str, str]:
    """SHA-256 of the canonical trace and of the last plan's DOT export
    (empty when no plan was recognized)."""
    trace, _store, outcomes = run_detailed(load_scenario(text))
    plan, completion = _last_plan(outcomes)
    dot = "" if plan is None else to_dot(plan, completion)
    return {"trace": _sha(emit_json(trace)), "dot": _sha(dot)}


def dialogues():
    build_round = load_run().build_round
    return {d.name: d.text for w in WORKLOADS for d in build_round(w, 1)}


DIALOGUES = dialogues()


@pytest.mark.parametrize("name", sorted(DIALOGUES))
def test_matches_frozen_digests(name):
    assert digests(DIALOGUES[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    frozen = {name: digests(text) for name, text in sorted(DIALOGUES.items())}
    GOLDEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(frozen)} digests to {GOLDEN}", file=sys.stderr)

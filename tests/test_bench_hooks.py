"""The engine functions the benchmark's per-layer tracer wraps still exist.

``bench/layers.py`` replaces module attributes by name; a rename in the
engine would otherwise surface only as a failing ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


@pytest.mark.parametrize("module, attr", sorted(layers.SPANS))
def test_span_wrap_point_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"implicature.{module}"), attr))


def test_span_wrap_points_are_called():
    from importlib import resources

    from implicature.scenario import load_scenario, run_detailed

    tracer = layers.Tracer()
    tracer.install()
    try:
        for name in ("computer_off", "burnt_cakes"):
            text = resources.files("implicature").joinpath(f"scenarios/{name}.vgs").read_text()
            run_detailed(load_scenario(text))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert set(layers.SPANS.values()) <= names
    assert any(
        span[0] == "planner.plan"
        and span[3] >= 0
        and tracer.spans[span[3]][0] == "inference.ascribe_conjunctive"
        for span in tracer.spans
    )

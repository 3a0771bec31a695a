"""The package's public surface and the layering of its modules."""

import ast
from pathlib import Path

import implicature

PACKAGE = Path(implicature.__file__).parent

#: ``sorted(implicature.__all__)``, frozen: the public surface changes only
#: on purpose, whichever module defines each name
PUBLIC_NAMES = [
    "ACTS", "ActInstance", "ActSchema", "AscriptionReport", "Atom", "Attitude",
    "BeliefStore", "CausalLink", "Completion", "Compound", "Domain",
    "EfficiencyVerdict", "InferenceOutcome", "Operator", "Plan",
    "RecognitionResult", "Scenario", "Stereotype", "Term", "Trace", "Var",
    "apply_hearer_update", "apply_speaker_update", "ascribe_avoidance",
    "ascribe_conjunctive", "assert_attitude", "asserted_states",
    "candidate_goals", "complete_from", "contrary_evidence", "cost",
    "default_ascribe", "efficiency_audit", "emit_dot", "emit_json",
    "exclusive_states", "holds", "infer", "linearize", "load_scenario",
    "parse_term", "parse_trace", "plan", "recognize", "render", "run",
    "simulate", "to_dot",
]


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _sibling_imports(module: str) -> list[tuple[str, str]]:
    """(sibling module, name) for every name ``module`` imports from the
    package, at any depth of its source (``TYPE_CHECKING`` blocks too)."""
    out = []
    for node in ast.walk(_tree(module)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if source != "implicature" and not source.startswith("implicature."):
                continue
            source = source.removeprefix("implicature").lstrip(".")
        for alias in node.names:
            if source:
                out.append((source, alias.name))
            else:  # from . import module
                out.append((alias.name, alias.name))
    return out


def _defined(module: str) -> set[str]:
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_exported_name_resolves():
    assert [name for name in implicature.__all__ if not hasattr(implicature, name)] == []


def test_public_names_are_unchanged():
    assert sorted(implicature.__all__) == PUBLIC_NAMES


def test_planning_modules_import_one_way():
    # closure <- planner <- completion, with no cycle
    assert [m for m, _ in _sibling_imports("closure") if m in ("planner", "completion")] == []
    assert [m for m, _ in _sibling_imports("planner") if m == "completion"] == []
    assert {m for m, _ in _sibling_imports("completion")} == {"closure", "planner", "terms"}


def test_engine_modules_import_each_name_from_where_it_is_defined():
    # no module passes on a name it imported, so none is a re-export shim
    engine = ("acts", "beliefs", "cli", "closure", "completion", "inference",
              "planner", "scenario")
    borrowed = [
        (module, source, name)
        for module in engine
        for source, name in _sibling_imports(module)
        if name not in _defined(source)
    ]
    assert borrowed == []

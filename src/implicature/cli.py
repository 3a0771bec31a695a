"""Command line interface: run scenarios, validate them, or drive a REPL.

Exit codes: 0 ok, 1 scenario error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .acts import ActError
from .beliefs import BeliefError, render_store
from .inference import InferenceOutcome, infer
from .planner import to_dot
from .scenario import (
    Scenario,
    ScenarioError,
    act_from_term,
    emit_json,
    load_scenario,
    run_detailed,
    setup,
)
from .terms import TermError, parse_term, render

EXIT_OK = 0
EXIT_SCENARIO_ERROR = 1
EXIT_INTERNAL_ERROR = 2


def _read_scenario(ref: str) -> Scenario:
    path = Path(ref)
    if path.exists():
        return load_scenario(path.read_text(encoding="utf-8"))
    name = ref if ref.endswith(".vgs") else ref + ".vgs"
    bundled = resources.files("implicature").joinpath("scenarios", name)
    if bundled.is_file():
        return load_scenario(bundled.read_text(encoding="utf-8"))
    raise ScenarioError(f"no such scenario file: {ref}")


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    config = scenario.config
    if getattr(args, "bound", None) is not None:
        if args.bound < 1:
            raise ScenarioError(f"--bound: expected an integer >= 1, got {args.bound}")
        config = replace(config, bound=args.bound)
    if getattr(args, "strict", False):
        config = replace(config, strict=True)
    return replace(scenario, config=config)


def _last_plan(outcomes: list[InferenceOutcome]):
    """Plan and completion overlay for DOT export.

    Conjunctive completions graft onto the recognized plan; avoidance
    completions run from a state of the bypassed optimal plan.
    """
    for outcome in reversed(outcomes):
        if outcome.recognition is None:
            continue
        report = outcome.report
        if report.kind == "avoidance" and outcome.verdict and outcome.verdict.plan_o:
            return outcome.verdict.plan_o, report.completion
        return outcome.recognition.plan_r, report.completion
    return None, None


def _summary(outcome: InferenceOutcome) -> str:
    if outcome.recognition is None:
        return "no plan recognized for any candidate goal"
    verdict = outcome.verdict
    assert verdict is not None
    goal = render(outcome.recognition.ascribed_goal)
    if verdict.kind == "optimal":
        return f"optimal (cost {verdict.cost_r}): recognized {goal}"
    head = f"inefficient ({verdict.cost_r} vs {verdict.cost_o}): recognized {goal}"
    report = outcome.report
    if report.kind == "conjunctive":
        return f"{head}; conjunctive goal ascribed: {render(report.goal)}"
    if report.kind == "avoidance":
        return f"{head}; avoidance goal ascribed: goal({render(report.goal)})"
    return f"{head}; no additional goal ascribed"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(_read_scenario(args.scenario), args)
    trace, _store, outcomes = run_detailed(scenario)
    text = emit_json(trace)
    if args.trace:
        Path(args.trace).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.dot:
        plan, completion = _last_plan(outcomes)
        if plan is None:
            print("no recognized plan to export", file=sys.stderr)
            return EXIT_SCENARIO_ERROR
        Path(args.dot).write_text(to_dot(plan, completion), encoding="utf-8")
    for outcome in outcomes:
        print(_summary(outcome), file=sys.stderr)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario)
    print(
        f"ok: {len(scenario.agents)} agents, {len(scenario.turns)} turns, "
        f"{len(scenario.operators)} operators"
    )
    return EXIT_OK


def _cmd_repl(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(_read_scenario(args.scenario), args)
    trace, store, outcomes = run_detailed(scenario)
    _, domain = setup(scenario)
    for outcome in outcomes:
        print(_summary(outcome))
    print("enter acts as act(speaker, hearer, content); :quit to exit")
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            return EXIT_OK
        if not line:
            continue
        if line.startswith(":"):
            parts = line.split()
            cmd = parts[0]
            if cmd == ":quit":
                return EXIT_OK
            if cmd == ":store":
                for fact in render_store(store):
                    print(render(fact))
                continue
            if cmd == ":trace":
                sys.stdout.write(emit_json(trace))
                continue
            if cmd == ":dot":
                if len(parts) != 2:
                    print("usage: :dot <file>")
                    continue
                plan, completion = _last_plan(outcomes)
                if plan is None:
                    print("no recognized plan yet")
                    continue
                Path(parts[1]).write_text(to_dot(plan, completion), encoding="utf-8")
                print(f"wrote {parts[1]}")
                continue
            print(f"unknown command {cmd}; known: :store :trace :dot :quit")
            continue
        try:
            act = act_from_term(parse_term(line))
        except (TermError, ScenarioError, ActError) as exc:
            print(f"parse error: {exc}")
            continue
        try:
            outcome = infer(store, act, domain, trace=trace)
        except (ActError, BeliefError) as exc:
            print(f"rejected: {exc}")
            continue
        outcomes.append(outcome)
        store = outcome.store
        print(_summary(outcome))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="implicature",
        description="Recognize dialogue plans and infer implicatures from their inefficiency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path or bundled scenario name")
    p_run.add_argument("--trace", help="write the JSON trace here instead of stdout")
    p_run.add_argument("--dot", help="write a DOT graph of the last recognized plan")
    p_run.add_argument("--bound", type=int, help="planner step bound override")
    p_run.add_argument("--strict", action="store_true", help="halt on per-turn errors")
    p_run.set_defaults(func=_cmd_run)

    p_repl = sub.add_parser("repl", help="interactive session over a scenario")
    p_repl.add_argument("scenario", help="path or bundled scenario name")
    p_repl.add_argument("--bound", type=int, help="planner step bound override")
    p_repl.set_defaults(func=_cmd_repl)

    p_check = sub.add_parser("check", help="parse and validate a scenario file")
    p_check.add_argument("scenario", help="path or bundled scenario name")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TermError, ActError, BeliefError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

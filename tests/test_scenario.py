"""Tests for scenario parsing, the run loop, trace JSON and the CLI."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from implicature.beliefs import render_store
from implicature.cli import main as cli_main
from implicature.closure import MAX_DERIVED_DEPTH
from implicature.scenario import (
    ParseError,
    ScenarioError,
    UndeclaredAgentError,
    act_from_term,
    emit_json,
    load_scenario,
    parse_trace,
    run,
    run_detailed,
)
from implicature.terms import MAX_TERM_DEPTH, TermError, parse_term, render
from implicature.trace import Trace

t = parse_term


def scenario_text(name):
    from importlib import resources

    return resources.files("implicature").joinpath(f"scenarios/{name}.vgs").read_text()


def cli_env():
    """Environment for a CLI subprocess that imports the package under test."""
    import implicature

    src = str(Path(implicature.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


MINIMAL = "(agents a b)\n(turn inform(b, a, fact(one)))\n"

OVERLAP_OPERATOR = "(agents a b)\n(operator f(?x) (pre g(?x)) (add h(?x)) (del h(?x)))\n"


def nested(depth):
    """A term of the given nesting depth: f(f(...f(a)...))."""
    return "f(" * (depth - 1) + "a" + ")" * (depth - 1)


def growing(add, bound=None):
    """A scenario whose operator grow adds ``add`` for each p-fact b holds,
    so the gate's closure nests ever deeper facts."""
    return (
        "(agents a b)\n(believes (a) bel(p(x)))\n(reliable a p)\n"
        "(stereotype s (member a) (goal-template goal(a, bel(b, q(x)))))\n"
        f"(operator grow(?x) (actor b) (pre bel(b, p(?x))) (add {add}))\n"
        "(turn inform(a, b, p(x)))\n" + ("" if bound is None else f"(config bound {bound})\n")
    )


def repl(lines, scenario="computer_off"):
    """Exit code, stdout and stderr of a REPL session fed ``lines``."""
    feed = iter(lines)

    def typed(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError from None

    out, err = io.StringIO(), io.StringIO()
    with mock.patch("builtins.input", typed):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["repl", scenario])
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_shipped_scenarios_load(self):
        for name in ("computer_off", "swim_waves", "burnt_cakes"):
            s = load_scenario(scenario_text(name))
            assert len(s.agents) == 2
            assert len(s.turns) == 2

    def test_empty_file_is_missing_agents(self):
        with pytest.raises(ScenarioError, match="missing agents"):
            load_scenario("")

    def test_undeclared_agent_in_turn(self):
        with pytest.raises(UndeclaredAgentError):
            load_scenario("(agents a b)\n(turn inform(c, a, p))")

    def test_undeclared_agent_in_beliefs(self):
        with pytest.raises(UndeclaredAgentError):
            load_scenario("(agents a b)\n(believes (c) bel(p))")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            load_scenario("(agents a b\n")
        assert err.value.line == 1

    def test_malformed_term_rejected(self):
        with pytest.raises(ParseError):
            load_scenario("(agents a b)\n(turn inform(b, a, f(p))))")

    def test_unknown_act_rejected(self):
        with pytest.raises(ScenarioError, match="unknown act"):
            load_scenario("(agents a b)\n(turn shout(b, a, p))")

    def test_alternation_enforced_and_disablable(self):
        text = "(agents a b)\n(turn inform(b, a, p))\n(turn inform(b, a, q))"
        with pytest.raises(ScenarioError, match="consecutive"):
            load_scenario(text)
        s = load_scenario("(config alternation off)\n" + text)
        assert len(s.turns) == 2

    def test_comments_ignored(self):
        s = load_scenario("; header\n(agents a b) ; trailing\n")
        assert s.agents == ("a", "b")

    def test_config_values(self):
        s = load_scenario(
            "(agents a b)\n(config bound 5)\n(config strict true)\n"
            "(config ascription-order avoidance-first)"
        )
        assert s.config.bound == 5
        assert s.config.strict is True
        assert s.config.ascription_order == ("avoidance", "conjunctive")

    def test_bound_below_one_rejected(self):
        for bound in ("0", "-3"):
            with pytest.raises(ScenarioError, match="config bound: expected an integer >= 1"):
                load_scenario(f"(agents a b)\n(config bound {bound})")

    def test_non_ground_turn_content_rejected(self):
        with pytest.raises(ScenarioError, match="turn content must be ground"):
            load_scenario(
                "(agents system expert)\n"
                "(turn question(system, expert, permission(system, ?x)))"
            )

    @pytest.mark.parametrize("attitude", ["bel", "goal", "int"])
    def test_non_ground_believes_rejected(self, attitude):
        with pytest.raises(
            ScenarioError, match=rf"believes attitude must be ground: {attitude}\(likes\(\?y\)\)"
        ):
            load_scenario(f"(agents system expert)\n(believes (system) {attitude}(likes(?y)))")

    def test_operator_with_unbound_variable_rejected(self):
        with pytest.raises(ScenarioError, match=r"bad operator f\(\?x\): .*\?y"):
            load_scenario("(agents a b)\n(operator f(?x) (pre g(?x)) (add h(?y)))")

    @pytest.mark.parametrize(
        "clause, name",
        [("(add h(?))", "_a1"), ("(add h(?_any))", "_any"), ("(del g(?, ?x))", "_a1")],
    )
    def test_operator_effect_variable_outside_head_rejected(self, clause, name):
        # an effect variable the head does not bind would make a non-ground fact
        with pytest.raises(
            ScenarioError, match=rf"bad operator f\(\?x\): operator f: variable \?{name} "
        ):
            load_scenario(f"(agents a b)\n(operator f(?x) (pre g(?, ?x)) {clause})")

    @pytest.mark.parametrize(
        "actor, name", [("?who", "who"), ("?", "_a1"), ("bel(?x, ?y)", "y")]
    )
    def test_operator_actor_variable_outside_head_rejected(self, actor, name):
        # every instance would keep the actor free, and the causality
        # check compares it with the speaker
        with pytest.raises(
            ScenarioError, match=rf"bad operator f\(\?x\): operator f: variable \?{name} "
        ):
            load_scenario(f"(agents a b)\n(operator f(?x) (actor {actor}) (pre g(?x)) (add h(?x)))")

    @pytest.mark.parametrize("actor", ["?x", "a", "bel(?x, b)"])
    def test_operator_actor_over_the_head_loads(self, actor):
        text = f"(agents a b)\n(operator f(?x) (actor {actor}) (pre g(?x)) (add h(?x)))"
        assert [op.actor for op in load_scenario(text).operators] == [parse_term(actor)]

    @pytest.mark.parametrize("actor", ["(actor a b)", "(actor a) (actor b)"])
    def test_operator_with_two_actors_rejected(self, actor):
        with pytest.raises(ScenarioError, match=r"operator f takes one \(actor ...\) clause"):
            load_scenario(f"(agents a b)\n(operator f(?x) {actor} (pre g(?x)) (add h(?x)))")

    def test_stereotype_attitude_clause_rejected(self):
        with pytest.raises(ScenarioError, match="unknown stereotype clause 'attitude' in s"):
            load_scenario("(agents a b)\n(stereotype s (member a) (attitude goal(p)))")

    def test_operator_anonymous_precondition_variable_loads(self):
        s = load_scenario("(agents a b)\n(operator f(?x) (pre g(?, ?x)) (add h(?x)))")
        assert render(s.operators[0].preconditions[0]) == "g(?_a1, ?x)"

    def test_operator_adding_and_deleting_a_term_rejected(self):
        with pytest.raises(ScenarioError, match=r"bad operator f\(\?x\): .*overlap"):
            load_scenario(OVERLAP_OPERATOR)

    def test_term_nested_past_limit_rejected(self):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_TERM_DEPTH}") as err:
            load_scenario(f"(agents a b)\n(believes (a) bel({nested(1200)}))")
        assert err.value.line == 2

    def test_term_at_nesting_limit_loads_and_runs(self):
        deepest = nested(MAX_TERM_DEPTH - 1)
        s = load_scenario(
            f"(agents a b)\n(believes (a) bel({deepest}))\n(turn inform(a, b, {deepest}))"
        )
        assert s.initial[0][1].content == t(deepest)
        run(s)

    def test_lists_nested_past_limit_rejected(self):
        depth = MAX_TERM_DEPTH + 1
        with pytest.raises(ParseError, match="lists nested deeper"):
            load_scenario("(agents a b)\n" + "(" * depth + ")" * depth)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            load_scenario("(agents a b)\n(wibble x)")

    @pytest.mark.parametrize(
        "turn, message",
        [
            ("(turn)", "takes exactly one act"),
            ("(turn inform(a, b, p) inform(b, a, q))", "takes exactly one act"),
            ("(turn inform(a, a, p))", "speaker and hearer must differ"),
        ],
    )
    def test_malformed_turn_rejected(self, turn, message):
        with pytest.raises(ScenarioError, match=message):
            load_scenario(f"(agents a b)\n{turn}")

    def test_act_from_term_validates_shape(self):
        with pytest.raises(ScenarioError):
            act_from_term(t("inform(a, b)"))
        with pytest.raises(ScenarioError):
            act_from_term(t("inform(f(a), b, p)"))


class TestRun:
    def test_zero_turns_gives_setup_only_trace(self):
        trace = run(load_scenario("(agents a b)\n(believes (a) bel(p))"))
        assert trace.kinds() == ["assert"]

    def test_strict_halts_on_recognition_failure(self):
        trace = run(load_scenario("(config strict true)\n" + MINIMAL))
        assert trace.events[-1].kind == "error"
        assert "halted" in trace.events[-1].payload["cause"]

    def test_non_strict_continues(self):
        text = "(agents a b)\n(turn inform(b, a, p))\n(turn inform(a, b, q))"
        trace = run(load_scenario(text))
        acts = [e for e in trace.events if e.kind == "act"]
        assert len(acts) == 2

    def test_computer_off_emits_conjunctive_report(self):
        trace = run(load_scenario(scenario_text("computer_off")))
        reports = [e for e in trace.events if e.kind == "ascription-report"]
        assert reports[-1].payload["report"] == "conjunctive"
        assert "cause(switch(system, computer_off), damage(hard_drive))" in (
            reports[-1].payload["goal"]
        )

    def test_every_store_mutation_names_a_cause(self):
        trace = run(load_scenario(scenario_text("computer_off")))
        for ev in trace.events:
            if ev.kind in ("assert", "ascribe", "block"):
                assert ev.payload.get("cause")


class TestLongerDialogues:
    def test_four_turn_dialogue_keeps_expectations_straight(self):
        text = scenario_text("computer_off") + (
            "(reliable expert safe)\n"
            "(turn question(system, expert, safe(backup)))\n"
            "(turn yes_answer(expert, system, safe(backup)))\n"
        )
        trace, store, outcomes = run_detailed(load_scenario(text))
        assert len(outcomes) == 4
        # the follow-up is a direct answer: optimal, nothing extra ascribed
        assert outcomes[-1].verdict.kind == "optimal"
        assert outcomes[-1].report.kind == "none"
        # the follow-up's expectation was consumed by the direct answer; the
        # original question was answered only indirectly, so it survives
        assert [render(e.content) for e in store.expectations] == [
            "permission(system, switch(system, computer_off))"
        ]

    def test_contradictory_scenario_input_raises(self):
        text = (
            "(agents a b)\n"
            "(believes (a) bel(p))\n"
            "(believes (a) bel(not(p)))\n"
        )
        from implicature.beliefs import ContradictionError

        with pytest.raises(ContradictionError):
            run(load_scenario(text))


class TestTraceJson:
    def test_empty_trace(self):
        parsed = json.loads(emit_json(Trace()))
        assert parsed["events"] == []
        assert parsed["schema"] == "vgtrace/1"

    def test_round_trip(self):
        trace = run(load_scenario(scenario_text("burnt_cakes")))
        again = parse_trace(emit_json(trace))
        assert emit_json(again) == emit_json(trace)
        assert again.events == trace.events

    def test_byte_identical_across_runs(self):
        for name in ("computer_off", "swim_waves", "burnt_cakes"):
            s = load_scenario(scenario_text(name))
            assert emit_json(run(s)) == emit_json(run(s))

    def test_indices_strictly_increase(self):
        trace = run(load_scenario(scenario_text("computer_off")))
        indices = [e.index for e in trace.events]
        assert indices == list(range(len(indices)))

    def test_unknown_schema_rejected(self):
        with pytest.raises(ScenarioError):
            parse_trace('{"events":[],"schema":"vgtrace/999"}')

    def test_replaying_store_events_rebuilds_final_store(self):
        from implicature.beliefs import Attitude, BeliefStore, assert_attitude

        s = load_scenario(scenario_text("computer_off"))
        trace, store, _ = run_detailed(s)
        rebuilt = BeliefStore().with_actions(sorted(store.actions))
        for ev in trace.events:
            if ev.kind not in ("assert", "ascribe"):
                continue
            kind, rest = ev.payload["attitude"].split("(", 1)
            att = Attitude(kind, t(rest[:-1]))
            rebuilt = assert_attitude(rebuilt, tuple(ev.payload["path"]), att)
        assert rebuilt.spaces == store.spaces


class TestGoldenTrace:
    @pytest.mark.parametrize("name", ["computer_off", "swim_waves", "burnt_cakes"])
    def test_matches_frozen_trace(self, name):
        golden = Path(__file__).parent / "golden" / f"{name}.trace.json"
        s = load_scenario(scenario_text(name))
        assert emit_json(run(s)) == golden.read_text()

    @pytest.mark.parametrize("name", ["computer_off", "swim_waves", "burnt_cakes"])
    def test_dot_matches_frozen_export(self, name, tmp_path, capsys):
        golden = Path(__file__).parent / "golden" / f"{name}.dot"
        dot_file = tmp_path / f"{name}.dot"
        code = cli_main(
            ["run", name, "--trace", str(tmp_path / "t.json"), "--dot", str(dot_file)]
        )
        assert code == 0
        assert dot_file.read_bytes() == golden.read_bytes()


class TestCli:
    def test_run_writes_trace_and_dot(self, tmp_path, capsys):
        trace_file = tmp_path / "out.trace.json"
        dot_file = tmp_path / "out.dot"
        code = cli_main(
            ["run", "computer_off", "--trace", str(trace_file), "--dot", str(dot_file)]
        )
        assert code == 0
        parsed = json.loads(trace_file.read_text())
        assert parsed["schema"] == "vgtrace/1"
        dot = dot_file.read_text()
        assert dot.startswith("digraph")
        assert "style=dashed" in dot  # completion overlay
        err = capsys.readouterr().err
        assert "inefficient (3 vs 2)" in err
        assert "conjunctive goal ascribed" in err

    def test_run_stdout_by_default(self, capsys):
        assert cli_main(["run", "swim_waves"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema"] == "vgtrace/1"

    def test_check_valid(self, capsys):
        assert cli_main(["check", "burnt_cakes"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_missing_file_is_scenario_error(self, capsys):
        assert cli_main(["run", "no_such_scenario"]) == 1

    def test_invalid_scenario_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.vgs"
        bad.write_text("(agents a b")
        assert cli_main(["check", str(bad)]) == 1

    def test_turn_without_act_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "turn.vgs"
        bad.write_text("(agents a b)\n(turn)\n")
        assert cli_main(["run", str(bad)]) == 1
        assert "takes exactly one act" in capsys.readouterr().err

    def test_bound_zero_is_exit_1(self, tmp_path, capsys):
        assert cli_main(["run", "computer_off", "--bound", "0"]) == 1
        assert "--bound: expected an integer >= 1, got 0" in capsys.readouterr().err
        bad = tmp_path / "bound.vgs"
        bad.write_text("(agents a b)\n(config bound 0)\n")
        assert cli_main(["run", str(bad)]) == 1
        assert "config bound" in capsys.readouterr().err

    def test_non_ground_turn_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "open.vgs"
        bad.write_text(
            "(agents system expert)\n"
            "(turn question(system, expert, permission(system, ?x)))\n"
        )
        assert cli_main(["run", str(bad)]) == 1
        assert "turn content must be ground" in capsys.readouterr().err

    @pytest.mark.parametrize("attitude", ["bel", "goal", "int"])
    def test_non_ground_believes_is_exit_1(self, tmp_path, capsys, attitude):
        bad = tmp_path / "open.vgs"
        bad.write_text(
            scenario_text("computer_off") + f"(believes (system) {attitude}(likes(?y)))\n"
        )
        assert cli_main(["run", str(bad)]) == 1
        assert f"believes attitude must be ground: {attitude}(likes(?y))" in (
            capsys.readouterr().err
        )

    def test_bad_operator_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "op.vgs"
        bad.write_text("(agents a b)\n(operator f(?x) (pre g(?x)) (add h(?y)))\n")
        assert cli_main(["run", str(bad)]) == 1
        assert "bad operator f(?x): operator f: variable ?y not among parameters" in (
            capsys.readouterr().err
        )

    def test_operator_free_actor_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "actor.vgs"
        bad.write_text(
            scenario_text("computer_off")
            + "(operator ascribe(?x) (actor ?who) (pre seen(?x)) (add told(?x)))\n"
        )
        assert cli_main(["run", str(bad)]) == 1
        assert "bad operator ascribe(?x): operator ascribe: variable ?who not among parameters" in (
            capsys.readouterr().err
        )

    def test_operator_anonymous_effect_variable_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "anon.vgs"
        bad.write_text(
            scenario_text("computer_off")
            + "(operator warn(?x) (pre seen(?x)) (add told(?x, ?)))\n"
        )
        assert cli_main(["run", str(bad)]) == 1
        assert "bad operator warn(?x): operator warn: variable ?_a1 not among parameters" in (
            capsys.readouterr().err
        )

    def test_operator_overlap_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "overlap.vgs"
        bad.write_text(OVERLAP_OPERATOR)
        assert cli_main(["run", str(bad)]) == 1
        assert "bad operator f(?x): operator f: add/delete overlap" in (
            capsys.readouterr().err
        )

    def test_deeply_nested_term_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "deep.vgs"
        bad.write_text(f"(agents a b)\n(believes (a) bel({nested(1200)}))\n")
        assert cli_main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"nested deeper than {MAX_TERM_DEPTH}" in err
        assert "(line 2, column 15)" in err

    def test_operator_with_two_actors_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "actor.vgs"
        bad.write_text("(agents a b)\n(operator f(?x) (actor a b) (pre g(?x)) (add h(?x)))\n")
        assert cli_main(["run", str(bad)]) == 1
        assert "operator f takes one (actor ...) clause with one term" in capsys.readouterr().err

    def test_stereotype_attitude_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "attitude.vgs"
        bad.write_text(
            "(agents a b)\n(stereotype s (member a) (attitude goal(not(damage(hard_drive)))))\n"
        )
        assert cli_main(["run", str(bad)]) == 1
        assert "unknown stereotype clause 'attitude' in s" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [20, 30, 50])
    def test_ever_nesting_operator_is_unreachable_within_the_bound(self, tmp_path, bound):
        # grow nests one level a round, and the gate's closure stops after
        # ``bound`` rounds, well short of MAX_DERIVED_DEPTH, with no chain
        scenario = tmp_path / "grow.vgs"
        scenario.write_text(growing("bel(b, p(f(?x)))", bound=bound))
        trace_file = tmp_path / "grow.trace.json"
        assert cli_main(["run", str(scenario), "--trace", str(trace_file)]) == 0
        trace = parse_trace(trace_file.read_text())
        assert [ev.payload["cause"] for ev in trace.find("candidate-skipped")] == ["unreachable"]

    @pytest.mark.parametrize(
        "text",
        [growing("bel(b, p(f(?x)))", bound=200), growing(f"bel(b, p({'f(' * 50}?x{')' * 50}))")],
        ids=["one-level-at-bound-200", "fifty-levels-at-default-bound"],
    )
    def test_derived_term_past_depth_cap_is_exit_1(self, tmp_path, capsys, text):
        # within its bound, the gate's closure derives a fact past
        # MAX_DERIVED_DEPTH: one level a round for 200 rounds, or fifty
        # levels a round for 8; it stops there, before any term is too deep
        # to render
        bad = tmp_path / "grow.vgs"
        bad.write_text(text)
        assert cli_main(["run", str(bad)]) == 1
        assert (
            f"operator grow derives a fact nested deeper than {MAX_DERIVED_DEPTH} levels"
            in capsys.readouterr().err
        )

    def test_large_bound_on_a_finite_closure_runs(self, capsys):
        assert cli_main(["run", "computer_off", "--bound", "60"]) == 0

    def test_repl_rejects_undeclared_agent_and_unknown_act(self):
        code, out, _ = repl(
            ["inform(zed, system, p)", "shout(expert, system, p)", ":store", ":quit"]
        )
        assert code == 0
        assert "rejected: agent 'zed' in turn inform(zed, system, p) is not declared" in out
        assert "rejected: turn shout(expert, system, p) uses unknown act 'shout'" in out
        assert "bel(zed" not in out  # :store shows nothing of the rejected act

    def test_repl_reports_an_unwritable_dot_file(self, tmp_path):
        code, out, _ = repl([f":dot {tmp_path}", ":quit"])
        assert code == 0
        assert f"cannot write {tmp_path}" in out

    def test_repl_store_prints_the_snapshot(self):
        _, store, _ = run_detailed(load_scenario(scenario_text("computer_off")))
        code, out, _ = repl([":store", ":quit"])
        assert code == 0
        lines = out.splitlines()
        start = lines.index("enter acts as act(speaker, hearer, content); :quit to exit") + 1
        snapshot = [render(f) for f in render_store(store)]
        assert snapshot and lines[start:] == snapshot

    def test_bound_override(self, tmp_path, capsys):
        code = cli_main(["run", "computer_off", "--bound", "4", "--trace", str(tmp_path / "t.json")])
        assert code == 0

    def test_repl_session(self, tmp_path):
        dot_file = tmp_path / "repl.dot"
        proc = subprocess.run(
            [sys.executable, "-m", "implicature.cli", "repl", "computer_off"],
            input=(
                "\n:store\ninform(system, expert, weather(bad))\n"
                f":dot {dot_file}\n:trace\n:quit\n"
            ),
            capture_output=True,
            text=True,
            timeout=120,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "conjunctive goal ascribed" in proc.stdout
        assert "bel(expert," in proc.stdout  # :store output
        assert '"schema":"vgtrace/1"' in proc.stdout  # :trace output
        assert dot_file.read_text().startswith("digraph")

    def test_repl_reprompts_on_bad_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "implicature.cli", "repl", "computer_off"],
            input="nonsense((\n:quit\n",
            capture_output=True,
            text=True,
            timeout=120,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "parse error" in proc.stdout

    def test_repl_replays_turns_like_run(self, tmp_path):
        # the first turn answers a question nobody asked: run traces the
        # error and goes on, and so must the REPL's replay
        text = (
            "(agents a b)\n"
            "(turn no_answer(a, b, raining))\n"
            "(turn inform(b, a, sunny))\n"
        )
        f = tmp_path / "unasked.vgs"
        f.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "implicature.cli", "repl", str(f)],
            input=":trace\n:quit\n",
            capture_output=True,
            text=True,
            timeout=120,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "enter acts as" in proc.stdout
        (line,) = [ln for ln in proc.stdout.splitlines() if '"schema":"vgtrace/1"' in ln]
        shown = line.removeprefix("> ") + "\n"
        assert shown == emit_json(run(load_scenario(text)))
        errors = [e for e in json.loads(shown)["events"] if e["kind"] == "error"]
        assert errors[0]["module"] == "scenario-cli"
        assert errors[0]["payload"] == {
            "cause": "no pending question licenses no_answer(a, b, raining)",
            "turn": 0,
        }


BUNDLED = ("computer_off", "swim_waves", "burnt_cakes")
#: parentheses, commas, runs of other non-space characters, and whitespace
TOKEN = re.compile(r"[(),]|[^\s(),]+|\s+")


def _mutate(draw, tokens, pool):
    """``tokens`` joined after one to four tokens are deleted, duplicated,
    swapped or replaced by a token of ``pool``."""
    for _ in range(draw(st.integers(1, 4))):
        if not tokens:
            break
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(pool))
    return "".join(tokens)


@st.composite
def mutated_scenario(draw):
    """A bundled scenario text mutated with tokens of the same file."""
    tokens = TOKEN.findall(scenario_text(draw(st.sampled_from(BUNDLED))))
    return _mutate(draw, tokens, sorted(set(tokens)))


#: acts and commands typed into ``implicature repl computer_off``
REPL_LINES = (
    "inform(expert, system, cause(switch(system, computer_off), damage(hard_drive)))",
    "question(system, expert, permission(system, switch(system, computer_off)))",
    "no_answer(expert, system, permission(system, switch(system, computer_off)))",
    "yes_answer(zed, system, weather(bad))",
    ":store",
    ":trace",
    ":dot repl.dot",
    ":quit",
)
REPL_POOL = sorted({tok for line in REPL_LINES for tok in TOKEN.findall(line)})


@st.composite
def mutated_repl_line(draw):
    """A REPL act or command mutated with tokens of any of them."""
    return _mutate(draw, TOKEN.findall(draw(st.sampled_from(REPL_LINES))), REPL_POOL)


class TestMutatedScenarios:
    """Any scenario text loads or fails with a located error, and running it
    exits 0 or 1: exit 2 is kept for internal faults."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mutated_scenario())
    def test_loads_or_raises_scenario_error(self, text):
        try:
            load_scenario(text)
        except (ScenarioError, TermError):
            pass

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(mutated_scenario())
    def test_run_never_exits_2(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.vgs"
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["run", str(path)])
        assert code in (0, 1), err.getvalue()


@st.composite
def appended_operator(draw, name, agents):
    """An ``(operator ...)`` form.  Each of ?x, ?y and ?_a is left out, or
    placed where it is bound (in the head and a precondition, and then in
    any of the add and del clauses; ?_a may sit in a precondition alone),
    and then, half the time, added to or dropped from one place at
    random.  Each clause is one bel/goal term over its variables and the
    scenario's agents, as constants.  Half the operators name an actor:
    an agent, or one of the three variables, whether the head binds it or
    not."""
    places: dict[str, list[str]] = {"head": [], "pre": [], "add": [], "del": []}
    for v in ("?x", "?y", "?_a"):
        if not draw(st.booleans()):
            continue
        at = {"pre"} if v == "?_a" and draw(st.booleans()) else {"head", "pre"}
        if "head" in at:
            at |= set(draw(st.lists(st.sampled_from(["add", "del"]), unique=True)))
        if draw(st.booleans()):
            at ^= {draw(st.sampled_from(list(places)))}
        for place in at:
            places[place].append(v)

    def term(variables):
        leaves = draw(st.permutations(variables + [draw(st.sampled_from(agents))]))
        out = leaves[0]
        for leaf in leaves[1:]:
            out = f"{draw(st.sampled_from(['bel', 'goal']))}({out}, {leaf})"
        return out

    head = f"{name}({', '.join(places['head'])})" if places["head"] else name
    clauses = [f"(pre {term(places['pre'])})", f"(add {term(places['add'])})"]
    if draw(st.booleans()):
        clauses.insert(0, f"(actor {draw(st.sampled_from(agents + ['?x', '?y', '?_a']))})")
    if places["del"] or draw(st.booleans()):
        clauses.append(f"(del {term(places['del'])})")
    return f"(operator {head} {' '.join(clauses)})\n"


@st.composite
def scenario_with_operators(draw):
    """A bundled scenario with one or two appended operators, and a bound
    from 1 to 3 to run it with, so that search stays short."""
    text = scenario_text(draw(st.sampled_from(BUNDLED)))
    agents = re.search(r"\(agents ([^)]*)\)", text).group(1).split()
    forms = [draw(appended_operator(f"op{i}", agents)) for i in range(draw(st.integers(1, 2)))]
    return text + "".join(forms), draw(st.integers(1, 3))


class TestAppendedOperators:
    """An operator either fails to load, or each of its instances is ground
    once its preconditions match ground facts: a scenario with extra
    operators loads or fails with a located error, and running it exits 0
    or 1, never 2 (a non-ground instance would be a PlannerError)."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scenario_with_operators())
    def test_loads_or_runs_without_internal_error(self, case):
        text, bound = case
        try:
            load_scenario(text)
        except ScenarioError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "operators.vgs"
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["run", str(path), "--bound", str(bound)])
        assert code in (0, 1), err.getvalue()


class TestMutatedReplInput:
    """Whatever line is typed, the REPL answers it and reads the next one, so
    a session always ends with exit 0."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(mutated_repl_line(), min_size=1, max_size=4))
    def test_repl_always_exits_0(self, lines):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # :dot writes where it is told
            try:
                code, _, err = repl(lines)
            finally:
                os.chdir(cwd)
        assert code == 0, err

"""Tests for scenario parsing, the run loop, trace JSON and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from implicature.cli import main as cli_main
from implicature.scenario import (
    ParseError,
    ScenarioError,
    UndeclaredAgentError,
    act_from_term,
    emit_json,
    load_scenario,
    parse_trace,
    render_scenario,
    run,
    run_detailed,
)
from implicature.terms import MAX_TERM_DEPTH, parse_term, render
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

    def test_act_from_term_validates_shape(self):
        with pytest.raises(ScenarioError):
            act_from_term(t("inform(a, b)"))
        with pytest.raises(ScenarioError):
            act_from_term(t("inform(f(a), b, p)"))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["computer_off", "swim_waves", "burnt_cakes"])
    def test_shipped_scenarios_round_trip(self, name):
        s = load_scenario(scenario_text(name))
        assert load_scenario(render_scenario(s)) == s

    def test_config_round_trips(self):
        s = load_scenario(MINIMAL + "(config bound 5)\n(config strict true)")
        assert load_scenario(render_scenario(s)) == s


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

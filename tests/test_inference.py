"""Tests for recognition, the efficiency audit, and the ascription rules."""

import pytest

from implicature.acts import ActInstance, builtin_schemas
from implicature.beliefs import Attitude, holds, render_store
from implicature.inference import (
    Domain,
    build_operators,
    efficiency_audit,
    EfficiencyVerdict,
    InferenceError,
    RecognitionResult,
    ascribe_avoidance,
    ascribe_conjunctive,
    candidate_goals,
    infer,
    recognize,
    utterance_operator,
)
from implicature.planner import Operator, cost, linearize, plan
from implicature.scenario import load_scenario, run_detailed, setup
from implicature.terms import parse_term, render
from implicature.trace import Trace

t = parse_term
SCHEMAS = builtin_schemas()


def scenario_text(name):
    from importlib import resources

    return resources.files("implicature").joinpath(f"scenarios/{name}.vgs").read_text()


@pytest.fixture(scope="module")
def computer_off():
    s = load_scenario(scenario_text("computer_off"))
    return run_detailed(s)


def ground_op(name, pre=(), add=(), actor="hrr"):
    return Operator(
        name=name,
        preconditions=tuple(t(x) for x in pre),
        add=tuple(t(x) for x in add),
        actor=t(actor),
    )


class TestCandidateGoals:
    def test_question_expectation_orders_yes_then_no(self, computer_off):
        _, store, _ = computer_off
        s = load_scenario(scenario_text("computer_off"))
        domain = setup(s)[1]
        got = candidate_goals(store, "system", "expert", domain)
        rendered = [render(g) for g in got]
        p = "permission(system, switch(system, computer_off))"
        assert rendered[:2] == [
            f"goal(expert, bel(system, {p}))",
            f"goal(expert, bel(system, not({p})))",
        ]
        assert "cause(switch(?h, computer_off), damage(hard_drive))" in rendered[2]

    def test_no_context_no_candidates(self):
        s = load_scenario("(agents a b)")
        store, domain = setup(s)
        assert candidate_goals(store, "a", "b", domain) == []

    def test_declared_goals_filtered_by_speaker(self):
        s = load_scenario(
            "(agents a b)\n(candidate-goal goal(b, bel(a, p)))\n(candidate-goal goal(a, bel(b, q)))"
        )
        store, domain = setup(s)
        assert [render(g) for g in candidate_goals(store, "a", "b", domain)] == [
            "goal(b, bel(a, p))"
        ]


class TestRecognize:
    def test_worked_example_recognizes_no_goal(self, computer_off):
        _, _, outcomes = computer_off
        r = outcomes[-1].recognition
        assert r is not None
        assert r.candidate_rank == 1
        assert render(r.ascribed_goal) == (
            "goal(expert, bel(system, not(permission(system, switch(system, computer_off)))))"
        )
        names = [r.plan_r.steps[i].name for i in linearize(r.plan_r)]
        assert names == ["inform", "ascribe", "accept_belief"]

    def test_utterance_step_in_plan(self, computer_off):
        _, _, outcomes = computer_off
        r = outcomes[-1].recognition
        heads = [render(r.plan_r.steps[i].head()) for i in linearize(r.plan_r)]
        assert heads[0] == (
            "inform(expert, system, cause(switch(system, computer_off), damage(hard_drive)))"
        )

    def test_direct_effect_gives_single_step_plan(self):
        s = load_scenario(
            "(agents a b)\n(candidate-goal goal(b, bel(a, bel(b, fact(one)))))"
        )
        store, domain = setup(s)
        utterance = ActInstance("inform", "b", "a", t("fact(one)"))
        candidates = candidate_goals(store, "a", "b", domain)
        r = recognize(tuple(render_store(store)), utterance, candidates, domain)
        assert r is not None
        assert r.candidate_rank == 0
        assert cost(r.plan_r) == 1

    def test_requires_causal_route_not_mere_presence(self):
        # an unconnected plan of equal cost wins the name tie-break; the
        # recognizer must reject it and return the plan the utterance feeds
        aaa_direct = ground_op("aaa_direct", pre=["start"], add=["win"], actor="b")
        zzz_follow = Operator(
            name="zzz_follow",
            preconditions=(t("bel(a, bel(b, topic_x))"),),
            add=(t("win"),),
            actor=t("b"),
        )
        domain = Domain(
            schemas=SCHEMAS,
            operators=(aaa_direct, zzz_follow) + build_operators(SCHEMAS),
            declared_goals=(t("goal(b, win)"),),
            bound=4,
        )
        utterance = ActInstance("inform", "b", "a", t("topic_x"))
        r = recognize((t("start"),), utterance, [t("goal(b, win)")], domain)
        assert r is not None
        names = [r.plan_r.steps[i].name for i in linearize(r.plan_r)]
        assert "zzz_follow" in names and "aaa_direct" not in names

    def test_empty_candidates_returns_none(self):
        s = load_scenario("(agents a b)")
        store, domain = setup(s)
        utterance = ActInstance("inform", "b", "a", t("fact(one)"))
        assert recognize(tuple(render_store(store)), utterance, [], domain) is None


class TestEfficiencyAudit:
    def test_worked_example_inefficient(self, computer_off):
        _, _, outcomes = computer_off
        v = outcomes[-1].verdict
        assert v.kind == "inefficient"
        assert (v.cost_r, v.cost_o) == (3, 2)
        names = [v.plan_o.steps[i].name for i in linearize(v.plan_o)]
        assert names == ["no_answer", "accept_belief"]

    def test_replanning_never_costs_more(self, computer_off):
        _, _, outcomes = computer_off
        for o in outcomes:
            if o.verdict and o.verdict.cost_o is not None:
                assert o.verdict.cost_o <= o.verdict.cost_r

    def test_direct_answer_is_optimal(self):
        text = (
            "(agents system expert)\n"
            "(reliable expert permission)\n"
            "(turn question(system, expert, permission(system, go(out))))\n"
            "(turn yes_answer(expert, system, permission(system, go(out))))\n"
        )
        _, _, outcomes = run_detailed(load_scenario(text))
        assert outcomes[-1].verdict.kind == "optimal"
        assert outcomes[-1].report.kind == "none"

    def test_goal_unplannable_without_utterance_is_optimal(self):
        # audit over an operator set that cannot reach the goal at all
        deny = ground_op("solo", pre=["start"], add=["g1"], actor="spk")
        pr = plan((t("start"),), t("g1"), (deny,), bound=3)
        r = RecognitionResult(
            utterance=ActInstance("inform", "spk", "hrr", t("x(y)")),
            ascribed_goal=t("goal(spk, g1)"),
            plan_r=pr,
            candidate_rank=0,
            initial=(t("start"),),
        )
        empty_domain = Domain(schemas=SCHEMAS, operators=(), bound=3)
        v = efficiency_audit(r, empty_domain)
        assert v.kind == "optimal" and v.plan_o is None

    def test_verdict_invariant_under_uniform_cost_scaling(self, computer_off):
        _, _, outcomes = computer_off
        v = outcomes[-1].verdict
        for k in (1, 2, 5):
            assert (k * v.cost_o < k * v.cost_r) == (v.kind == "inefficient")


def synthetic_recognition(ops, library=(), avoid=(), extra_po_add=()):
    """A hand-built inefficient recognition over a toy domain.

    Pr = [warn, deduce] (cost 2) reaches g1; Po = [deny] (cost 1) reaches it
    directly, asserting `admission` on the way when extra_po_add says so.
    """
    deny = ground_op("deny", pre=["start"], add=["g1"] + list(extra_po_add), actor="spk")
    warn = ground_op("warn", pre=["start"], add=["mid"], actor="spk")
    deduce = ground_op("deduce", pre=["mid"], add=["g1"], actor="hrr")
    all_ops = (warn, deduce, deny) + tuple(ops)
    initial = (t("start"),)
    pr = plan(initial, t("g1"), (warn, deduce), bound=4)
    po = plan(initial, t("g1"), all_ops, bound=4)
    assert cost(pr) == 2 and cost(po) == 1
    domain = Domain(
        schemas=SCHEMAS,
        operators=all_ops,
        declared_goals=tuple(library),
        avoid_goals=tuple(avoid),
        bound=5,
    )
    r = RecognitionResult(
        utterance=ActInstance("inform", "spk", "hrr", t("irrelevant(x)")),
        ascribed_goal=t("goal(spk, g1)"),
        plan_r=pr,
        candidate_rank=0,
        initial=initial,
    )
    verdict = EfficiencyVerdict(kind="inefficient", plan_o=po, cost_r=2, cost_o=1)
    return r, verdict, domain


class TestConjunctiveRule:
    def test_worked_example_report(self, computer_off):
        _, store, outcomes = computer_off
        report = outcomes[-1].report
        assert report.kind == "conjunctive"
        educate = t("goal(expert, bel(?h, cause(switch(?h, computer_off), damage(hard_drive))))")
        from implicature.terms import unify

        assert unify(report.goal, educate) is not None
        assert [a.name for a in report.completion.actions] == ["accept_belief"]
        assert render(report.exclusive_state) == (
            "bel(system, bel(expert, cause(switch(system, computer_off), damage(hard_drive))))"
        )
        assert dict(report.conditions) == {"exclusiveness": True, "efficiency": True}

    def test_ascriptions_land_in_hearers_view(self, computer_off):
        _, store, _ = computer_off
        q = "cause(switch(system, computer_off), damage(hard_drive))"
        assert holds(
            store, ("system", "expert"), Attitude("goal", t(f"bel(system, {q})"))
        )
        assert holds(
            store,
            ("system", "expert"),
            Attitude("int", t(f"accept_belief(system, expert, {q})")),
        )

    def test_passes_when_joint_plan_needs_the_detour(self):
        teach = ground_op("teach", pre=["mid"], add=["g2"], actor="spk")
        r, verdict, domain = synthetic_recognition((teach,), library=[t("goal(spk, g2)")])
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store = store.with_actions(["teach"])
        store, report = ascribe_conjunctive(store, r, verdict, domain)
        assert report is not None and report.kind == "conjunctive"
        assert render(report.exclusive_state) == "mid"
        assert holds(store, ("hrr", "spk"), Attitude("goal", t("g2")))
        assert holds(store, ("hrr", "spk"), Attitude("int", t("teach")))

    def test_skipped_when_cheaper_joint_plan_exists(self):
        teach = ground_op("teach", pre=["mid"], add=["g2"], actor="spk")
        combo = ground_op("combo", pre=["start"], add=["g1", "g2"], actor="spk")
        trace = Trace()
        r, verdict, domain = synthetic_recognition(
            (teach, combo), library=[t("goal(spk, g2)")]
        )
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store, report = ascribe_conjunctive(store, r, verdict, domain, trace=trace)
        assert report is None
        skips = [e for e in trace.events if e.kind == "candidate-skipped"]
        assert any(e.payload["cause"] == "efficiency-condition" for e in skips)

    def test_empty_library_gives_none(self):
        r, verdict, domain = synthetic_recognition(())
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store, report = ascribe_conjunctive(store, r, verdict, domain)
        assert report is None

    def test_requires_inefficient_verdict(self):
        r, verdict, domain = synthetic_recognition(())
        optimal = EfficiencyVerdict(kind="optimal", plan_o=None, cost_r=2, cost_o=None)
        store, _ = setup(load_scenario("(agents spk hrr)"))
        with pytest.raises(InferenceError):
            ascribe_conjunctive(store, r, optimal, domain)


class TestAvoidanceRule:
    def test_burnt_cakes_report(self):
        s = load_scenario(scenario_text("burnt_cakes"))
        _, store, outcomes = run_detailed(s)
        report = outcomes[-1].report
        assert report.kind == "avoidance"
        assert render(report.goal) == "not(blamed(cook))"
        assert report.intentions == ()
        assert [a.name for a in report.completion.actions] == ["blame"]
        assert dict(report.conditions) == {"exclusiveness": True, "causality": True}
        assert holds(store, ("asker", "cook"), Attitude("goal", t("not(blamed(cook))")))

    def test_speaker_actor_fails_causality(self):
        blame_self = ground_op("confess", pre=["admission"], add=["blamed"], actor="spk")
        trace = Trace()
        r, verdict, domain = synthetic_recognition(
            (blame_self,), avoid=[t("blamed")], extra_po_add=["admission"]
        )
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store, report = ascribe_avoidance(store, r, verdict, domain, trace=trace)
        assert report is None
        skips = [e for e in trace.events if e.kind == "candidate-skipped"]
        assert any(e.payload["cause"] == "causality-condition" for e in skips)

    def test_other_actor_passes_causality(self):
        blame = ground_op("blame", pre=["admission"], add=["blamed"], actor="hrr")
        r, verdict, domain = synthetic_recognition(
            (blame,), avoid=[t("blamed")], extra_po_add=["admission"]
        )
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store, report = ascribe_avoidance(store, r, verdict, domain)
        assert report is not None and report.kind == "avoidance"
        assert render(report.exclusive_state) == "admission"
        assert holds(store, ("hrr", "spk"), Attitude("goal", t("not(blamed)")))

    def test_empty_avoid_library_gives_none(self):
        r, verdict, domain = synthetic_recognition((), extra_po_add=["admission"])
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store, report = ascribe_avoidance(store, r, verdict, domain)
        assert report is None


class TestUnpromptedInform:
    def test_stereotype_goal_recognized_as_optimal_teaching(self):
        # with no pending question, an inform is recognized against the
        # stereotype's teaching goal and audited as already optimal
        text = (
            "(agents novice mentor)\n"
            "(stereotype tutor\n"
            "  (member mentor)\n"
            "  (goal-template goal(mentor, bel(?h, cause(touch(?h, wire), shock(?h))))))\n"
            "(reliable mentor cause)\n"
            "(turn inform(mentor, novice, cause(touch(novice, wire), shock(novice))))\n"
        )
        _, _, outcomes = run_detailed(load_scenario(text))
        o = outcomes[-1]
        assert o.recognition is not None
        assert o.recognition.candidate_rank == 0
        assert cost(o.recognition.plan_r) == 2
        assert o.verdict.kind == "optimal"
        assert o.report.kind == "none"


BOTH_READINGS = """
(agents asker cook)
(believes (cook) bel(watching(cook, water)))
(reliable cook watching)
(reliable cook checked)
(actions blame thank watch)
(avoid-goal blamed(cook))
(candidate-goal goal(cook, thanked(cook)))
(operator infer_neglect(asker)
  (actor asker)
  (pre bel(asker, watching(cook, water)))
  (add bel(asker, not(checked(cook, cakes)))))
(operator blame(asker, cook)
  (actor asker)
  (pre bel(asker, bel(cook, not(checked(cook, cakes)))))
  (add blamed(cook)))
(operator thank(asker, cook)
  (actor asker)
  (pre bel(asker, watching(cook, water)))
  (add thanked(cook)))
(turn question(asker, cook, checked(cook, cakes)))
(turn inform(cook, asker, watching(cook, water)))
"""


class TestAscriptionOrder:
    def test_conjunctive_first_by_default(self):
        _, _, outcomes = run_detailed(load_scenario(BOTH_READINGS))
        report = outcomes[-1].report
        assert report.kind == "conjunctive"
        assert render(report.goal) == "goal(cook, thanked(cook))"

    def test_avoidance_first_override(self):
        text = "(config ascription-order avoidance-first)\n" + BOTH_READINGS
        _, _, outcomes = run_detailed(load_scenario(text))
        report = outcomes[-1].report
        assert report.kind == "avoidance"
        assert render(report.goal) == "not(blamed(cook))"


class TestInferPipeline:
    def test_end_to_end_conjunctive(self, computer_off):
        _, _, outcomes = computer_off
        assert outcomes[-1].report.kind == "conjunctive"

    def test_unrecognizable_utterance_still_updates_store(self):
        s = load_scenario("(agents a b)")
        store, domain = setup(s)
        trace = Trace()
        outcome = infer(store, ActInstance("inform", "b", "a", t("weather(nice)")), domain, trace)
        assert outcome.recognition is None
        assert outcome.report.kind == "none"
        assert any(
            e.kind == "error" and e.payload["cause"] == "recognition-failure"
            for e in trace.events
        )
        assert holds(outcome.store, ("a", "b"), Attitude("bel", t("weather(nice)")))

    def test_asserted_states_split_on_inform_effect(self, computer_off):
        from implicature.planner import asserted_states

        _, _, outcomes = computer_off
        o = outcomes[-1]
        effect_i = t(
            "bel(system, bel(expert, cause(switch(system, computer_off), damage(hard_drive))))"
        )
        pr_states = [x for _, x in asserted_states(o.recognition.plan_r)]
        po_states = [x for _, x in asserted_states(o.verdict.plan_o)]
        assert effect_i in pr_states
        assert effect_i not in po_states

    def test_report_invariants_hold(self, computer_off):
        _, _, outcomes = computer_off
        report = outcomes[-1].report
        assert report.intentions  # conjunctive implies intentions
        # exclusive state recomputation
        r, v = outcomes[-1].recognition, outcomes[-1].verdict
        from implicature.planner import asserted_states
        from implicature.terms import unify

        po_states = [x for _, x in asserted_states(v.plan_o)]
        assert all(unify(report.exclusive_state, x) is None for x in po_states)

    def test_conjunctive_recheck_cost_identity(self, computer_off):
        _, _, outcomes = computer_off
        o = outcomes[-1]
        from implicature.inference import _dedupe, _seeds_for

        g1_content = o.recognition.ascribed_goal.args[1]
        g2_content = o.report.goal.args[1]
        s = load_scenario(scenario_text("computer_off"))
        domain = setup(s)[1]
        joint = plan(
            _dedupe(list(o.recognition.initial) + _seeds_for(o.report.goal)),
            (g1_content, g2_content),
            domain.operators,
            bound=domain.bound,
        )
        assert joint is not None
        assert cost(joint) == cost(o.recognition.plan_r) + len(o.report.completion.actions)


class TestUtteranceOperator:
    def test_ground_instance(self):
        u = utterance_operator(ActInstance("inform", "a", "b", t("p")), SCHEMAS)
        assert render(u.head()) == "inform(a, b, p)"
        assert t("bel(b, bel(a, p))") in u.add

    def test_unknown_schema(self):
        with pytest.raises(InferenceError):
            utterance_operator(ActInstance("inform", "a", "b", t("p")), {})


class TestActOperators:
    """The compiled operators, written out by hand: each act's add-effects
    are the hearer update bel(hearer, C(speaker, ...)) of its preconditions,
    last first, plus the expectation fact a question registers."""

    @staticmethod
    def act(name, pre, add):
        speaker, hearer, content = t("?speaker"), t("?hearer"), t("?content")
        return Operator(
            name=name,
            args=(speaker, hearer, content),
            preconditions=tuple(t(x) for x in pre),
            add=tuple(t(x) for x in add),
            actor=speaker,
            positive_constraints=(content,),
        )

    def test_builtin_operators_written_out(self):
        inform_pre = ["goal(?speaker, bel(?hearer, ?content))", "bel(?speaker, ?content)"]
        inform_add = [
            "bel(?hearer, bel(?speaker, ?content))",
            "bel(?hearer, goal(?speaker, bel(?hearer, ?content)))",
        ]
        expected = (
            Operator(
                name="accept_belief",
                args=(t("?h"), t("?s"), t("?p")),
                preconditions=(t("bel(?h, bel(?s, ?p))"), t("reliable(?s, ?t)")),
                add=(t("bel(?h, ?p)"),),
                actor=t("?h"),
                topic_constraints=((t("?p"), t("?t")),),
            ),
            self.act("inform", inform_pre, inform_add),
            self.act(
                "no_answer",
                [
                    "goal(?speaker, bel(?hearer, not(?content)))",
                    "bel(?speaker, not(?content))",
                    "answer_expected(?speaker, ?hearer, ?content)",
                ],
                [
                    "bel(?hearer, bel(?speaker, not(?content)))",
                    "bel(?hearer, goal(?speaker, bel(?hearer, not(?content))))",
                ],
            ),
            self.act(
                "question",
                [
                    "goal(?speaker, bel(?speaker, or(?content, not(?content))))",
                    "bel(?speaker, bel(?hearer, or(?content, not(?content))))",
                ],
                [
                    "bel(?hearer, bel(?speaker, bel(?hearer, or(?content, not(?content)))))",
                    "bel(?hearer, goal(?speaker, bel(?speaker, or(?content, not(?content)))))",
                    "answer_expected(?hearer, ?speaker, ?content)",
                ],
            ),
            self.act(
                "yes_answer",
                inform_pre + ["answer_expected(?speaker, ?hearer, ?content)"],
                inform_add,
            ),
        )
        assert build_operators(SCHEMAS) == expected

"""Tests for recognition, the efficiency audit, and the ascription rules."""

import random

import pytest

from implicature import acts, inference, planner
from implicature import closure as closure_module
from implicature.acts import ACT_OPERATORS, ACTS, ActError, ActInstance
from implicature.beliefs import Attitude, Stereotype, holds, render_store
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
)
from implicature.closure import Closure
from implicature.planner import Operator, cost, linearize, plan, validate_operator
from implicature.scenario import load_scenario, run_detailed, setup
from implicature.terms import TermError, parse_term, render, var
from implicature.trace import Trace
from oracles import bfs_min_cost, random_ground_domain

t = parse_term


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


    def test_library_keeps_each_template_once_at_its_first_position(self):
        # a declared goal repeating a template stays at the template's
        # place; a second stereotype's copy of a template is dropped
        x, y, z = (t(f"goal(b, bel(?h, {f}(?h)))") for f in "xyz")
        domain = Domain(
            operators=build_operators(),
            stereotypes=(
                Stereotype("first", frozenset({"b"}), (x, t("goal(a, bel(b, p))"), y)),
                Stereotype("second", frozenset({"a", "b"}), (z, x)),
                Stereotype("other", frozenset({"a"}), (t("goal(b, bel(a, q))"),)),
            ),
            declared_goals=(t("goal(b, bel(a, p))"), y, t("goal(b, bel(a, p))")),
        )
        expected = [x, y, z, t("goal(b, bel(a, p))")]
        assert inference._library_goals(domain, "b") == expected
        store, _ = setup(load_scenario("(agents a b)"))
        assert candidate_goals(store, "a", "b", domain) == expected


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
            operators=(aaa_direct, zzz_follow) + build_operators(),
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
        # audit over an operator set that cannot reach the goal at all, which
        # ``infer`` never builds: no plan is cheaper than the recognized one,
        # so it stands as the optimum
        deny = ground_op("solo", pre=["start"], add=["g1"], actor="spk")
        pr = plan((t("start"),), t("g1"), (deny,), bound=3)
        r = RecognitionResult(
            utterance=ActInstance("inform", "spk", "hrr", t("x(y)")),
            ascribed_goal=t("goal(spk, g1)"),
            plan_r=pr,
            candidate_rank=0,
            initial=(t("start"),),
        )
        empty_domain = Domain(operators=(), bound=3)
        v = efficiency_audit(r, empty_domain)
        assert v.kind == "optimal" and v.cost_o == v.cost_r == 1
        assert v.plan_o is r.plan_r

    def test_bounded_audit_agrees_with_the_full_search(self):
        # the audit searches only below the recognized cost; its verdict,
        # cost and inefficient plan are those of a search to the full bound
        rng = random.Random(3030)
        audits = inefficient = unit = held = 0
        for _ in range(600):
            initial, goal, ops = random_ground_domain(rng)
            ops, bound = tuple(ops), rng.choice((3, 4, 5))
            full = plan(initial, goal, ops, bound=bound)
            expected = bfs_min_cost(initial, [goal], ops, bound)
            domain = Domain(operators=ops, bound=bound)
            for u in ops:
                pr = plan(initial, goal, ops, bound=bound, required_step=u)
                if pr is None:
                    continue
                # the recognized candidate's closure, as ``recognize`` hands
                # it on, or none, so that the audit builds its own
                closure = Closure(initial + list(u.add), ops, bound) if audits % 2 else None
                r = RecognitionResult(
                    utterance=ActInstance("inform", "spk", "hrr", t("x(y)")),
                    ascribed_goal=t(f"goal(spk, {render(goal)})"),
                    plan_r=pr,
                    candidate_rank=0,
                    initial=tuple(initial),
                    closure=closure,
                )
                v = efficiency_audit(r, domain)
                cr = cost(pr)
                assert v.cost_r == cr and v.cost_o == cost(full) == expected <= cr
                assert v.kind == ("inefficient" if expected < cr else "optimal")
                if v.kind == "inefficient":
                    assert v.plan_o == full
                    inefficient += 1
                else:
                    assert v.plan_o is r.plan_r
                audits += 1
                unit += cr == 1
                held += goal in initial
        assert audits >= 700 and inefficient >= 400 and audits - inefficient >= 250
        assert unit >= 350 and held >= 250

    def test_inefficient_plan_is_least_under_the_tie_break(self):
        # two one-step plans undercut the recognized two-step one; the search
        # completes ``zeta``'s first, and the audit still returns ``alpha``'s
        warn = ground_op("warn", pre=["start"], add=["mid"], actor="spk")
        deduce = ground_op("deduce", pre=["mid"], add=["g1"])
        zeta = ground_op("zeta", pre=["start"], add=["g1"], actor="spk")
        alpha = ground_op("alpha", pre=["start"], add=["g1"], actor="spk")
        ops = (zeta, alpha, warn, deduce)
        pr = plan((t("start"),), t("g1"), ops, bound=3, required_step=warn)
        first = plan((t("start"),), t("g1"), ops, bound=1, tie_break=False)
        assert [s.name for s in first.steps.values()] == ["zeta"]
        r = RecognitionResult(
            utterance=ActInstance("inform", "spk", "hrr", t("x(y)")),
            ascribed_goal=t("goal(spk, g1)"),
            plan_r=pr,
            candidate_rank=0,
            initial=(t("start"),),
        )
        v = efficiency_audit(r, Domain(operators=ops, bound=3))
        assert (v.kind, v.cost_r, v.cost_o) == ("inefficient", 2, 1)
        assert [s.name for s in v.plan_o.steps.values()] == ["alpha"]

    def test_no_audit_search_reaches_the_recognized_cost(self, monkeypatch):
        # a question, then its direct answer: the recognized plan (answer,
        # accept) costs 2, so the audit searches depths 0 and 1 only
        text = (
            "(agents system expert)\n"
            "(reliable expert permission)\n"
            "(turn question(system, expert, permission(system, go(out))))\n"
            "(turn yes_answer(expert, system, permission(system, go(out))))\n"
        )
        limits, expanded, auditing = [], [], [False]
        real_audit, real_search, real_expand = (
            inference.efficiency_audit,
            planner._search_depth,
            planner._expand,
        )

        def audit(*args, **kwargs):
            auditing[0] = True
            try:
                return real_audit(*args, **kwargs)
            finally:
                auditing[0] = False

        def search(prob, *args):
            if auditing[0]:
                limits.append(prob.limit)
            return real_search(prob, *args)

        def expand(prob, node):
            if auditing[0]:
                expanded.append(node)
            return real_expand(prob, node)

        monkeypatch.setattr(inference, "efficiency_audit", audit)
        monkeypatch.setattr(planner, "_search_depth", search)
        monkeypatch.setattr(planner, "_expand", expand)
        _, _, outcomes = run_detailed(load_scenario(text))
        v = outcomes[-1].verdict
        assert (v.kind, v.cost_r, v.cost_o) == ("optimal", 2, 2)
        assert v.plan_o is outcomes[-1].recognition.plan_r
        assert limits == [0, 1] and len(expanded) == 3

    def test_verdict_invariant_under_uniform_cost_scaling(self, computer_off):
        _, _, outcomes = computer_off
        v = outcomes[-1].verdict
        for k in (1, 2, 5):
            assert (k * v.cost_o < k * v.cost_r) == (v.kind == "inefficient")


def synthetic_recognition(ops, library=(), avoid=(), extra_po_add=(), closed=False):
    """A hand-built inefficient recognition over a toy domain.

    Pr = [warn, deduce] (cost 2) reaches g1; Po = [deny] (cost 1) reaches it
    directly, asserting `admission` on the way when extra_po_add says so.
    With ``closed``, the recognition keeps the closed closure of the domain
    from the initial state, as a gate's candidate closure.
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
        closure=Closure(initial, all_ops, domain.bound) if closed else None,
    )
    assert not closed or r.closure.closed
    verdict = EfficiencyVerdict(kind="inefficient", plan_o=po, cost_r=2, cost_o=1)
    return r, verdict, domain


class TestConjunctiveRule:
    def test_worked_example_report(self, computer_off):
        _, store, outcomes = computer_off
        report = outcomes[-1].report
        assert report.kind == "conjunctive"
        educate = t("goal(expert, bel(?h, cause(switch(?h, computer_off), damage(hard_drive))))")
        from oracles import unify

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

    def test_library_leaves_out_goals_the_recognized_goal_instantiates(self, computer_off):
        # the recognized no-answer goal declared as a candidate, and a
        # template it instantiates: the speaker already pursues both, so
        # neither is checked as an extra goal and the report is unchanged
        no_answer = "goal(expert, bel(system, not(permission(system, switch(system, computer_off)))))"
        template = "goal(expert, bel(?h, not(permission(?h, switch(?h, computer_off)))))"
        text = (
            scenario_text("computer_off")
            + f"\n(candidate-goal {no_answer})\n(candidate-goal {template})\n"
        )
        _, _, shipped = computer_off
        trace, _, outcomes = run_detailed(load_scenario(text))
        assert render(outcomes[-1].recognition.ascribed_goal) == no_answer
        checked = {e.payload["goal"] for e in trace.find("efficiency-check")}
        assert checked == {
            "goal(expert, bel(?h, cause(switch(?h, computer_off), damage(hard_drive))))"
        }
        assert outcomes[-1].report == shipped[-1].report

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

    def test_later_passing_goal_traced_as_alternative(self):
        # the ground instance of the stereotype template, declared as well:
        # both pass the efficiency condition from the same exclusive state,
        # the template first in library order, so the ground goal is the
        # alternative
        ground = "goal(expert, bel(system, cause(switch(system, computer_off), damage(hard_drive))))"
        text = scenario_text("computer_off") + f"(candidate-goal {ground})\n"
        trace, _, outcomes = run_detailed(load_scenario(text))
        start = max(e.index for e in trace.find("act"))
        events = [
            e for e in trace.events if e.module == "implicature" and e.index > start
        ]
        assert [e.kind for e in events] == [
            "candidate-skipped",
            "plan-found",
            "audit",
            "efficiency-check",
            "efficiency-check",
            "alternative",
            "ascription-report",
        ]
        checks = events[3:5]
        assert [e.payload["passed"] for e in checks] == [True, True]
        assert checks[1].payload["goal"] == ground
        state = "bel(system, bel(expert, cause(switch(system, computer_off), damage(hard_drive))))"
        assert events[5].payload == {"goal": ground, "exclusive_state": state}
        assert events[6].payload["report"] == "conjunctive"
        assert outcomes[-1].report.kind == "conjunctive"


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

    def test_requires_inefficient_verdict(self):
        blame = ground_op("blame", pre=["admission"], add=["blamed"], actor="hrr")
        r, verdict, domain = synthetic_recognition(
            (blame,), avoid=[t("blamed")], extra_po_add=["admission"]
        )
        optimal = EfficiencyVerdict(kind="optimal", plan_o=None, cost_r=2, cost_o=None)
        store, _ = setup(load_scenario("(agents spk hrr)"))
        with pytest.raises(InferenceError):
            ascribe_avoidance(store, r, optimal, domain)


def nest(depth, inner="a"):
    """``inner`` wrapped in ``depth`` levels of f()."""
    return "f(" * depth + inner + ")" * depth


class TestCappedClosure:
    """When the candidate's closure stopped at its round cap, the ascription
    rules search completions over a closure of the plan's terminal state,
    grown only as far as each search needs."""

    def _case(self):
        # echo nests n's argument 20 levels a round and never reaches a
        # fixpoint; deny's n fact nests 62 levels
        echo = Operator(
            "echo", args=(var("x"),), preconditions=(t("n(?x)"),),
            add=(t(f"n({nest(20, '?x')})"),), actor=t("hrr"),
        )
        warn = ground_op("warn", pre=["start"], add=["mid"], actor="spk")
        deduce = ground_op("deduce", pre=["mid"], add=["g1"])
        deny = ground_op("deny", pre=["start"], add=["g1", "admission", f"n({nest(60)})"], actor="spk")
        blame = ground_op("blame", pre=["admission"], add=["blamed"])
        # mid -> c1 -> ... -> c4 -> g2, one action a link
        links = ["mid", "c1", "c2", "c3", "c4", "g2"]
        chain = tuple(
            ground_op(f"m{i}", pre=[links[i - 1]], add=[links[i]], actor="spk") for i in range(1, 6)
        )
        ops = (warn, deduce, deny, echo, blame) + chain
        domain = Domain(
            operators=ops,
            declared_goals=(t("goal(spk, g2)"),),
            avoid_goals=(t("blamed"),),
            bound=5,
        )
        initial = (t("start"),)
        closure = Closure(initial, ops, domain.bound)
        # c4 joins the closure in its last round, so m5 lies past the cap
        assert not closure.closed and chain[-1] not in list(closure.instances())
        pr = plan(initial, t("g1"), ops, bound=5, required_step=warn, closure=closure)
        po = plan(initial, t("g1"), ops, bound=5, closure=closure)
        assert cost(pr) == 2 and cost(po) == 1
        r = RecognitionResult(
            utterance=ActInstance("inform", "spk", "hrr", t("irrelevant(x)")),
            ascribed_goal=t("goal(spk, g1)"),
            plan_r=pr,
            candidate_rank=0,
            initial=initial,
            closure=closure,
        )
        verdict = EfficiencyVerdict(kind="inefficient", plan_o=po, cost_r=2, cost_o=1)
        return r, verdict, domain, chain

    def test_conjunctive_finds_a_completion_past_the_cap(self):
        r, verdict, domain, chain = self._case()
        store, _ = setup(load_scenario("(agents spk hrr)"))
        trace = Trace()
        _, report = ascribe_conjunctive(store, r, verdict, domain, trace=trace)
        # the joint plan needs 7 steps, more than the bound
        assert report is None
        assert [(e.kind, e.payload) for e in trace.events] == [
            (
                "efficiency-check",
                {
                    "goal": "goal(spk, g2)",
                    "exclusive_state": "mid",
                    "joint_optimum": None,
                    "recognized_plus_completion": 7,
                    "passed": False,
                },
            ),
            (
                "candidate-skipped",
                {"goal": "goal(spk, g2)", "exclusive_state": "mid", "cause": "efficiency-condition"},
            ),
        ]

    def test_avoidance_grounds_only_the_rounds_it_searches(self):
        r, verdict, domain, _ = self._case()
        po_end = {t("start"), t("g1"), t("admission"), t(f"n({nest(60)})")}
        # all five rounds over the optimal plan's terminal state nest past
        # MAX_DERIVED_DEPTH; the search settles blamed before they run
        with pytest.raises(TermError, match="operator echo derives a fact nested deeper"):
            Closure(po_end, domain.operators, domain.bound)
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store, report = ascribe_avoidance(store, r, verdict, domain)
        assert report is not None and report.kind == "avoidance"
        assert render(report.goal) == "not(blamed)"
        assert render(report.exclusive_state) == "admission"
        assert [a.name for a in report.completion.actions] == ["blame"]
        assert holds(store, ("hrr", "spk"), Attitude("goal", t("not(blamed)")))


class TestReachableGoals:
    """Over a closed candidate closure, the ascription rules search only for
    the goals that match one of its facts, and report each completion under
    its goal's own position in the library."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The goals handed to each completion search, and how many times
        the terminal state was simulated and the entry states taken."""
        seen = {"complete_from": [], "simulate": 0, "exclusive_states": 0}
        real = inference.complete_from, inference.simulate, inference.exclusive_states

        def complete_from(state, goals, *args, **kwargs):
            seen["complete_from"].append(list(map(render, goals)))
            return real[0](state, goals, *args, **kwargs)

        def simulate(*args):
            seen["simulate"] += 1
            return real[1](*args)

        def exclusive_states(*args):
            seen["exclusive_states"] += 1
            return real[2](*args)

        monkeypatch.setattr(inference, "complete_from", complete_from)
        monkeypatch.setattr(inference, "simulate", simulate)
        monkeypatch.setattr(inference, "exclusive_states", exclusive_states)
        return seen

    def test_a_reachable_template_after_unreachable_ones_keeps_its_position(self, calls):
        teach = ground_op("teach", pre=["mid"], add=["g2"], actor="spk")
        library = [t("goal(spk, never)"), t("goal(spk, k(?x))"), t("goal(spk, g2)")]
        r, verdict, domain = synthetic_recognition((teach,), library=library, closed=True)
        contents = [g.args[1] for g in library]
        found = list(inference._completions(r, r.plan_r, verdict.plan_o, contents, domain))
        assert [(render(s), i, [a.name for a in c.actions]) for s, i, c in found] == [
            ("mid", 2, ["teach"])
        ]
        store, _ = setup(load_scenario("(agents spk hrr)"))
        store = store.with_actions(["teach"])
        trace = Trace()
        _, report = ascribe_conjunctive(store, r, verdict, domain, trace=trace)
        assert report is not None and render(report.goal) == "goal(spk, g2)"
        (check,) = trace.find("efficiency-check")
        assert check.payload["goal"] == "goal(spk, g2)"
        assert calls["complete_from"] == [["g2"], ["g2"]]

    def test_a_rule_with_no_reachable_goal_searches_nothing(self, calls):
        blame = ground_op("blame", pre=["admission"], add=["blamed"])
        r, verdict, domain = synthetic_recognition(
            (blame,), library=[t("goal(spk, never)")], avoid=[t("k(a)")],
            extra_po_add=["admission"], closed=True,
        )
        store, _ = setup(load_scenario("(agents spk hrr)"))
        assert ascribe_conjunctive(store, r, verdict, domain) == (store, None)
        assert ascribe_avoidance(store, r, verdict, domain) == (store, None)
        assert calls == {"complete_from": [], "simulate": 0, "exclusive_states": 0}

    def test_without_a_closed_closure_every_goal_is_searched_for(self, calls):
        blame = ground_op("blame", pre=["admission"], add=["blamed"])
        r, verdict, domain = synthetic_recognition(
            (blame,), avoid=[t("k(a)"), t("blamed")], extra_po_add=["admission"]
        )
        store, _ = setup(load_scenario("(agents spk hrr)"))
        _, report = ascribe_avoidance(store, r, verdict, domain)
        assert render(report.goal) == "not(blamed)"
        assert calls == {
            "complete_from": [["k(a)", "blamed"]], "simulate": 1, "exclusive_states": 1
        }


class TestCompletionCounts:
    """Over the seed-1 and seed-2 rounds of each benchmark workload: the
    completion searches (calls to :func:`completion.complete_from`), the
    goals handed to them and the completions found.  A change that moves
    these numbers regenerates them and gives the reason, as for golden
    traces."""

    #: workload -> (searches, goals searched for, completions found)
    COUNTS = {
        "paper": (18, 18, 6),
        "deep": (126, 126, 18),
        # 272 goals before the ascription rules left out the goals that
        # match no fact of the candidate's closed closure
        "wide": (24, 42, 14),
        "dialogues": (24, 24, 6),
    }

    @pytest.mark.parametrize("workload", sorted(COUNTS))
    def test_counts(self, workload, monkeypatch):
        from test_bench_golden import SEEDS, load_run

        counts = [0, 0, 0]
        real = inference.complete_from

        def complete_from(state, goals, *args, **kwargs):
            found = real(state, goals, *args, **kwargs)
            counts[0] += 1
            counts[1] += len(goals)
            counts[2] += sum(c is not None for c in found)
            return found

        monkeypatch.setattr(inference, "complete_from", complete_from)
        build_round = load_run().build_round
        for seed in SEEDS:
            for d in build_round(workload, seed):
                run_detailed(load_scenario(d.text))
        assert tuple(counts) == self.COUNTS[workload]


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

    def test_unknown_rule_rejected_when_the_domain_is_built(self):
        with pytest.raises(InferenceError, match="unknown ascription rule 'bogus'"):
            Domain(operators=build_operators(), ascription_order=("conjunctive", "bogus"))


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
        from oracles import unify

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
        u = ActInstance("inform", "a", "b", t("p")).step
        assert render(u.head()) == "inform(a, b, p)"
        assert t("bel(b, bel(a, p))") in u.add

    def test_unknown_schema(self):
        with pytest.raises(ActError, match="unknown act schema 'shout'"):
            ActInstance("shout", "a", "b", t("p")).step

    def test_infer_rejects_unknown_act_before_any_event(self):
        store, domain = setup(load_scenario("(agents a b)"))
        trace = Trace()
        with pytest.raises(ActError, match="unknown act schema 'shout'"):
            infer(store, ActInstance("shout", "a", "b", t("p")), domain, trace=trace)
        assert trace.events == []


class TestBuildOnce:
    """The act operators are compiled once per process, and a performed
    act's ground step once."""

    def test_build_operators_returns_the_compiled_acts(self):
        ops = build_operators()
        assert [op.name for op in ops[1:5]] == sorted(ACTS)
        assert all(op is ACT_OPERATORS[op.name] for op in ops[1:5])

    def test_infer_substitutes_the_act_schema_once(self, monkeypatch):
        # grounding (the closures' instances of every operator, the acts
        # included) is not counted: only substitutions made around it
        calls = []
        grounding = [0]
        substituted = Operator.substituted
        ground_instances = closure_module._ground_instances

        def counted(op, bindings):
            if not grounding[0] and op is ACT_OPERATORS.get(op.name):
                calls.append(op.name)
            return substituted(op, bindings)

        def uncounted(*args):
            grounding[0] += 1
            try:
                return ground_instances(*args)
            finally:
                grounding[0] -= 1

        def recompiled(schema):
            raise AssertionError(f"act {schema.name} compiled again")

        monkeypatch.setattr(Operator, "substituted", counted)
        monkeypatch.setattr(closure_module, "_ground_instances", uncounted)
        monkeypatch.setattr(acts, "act_operator", recompiled)
        s = load_scenario(scenario_text("computer_off"))
        store, domain = setup(s)
        for turn in s.turns:
            calls.clear()
            outcome = infer(store, turn, domain)
            assert calls == [turn.schema]
            store = outcome.store
        assert outcome.recognition is not None


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
        assert build_operators() == expected

    def test_builtin_operators_are_valid(self):
        for op in build_operators():
            validate_operator(op)

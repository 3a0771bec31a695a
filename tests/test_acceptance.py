"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS/FAIL line for its criterion.  Expected values come
from independent oracles: exhaustive breadth-first search over ground
action sequences for every cost claim, and a test-local reimplementation
of attitude placement for the update-rule criterion.
"""

import random
import time

import pytest

from implicature.acts import ActInstance, builtin_schemas
from implicature.beliefs import Attitude, BeliefStore, Expectation, holds
from implicature.inference import (
    Domain,
    EfficiencyVerdict,
    RecognitionResult,
    _dedupe,
    _seeds_for,
    ascribe_avoidance,
    ascribe_conjunctive,
)
from implicature.planner import Operator, cost, linearize, plan, simulate
from implicature.scenario import emit_json, load_scenario, run, run_detailed
from implicature.terms import Atom, parse_term, render, unify

from oracles import bfs_min_cost, random_ground_domain

t = parse_term


def scenario_text(name):
    from importlib import resources

    return resources.files("implicature").joinpath(f"scenarios/{name}.vgs").read_text()


def report(name, ok):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


P = "permission(system, switch(system, computer_off))"
Q = "cause(switch(system, computer_off), damage(hard_drive))"
DISJ = f"or({P}, not({P}))"


def worked_example_ground_ops():
    """Hand-written ground instances of the shipped operator set, for the
    brute-force cost oracle.  Written out from the act definitions, not
    compiled from them."""

    def op(name, pre, add):
        return Operator(
            name=name,
            preconditions=tuple(t(x) for x in pre),
            add=tuple(t(x) for x in add),
        )

    return [
        op(
            "inform",
            [f"goal(expert, bel(system, {Q}))", f"bel(expert, {Q})"],
            [f"bel(system, bel(expert, {Q}))", f"bel(system, goal(expert, bel(system, {Q})))"],
        ),
        op(
            "no_answer",
            [
                f"goal(expert, bel(system, not({P})))",
                f"bel(expert, not({P}))",
                f"answer_expected(expert, system, {P})",
            ],
            [
                f"bel(system, bel(expert, not({P})))",
                f"bel(system, goal(expert, bel(system, not({P}))))",
            ],
        ),
        op(
            "yes_answer",
            [
                f"goal(expert, bel(system, {P}))",
                f"bel(expert, {P})",
                f"answer_expected(expert, system, {P})",
            ],
            [
                f"bel(system, bel(expert, {P}))",
                f"bel(system, goal(expert, bel(system, {P})))",
            ],
        ),
        op(
            "question",
            [f"goal(system, bel(system, {DISJ}))", f"bel(system, bel(expert, {DISJ}))"],
            [
                f"bel(expert, bel(system, bel(expert, {DISJ})))",
                f"bel(expert, goal(system, bel(system, {DISJ})))",
                f"answer_expected(expert, system, {P})",
            ],
        ),
        op(
            "accept_belief",
            [f"bel(system, bel(expert, not({P})))", "reliable(expert, permission)"],
            [f"bel(system, not({P}))"],
        ),
        op(
            "accept_belief",
            [f"bel(system, bel(expert, {Q}))", "reliable(expert, cause)"],
            [f"bel(system, {Q})"],
        ),
        op(
            "ascribe",
            [f"bel(system, bel(expert, {Q}))"],
            [
                "bel(system, goal(expert, not(damage(hard_drive))))",
                "bel(system, int(expert, not(switch(system, computer_off))))",
                f"bel(system, bel(expert, not({P})))",
            ],
        ),
    ]


@pytest.fixture(scope="module")
def outcome():
    started = time.perf_counter()
    scenario = load_scenario(scenario_text("computer_off"))
    trace, store, outcomes = run_detailed(scenario)
    elapsed = time.perf_counter() - started
    return trace, store, outcomes[-1], elapsed


class TestWorkedExampleEndToEnd:
    """Criterion: worked-example reproduction from the shipped scenario."""

    def test_a_recognition_of_no_goal_with_inform_step(self, outcome):
        _, _, final, _ = outcome
        r = final.recognition
        ok = (
            r is not None
            and render(r.ascribed_goal)
            == f"goal(expert, bel(system, not({P})))"
            and any(
                render(r.plan_r.steps[i].head()) == f"inform(expert, system, {Q})"
                for i in linearize(r.plan_r)
            )
        )
        report("worked example (a): no_goal recognized with the inform step", ok)

    def test_b_inefficiency_verdict_matches_oracle(self, outcome):
        _, _, final, _ = outcome
        v = final.verdict
        initial = list(final.recognition.initial)
        goal = t(f"bel(system, not({P}))")
        oracle_ops = worked_example_ground_ops()
        oracle_best = bfs_min_cost(initial, [goal], oracle_ops, bound=8)
        oracle_with_inform = bfs_min_cost(
            initial, [goal], oracle_ops, bound=8, require_used="inform"
        )
        po_names = [v.plan_o.steps[i].name for i in linearize(v.plan_o)]
        ok = (
            v.kind == "inefficient"
            and v.cost_o < v.cost_r
            and (v.cost_o, v.cost_r) == (2, 3)
            and (oracle_best, oracle_with_inform) == (2, 3)
            and "no_answer" in po_names
        )
        report("worked example (b): inefficient, oracle-confirmed 2 vs 3, no_answer route", ok)

    def test_c_conjunctive_ascription_matches_teaching_goal(self, outcome):
        _, _, final, _ = outcome
        rep = final.report
        educate = t(
            "goal(expert, bel(?h, cause(switch(?h, computer_off), damage(hard_drive))))"
        )
        ok = (
            rep.kind == "conjunctive"
            and unify(rep.goal, educate) is not None
            and len(rep.completion.actions) == 1
            and rep.completion.actions[0].name == "accept_belief"
        )
        report("worked example (c): conjunctive teaching goal via one accept_belief", ok)

    def test_d_final_ascriptions_in_systems_view_of_expert(self, outcome):
        _, store, _, _ = outcome
        ok = holds(
            store, ("system", "expert"), Attitude("goal", t(f"bel(system, {Q})"))
        ) and holds(
            store,
            ("system", "expert"),
            Attitude("int", t(f"accept_belief(system, expert, {Q})")),
        )
        report("worked example (d): teaching goal and intention ascribed", ok)

    def test_wall_clock_under_five_seconds(self, outcome):
        _, _, _, elapsed = outcome
        report(f"worked example wall clock {elapsed:.2f}s < 5s", elapsed < 5.0)


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(431)
    results = []
    for _ in range(100):
        initial, goal, ops = random_ground_domain(rng)
        found = plan(initial, goal, ops, bound=6)
        expected = bfs_min_cost(initial, [goal], ops, bound=6)
        results.append((initial, goal, ops, found, expected))
    return results


class TestPlannerOptimalityAndSoundness:
    """Criteria: 100/100 oracle-optimal plans; every plan simulates soundly."""

    def test_optimality_100_of_100(self, suite):
        failures = 0
        for initial, goal, ops, found, expected in suite:
            if expected is None:
                failures += found is not None
            else:
                failures += found is None or cost(found) != expected
        report(f"planner optimality {100 - failures}/100 oracle-minimal", failures == 0)

    def test_soundness_zero_failures(self, suite):
        failures = 0
        for initial, goal, ops, found, _ in suite:
            if found is None:
                continue
            try:
                state = simulate(initial, [found.steps[i] for i in linearize(found)])
            except Exception:
                failures += 1
                continue
            failures += goal not in state
        report(f"planner soundness: {failures} simulation failures", failures == 0)


def ascription_instance(rng):
    """One random (Pr, Po, libraries) instance over a two-route toy domain."""
    spk, hrr = Atom("spk"), Atom("hrr")

    def op(name, pre, add, actor):
        return Operator(
            name=name,
            preconditions=tuple(t(x) for x in pre),
            add=tuple(t(x) for x in add),
            actor=actor,
        )

    long_route = [op("utter", ["start"], ["heard"], spk)]
    if rng.random() < 0.5:
        long_route.append(op("mull", ["heard"], ["mid"], hrr))
        long_route.append(op("work", ["mid"], ["g1"], hrr))
    else:
        long_route.append(op("work", ["heard"], ["g1"], hrr))
    direct_adds = ["g1"] + (["admission"] if rng.random() < 0.8 else [])
    ops = long_route + [op("deny", ["start"], direct_adds, spk)]
    if rng.random() < 0.8:
        entry = rng.choice(["heard", "mid" if len(long_route) == 3 else "heard"])
        ops.append(op("teach", [entry], ["g2"], rng.choice([spk, hrr])))
    if rng.random() < 0.3:
        ops.append(op("combo", ["start"], ["g1", "g2"], spk))
    if rng.random() < 0.8:
        ops.append(op("blame", ["admission"], ["bad"], rng.choice([spk, hrr])))
    goal_lib = [t("goal(spk, g2)")] if rng.random() < 0.9 else []
    avoid_lib = [t("bad")] if rng.random() < 0.9 else []

    initial = (t("start"),)
    utterance_op = ops[0]
    pr = plan(initial, t("g1"), tuple(ops), bound=6, required_step=utterance_op)
    po = plan(initial, t("g1"), tuple(ops), bound=6)
    if pr is None or po is None:
        return None
    domain = Domain(
        schemas=builtin_schemas(),
        operators=tuple(ops),
        declared_goals=tuple(goal_lib),
        avoid_goals=tuple(avoid_lib),
        bound=6,
    )
    r = RecognitionResult(
        utterance=ActInstance("inform", "spk", "hrr", t("placeholder(x)")),
        ascribed_goal=t("goal(spk, g1)"),
        plan_r=pr,
        candidate_rank=0,
        initial=initial,
    )
    if cost(po) < cost(pr):
        verdict = EfficiencyVerdict("inefficient", po, cost(pr), cost(po))
    else:
        verdict = EfficiencyVerdict("optimal", po, cost(pr), cost(po))
    return r, verdict, domain


def oracle_asserted(initial, p):
    """Initial facts plus add effects, recomputed without the planner."""
    facts = set(initial)
    for sid in linearize(p):
        facts |= set(p.steps[sid].add)
    return facts


class TestAscriptionSideConditions:
    """Criterion: 0 violations of the rule side-conditions across >= 200
    generated instances, each re-checked independently."""

    def test_side_conditions(self):
        rng = random.Random(97)
        store_base = BeliefStore().with_actions(
            ["utter", "mull", "work", "deny", "teach", "combo", "blame"]
        )
        generated = conj_reports = avoid_reports = violations = 0
        while generated < 200:
            instance = ascription_instance(rng)
            if instance is None:
                continue
            generated += 1
            r, verdict, domain = instance
            if verdict.kind != "inefficient":
                continue
            store, rep = ascribe_conjunctive(store_base, r, verdict, domain)
            if rep is not None:
                conj_reports += 1
                po_facts = oracle_asserted(r.initial, verdict.plan_o)
                if any(unify(rep.exclusive_state, f) is not None for f in po_facts):
                    violations += 1
                joint_initial = _dedupe(list(r.initial) + _seeds_for(rep.goal))
                oracle_joint = bfs_min_cost(
                    list(joint_initial),
                    [t("g1"), rep.goal.args[1]],
                    list(domain.operators),
                    bound=6,
                )
                if oracle_joint != cost(r.plan_r) + len(rep.completion.actions):
                    violations += 1
            store, rep = ascribe_avoidance(store_base, r, verdict, domain)
            if rep is not None:
                avoid_reports += 1
                if any(
                    a.actor == Atom(r.utterance.speaker) for a in rep.completion.actions
                ):
                    violations += 1
                pr_facts = oracle_asserted(r.initial, r.plan_r)
                if any(unify(rep.exclusive_state, f) is not None for f in pr_facts):
                    violations += 1
        ok = violations == 0 and generated >= 200 and conj_reports and avoid_reports
        report(
            f"ascription side-conditions: {violations} violations over {generated} "
            f"instances ({conj_reports} conjunctive, {avoid_reports} avoidance reports)",
            ok,
        )


def expected_placement(full_term):
    """Test-local reimplementation of attitude placement for nested terms."""
    kinds = ("bel", "goal", "int")
    path = []
    term = full_term
    while True:
        functor = getattr(term, "functor", None)
        if functor not in kinds:
            raise ValueError(f"not an attitude term: {term}")
        agent, content = term.args
        path.append(agent.name)
        inner_functor = getattr(content, "functor", None)
        if functor == "bel" and inner_functor in kinds and hasattr(content.args[0], "name") and content.args[0].__class__.__name__ == "Atom":
            term = content
            continue
        return tuple(path), functor, content


#: The update boxes (i) and (ii) of each act, written out: the speaker's
#: attitudes the act communicates, with {s} the speaker, {h} the hearer and
#: {p} the content.  The hearer gains bel(h, X) and the speaker's view of
#: the hearer gains bel(s, bel(h, X)) for each box X.
UPDATE_BOXES = {
    "inform": ("bel({s}, {p})", "goal({s}, bel({h}, {p}))"),
    "yes_answer": ("bel({s}, {p})", "goal({s}, bel({h}, {p}))"),
    "no_answer": ("bel({s}, not({p}))", "goal({s}, bel({h}, not({p})))"),
    "question": (
        "bel({s}, bel({h}, or({p}, not({p}))))",
        "goal({s}, bel({s}, or({p}, not({p}))))",
    ),
}


class TestUpdateRules:
    """Criterion: speaker/hearer updates land exactly per the update boxes,
    idempotently, over >= 100 randomized cases."""

    def test_updates_land_exactly(self):
        from implicature.acts import apply_hearer_update, apply_speaker_update

        schemas = builtin_schemas()
        assert set(UPDATE_BOXES) == set(schemas)
        contents = [t("p"), t("q(a)"), t("r(a, b)"), t("not(w(c))"), t("s(f(a), b)")]
        agents = [("alice", "bob"), ("bob", "carol"), ("system", "expert")]
        rng = random.Random(7)
        cases = failures = 0
        while cases < 120:
            schema = rng.choice(sorted(schemas))
            speaker, hearer = rng.choice(agents)
            content = rng.choice(contents)
            if schema in ("no_answer", "yes_answer") and content.__class__.__name__ != "Atom":
                if render(content).startswith("not("):
                    continue  # keep answer contents positive
            act = ActInstance(schema, speaker, hearer, content)
            store = BeliefStore()
            if schemas[schema].needs_expectation:
                store = store.with_expectation(
                    Expectation(asker=hearer, answerer=speaker, content=content)
                )
            cases += 1
            after_speaker = apply_speaker_update(store, act, schemas)
            after_both = apply_hearer_update(after_speaker, act, schemas)

            expected = {}

            def place(full):
                path, kind, inner = expected_placement(t(full))
                expected.setdefault(path, set()).add((kind, render(inner)))

            for box in UPDATE_BOXES[schema]:
                x = box.format(s=speaker, h=hearer, p=render(content))
                place(f"bel({hearer}, {x})")
                place(f"bel({speaker}, bel({hearer}, {x}))")

            actual = {
                path: {(a.kind, render(a.content)) for a in atts}
                for path, atts in after_both.spaces.items()
            }
            if actual != expected:
                failures += 1
                continue
            again = apply_hearer_update(
                apply_speaker_update(after_both, act, schemas), act, schemas
            )
            if again.spaces != after_both.spaces:
                failures += 1
        report(
            f"update rules: {cases - failures}/{cases} exact placements, idempotent",
            failures == 0,
        )


class TestDeterminism:
    """Criterion: byte-identical traces for consecutive runs of each scenario."""

    def test_byte_identical_traces(self):
        ok = True
        for name in ("computer_off", "swim_waves", "burnt_cakes"):
            scenario = load_scenario(scenario_text(name))
            first = emit_json(run(scenario))
            second = emit_json(run(scenario))
            ok = ok and first == second
        report("determinism: byte-identical traces for all shipped scenarios", ok)

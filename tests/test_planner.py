"""Tests for the partial-order causal-link planner and plan comparisons."""

import random

import pytest

from implicature.planner import (
    Completion,
    CycleError,
    Operator,
    Plan,
    PlannerError,
    PreconditionFailure,
    asserted_states,
    complete_from,
    cost,
    exclusive_states,
    linearize,
    plan,
    simulate,
    to_dot,
)
from implicature.terms import Atom, parse_term, render, unify, var

from oracles import bfs_min_cost, random_ground_domain

t = parse_term


def op(name, pre=(), add=(), delete=(), actor=None):
    return Operator(
        name=name,
        preconditions=tuple(t(x) for x in pre),
        add=tuple(t(x) for x in add),
        delete=tuple(t(x) for x in delete),
        actor=t(actor) if actor else None,
    )


class TestBasics:
    def test_goal_already_satisfied_gives_empty_plan(self):
        p = plan([t("g")], t("g"), [op("noop", add=["g"])], bound=3)
        assert p is not None
        assert cost(p) == 0
        assert linearize(p) == []

    def test_single_step(self):
        p = plan([], t("g"), [op("make", add=["g"])], bound=3)
        assert cost(p) == 1

    def test_unreachable_returns_none(self):
        assert plan([], t("g"), [op("other", add=["h"])], bound=4) is None

    def test_chain(self):
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["g"])]
        p = plan([], t("g"), ops, bound=4)
        assert cost(p) == 2
        assert [p.steps[i].name for i in linearize(p)] == ["a", "b"]

    def test_bound_respected(self):
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["y"]), op("c", pre=["y"], add=["g"])]
        assert plan([], t("g"), ops, bound=2) is None
        assert plan([], t("g"), ops, bound=3) is not None

    def test_bound_must_be_positive(self):
        with pytest.raises(PlannerError):
            plan([], t("g"), [], bound=0)

    def test_initial_must_be_ground(self):
        with pytest.raises(PlannerError):
            plan([t("f(?x)")], t("g"), [], bound=2)

    def test_conjunctive_goal(self):
        ops = [op("a", add=["x"]), op("b", add=["y"])]
        p = plan([], [t("x"), t("y")], ops, bound=4)
        assert cost(p) == 2

    def test_tie_break_lexicographic_on_names(self):
        ops = [op("zeta", add=["g"]), op("alpha", add=["g"])]
        p = plan([], t("g"), ops, bound=2)
        assert [p.steps[i].name for i in linearize(p)] == ["alpha"]

    def test_tie_break_exact_past_many_equal_plans(self):
        # 4**5 = 1024 equal-cost plans at depth 5; the least name sequence
        # comes from the last operator listed for every goal
        ops = [
            op(f"{prefix}{i}", add=[f"g{i}"]) for i in range(5) for prefix in "zyxa"
        ]
        p = plan([], [t(f"g{i}") for i in range(5)], ops, bound=5)
        assert [p.steps[i].name for i in linearize(p)] == ["a0", "a1", "a2", "a3", "a4"]

    def test_schema_variables_named_like_fresh_ones(self):
        # renaming maps ?v1 -> ?v0 and ?v2 -> ?v1 at once; chaining the two
        # would collapse both parameters into one variable
        initial = [t("at(a)"), t("conn(a, b)")]
        for x, y in (("?v1", "?v2"), ("?x", "?y")):
            move = Operator(
                name="move",
                args=(t(x), t(y)),
                preconditions=(t(f"at({x})"), t(f"conn({x}, {y})")),
                add=(t(f"at({y})"),),
                delete=(t(f"at({x})"),),
            )
            p = plan(initial, t("at(b)"), [move], bound=2)
            assert p is not None
            assert [render(p.steps[i].head()) for i in linearize(p)] == ["move(a, b)"]

    def test_determinism(self):
        ops = [op("b", add=["x", "g"]), op("a", pre=["x"], add=["g"]), op("c", add=["x"])]
        plans = [plan([], t("g"), ops, bound=4) for _ in range(3)]
        keys = [[render(p.steps[i].head()) for i in linearize(p)] for p in plans]
        assert keys[0] == keys[1] == keys[2]


class TestSchemaFilter:
    """Schemas are skipped for a condition only on a root (functor, arity)
    clash; a variable root on either side may match anything."""

    def test_variable_rooted_add_effect_closes_a_condition(self):
        # make(?p) adds ?p itself, its topic fixing the root: the only
        # producer of warm(x) has no compound add-effect to compare with
        make = Operator(
            name="make",
            args=(var("p"),),
            add=(var("p"),),
            topic_constraints=((var("p"), Atom("warm")),),
        )
        p = plan([], t("warm(x)"), [op("other", add=["cold(x)"]), make], bound=2)
        assert p is not None
        assert [render(p.steps[i].head()) for i in linearize(p)] == ["make(warm(x))"]

    def test_condition_walking_to_a_variable_is_closed(self):
        # use(?q) needs ?q, which nothing binds before a producer is chosen
        use = Operator(
            name="use", args=(var("q"),), preconditions=(var("q"),), add=(t("done"),)
        )
        p = plan([], t("done"), [use, op("light", add=["lit"])], bound=3)
        assert p is not None
        assert [render(p.steps[i].head()) for i in linearize(p)] == ["light", "use(lit)"]

    def test_condition_walking_to_a_bound_compound_is_closed(self):
        use = Operator(
            name="use", args=(var("q"),), preconditions=(var("q"),),
            add=(t("done(?q)"),),
        )
        heat = Operator(name="heat", args=(var("y"),), add=(t("warm(?y)"),))
        p = plan([], t("done(warm(x))"), [use, op("light", add=["lit"]), heat], bound=3)
        assert p is not None
        assert [render(p.steps[i].head()) for i in linearize(p)] == [
            "heat(x)", "use(warm(x))"
        ]


class TestThreats:
    def test_sussman_anomaly(self):
        # Three-block tower: interleaving forces threat resolution.
        ops = [
            Operator(
                name="move",
                args=(var("b"), var("x"), var("y")),
                preconditions=(t("on(?b, ?x)"), t("clear(?b)"), t("clear(?y)")),
                add=(t("on(?b, ?y)"), t("clear(?x)")),
                delete=(t("on(?b, ?x)"), t("clear(?y)")),
            ),
            Operator(
                name="move_to_table",
                args=(var("b"), var("x")),
                preconditions=(t("on(?b, ?x)"), t("clear(?b)")),
                add=(t("on(?b, table)"), t("clear(?x)")),
                delete=(t("on(?b, ?x)"),),
            ),
        ]
        initial = [t("on(a, table)"), t("on(b, table)"), t("on(c, a)"), t("clear(b)"), t("clear(c)")]
        goals = [t("on(a, b)"), t("on(b, c)")]
        p = plan(initial, goals, ops, bound=4)
        assert p is not None
        assert cost(p) == 3
        state = simulate(initial, [p.steps[i] for i in linearize(p)])
        assert t("on(a, b)") in state and t("on(b, c)") in state

    def test_unresolvable_threat_fails(self):
        # b must run between a and the goal but deletes what a provides.
        ops = [
            op("a", add=["p"]),
            op("b", pre=["p"], add=["q"], delete=["p"]),
        ]
        p = plan([], [t("p"), t("q")], ops, bound=4)
        # needs a second 'a' after b, or orderings that keep p alive
        assert p is not None
        state = simulate([], [p.steps[i] for i in linearize(p)])
        assert t("p") in state and t("q") in state

    def test_threat_made_by_a_later_binding(self):
        # spoil(?x) may delete f(a) only once the k(a) link binds ?x, after
        # the f(a) link and the spoil step are both in place
        ops = [
            op("p1", add=["f(a)"]),
            Operator(
                name="spoil",
                args=(var("x"),),
                preconditions=(t("k(?x)"),),
                add=(t("h"),),
                delete=(t("f(?x)"),),
            ),
        ]
        initial = [t("k(a)")]
        p = plan(initial, [t("f(a)"), t("h")], ops, bound=3)
        assert p is not None
        seq = [p.steps[i] for i in linearize(p)]
        assert [s.name for s in seq] == ["spoil", "p1"]
        state = simulate(initial, seq)
        assert t("f(a)") in state and t("h") in state


class TestLinearizeSimulate:
    def test_single_step_plan(self):
        p = plan([], t("g"), [op("make", add=["g"])], bound=2)
        assert len(linearize(p)) == 1

    def test_unordered_steps_break_ties_by_id(self):
        ops = [op("a", add=["x"]), op("b", add=["y"])]
        p = plan([], [t("x"), t("y")], ops, bound=3)
        order = linearize(p)
        assert order == sorted(order)

    def test_linearization_respects_links(self):
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["g"])]
        p = plan([], t("g"), ops, bound=3)
        order = linearize(p)
        for link in p.links:
            if link.producer in p.steps and link.consumer in p.steps:
                assert order.index(link.producer) < order.index(link.consumer)

    def test_simulate_empty_sequence(self):
        assert simulate([t("a")], []) == {t("a")}

    def test_simulate_reports_failure_index(self):
        with pytest.raises(PreconditionFailure) as err:
            simulate([], [op("a", add=["x"]), op("b", pre=["y"], add=["g"])])
        assert err.value.index == 1
        assert err.value.condition == t("y")

    def test_cycle_detected(self):
        broken = Plan(
            steps={2: op("a", add=["x"]), 3: op("b", add=["y"])},
            initial=(), goal_conditions=(),
            orderings=frozenset({(2, 3), (3, 2)}), links=frozenset(),
        )
        with pytest.raises(CycleError):
            linearize(broken)


class TestStateComparisons:
    def two_route_plans(self):
        ops_long = [
            op("warn", add=["told(cause)"]),
            op("deduce", pre=["told(cause)"], add=["knows(no)"]),
        ]
        ops_short = [op("deny", add=["knows(no)"])]
        pr = plan([], t("knows(no)"), ops_long, bound=4)
        po = plan([], t("knows(no)"), ops_short, bound=4)
        return pr, po

    def test_empty_plan_asserts_initial(self):
        p = plan([t("a")], t("a"), [], bound=2)
        assert asserted_states(p) == [(0, t("a"))]

    def test_asserted_states_tag_producers(self):
        pr, _ = self.two_route_plans()
        states = dict()
        for sid, term in asserted_states(pr):
            states[render(term)] = sid
        assert states["told(cause)"] in pr.steps
        assert states["knows(no)"] in pr.steps

    def test_exclusive_states_self_is_empty(self):
        pr, _ = self.two_route_plans()
        assert exclusive_states(pr, pr) == []

    def test_exclusive_states_finds_route_difference(self):
        pr, po = self.two_route_plans()
        assert exclusive_states(pr, po) == [t("told(cause)")]
        assert exclusive_states(po, pr) == []

    def test_disjoint_plans_expose_all_noninitial_states(self):
        a = plan([], t("x"), [op("a", add=["x"])], bound=2)
        b = plan([], t("y"), [op("b", add=["y"])], bound=2)
        assert exclusive_states(a, b) == [t("x")]


    def test_exclusive_states_equal_the_unify_definition(self):
        # the definition before complete plans' ground states made it a set
        # difference: states of a that unify with no state of b, deduped
        def by_unify(a, b):
            b_states = [x for _, x in asserted_states(b)]
            out = []
            for _, x in asserted_states(a):
                if any(unify(x, y) is not None for y in b_states):
                    continue
                if x not in out:
                    out.append(x)
            return out

        rng = random.Random(61)
        compared = nonempty = 0
        for _ in range(600):
            initial, goal, ops = random_ground_domain(rng)
            u = rng.choice(ops)
            initial = list(dict.fromkeys(initial + list(u.preconditions)))
            pr = plan(initial, goal, ops, bound=4, required_step=u)
            po = plan(initial, goal, ops, bound=4)
            if pr is None or po is None:
                continue
            for a, b in ((pr, po), (po, pr)):
                assert exclusive_states(a, b) == by_unify(a, b)
                compared += 1
                nonempty += bool(by_unify(a, b))
        assert compared >= 200
        assert nonempty >= 50


class TestCompleteFrom:
    OPS = [
        op("grab", pre=["seen(item)"], add=["held(item)"], actor="robot"),
        op("stow", pre=["held(item)"], add=["stored(item)"], actor="robot"),
    ]

    def test_one_action_completion(self):
        (c,) = complete_from(t("seen(item)"), (t("held(item)"),), self.OPS, 3, {t("seen(item)")})
        assert c is not None
        assert [a.name for a in c.actions] == ["grab"]
        assert c.achieved_goal == t("held(item)")

    def test_first_action_must_enter_from_state(self):
        ambient = {t("seen(item)"), t("held(item)")}
        (c,) = complete_from(t("missing(thing)"), (t("stored(item)"),), self.OPS, 3, ambient)
        assert c is None

    def test_minimal_length(self):
        (c,) = complete_from(t("seen(item)"), (t("stored(item)"),), self.OPS, 4, {t("seen(item)")})
        assert [a.name for a in c.actions] == ["grab", "stow"]

    def test_unreachable_within_bound(self):
        (c,) = complete_from(t("seen(item)"), (t("eaten(item)"),), self.OPS, 4, {t("seen(item)")})
        assert c is None

    def test_lifted_goal_instantiated(self):
        (c,) = complete_from(t("seen(item)"), (t("held(?x)"),), self.OPS, 3, {t("seen(item)")})
        assert c.achieved_goal == t("held(item)")

    def test_one_search_answers_every_goal_in_order(self):
        goals = (t("stored(item)"), t("eaten(item)"), t("held(item)"))
        stored, eaten, held = complete_from(
            t("seen(item)"), goals, self.OPS, 4, {t("seen(item)")}
        )
        assert [a.name for a in stored.actions] == ["grab", "stow"]
        assert eaten is None
        assert [a.name for a in held.actions] == ["grab"]
        assert complete_from(t("seen(item)"), (), self.OPS, 4, {t("seen(item)")}) == ()

    def test_ambient_goal_met_by_first_entry_action(self):
        ops = [op("e", pre=["s"], add=["x"])]
        (c,) = complete_from(t("s"), (t("g"),), ops, 2, {t("s"), t("g")})
        assert [a.name for a in c.actions] == ["e"]
        assert c.achieved_goal == t("g")

    def test_action_deleting_ambient_goal_does_not_complete_it(self):
        deleting = op("d", pre=["s"], add=["x"], delete=["g"])
        keeping = op("k", pre=["s"], add=["y"])
        ambient = {t("s"), t("g")}
        (c,) = complete_from(t("s"), (t("g"),), [deleting], 3, ambient)
        assert c is None
        (c,) = complete_from(t("s"), (t("g"),), [deleting, keeping], 3, ambient)
        assert [a.name for a in c.actions] == ["k"]

    def test_lifted_goal_takes_least_fact_of_ambient_and_add_effects(self):
        goal = (t("held(?x)"),)
        grab_a = op("grab", pre=["seen(b)"], add=["held(a)"])
        (c,) = complete_from(t("seen(b)"), goal, [grab_a], 2, {t("seen(b)"), t("held(c)")})
        assert c.achieved_goal == t("held(a)")
        grab_c = op("grab", pre=["seen(b)"], add=["held(c)"])
        (c,) = complete_from(t("seen(b)"), goal, [grab_c], 2, {t("seen(b)"), t("held(a)")})
        assert c.achieved_goal == t("held(a)")

    def test_batch_equals_one_goal_searches(self):
        rng = random.Random(20261018)
        found = unreached = 0
        for _ in range(300):
            initial, _, ops = random_ground_domain(rng)
            atoms = sorted(
                {a for o in ops for a in o.preconditions + o.add + o.delete} | set(initial),
                key=render,
            )
            entry = rng.choice(atoms)
            goals = atoms + [t("never"), var("x"), rng.choice(atoms)]
            rng.shuffle(goals)
            bound = rng.randint(1, 4)
            batch = complete_from(entry, goals, ops, bound, set(initial))
            assert len(batch) == len(goals)
            for goal, c in zip(goals, batch):
                assert c == complete_from(entry, (goal,), ops, bound, set(initial))[0]
                if c is None:
                    unreached += 1
                    continue
                found += 1
                assert entry in c.actions[0].preconditions
                assert c.achieved_goal in simulate(initial, list(c.actions))
        assert found > 100 and unreached > 100

    def test_completions_are_nonempty(self):
        with pytest.raises(PlannerError):
            Completion(actions=(), entry_state=t("s"), achieved_goal=t("g"))


class TestDotExport:
    def test_empty_plan_has_only_pseudo_nodes(self):
        p = plan([t("g")], t("g"), [], bound=2)
        dot = to_dot(p)
        assert "init" in dot and "goal" in dot and "s2" not in dot

    def test_completion_renders_dashed(self):
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["g"])]
        p = plan([], t("g"), ops, bound=3)
        (c,) = complete_from(t("x"), (t("extra"),), [op("e", pre=["x"], add=["extra"])], 2, {t("x"), t("g")})
        dot = to_dot(p, c)
        assert "style=dashed" in dot
        assert dot.count("digraph") == 1

    def test_no_overlay_no_dashes_when_fully_linked(self):
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["g"])]
        p = plan([], t("g"), ops, bound=3)
        assert "c0" not in to_dot(p)


class TestTraceReporting:
    def test_bound_exceeded_reported_distinctly(self):
        from implicature.trace import Trace

        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["y"]), op("c", pre=["y"], add=["g"])]
        trace = Trace()
        assert plan([], t("g"), ops, bound=2, trace=trace) is None
        assert trace.events[-1].kind == "plan-none"
        assert trace.events[-1].payload["cause"] == "bound-exceeded"

    def test_unsolvable_reported_distinctly(self):
        from implicature.trace import Trace

        trace = Trace()
        assert plan([], t("g"), [op("other", add=["h"])], bound=3, trace=trace) is None
        assert trace.events[-1].payload["cause"] == "unsolvable"

    def test_plan_found_traced(self):
        from implicature.trace import Trace

        trace = Trace()
        plan([], t("g"), [op("make", add=["g"])], bound=2, trace=trace)
        assert trace.events[-1].kind == "plan-found"
        assert trace.events[-1].payload["cost"] == 1


class TestAgainstOracle:
    def _assert_links_protected(self, p):
        from implicature.planner import _ordered_before

        found = 0
        for link in p.links:
            for sid, step in p.steps.items():
                if sid in (link.producer, link.consumer):
                    continue
                if link.condition not in step.add + step.delete:
                    continue
                found += 1
                assert _ordered_before(p.orderings, sid, link.producer) or _ordered_before(
                    p.orderings, link.consumer, sid
                )
        return found

    def test_links_threat_free_in_interleaved_plan(self):
        # the three-block tower forces real threats; every link must order
        # matching effects outside its producer-consumer window
        ops = [
            Operator(
                name="move",
                args=(var("b"), var("x"), var("y")),
                preconditions=(t("on(?b, ?x)"), t("clear(?b)"), t("clear(?y)")),
                add=(t("on(?b, ?y)"), t("clear(?x)")),
                delete=(t("on(?b, ?x)"), t("clear(?y)")),
            ),
            Operator(
                name="move_to_table",
                args=(var("b"), var("x")),
                preconditions=(t("on(?b, ?x)"), t("clear(?b)")),
                add=(t("on(?b, table)"), t("clear(?x)")),
                delete=(t("on(?b, ?x)"),),
            ),
        ]
        initial = [t("on(a, table)"), t("on(b, table)"), t("on(c, a)"), t("clear(b)"), t("clear(c)")]
        p = plan(initial, [t("on(a, b)"), t("on(b, c)")], ops, bound=4)
        assert self._assert_links_protected(p) > 0

    def test_links_threat_free_in_random_plans(self):
        rng = random.Random(5150)
        for _ in range(60):
            initial, goal, ops = random_ground_domain(rng)
            p = plan(initial, goal, ops, bound=5)
            if p is not None:
                self._assert_links_protected(p)

    def test_random_domains_match_bfs(self):
        rng = random.Random(20260809)
        for _ in range(100):
            initial, goal, ops = random_ground_domain(rng)
            found = plan(initial, goal, ops, bound=5)
            expected = bfs_min_cost(initial, [goal], ops, bound=5)
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert cost(found) == expected
                state = simulate(initial, [found.steps[i] for i in linearize(found)])
                assert goal in state

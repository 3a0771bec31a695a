"""Tests for the partial-order causal-link planner and plan comparisons."""

import random
from dataclasses import replace

import pytest

from implicature import closure as closure_module
from implicature import completion as completion_module
from implicature import planner
from implicature.closure import MAX_DERIVED_DEPTH, Closure, PlannerError
from implicature.completion import Completion, complete_from, to_dot
from implicature.planner import (
    DEFAULT_BOUND,
    CycleError,
    Operator,
    Plan,
    PreconditionFailure,
    asserted_states,
    cost,
    exclusive_states,
    linearize,
    plan,
    simulate,
)
from implicature.terms import (
    Atom,
    Compound,
    TermError,
    parse_term,
    render,
    struct,
    var,
)

from oracles import (
    bfs_min_cost,
    per_state_completion,
    random_ground_domain,
    random_lifted_domain,
    unify,
)

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

    def test_goals_grounding_to_one_fact_break_ties_on_the_goal_conditions(self):
        # w = c, z = a and w = a, z = a give one set of links, since both
        # f(a) goals share the link from o2; the least goal render wins
        x, y = var("x"), var("y")

        def lifted(name, *add):
            return Operator(name, args=(x, y), preconditions=(t("g(?x, ?y)"),), add=tuple(map(t, add)))

        ops = [lifted("o0", "h(?x)", "g(a, b)"), lifted("o1", "h(?y)", "f(a)"),
               lifted("o2", "f(a)", "g(?x, c)")]
        required = ops[2].substituted({"x": Atom("c"), "y": Atom("b")})
        initial = [t("f(a)"), t("f(c)"), t("f(c)"), t("g(c, b)")]
        goals = [t("f(c)"), t("f(?w)"), t("f(?z)")]
        p = plan(initial, goals, ops, bound=4, required_step=required)
        assert list(map(render, p.goal_conditions)) == ["f(c)", "f(a)", "f(a)"]
        assert sorted((l.producer, render(l.condition), l.consumer) for l in p.links) == [
            (0, "f(c)", 1), (0, "g(c, b)", 2), (2, "f(a)", 1)
        ]

    def test_determinism(self):
        ops = [op("b", add=["x", "g"]), op("a", pre=["x"], add=["g"]), op("c", add=["x"])]
        plans = [plan([], t("g"), ops, bound=4) for _ in range(3)]
        keys = [[render(p.steps[i].head()) for i in linearize(p)] for p in plans]
        assert keys[0] == keys[1] == keys[2]


class TestSchemaFilter:
    """Operators with variable-rooted conditions or effects: the planner
    grounds them over the relaxed closure, and refuses those whose
    instances forward grounding cannot find."""

    def test_variable_rooted_add_effect_closes_a_condition(self):
        # make(?p) adds ?p itself, its topic fixing only the root: no
        # precondition binds ?p, so no ground instance can close warm(x)
        make = Operator(
            name="make",
            args=(var("p"),),
            add=(var("p"),),
            topic_constraints=((var("p"), Atom("warm")),),
        )
        with pytest.raises(PlannerError, match="operator make: an instance is not ground"):
            plan([], t("warm(x)"), [op("other", add=["cold(x)"]), make], bound=2)

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
        # heat(?y) takes ?y from the condition it closes only, so grounding
        # forward cannot find heat(x)
        heat = Operator(name="heat", args=(var("y"),), add=(t("warm(?y)"),))
        with pytest.raises(PlannerError, match="operator heat: an instance is not ground"):
            plan([], t("done(warm(x))"), [use, op("light", add=["lit"]), heat], bound=3)


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


class TestCanonicalOrderings:
    """A plan keeps no step-to-step ordering that its other orderings imply,
    whichever order its branch met the threats in."""

    def test_ordering_implied_through_a_third_step_is_dropped(self):
        # the branch orders o1 before o0 for the p0 link, then o1 before o2
        # and o2 before o0, which imply it
        ops = [
            op("o0", pre=["p2", "p0"], add=["p2", "p0"], delete=["p1"]),
            op("o1", add=["p2", "p0"]),
            op("o2", pre=["p2"], add=["p2"]),
            op("o3", pre=["p0"], add=["p0", "p2"]),
            op("o4", pre=["p2"], add=["p1", "p0"]),
        ]
        p = plan([], t("p0"), ops, bound=3, required_step=ops[2])
        assert {sid: s.name for sid, s in p.steps.items()} == {2: "o2", 3: "o0", 4: "o1"}
        assert sorted(p.orderings) == [
            (0, 1), (0, 2), (0, 3), (0, 4), (2, 1), (2, 3), (3, 1), (4, 1), (4, 2)
        ]
        assert planner.CausalLink(4, t("p0"), 3) in p.links

    def test_goal_with_a_variable_and_a_required_step(self):
        # the branch that finds this plan also orders 4 before 3, which
        # 4 before 2 before 3 implies
        x, y = var("x"), var("y")
        ops = [
            Operator("o0", args=(x,), preconditions=(t("f(?x)"),), add=(t("f(c)"), t("g(c, ?x)"))),
            Operator("o1", args=(x, y), preconditions=(t("g(?x, ?y)"),), add=(t("h(c)"), t("h(?x)"))),
            Operator("o2", args=(x,), preconditions=(t("h(?x)"),), add=(t("g(a, a)"),)),
        ]
        required = ops[2].substituted({"x": Atom("a")})
        p = plan([t("g(a, b)"), t("g(c, b)")], t("h(?z)"), ops, bound=3, required_step=required)
        assert [render(p.steps[i].head()) for i in linearize(p)] == ["o1(a, b)", "o2(a)", "o1(a, a)"]
        assert (4, 3) not in p.orderings
        assert sorted(p.orderings) == [
            (0, 1), (0, 2), (0, 3), (0, 4), (2, 1), (2, 3), (3, 1), (4, 1), (4, 2)
        ]


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

    def test_derived_fact_past_depth_cap_is_a_term_error(self):
        # each step wraps the fact once more: p(f^n(a)) nests n + 2 levels
        wrap = op("wrap", pre=["p(?x)"], add=["p(f(?x))"], delete=["p(?x)"])
        steps = MAX_DERIVED_DEPTH - 2
        (c,) = complete_from(t("p(a)"), (t("q"),), [wrap], steps, {t("p(a)")})
        assert c is None
        with pytest.raises(
            TermError, match=f"operator wrap derives a fact nested deeper than {MAX_DERIVED_DEPTH}"
        ):
            complete_from(t("p(a)"), (t("q"),), [wrap], steps + 1, {t("p(a)")})

    def test_arg_no_precondition_binds_is_a_planner_error(self):
        # tell(?x) takes ?x from the goal only: neither the planner nor
        # completion search can ground it forward, so both must fail rather
        # than answer None for known(c)
        tell = Operator(
            "tell", args=(var("x"),), preconditions=(t("p"),), add=(t("known(?x)"),)
        )
        with pytest.raises(PlannerError, match="operator tell: an instance is not ground"):
            plan([t("p")], t("known(c)"), [tell])
        with pytest.raises(PlannerError, match="operator tell: an instance is not ground"):
            complete_from(t("p"), (t("known(c)"),), [tell], 3, {t("p")})

    def test_lazy_rounds_stop_at_the_level_that_settles_every_goal(self):
        # e completes at the first level; a closure grounded for all 200
        # rounds up front would nest wrap's p(f(...)) past MAX_DERIVED_DEPTH
        # and raise TermError
        wrap = op("wrap", pre=["p(?x)"], add=["p(f(?x))"], delete=["p(?x)"])
        e = op("e", pre=["p(a)"], add=["g"])
        (c,) = complete_from(t("p(a)"), (t("g"),), [wrap, e], 200, {t("p(a)")})
        assert c == Completion(actions=(e,), entry_state=t("p(a)"), achieved_goal=t("g"))

    def test_operators_sharing_a_name_keep_their_positions(self):
        # by precondition render, second's instance sorts before first's:
        # rows keyed by name would expand it first and answer g with it
        first = op("o", pre=["t", "s"], add=["g"])
        second = op("o", pre=["a", "s"], add=["g", "h"])
        ambient = {t("a"), t("s"), t("t")}
        goals = (t("g"), t("h"))
        found = complete_from(t("s"), goals, [first, second], 2, ambient)
        assert [c.actions for c in found] == [(first,), (second,)]
        assert found == per_state_completion(t("s"), goals, [first, second], 2, ambient)

    def test_shared_closure_checks_ambient_once(self, monkeypatch):
        checked: list[tuple] = []
        check = closure_module._check_ground

        def recording(facts, what):
            checked.append(facts)
            check(facts, what)

        monkeypatch.setattr(closure_module, "_check_ground", recording)
        monkeypatch.setattr(completion_module, "_check_ground", recording)
        ambient = {t("seen(item)"), t("held(item)"), t("x")}
        closure = Closure(ambient, self.OPS, 1)
        for entry in ("seen(item)", "held(item)", "x"):
            complete_from(t(entry), (t("stored(item)"),), self.OPS, 3, ambient, closure=closure)
        assert sorted(map(len, checked)) == [1, 1, 1, 3]
        with pytest.raises(PlannerError, match=r"initial facts must be ground, got held\(\?x\)"):
            complete_from(t("seen(item)"), (t("g"),), self.OPS, 3, {t("held(?x)")})
        with pytest.raises(PlannerError, match=r"entry state must be ground, got seen\(\?x\)"):
            complete_from(t("seen(?x)"), (t("g"),), self.OPS, 3, ambient, closure=closure)

    def test_fresh_closure_grows_one_round_past_the_settling_level(self):
        # wrap nests p's argument once a level, so p(f^(d+1)(a)) settles at
        # level d, and the closure grown for it has run d + 1 rounds at most
        wrap = op("wrap", pre=["p(?x)"], add=["p(f(?x))"], delete=["p(?x)"])
        for d in range(5):
            goal = t("p(" + "f(" * (d + 1) + "a" + ")" * (d + 1) + ")")
            closure = Closure({t("p(a)")}, [wrap], 1)
            (c,) = complete_from(t("p(a)"), (goal,), [wrap], 200, {t("p(a)")}, closure=closure)
            assert len(c.actions) == d + 1 and c.achieved_goal == goal
            assert closure.rounds <= d + 1 and not closure.closed

    def test_completions_are_nonempty(self):
        with pytest.raises(PlannerError):
            Completion(actions=(), entry_state=t("s"), achieved_goal=t("g"))


def random_deleting_domain(rng: random.Random):
    """Lifted operators over f/1, g/2 and h/1 with delete effects, now and
    then an anonymous precondition or a topic constraint, initial facts
    over the constants a, b and c, and a maker of random facts that are
    ground or may hold the variable ?z."""
    consts = [Atom(c) for c in ("a", "b", "c")]
    x, y = var("x"), var("y")

    def fact(args):
        shape = rng.choice(["f", "g", "h"])
        if shape == "g":
            return struct("g", rng.choice(args), rng.choice(args))
        return struct(shape, rng.choice(args))

    ops: list[Operator] = []
    for i in range(rng.randint(2, 5)):
        params = (x,) if rng.random() < 0.5 else (x, y)
        terms = list(params) + consts
        pre = [struct("g", x, y)] if len(params) == 2 else [struct(rng.choice("fh"), x)]
        pre += [fact(terms) for _ in range(rng.randint(0, 1))]
        if rng.random() < 0.1:
            pre.append(struct("h", var("_a1")))
        add = list(dict.fromkeys(fact(terms) for _ in range(rng.randint(1, 2))))
        deletable = [d for d in dict.fromkeys(pre[:1] + [fact(terms)]) if d not in add]
        delete = rng.sample(deletable, rng.randint(0, len(deletable)))
        topics = ((x, rng.choice(consts)),) if rng.random() < 0.15 else ()
        ops.append(
            Operator(
                name=f"o{i}",
                args=params,
                preconditions=tuple(pre),
                add=tuple(add),
                delete=tuple(delete),
                actor=Atom(rng.choice(["spk", "hrr"])),
                topic_constraints=topics,
            )
        )
    initial = list(dict.fromkeys(fact(consts) for _ in range(rng.randint(1, 5))))
    return initial, ops, lambda ground: fact(consts if ground else consts + [var("z")])


class TestInstantiate:
    """``closure._instantiate`` is the engine's one substitution, and
    ``Operator.substituted`` builds every field of an instance with it."""

    def test_unchanged_subterms_are_the_same_object(self):
        ground, value = t("bel(a, f(b))"), t("g(c)")
        out = closure_module._instantiate(struct("h", ground, var("x")), {"x": value})
        assert out == struct("h", ground, value)
        assert out.args[0] is ground and out.args[1] is value
        assert closure_module._instantiate(ground, {"x": value}) is ground
        assert closure_module._instantiate(var("x"), {"x": value}) is value

    def test_a_free_variable_gives_none(self):
        assert closure_module._instantiate(t("h(a, f(?y))"), {"x": Atom("a")}) is None
        assert closure_module._instantiate(var("y"), {}) is None

    def test_substituted_fills_every_field_and_keeps_ground_parts(self):
        schema = Operator(
            "o",
            args=(var("x"),),
            preconditions=(t("g(?x)"), t("k(a)")),
            add=(t("h(?x)"),),
            delete=(t("d(?x)"),),
            actor=Atom("spk"),
            topic_constraints=((var("x"), Atom("b")),),
            positive_constraints=(var("x"),),
        )
        inst = schema.substituted({"x": Atom("b")})
        assert inst == Operator(
            "o",
            args=(Atom("b"),),
            preconditions=(t("g(b)"), t("k(a)")),
            add=(t("h(b)"),),
            delete=(t("d(b)"),),
            actor=Atom("spk"),
            topic_constraints=((Atom("b"), Atom("b")),),
            positive_constraints=(Atom("b"),),
        )
        assert inst.preconditions[1] is schema.preconditions[1]
        assert inst.actor is schema.actor

    @pytest.mark.parametrize(
        "field, value",
        [
            ("args", (var("x"), var("y"))),
            ("preconditions", (t("g(?x)"), t("k(?y)"))),
            ("add", (t("h(?x)"), t("h(f(?y))"))),
            ("delete", (t("d(?y)"),)),
            ("actor", var("y")),
            ("topic_constraints", ((var("y"), Atom("bel")),)),
            ("positive_constraints", (var("y"),)),
        ],
    )
    def test_substituted_rejects_a_free_variable(self, field, value):
        schema = Operator("o", args=(var("x"),), preconditions=(t("g(?x)"),), add=(t("h(?x)"),))
        with pytest.raises(PlannerError, match="operator o: an instance is not ground"):
            replace(schema, **{field: value}).substituted({"x": Atom("a")})


class TestCompletionClosure:
    """Completion search over a shared closure answers exactly as the search
    that grounds every operator at every state, whether the closure is one
    of the ambient facts grown as the search needs it or a closed one of a
    strict superset of them: precondition-render order puts the instances a
    state admits in one order whichever closure holds them."""

    def _check(self, rng, initial, ops, entries, goals, extra):
        ambient = set(initial)
        lazy = Closure(ambient, ops, 1)
        closed = Closure(list(initial) + [f for f in extra if f not in ambient], ops, 100)
        assert closed.closed and set(closed.facts) > ambient
        answers = []
        for entry in entries:
            bound = rng.randint(1, 4)
            expected = per_state_completion(entry, goals, ops, bound, ambient)
            for closure in (lazy, closed):
                assert complete_from(entry, goals, ops, bound, ambient, closure=closure) == expected
            answers.extend(expected)
        self.wider += len(list(closed.instances())) > len(list(Closure(ambient, ops, 100).instances()))
        return answers

    def test_random_ground_domains(self):
        rng, spare = random.Random(20261019), random.Random(22)
        answers = []
        self.wider = 0
        for _ in range(300):
            initial, _, ops = random_ground_domain(rng)
            atoms = sorted(
                {a for o in ops for a in o.preconditions + o.add + o.delete} | set(initial),
                key=render,
            )
            entries = list(dict.fromkeys(initial + [rng.choice(atoms)]))
            goals = atoms + [t("never"), var("x")]
            extra = spare.sample(atoms, min(2, len(atoms))) + [t("spare")]
            answers += self._check(rng, initial, ops, entries, goals, extra)
        assert self.wider > 80
        assert sum(c is not None for c in answers) > 500
        assert sum(c is None for c in answers) > 2000
        assert sum(c is not None and len(c.actions) > 1 for c in answers) > 50
        assert sum(c is not None and any(a.delete for a in c.actions) for c in answers) > 200

    def test_random_lifted_domains_with_deletes(self):
        rng, spare = random.Random(1019), random.Random(22)
        consts = [Atom(c) for c in ("a", "b", "c")]
        facts = [struct(s, c) for s in "fh" for c in consts]
        facts += [struct("g", c, d) for c in consts for d in consts]
        answers = []
        self.wider = 0
        for _ in range(300):
            initial, ops, fact = random_deleting_domain(rng)
            entries = initial[:3] + [fact(True)]
            goals = [fact(False) for _ in range(4)] + [var("w")]
            extra = spare.sample(facts, 3) + [t("spare")]
            answers += self._check(rng, initial, ops, entries, goals, extra)
        assert self.wider > 150
        assert sum(c is not None for c in answers) > 900
        assert sum(c is None for c in answers) > 2500
        assert sum(c is not None and len(c.actions) > 1 for c in answers) > 90
        assert sum(c is not None and any(a.delete for a in c.actions) for c in answers) > 500


class TestUnreachableGoals:
    """A goal that matches no fact of a closed closure of the ambient facts
    has no completion, and leaving it out of a search changes no other
    goal's answer: every state the search visits holds only closure facts.
    So the ascription rules search only for the goals that match one."""

    #: goals over names that no operator adds
    PLANTED = (t("never"), t("k(a)"), t("k(?z)"))

    def _check(self, rng, initial, ops, entries, goals):
        goals = goals + list(self.PLANTED)
        rng.shuffle(goals)
        closure = Closure(initial, ops, 100)
        assert closure.closed
        facts = closure.index.facts
        reachable = [i for i, g in enumerate(goals) if any(unify(g, f) is not None for f in facts)]
        assert sorted(completion_module._GoalIndex(goals).matched(facts)) == reachable
        kept = [goals[i] for i in reachable]
        ambient = set(initial)
        answers = []
        for entry in entries:
            bound = rng.randint(1, 4)
            full = complete_from(entry, goals, ops, bound, ambient, closure=closure)
            assert all(full[i] is None for i in range(len(goals)) if i not in reachable)
            alone = complete_from(entry, kept, ops, bound, ambient, closure=closure)
            assert alone == tuple(full[i] for i in reachable)
            assert alone == per_state_completion(entry, kept, ops, bound, ambient)
            answers.extend(alone)
        # a case that drops a goal besides the planted ones
        self.dropped += len(kept) < len(goals) - len(self.PLANTED)
        self.found += any(c is not None for c in answers)

    def test_random_ground_domains(self):
        rng = random.Random(20261022)
        self.dropped = self.found = 0
        for _ in range(300):
            initial, _, ops = random_ground_domain(rng)
            named = {a for o in ops for a in o.preconditions + o.add} | set(initial)
            atoms = sorted(named, key=render)
            entries = list(dict.fromkeys(initial + [rng.choice(atoms)]))
            self._check(rng, initial, ops, entries, atoms + [var("x")])
        assert self.dropped > 150
        assert self.found > 90

    def test_random_lifted_domains(self):
        rng = random.Random(1022)
        self.dropped = self.found = 0
        for _ in range(300):
            initial, goal, ops, u = random_lifted_domain(rng)
            entries = list(dict.fromkeys(initial[:3] + list(u.preconditions)))
            goals = [goal, t("f(?z)"), t("g(?z, ?z)"), t("h(c)"), *u.add]
            self._check(rng, initial, ops, entries, goals)
        assert self.dropped > 240
        assert self.found > 180


def random_nested_domain(rng: random.Random):
    """Lifted operators over bel/2 facts nested two and three levels deep,
    as in a goal library's templates: bel(X, fK(Y)) and
    bel(X, cause(v(Y, o), hK(t))), plus seen/1 and the atom ``done``; with
    delete effects, initial facts over the agents a and b, and a maker of
    random ground facts."""
    agents = [Atom("a"), Atom("b")]
    x, y = var("x"), var("y")

    def fact(args):
        kind = rng.random()
        if kind < 0.05:
            return Atom("done")
        if kind < 0.15:
            return struct("seen", rng.choice(args))
        if kind < 0.6:
            return struct("bel", rng.choice(args), struct(f"f{rng.randrange(4)}", rng.choice(args)))
        cause = struct(
            "cause",
            struct("v", rng.choice(args), Atom("o")),
            struct(f"h{rng.randrange(3)}", Atom("t")),
        )
        return struct("bel", rng.choice(args), cause)

    ops: list[Operator] = []
    for i in range(rng.randint(2, 5)):
        params = (x,) if rng.random() < 0.5 else (x, y)
        terms = list(params) + agents
        if len(params) == 2:
            pre = [struct("bel", x, struct(f"f{rng.randrange(4)}", y))]
        else:
            pre = [rng.choice([struct("seen", x), struct("bel", x, struct("f0", x))])]
        pre += [fact(terms) for _ in range(rng.randint(0, 1))]
        add = list(dict.fromkeys(fact(terms) for _ in range(rng.randint(1, 2))))
        deletable = [d for d in dict.fromkeys(pre[:1] + [fact(terms)]) if d not in add]
        ops.append(
            Operator(
                name=f"o{i}",
                args=params,
                preconditions=tuple(pre),
                add=tuple(add),
                delete=tuple(rng.sample(deletable, rng.randint(0, len(deletable)))),
                actor=Atom("spk"),
            )
        )
    initial = list(dict.fromkeys(fact(agents) for _ in range(rng.randint(2, 6))))
    return initial, ops, lambda: fact(agents)


def wide_library(rng: random.Random) -> list:
    """8-16 goal templates that all share the root bel/2 and differ two or
    three levels down, in random order."""
    h = var("h")
    pool = [struct("bel", h, struct(f"f{k}", h)) for k in range(4)]
    pool += [struct("bel", h, struct(f"f{k}", a)) for k in range(4) for a in (Atom("a"), Atom("b"))]
    for k in range(3):
        harm = struct(f"h{k}", Atom("t"))
        pool.append(struct("bel", h, struct("cause", struct("v", h, Atom("o")), harm)))
        pool.append(struct("bel", Atom("a"), struct("cause", struct("v", var("z"), Atom("o")), harm)))
    return rng.sample(pool, rng.randint(8, 16))


class TestWideNestedLibraries:
    """Completion search with a library 8-16 templates wide, which all share
    a root and differ deeper down, answers as the search that grounds every
    operator at every state and matches every goal against every fact: the
    shape filter passes every goal a fact matches."""

    def test_against_the_per_state_search(self):
        rng = random.Random(20261029)
        answers: list = []
        for _ in range(600):
            initial, ops, fact = random_nested_domain(rng)
            goals = wide_library(rng) + [var("w"), Atom("done")]
            rng.shuffle(goals)
            ambient = set(initial)
            shared = Closure(ambient, ops, 1)
            for entry in initial[:3] + [fact()]:
                bound = rng.randint(1, 4)
                expected = per_state_completion(entry, goals, ops, bound, ambient)
                assert complete_from(entry, goals, ops, bound, ambient) == expected
                assert complete_from(entry, goals, ops, bound, ambient, closure=shared) == expected
                answers += [(g, c) for g, c in zip(goals, expected) if c is not None]
        deep = [c for g, c in answers if isinstance(g, Compound) and g.args[1].functor == "cause"]
        assert len(answers) > 1200 and len(deep) > 300
        assert sum(g == Atom("done") for g, _ in answers) > 40
        assert sum(len(c.actions) > 1 for _, c in answers) > 80
        assert sum(any(a.delete for a in c.actions) for _, c in answers) > 700


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


class TestBoundAnswers:
    """What ``plan`` answers at the bound a case tests, and past it: a plan
    cut only by the bound appears at the next bound, and an unsolvable goal
    has none at ``DEFAULT_BOUND`` either."""

    def test_chain_past_the_bound_is_found_at_the_next_bound(self):
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["y"]), op("c", pre=["y"], add=["g"])]
        assert plan([], t("g"), ops, bound=2) is None
        assert cost(plan([], t("g"), ops, bound=3)) == 3

    def test_unsolvable_has_no_plan_at_the_default_bound(self):
        ops = [op("other", add=["h"])]
        assert plan([], t("g"), ops, bound=3) is None
        assert plan([], t("g"), ops, bound=DEFAULT_BOUND) is None

    def test_second_goal_past_the_step_limit_is_found_at_next_bound(self):
        # with the required step the root already holds the step limit, so
        # forward checking drops it for ``h`` before any expansion
        required = op("r", add=["g"])
        goals = [t("g"), t("h")]
        ops = [op("make_h", add=["h"])]
        assert plan([], goals, ops, bound=1, required_step=required) is None
        p = plan([], goals, ops, bound=2, required_step=required)
        assert sorted(s.name for s in p.steps.values()) == ["make_h", "r"]

    def test_second_goal_closable_at_no_bound_is_unsolvable(self):
        # nothing adds ``h``, so the root is dropped before any node reaches
        # the step limit: no larger bound helps
        goals = [t("g"), t("h")]
        ops = [op("make_g", add=["g"])]
        assert plan([], goals, ops, bound=1) is None
        assert plan([], goals, ops, bound=DEFAULT_BOUND) is None

    def test_condition_no_schema_adds_at_the_step_limit_is_unsolvable(self):
        # the required step fills the one-step limit and ``h`` is refined
        # there, first on the agenda; only a schema that adds ``h`` would
        # make the limit the cause
        ops = [op("make_g", add=["g"])]
        required = op("r", add=["z"])
        assert plan([], t("h"), ops, bound=1, required_step=required) is None
        assert plan([], t("h"), ops, bound=DEFAULT_BOUND, required_step=required) is None

    def test_plan_found_at_its_cost(self):
        ops = [op("make", add=["g"])]
        for bound in (1, 2):
            p = plan([], t("g"), ops, bound=bound)
            assert cost(p) == 1 and p.steps[2].name == "make"


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


def _unpruned(monkeypatch):
    """Patch forward checking off: every open condition may be closed."""
    monkeypatch.setattr(planner, "_may_close", lambda prob, node, consumer, cond: True)


class TestForwardChecking:
    def test_pruned_search_finds_the_unpruned_plans(self, monkeypatch):
        rng = random.Random(1616)
        cases = []
        for _ in range(300):
            initial, goal, ops = random_ground_domain(rng)
            cases.append((initial, goal, ops, rng.choice(ops)))
        for _ in range(300):
            cases.append(random_lifted_domain(rng))
        calls = [
            (initial, goal, ops, bound, step)
            for initial, goal, ops, u in cases
            for bound in (3, 5)
            for step in (None, u)
        ]

        def dots():
            out = []
            for initial, goal, ops, bound, step in calls:
                p = plan(initial, goal, ops, bound=bound, required_step=step)
                out.append(None if p is None else to_dot(p))
            return out

        pruned = dots()
        with monkeypatch.context() as m:
            _unpruned(m)
            assert dots() == pruned
        assert sum(d is not None for d in pruned) >= 200

    @staticmethod
    def _expansions(monkeypatch, *args, **kwargs):
        """plan's result and the number of nodes it expanded."""
        real = planner._expand
        calls = 0

        def counting(prob, node):
            nonlocal calls
            calls += 1
            return real(prob, node)

        with monkeypatch.context() as m:
            m.setattr(planner, "_expand", counting)
            return plan(*args, **kwargs), calls

    def test_node_with_a_condition_nothing_closes_is_dropped(self, monkeypatch):
        # the closure holds ``h`` as a fact of its own, but the plan's
        # initial facts lack it and no instance adds it, so the root is
        # dead at every depth; without the check the search builds the
        # chain to ``g`` first
        ops = [op("a", add=["x"]), op("b", pre=["x"], add=["y"]), op("c", pre=["y"], add=["g"])]
        closure = Closure([t("h")], ops, 5)
        args = ([], [t("g"), t("h")], ops)
        found = self._expansions(monkeypatch, *args, bound=5, closure=closure)
        assert found == (None, 6)  # the root at depths 0-5
        _unpruned(monkeypatch)
        found, unpruned = self._expansions(monkeypatch, *args, bound=5, closure=closure)
        assert found is None and unpruned > 6

    def test_node_at_the_step_limit_is_dropped(self, monkeypatch):
        # the required step fills the one-step limit, so only a step past
        # it could close ``h``; the links from the initial state to the
        # step's preconditions are never made
        args = ([t("g"), t("p")], [t("g"), t("h")], [op("make_h", add=["h"])])
        step = op("r", pre=["p", "g"], add=["z"])
        assert self._expansions(monkeypatch, *args, bound=1, required_step=step) == (None, 1)
        _unpruned(monkeypatch)
        found, unpruned = self._expansions(monkeypatch, *args, bound=1, required_step=step)
        assert found is None and unpruned > 1


class TestCostOnly:
    """``plan(..., tie_break=False)`` stops at the first plan of the cheapest
    depth: it costs what the exact search's plan costs, with less search."""

    def test_cost_equals_the_exact_search_and_bfs(self, monkeypatch):
        rng = random.Random(20261021)
        expand = TestForwardChecking._expansions
        solved = stopped_early = other_plan = 0
        for _ in range(1000):
            initial, goal, ops = random_ground_domain(rng)
            atoms = sorted({a for o in ops for a in o.add} | set(initial), key=render)
            goals = [goal, rng.choice(atoms)]
            fast, quick = expand(monkeypatch, initial, goals, ops, bound=5, tie_break=False)
            exact, slow = expand(monkeypatch, initial, goals, ops, bound=5)
            expected = bfs_min_cost(initial, goals, ops, bound=5)
            assert quick <= slow
            if expected is None:
                assert fast is None and exact is None
                continue
            assert cost(fast) == cost(exact) == expected
            assert set(goals) <= simulate(initial, [fast.steps[i] for i in linearize(fast)])
            solved += 1
            stopped_early += quick < slow
            other_plan += fast != exact
        assert solved >= 500 and stopped_early >= 150 and other_plan >= 5

    def test_fewer_expansions_past_many_equal_plans(self, monkeypatch):
        # 4**5 = 1024 equal-cost plans at depth 5: the exact search compares
        # them all, the cost-only one takes the first it completes
        ops = [
            op(f"{prefix}{i}", add=[f"g{i}"]) for i in range(5) for prefix in "zyxa"
        ]
        args = ([], [t(f"g{i}") for i in range(5)], ops)
        exact, slow = TestForwardChecking._expansions(monkeypatch, *args, bound=5)
        fast, quick = TestForwardChecking._expansions(
            monkeypatch, *args, bound=5, tie_break=False
        )
        assert [fast.steps[i].name for i in linearize(fast)] == ["z0", "z1", "z2", "z3", "z4"]
        assert [exact.steps[i].name for i in linearize(exact)] == ["a0", "a1", "a2", "a3", "a4"]
        assert (slow, quick) == (1818, 459)


class TestInstanceOrder:
    def test_plans_do_not_depend_on_instance_order(self):
        # the search takes each condition's achievers in the order the
        # closure found them; reversing every operator's instances must
        # leave the plan and its DOT export as they were
        rng = random.Random(1919)
        cases = []
        for _ in range(300):
            initial, goal, ops = random_ground_domain(rng)
            cases.append((initial, goal, ops, rng.choice(ops)))
        for _ in range(150):
            cases.append(random_lifted_domain(rng))
        found = 0
        for initial, goal, ops, u in cases:
            for step in (None, u):
                facts = list(initial) + (list(step.add) if step else [])
                answers = []
                for flip in (False, True):
                    closure = Closure(facts, ops, 4)
                    if flip:
                        closure.actions = [row[::-1] for row in closure.actions]
                        closure._achievers = None
                    p = plan(initial, goal, ops, bound=4, required_step=step, closure=closure)
                    answers.append((p, None if p is None else to_dot(p)))
                assert answers[0] == answers[1]
                found += answers[0][0] is not None
        assert found >= 300

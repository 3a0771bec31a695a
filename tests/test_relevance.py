"""Soundness of the relevance gate that recognition runs before planning.

Whenever the gate calls an utterance irrelevant to a goal, the planner must
find no plan that contains the utterance and routes it to the goal.  When
it calls the utterance relevant, its chain depth ``d`` bounds such a plan's
cost from below by ``1 + d``, so planning from that cost on finds the same
plan.
"""

import random
from importlib import resources

import pytest

from implicature.planner import Operator, cost, plan, relevance_depth
from implicature.scenario import load_scenario, run, run_detailed
from implicature.terms import Atom, Substitution, parse_term, render, struct, var

from oracles import bfs_min_cost, random_ground_domain

t = parse_term
BOUND = 4


def _irrelevant_is_sound(initial, goal, ops, u, bound=BOUND):
    """The gate's verdict; asserts that "irrelevant" agrees with the planner."""
    initial = list(dict.fromkeys(list(initial) + list(u.preconditions)))
    depth, fallback = relevance_depth(initial, goal, ops, u, bound)
    assert fallback is None
    if depth is None:
        p = plan(initial, goal, ops, bound=bound, required_step=u)
        assert p is None, f"gate said irrelevant, planner found {p}"
    return depth is not None


def random_lifted_domain(rng: random.Random):
    """Lifted operators over f/1, g/2 and h/1 whose args their preconditions
    bind, a ground utterance instance of one of them and a goal that may
    contain a variable."""
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
        pre = [struct("g", x, y)] if len(params) == 2 else [struct(rng.choice("fh"), x)]
        pre += [fact(list(params) + consts) for _ in range(rng.randint(0, 1))]
        add = [fact(list(params) + consts) for _ in range(rng.randint(1, 2))]
        ops.append(
            Operator(
                name=f"o{i}",
                args=params,
                preconditions=tuple(pre),
                add=tuple(dict.fromkeys(add)),
                actor=Atom("spk"),
            )
        )
    initial = [fact(consts) for _ in range(rng.randint(1, 4))]
    u_op = rng.choice(ops)
    u = u_op.substituted(Substitution({v.name: rng.choice(consts) for v in u_op.args}))
    goal = fact(consts + [var("z")]) if rng.random() < 0.5 else fact(consts)
    return initial, goal, ops, u


class TestGateSoundness:
    def test_random_ground_domains(self):
        rng = random.Random(20260518)
        verdicts = []
        for _ in range(300):
            initial, goal, ops = random_ground_domain(rng)
            u = rng.choice(ops)
            verdicts.append(_irrelevant_is_sound(initial, goal, ops, u))
        # the gate must prune a real share, or the check above proves nothing
        assert verdicts.count(False) >= 100

    def test_random_lifted_domains(self):
        rng = random.Random(7)
        verdicts = []
        for _ in range(150):
            initial, goal, ops, u = random_lifted_domain(rng)
            verdicts.append(_irrelevant_is_sound(initial, goal, ops, u))
        assert verdicts.count(False) >= 50
        assert verdicts.count(True) >= 30

    def test_irrelevant_when_effects_feed_nothing(self):
        u = Operator("u", preconditions=(t("p"),), add=(t("q"),), actor=t("spk"))
        other = Operator("o", preconditions=(t("p"),), add=(t("r"),), actor=t("spk"))
        assert relevance_depth([t("p")], t("r"), [u, other], u, BOUND) == (None, None)

    def test_relevant_through_a_lifted_chain(self):
        u = Operator("u", add=(t("f(a)"),), actor=t("spk"))
        lift = Operator(
            "lift", args=(var("x"),), preconditions=(t("f(?x)"),), add=(t("h(?x)"),),
            actor=t("spk"),
        )
        assert relevance_depth([], t("h(?any)"), [u, lift], u, BOUND) == (1, None)


def _start_depth_is_sound(initial, goal, ops, u, bound=BOUND):
    """The gate's chain depth, or None; asserts that planning from
    ``1 + depth`` finds the plan a search from the utterance alone finds."""
    initial = list(dict.fromkeys(list(initial) + list(u.preconditions)))
    depth, fallback = relevance_depth(initial, goal, ops, u, bound)
    assert fallback is None
    if depth is None:
        return None, None
    full = plan(initial, goal, ops, bound=bound, required_step=u)
    bounded = plan(initial, goal, ops, bound=bound, required_step=u, min_cost=1 + depth)
    assert bounded == full
    if full is not None:
        assert cost(full) >= 1 + depth
    return depth, full


class TestStartDepth:
    def test_random_ground_domains(self):
        rng = random.Random(20261018)
        depths = []
        for _ in range(300):
            initial, goal, ops = random_ground_domain(rng)
            u = rng.choice(ops)
            depth, found = _start_depth_is_sound(initial, goal, ops, u)
            if depth is None:
                continue
            depths.append(depth)
            if found is not None:
                # the oracle's shortest sequence in which the utterance
                # starts a chain of actions to the goal: every connected
                # plan linearizes to one, and every one holds a chain
                shortest = bfs_min_cost(
                    initial + list(u.preconditions), [goal], ops, BOUND,
                    require_used=u.name, connected=True,
                )
                assert 1 + depth <= shortest <= cost(found)
        assert len(depths) >= 100
        # a bound of 1 is the search's own start, which proves nothing
        assert sum(d > 0 for d in depths) >= 25

    def test_random_lifted_domains(self):
        rng = random.Random(1018)
        depths = []
        for _ in range(400):
            initial, goal, ops, u = random_lifted_domain(rng)
            depth, _ = _start_depth_is_sound(initial, goal, ops, u)
            if depth is not None:
                depths.append(depth)
        assert len(depths) >= 100
        assert sum(d > 0 for d in depths) >= 25

    def test_depth_counts_the_actions_of_the_shortest_chain(self):
        u = Operator("u", add=(t("a"),), actor=t("spk"))
        ops = [
            u,
            Operator("ab", preconditions=(t("a"),), add=(t("b"),), actor=t("spk")),
            Operator("bg", preconditions=(t("b"),), add=(t("g"),), actor=t("spk")),
            Operator("ag", preconditions=(t("a"), t("x")), add=(t("g"),), actor=t("spk")),
            Operator("x", add=(t("x"),), actor=t("spk")),
        ]
        assert relevance_depth([], t("g"), ops, u, BOUND) == (1, None)
        # the goal already holds, yet a connected plan still needs a chain
        assert relevance_depth([t("g")], t("g"), ops, u, BOUND) == (1, None)
        assert relevance_depth([], t("a"), ops, u, BOUND) == (0, None)
        assert relevance_depth([], t("x"), ops, u, BOUND) == (None, None)


class TestGateFallback:
    def test_unbound_arg_falls_back_to_relevant(self):
        # tell(?x) takes ?x from the goal only: forward grounding finds no
        # instance of it, yet the planner routes the utterance through it
        u = Operator("u", add=(t("p"),), actor=t("spk"))
        tell = Operator(
            "tell", args=(var("x"),), preconditions=(t("p"),), add=(t("known(?x)"),),
            actor=t("spk"),
        )
        goal = t("known(c)")
        assert relevance_depth([], goal, [u, tell], u, BOUND) == (
            None, ("unbound-variable", "tell ?x")
        )
        assert plan([], goal, [u, tell], bound=BOUND, required_step=u) is not None

    def test_nesting_limit_falls_back_to_relevant(self):
        u = Operator("u", add=(t("bel(a, p)"),), actor=t("spk"))
        echo = Operator(
            "echo", args=(var("x"),), preconditions=(t("bel(a, ?x)"),),
            add=(t("bel(a, bel(a, ?x))"),), actor=t("spk"),
        )
        depth, fallback = relevance_depth([], t("q"), [u, echo], u, BOUND)
        assert depth is None
        assert fallback[0] == "nesting-limit"

    def test_recognition_traces_the_fallback(self):
        text = (
            "(agents a b)\n"
            "(candidate-goal goal(b, bel(a, q)))\n"
            "(believes (b) bel(p))\n"
            "(operator tell(?x) (actor b) (pre bel(a, bel(b, p))) (add bel(a, known(?x))))\n"
            "(turn inform(b, a, p))\n"
        )
        events = run(load_scenario(text)).find("relevance-fallback")
        assert [ev.payload for ev in events] == [
            {"goal": "goal(b, bel(a, q))", "cause": "unbound-variable", "detail": "tell ?x"}
        ]

    @pytest.mark.parametrize("name", ["computer_off", "swim_waves", "burnt_cakes"])
    def test_bundled_scenarios_never_fall_back(self, name):
        text = resources.files("implicature").joinpath(f"scenarios/{name}.vgs").read_text()
        trace = run(load_scenario(text))
        assert trace.find("relevance-fallback") == []
        assert trace.find("candidate-skipped")


def warning_chain_text(depth: int, bound: int) -> str:
    """computer_off with the no-answer belief reached through ``depth``
    scenario operators: ``depth - 1`` links, then the ascribing step."""
    cause = "cause(switch(system, computer_off), damage(hard_drive))"
    beliefs = [cause] + [f"link{i}(hard_drive)" for i in range(1, depth)]
    lines = [
        "(agents system expert)",
        "(stereotype computer_expert (member expert)"
        " (goal-template goal(expert, bel(?h, cause(switch(?h, computer_off),"
        " damage(hard_drive))))))",
        f"(believes (expert) bel({cause}))",
        "(reliable expert cause)",
        "(reliable expert permission)",
        "(actions switch)",
    ]
    for i in range(1, depth):
        lines.append(
            f"(operator step{i}(system) (actor system)"
            f" (pre bel(system, bel(expert, {beliefs[i - 1]})))"
            f" (add bel(system, bel(expert, {beliefs[i]}))))"
        )
    lines.append(
        "(operator ascribe(system, goal(expert, not(damage(hard_drive)))) (actor system)"
        f" (pre bel(system, bel(expert, {beliefs[-1]})))"
        " (add bel(system, goal(expert, not(damage(hard_drive)))))"
        " (add bel(system, int(expert, not(switch(system, computer_off)))))"
        " (add bel(system, bel(expert, not(permission(system, switch(system, computer_off)))))))"
    )
    lines += [
        "(turn question(system, expert, permission(system, switch(system, computer_off))))",
        f"(turn inform(expert, system, {cause}))",
        f"(config bound {bound})",
    ]
    return "\n".join(lines) + "\n"


class TestDeepWarningChain:
    def test_seven_operator_chain_reads_the_no_answer(self):
        # the no-answer is reachable in 9 steps (the warning, 7 scenario
        # operators, accept_belief) against 2 for a direct no-answer; it
        # must not be skipped as irrelevant in favour of the teaching goal
        _, _, outcomes = run_detailed(load_scenario(warning_chain_text(7, bound=9)))
        answer = outcomes[-1]
        assert answer.recognition is not None
        assert render(answer.recognition.ascribed_goal) == (
            "goal(expert, bel(system, not(permission(system, switch(system, computer_off)))))"
        )
        assert answer.verdict.kind == "inefficient"
        assert (answer.verdict.cost_r, answer.verdict.cost_o) == (9, 2)

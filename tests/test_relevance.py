"""Soundness of the relevance gate that recognition runs before planning.

Whenever the gate calls an utterance irrelevant to a goal, the planner must
find no plan that contains the utterance and routes it to the goal.  When
it calls the utterance relevant, its chain depth ``d`` bounds such a plan's
cost from below by ``1 + d``, so planning from that cost on finds the same
plan.
"""

import gc
import random
from dataclasses import replace
from importlib import resources

import pytest

from implicature import inference
from implicature.acts import ActInstance
from implicature.beliefs import Attitude, render_attitude
from implicature.cli import main as cli_main
from implicature.inference import (
    Domain,
    _seeds_for,
    build_operators,
    infer,
    recognize,
)
from implicature.closure import (
    MAX_DERIVED_DEPTH,
    Closure,
    PlannerError,
    RelevanceGate,
)
from implicature.planner import Operator, cost, plan
from implicature.scenario import (
    ScenarioError,
    emit_json,
    load_scenario,
    run,
    run_detailed,
    setup,
)
from implicature.terms import Atom, TermError, parse_term, render, struct, var
from implicature.trace import Trace

from oracles import (
    bfs_min_cost,
    naive_levels,
    naive_relevance_depth,
    random_ground_domain,
    random_lifted_domain,
)
from test_bench_golden import load_run

t = parse_term
BOUND = 4


def _irrelevant_is_sound(initial, goal, ops, u, bound=BOUND):
    """The gate's verdict; asserts that "irrelevant" agrees with the planner."""
    initial = list(dict.fromkeys(list(initial) + list(u.preconditions)))
    depth = RelevanceGate(initial, ops, u, bound).depth(goal)
    if depth is None:
        p = plan(initial, goal, ops, bound=bound, required_step=u)
        assert p is None, f"gate said irrelevant, planner found {p}"
    return depth is not None


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
        assert RelevanceGate([t("p")], [u, other], u, BOUND).depth(t("r")) is None

    def test_relevant_through_a_lifted_chain(self):
        u = Operator("u", add=(t("f(a)"),), actor=t("spk"))
        lift = Operator(
            "lift", args=(var("x"),), preconditions=(t("f(?x)"),), add=(t("h(?x)"),),
            actor=t("spk"),
        )
        assert RelevanceGate([], [u, lift], u, BOUND).depth(t("h(?any)")) == 1


def _start_depth_is_sound(initial, goal, ops, u, bound=BOUND):
    """The gate's chain depth, or None; asserts that planning from
    ``1 + depth`` finds the plan a search from the utterance alone finds."""
    initial = list(dict.fromkeys(list(initial) + list(u.preconditions)))
    depth = RelevanceGate(initial, ops, u, bound).depth(goal)
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
        assert RelevanceGate([], ops, u, BOUND).depth(t("g")) == 1
        # the goal already holds, yet a connected plan still needs a chain
        assert RelevanceGate([t("g")], ops, u, BOUND).depth(t("g")) == 1
        assert RelevanceGate([], ops, u, BOUND).depth(t("a")) == 0
        assert RelevanceGate([], ops, u, BOUND).depth(t("x")) is None


#: tell(?x) takes ?x from the goal only, so forward grounding cannot
#: ground it: the scenario is rejected where it is loaded
UNBOUND_TELL = (
    "(agents a b)\n"
    "(candidate-goal goal(b, bel(a, q)))\n"
    "(believes (b) bel(p))\n"
    "(operator tell(?x) (actor b) (pre bel(a, bel(b, p))) (add bel(a, known(?x))))\n"
    "(turn inform(b, a, p))\n"
)


class TestGateFallback:
    def test_unbound_arg_is_rejected_at_load(self):
        with pytest.raises(
            ScenarioError,
            match=r"bad operator tell\(\?x\): operator tell: variable \?x bound by no precondition",
        ):
            load_scenario(UNBOUND_TELL)

    def test_unbound_arg_run_is_exit_1(self, tmp_path, capsys):
        scenario = tmp_path / "tell.vgs"
        scenario.write_text(UNBOUND_TELL)
        assert cli_main(["run", str(scenario)]) == 1
        assert "operator tell: variable ?x bound by no precondition" in capsys.readouterr().err

    def test_unbound_arg_is_a_planner_error_in_the_gate(self):
        # a library caller that skips validate_operator gets an error, not
        # an "irrelevant" verdict the planner would contradict
        u = Operator("u", add=(t("p"),), actor=t("spk"))
        tell = Operator(
            "tell", args=(var("x"),), preconditions=(t("p"),), add=(t("known(?x)"),),
            actor=t("spk"),
        )
        with pytest.raises(PlannerError, match="operator tell: an instance is not ground"):
            RelevanceGate([], [u, tell], u, BOUND)
        with pytest.raises(PlannerError, match="operator tell: an instance is not ground"):
            plan([], t("known(c)"), [u, tell], bound=BOUND, required_step=u)

    def test_nesting_limit_falls_back_to_relevant(self):
        # echo nests without end: the closure stops after BOUND rounds with
        # no chain to q, which no plan within BOUND steps can then reach
        u = Operator("u", add=(t("bel(a, p)"),), actor=t("spk"))
        echo = Operator(
            "echo", args=(var("x"),), preconditions=(t("bel(a, ?x)"),),
            add=(t("bel(a, bel(a, ?x))"),), actor=t("spk"),
        )
        assert RelevanceGate([], [u, echo], u, BOUND).depth(t("q")) == BOUND
        assert plan([], t("q"), [u, echo], bound=BOUND, required_step=u) is None

    def test_closure_past_derived_depth_cap_is_a_term_error(self):
        # echo nests one level a round, so within this many rounds the
        # closure derives a fact past the cap and stops with an input error
        u = Operator("u", add=(t("bel(a, p)"),), actor=t("spk"))
        echo = Operator(
            "echo", args=(var("x"),), preconditions=(t("bel(a, ?x)"),),
            add=(t("bel(a, bel(a, ?x))"),), actor=t("spk"),
        )
        with pytest.raises(TermError, match="operator echo derives a fact nested deeper"):
            RelevanceGate([], [u, echo], u, MAX_DERIVED_DEPTH)

    def test_each_candidate_falls_back_on_its_own_limit(self):
        # m0(c) -> m1 -> ... -> m4 takes four rounds, so at bound 1 every
        # candidate's closure is unfinished and has no chain: both are
        # skipped as unreachable, with no search
        x = var("x")
        chain = tuple(
            Operator(
                f"m{i}", args=(x,), preconditions=(struct(f"m{i - 1}", x),),
                add=(struct(f"m{i}", struct("w", struct("w", x))),), actor=t("b"),
            )
            for i in (1, 2, 3, 4)
        )
        domain = Domain(operators=build_operators(chain), bound=1)
        utterance = ActInstance("inform", "b", "a", t("q"))
        shallow, deep = t("goal(b, bel(a, q))"), t("goal(b, bel(a, k(k(q))))")
        u = utterance.step
        gate = RelevanceGate((t("m0(c)"),) + u.preconditions, domain.operators, u, 1)
        for g in (shallow, deep):
            assert gate.depth(g.args[1], _seeds_for(g)) == 1
        trace = Trace()
        assert recognize((t("m0(c)"),), utterance, [shallow, deep], domain, trace) is None
        skipped = [
            (ev.payload["goal"], ev.payload["cause"]) for ev in trace.find("candidate-skipped")
        ]
        assert skipped == [(render(shallow), "unreachable"), (render(deep), "unreachable")]

    @pytest.mark.parametrize("name", ["computer_off", "swim_waves", "burnt_cakes"])
    def test_bundled_scenarios_never_fall_back(self, name):
        text = resources.files("implicature").joinpath(f"scenarios/{name}.vgs").read_text()
        trace = run(load_scenario(text))
        assert trace.find("candidate-skipped")


class TestRoundCap:
    """The closure stops after ``bound`` rounds, the deepest a plan within
    the bound reaches; with no chain in it, no plan within the bound
    exists."""

    def test_bound_below_one_is_rejected(self):
        u = Operator("u", add=(t("p"),), actor=t("spk"))
        with pytest.raises(PlannerError, match="bound must be >= 1"):
            RelevanceGate([], [u], u, 0)

    @pytest.mark.parametrize(
        "bound, extra",
        [
            # q is a fact of the shared closure's last round (r2 -> q) and
            # one step from the seed (s, u -> q): q -> g must still be found
            (3, [("r2q", ["r2"], "q"), ("suq", ["s", "u"], "q"), ("qg", ["q"], "g")]),
            # the seed s is itself a fact of that last round (r1 -> s)
            (2, [("r1s", ["r1"], "s"), ("sug", ["s", "u"], "g")]),
        ],
        ids=["frontier-fact", "frontier-seed"],
    )
    def test_seeds_reach_the_last_facts_of_an_unfinished_closure_sooner(self, bound, extra):
        u = Operator("u", add=(t("u"),), actor=t("spk"))
        ops = [
            u,
            Operator("ur1", preconditions=(t("u"),), add=(t("r1"),), actor=t("spk")),
            Operator("r1r2", preconditions=(t("r1"),), add=(t("r2"),), actor=t("spk")),
        ] + [
            Operator(name, preconditions=tuple(map(t, pre)), add=(t(add),), actor=t("spk"))
            for name, pre, add in extra
        ]
        seeds = [t("s")]
        depth = RelevanceGate([], ops, u, bound).depth(t("g"), seeds)
        found = plan(seeds, t("g"), ops, bound=bound, required_step=u)
        assert cost(found) == bound >= 1 + depth
        assert depth == naive_relevance_depth([], seeds, t("g"), ops, u, bound)


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


def random_nesting_domain(rng: random.Random):
    """Lifted operators over unary p0..p5 that wrap the bound variable one
    or two levels deeper.  Most pass a fact on to a later predicate, so
    most closures are finite; some loop back and nest without end.  Now
    and then an operator joins a second precondition p5(?y) and adds
    p5(h(?y)).  Returns the initial facts, the operators, a ground
    utterance instance of one of them and a maker of random facts for
    seeds and goals."""
    x = var("x")

    def nested(depth):
        term = rng.choice([Atom("a"), Atom("b")])
        for _ in range(depth - 1):
            term = struct(rng.choice("fh"), term)
        return term

    def fact(depth):
        return struct(f"p{rng.randrange(3)}", nested(depth))

    ops: list[Operator] = []
    for i in range(rng.randint(3, 6)):
        src = rng.randrange(5)
        if rng.random() < 0.9:
            dst = rng.randrange(src + 1, 6)
        else:
            dst = rng.randrange(src + 1)
        inner = x
        for _ in range(rng.choice([1, 1, 2])):
            inner = struct("f", inner)
        args, pre = (x,), [struct(f"p{src}", x)]
        add = [struct(f"p{dst}", inner)]
        if rng.random() < 0.02:
            y = var("y")
            args = (x, y)
            pre.append(struct("p5", y))
            add.append(struct("p5", struct("h", y)))
        ops.append(
            Operator(
                name=f"o{i}",
                args=args,
                preconditions=tuple(pre),
                add=tuple(add),
                actor=Atom("spk"),
            )
        )
    initial = [fact(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    u_op = rng.choice(ops)
    u = u_op.substituted({v.name: nested(rng.randint(1, 3)) for v in u_op.args})
    return initial, ops, u, lambda: fact(rng.randint(1, 6))


def _shared_equals_naive(initial, ops, u, candidates, bound=BOUND):
    """Every candidate's depth from one shared gate equals the naive
    per-candidate reference; returns the shared answers."""
    base = list(dict.fromkeys(list(initial) + list(u.preconditions)))
    gate = RelevanceGate(base, ops, u, bound)
    answers = []
    for goal, seeds in candidates:
        depth = gate.depth(goal, seeds)
        assert depth == naive_relevance_depth(base, seeds, goal, ops, u, bound)
        answers.append(depth)
    return answers


class TestSharedClosure:
    """One semi-naive closure per turn answers every candidate as a naive
    fixpoint from that candidate's facts alone does."""

    def test_random_ground_domains(self):
        rng = random.Random(20261019)
        answers = []
        for _ in range(300):
            initial, _, ops = random_ground_domain(rng)
            atoms = sorted(
                {f for op in ops for f in op.preconditions + op.add} | set(initial),
                key=render,
            )
            u = rng.choice(ops)
            candidates = [
                (rng.choice(atoms), rng.sample(atoms, rng.randint(0, min(3, len(atoms)))))
                for _ in range(rng.randint(2, 3))
            ]
            answers += _shared_equals_naive(initial, ops, u, candidates)
        assert answers.count(None) >= 100
        assert sum(d is not None and d > 0 for d in answers) >= 100

    def test_random_lifted_domains(self):
        rng = random.Random(1019)
        consts = [Atom(c) for c in ("a", "b", "c")]

        def fact():
            shape = rng.choice(["f", "g", "h"])
            if shape == "g":
                return struct("g", rng.choice(consts), rng.choice(consts))
            return struct(shape, rng.choice(consts))

        answers = []
        for _ in range(300):
            initial, goal, ops, u = random_lifted_domain(rng)
            candidates = [(goal, [])] + [
                (fact(), [fact() for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 2))
            ]
            answers += _shared_equals_naive(initial, ops, u, candidates)
        assert answers.count(None) >= 100
        assert sum(d is not None and d > 0 for d in answers) >= 100

    def test_random_nesting_domains(self):
        rng = random.Random(91019)
        answers = []
        for bound in (1, 4):
            for _ in range(100):
                initial, ops, u, fact = random_nesting_domain(rng)
                candidates = [
                    (fact(), [fact() for _ in range(rng.randint(0, 2))])
                    for _ in range(rng.randint(2, 3))
                ]
                answers += [
                    "capped" if depth == bound else depth
                    for depth in _shared_equals_naive(initial, ops, u, candidates, bound)
                ]
        # capped (or a chain as long as the bound) versus finished without one
        assert answers.count("capped") >= 200
        assert answers.count(None) >= 120

    def test_capped_and_irrelevant_answers_have_no_plan(self):
        rng = random.Random(1120)
        answers = []
        for bound in (2, 3):
            for _ in range(150):
                initial, ops, u, fact = random_nesting_domain(rng)
                base = list(dict.fromkeys(list(initial) + list(u.preconditions)))
                gate = RelevanceGate(base, ops, u, bound)
                for _ in range(rng.randint(2, 3)):
                    goal, seeds = fact(), [fact() for _ in range(rng.randint(0, 2))]
                    depth = gate.depth(goal, seeds)
                    if depth not in (bound, None):
                        continue
                    answers.append("irrelevant" if depth is None else "capped")
                    facts = list(dict.fromkeys(base + seeds))
                    assert plan(facts, goal, ops, bound=bound, required_step=u) is None
        assert answers.count("capped") >= 100
        assert answers.count("irrelevant") >= 100


class TestCarriedGate:
    """A gate that resumes the closure an earlier gate carried answers as a
    fresh gate and the naive reference do: over turns whose facts grow
    (the last step's add-effects only now and then) and whose one volatile
    fact, like an answered question's ``answer_expected`` fact, is gone
    the next turn."""

    def test_random_nesting_domains(self):
        rng = random.Random(2424)
        taken = fallen_back = 0
        for bound in (2, 3):
            for _ in range(75):
                initial, ops, u, fact = random_nesting_domain(rng)
                lasting, carried, derived = list(initial), None, []
                for _turn in range(4):
                    lasting += [fact() for _ in range(rng.randint(0, 2))]
                    base = list(dict.fromkeys(lasting + list(u.preconditions)))
                    # a random fact, or one that the last closure derived
                    pool = [f for f in derived if f not in base]
                    pick = rng.choice(pool) if pool and rng.random() < 0.5 else fact()
                    volatile = () if pick in base else (pick,)
                    facts = base + list(volatile)
                    gate = RelevanceGate(base, ops, u, bound, volatile=volatile, carried=carried)
                    fresh = RelevanceGate(facts, ops, u, bound)
                    assert set(gate.closure.facts) == set(fresh.closure.facts)
                    assert gate.closure.index.members == fresh.closure.index.members
                    assert gate.closure.closed == fresh.closure.closed
                    assert [set(a) for a in gate.closure.actions] == [
                        set(a) for a in fresh.closure.actions
                    ]
                    if gate.closure.levels is not None:
                        # every recorded level bounds the level from this turn's facts
                        exact = naive_levels(facts + list(u.add), ops, bound)
                        assert all(gate.closure.levels.get(f, 0) >= n for f, n in exact.items())
                    goal, seeds = fact(), [fact() for _ in range(rng.randint(0, 2))]
                    depth = gate.depth(goal, seeds)
                    assert depth == fresh.depth(goal, seeds)
                    # as joint planning extends a candidate's closure
                    more = [fact(), fact()]
                    joint, fresh_joint = (
                        g.closure.with_facts(seeds).with_facts(more) for g in (gate, fresh)
                    )
                    assert joint.index.members == fresh_joint.index.members
                    assert joint.closed == fresh_joint.closed
                    if carried is not None:
                        assert depth == naive_relevance_depth(facts, seeds, goal, ops, u, bound)
                        taken += gate.from_carried
                        fallen_back += not gate.from_carried
                    carried = gate.carried
                    derived = sorted(fresh.closure.index.members - set(facts), key=render)
                    lasting = base + (list(u.add) if rng.random() < 0.5 else [])
                    op = rng.choice(ops)
                    u = op.substituted({v.name: fact().args[0] for v in op.args})
        assert taken >= 60
        assert fallen_back >= 50


class TestClosureReuse:
    """``plan`` over a candidate's closure from the gate, or over that
    closure extended with more seeds, returns what ``plan`` over a closure
    of its own returns: for recognition, for the audit (which lacks the
    utterance's add-effects) and for joint planning."""

    capped = 0

    def _check(self, rng, initial, ops, u, fact, bound):
        base = list(dict.fromkeys(list(initial) + list(u.preconditions)))
        gate = RelevanceGate(base, ops, u, bound)
        found = []
        for _ in range(2):
            goal, seeds = fact(), [fact() for _ in range(rng.randint(0, 2))]
            depth, closure = gate.candidate(goal, seeds)
            facts = list(dict.fromkeys(base + seeds))
            if depth is not None:
                p = plan(facts, goal, ops, bound=bound, required_step=u)
                assert plan(
                    facts, goal, ops, bound=bound, required_step=u, min_cost=1 + depth,
                    closure=closure,
                ) == p
                found.append(p)
            audit = plan(facts, goal, ops, bound=bound)
            assert plan(facts, goal, ops, bound=bound, closure=closure) == audit
            goal2, seeds2 = fact(), [fact() for _ in range(rng.randint(0, 2))]
            joint_facts = list(dict.fromkeys(facts + seeds2))
            joint = plan(joint_facts, (goal, goal2), ops, bound=bound)
            assert plan(
                joint_facts, (goal, goal2), ops, bound=bound, closure=closure.with_facts(seeds2)
            ) == joint
            found += [audit, joint]
            self.capped += not closure.closed
        return found

    def test_random_lifted_domains(self):
        rng = random.Random(1717)
        consts = [Atom(c) for c in ("a", "b", "c")]

        def fact():
            shape = rng.choice(["f", "g", "h"])
            if shape == "g":
                return struct("g", rng.choice(consts), rng.choice(consts))
            return struct(shape, rng.choice(consts))

        found = []
        for _ in range(150):
            initial, _, ops, u = random_lifted_domain(rng)
            found += self._check(rng, initial, ops, u, fact, BOUND)
        assert sum(p is not None for p in found) >= 150

    def test_random_nesting_domains(self):
        # capped closures: the extension closes the union afresh
        rng = random.Random(17)
        found = []
        for bound in (2, 3):
            for _ in range(75):
                initial, ops, u, fact = random_nesting_domain(rng)
                found += self._check(rng, initial, ops, u, fact, bound)
        assert sum(p is not None for p in found) >= 20
        assert self.capped >= 100

    def test_no_closure_outlives_its_turn(self):
        # but the one each store carries to the next turn's gate
        text = resources.files("implicature").joinpath("scenarios/computer_off.vgs").read_text()
        earlier = [c for c in gc.get_objects() if isinstance(c, Closure)]
        _trace, store, outcomes = run_detailed(load_scenario(text))
        recognized = [o.recognition for o in outcomes if o.recognition is not None]
        assert recognized and all(r.closure is None for r in recognized)
        gc.collect()
        alive = {id(c) for c in gc.get_objects() if isinstance(c, Closure)}
        alive -= {id(c) for c in earlier}
        assert store.carried is not None
        assert alive == {id(o.store.carried) for o in outcomes if o.store.carried is not None}


def _dialogue(seed, name):
    return next(d for d in load_run().build_round("dialogues", seed) if d.name == name)


class TestCarriedClosure:
    """``infer`` carries the gate's closure from turn to turn on the store."""

    def _recording(self, monkeypatch):
        gates = []

        def gate(*args, **kwargs):
            gates.append(RelevanceGate(*args, **kwargs))
            return gates[-1]

        monkeypatch.setattr(inference, "RelevanceGate", gate)
        return gates

    @pytest.mark.parametrize("seed", [1, 2])
    def test_taken_on_every_gate_turn_after_the_first(self, monkeypatch, seed):
        gates = self._recording(monkeypatch)
        for d in load_run().build_round("dialogues", seed):
            gates.clear()
            run_detailed(load_scenario(d.text))
            assert len(gates) >= 8
            assert [g.from_carried for g in gates] == [False] + [True] * (len(gates) - 1)

    def test_a_store_edited_out_of_its_lineage_is_closed_afresh(self, monkeypatch):
        scenario = load_scenario(_dialogue(1, "dialogues-2x8").text)
        store, domain = setup(scenario)
        for turn in scenario.turns[:4]:
            store = infer(store, turn, domain).store
        assert store.carried is not None
        # the answerer's own belief in the cause: no operator derives it
        cause = Attitude("bel", t("cause(buvub(benat, dedeb), denul(depeb))"))
        edited = replace(
            store, spaces={**store.spaces, ("bivik",): store.spaces[("bivik",)] - {cause}}
        )
        gates = self._recording(monkeypatch)
        outcomes = []
        for start in (edited, replace(edited, carried=None)):
            trace, s = Trace(), start
            for turn in scenario.turns[4:6]:
                s = infer(s, turn, domain, trace=trace).store
            outcomes.append((emit_json(trace), s))
        assert [g.from_carried for g in gates] == [False, False]
        assert render_attitude(("bivik",), cause) not in gates[0].closure.index.members
        assert outcomes[0][0] == outcomes[1][0] and outcomes[0][1] == outcomes[1][1]
        # the edited store's own closure is carried from there on
        gates.clear()
        store = outcomes[0][1]
        for turn in scenario.turns[6:8]:
            store = infer(store, turn, domain).store
        assert [g.from_carried for g in gates] == [True]

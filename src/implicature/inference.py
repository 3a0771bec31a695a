"""Implicature inference: plan recognition, efficiency audit, goal ascription.

Given an utterance, the hearer recognizes the cheapest plan that routes the
utterance to one of the candidate goals ascribable to the speaker.  The
recognized plan is then audited by re-planning the same goal without the
utterance; if the re-planned optimum is strictly cheaper, the speaker's
choice needs explaining and the engine tries to ascribe either

* a conjunctive goal: an extra goal reachable by a completion from a state
  only the recognized plan asserts, such that the recognized plan plus the
  completion is the optimal way to satisfy both goals together; or
* an avoidance goal: a state reachable from a state only the bypassed
  optimal plan asserts, by a completion in which the speaker plays no part,
  ascribed negated.

Successful ascriptions land in the hearer's view of the speaker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .acts import (
    ActInstance,
    ActSchema,
    CONTENT,
    HEARER,
    SPEAKER,
    accommodate_preconditions,
    apply_hearer_update,
    apply_speaker_update,
    check_expectation,
    role_subst,
)
from .beliefs import (
    Attitude,
    BeliefStore,
    Stereotype,
    default_ascribe,
    render_store,
)
from .planner import (
    Completion,
    Operator,
    Plan,
    complete_from,
    cost,
    exclusive_states,
    linearize,
    plan,
    relevance_depth,
    simulate,
)
from .terms import (
    Atom,
    Compound,
    Term,
    is_ground,
    render,
    struct,
    unify,
    var,
)
from .trace import Trace

_MODULE = "implicature"


class InferenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Compiling dialogue machinery into planner operators
# ---------------------------------------------------------------------------


def act_operator(schema: ActSchema) -> Operator:
    """Planner operator for a speech act.

    Preconditions are the speaker's attitudes C(speaker, ...) (plus the
    pending-question fact for answer acts).  Add-effects are derived from
    them: the hearer update bel(hearer, C(speaker, ...)) for each
    precondition, last precondition first (plus the expectation fact a
    question registers).
    """
    pre: list[Term] = [
        Compound(c.kind, (SPEAKER, c.content)) for c in schema.preconditions
    ]
    add: list[Term] = [struct("bel", HEARER, c) for c in reversed(pre)]
    if schema.needs_expectation:
        pre.append(struct("answer_expected", SPEAKER, HEARER, CONTENT))
    if schema.registers_expectation:
        add.append(struct("answer_expected", HEARER, SPEAKER, CONTENT))
    return Operator(
        name=schema.name,
        args=(SPEAKER, HEARER, CONTENT),
        preconditions=tuple(pre),
        add=tuple(add),
        actor=SPEAKER,
        positive_constraints=(CONTENT,),
    )


def accept_belief_operator() -> Operator:
    """The hearer adopts a communicated proposition from a reliable source."""
    h, s, p, t = var("h"), var("s"), var("p"), var("t")
    return Operator(
        name="accept_belief",
        args=(h, s, p),
        preconditions=(
            struct("bel", h, struct("bel", s, p)),
            struct("reliable", s, t),
        ),
        add=(struct("bel", h, p),),
        actor=h,
        topic_constraints=((p, t),),
    )


def utterance_operator(act: ActInstance, schemas: dict[str, ActSchema]) -> Operator:
    """Ground planner step for one performed act."""
    if act.schema not in schemas:
        raise InferenceError(f"unknown act schema {act.schema!r}")
    return act_operator(schemas[act.schema]).substituted(role_subst(act))


def build_operators(
    schemas: dict[str, ActSchema], extra: tuple[Operator, ...] = ()
) -> tuple[Operator, ...]:
    """The full, deterministically ordered planner operator set."""
    ops = [accept_belief_operator()]
    ops.extend(act_operator(schemas[name]) for name in sorted(schemas))
    ops.extend(extra)
    return tuple(ops)


@dataclass(frozen=True)
class Domain:
    """Everything inference needs beyond the store: schemas, compiled
    operators, stereotypes, declared goal libraries and search settings."""

    schemas: dict[str, ActSchema]
    operators: tuple[Operator, ...]
    stereotypes: tuple[Stereotype, ...] = ()
    declared_goals: tuple[Term, ...] = ()
    avoid_goals: tuple[Term, ...] = ()
    bound: int = 8
    ascription_order: tuple[str, ...] = ("conjunctive", "avoidance")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecognitionResult:
    utterance: ActInstance
    ascribed_goal: Term
    plan_r: Plan
    candidate_rank: int
    #: Planning state the recognition ran from (pre-utterance snapshot plus
    #: goal-hypothesis seeds); the audit replans from the same state.
    initial: tuple[Term, ...]


@dataclass(frozen=True)
class EfficiencyVerdict:
    kind: str  # "optimal" | "inefficient"
    plan_o: Plan | None
    cost_r: int
    cost_o: int | None

    def __post_init__(self) -> None:
        if self.kind == "inefficient":
            assert self.cost_o is not None and self.cost_o < self.cost_r


@dataclass(frozen=True)
class AscriptionReport:
    kind: str  # "conjunctive" | "avoidance" | "none"
    goal: Term | None = None
    intentions: tuple[Term, ...] = ()
    exclusive_state: Term | None = None
    completion: Completion | None = None
    conditions: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self) -> None:
        checked = dict(self.conditions)
        if self.kind == "conjunctive":
            assert self.intentions, "conjunctive ascription carries intentions"
            assert checked.get("exclusiveness") and checked.get("efficiency")
        if self.kind == "avoidance":
            assert not self.intentions
            assert checked.get("exclusiveness") and checked.get("causality")


@dataclass(frozen=True)
class InferenceOutcome:
    store: BeliefStore
    recognition: RecognitionResult | None
    verdict: EfficiencyVerdict | None
    report: AscriptionReport


# ---------------------------------------------------------------------------
# Candidate goals
# ---------------------------------------------------------------------------


def _goal_parts(g: Term) -> tuple[str, Term] | None:
    if isinstance(g, Compound) and g.functor == "goal" and len(g.args) == 2:
        agent = g.args[0]
        if isinstance(agent, Atom):
            return agent.name, g.args[1]
    return None


def _library_goals(domain: Domain, speaker: str) -> list[Term]:
    """The speaker's goal templates: from the stereotype goal libraries of
    the stereotypes it belongs to, then scenario-declared, without repeats."""
    templates = [
        g for st in domain.stereotypes if speaker in st.members for g in st.goal_library
    ]
    out: list[Term] = []
    for g in templates + list(domain.declared_goals):
        parts = _goal_parts(g)
        if parts and parts[0] == speaker and g not in out:
            out.append(g)
    return out


def candidate_goals(
    store: BeliefStore, hearer: str, speaker: str, domain: Domain
) -> list[Term]:
    """Goals ascribable to the speaker, most likely first.

    Discourse-expectation goals (the yes/no goals of a pending question the
    speaker owes an answer to) come first, then stereotype goal libraries
    for stereotypes the speaker belongs to, then scenario-declared goals.
    """
    out: list[Term] = []
    for exp in store.expectations:
        if exp.answerer != speaker or exp.asker != hearer:
            continue
        p = exp.content
        out.append(struct("goal", Atom(speaker), struct("bel", Atom(exp.asker), p)))
        out.append(
            struct(
                "goal", Atom(speaker), struct("bel", Atom(exp.asker), struct("not", p))
            )
        )
    return list(_dedupe(out + _library_goals(domain, speaker)))


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def _seeds_for(goal_term: Term) -> list[Term]:
    """Hypothesis facts granted when testing a candidate goal.

    Ascribing goal G to the speaker licenses assuming the speaker holds G,
    and (sincerity) believes whatever G wants someone else to believe.
    Non-ground seeds are dropped.
    """
    seeds: list[Term] = []
    parts = _goal_parts(goal_term)
    if parts is None:
        return seeds
    agent, content = parts
    if is_ground(goal_term):
        seeds.append(goal_term)
    if (
        isinstance(content, Compound)
        and content.functor == "bel"
        and len(content.args) == 2
        and isinstance(content.args[0], Atom)
        and content.args[0].name != agent
    ):
        sincere = struct("bel", Atom(agent), content.args[1])
        if is_ground(sincere):
            seeds.append(sincere)
    return seeds


def _dedupe(terms: list[Term]) -> tuple[Term, ...]:
    return tuple(dict.fromkeys(terms))


def recognize(
    snapshot: tuple[Term, ...],
    utterance: ActInstance,
    candidates: list[Term],
    domain: Domain,
    trace: Trace | None = None,
) -> RecognitionResult | None:
    """Cheapest plan containing the utterance that reaches a candidate goal.

    ``snapshot`` holds the facts of the store before the utterance (as
    :func:`beliefs.render_store` renders them); each candidate is planned
    from those facts, the utterance's preconditions and the candidate's
    seeds, within ``domain.bound`` steps.  Candidates are tried in order;
    the first reachable one wins.  The plan is complete and must route a
    causal-link path from the utterance step to the goal, not merely
    contain it.

    Before planning, a relevance gate (:func:`planner.relevance_depth`)
    checks over ground facts whether the utterance can feed the candidate
    at all: a delete-relaxed forward fixpoint over the ground operator
    instances from the candidate's initial state plus the utterance's
    add-effects, then the shortest chain of those instances from the
    utterance's add-effects to a fact that unifies with the goal content.
    A candidate with no such chain is skipped with cause
    ``irrelevant-utterance``; the planner would find no connected plan for
    it.  A connected plan runs through such a chain, so it has at least
    one step more than the chain has actions, and planning starts at that
    cost (the result is the same, the depths below hold no plan).  When
    the gate cannot decide (an operator variable only the planner could
    bind, or a derived fact nested past the limit a plan within the bound
    allows) it answers "relevant", traces a ``relevance-fallback`` event
    with the cause, and planning starts with no bound.
    """
    u_op = utterance_operator(utterance, domain.schemas)
    base = _dedupe(list(snapshot) + list(u_op.preconditions))
    for rank, g in enumerate(candidates):
        parts = _goal_parts(g)
        if parts is None:
            continue
        _, content = parts
        initial = _dedupe(list(base) + _seeds_for(g))
        depth, fallback = relevance_depth(
            initial, content, domain.operators, u_op, domain.bound
        )
        if fallback is not None and trace:
            cause, detail = fallback
            trace.emit(
                _MODULE, "relevance-fallback", goal=render(g), cause=cause, detail=detail
            )
        if depth is None and fallback is None:
            if trace:
                trace.emit(
                    _MODULE, "candidate-skipped", goal=render(g), cause="irrelevant-utterance"
                )
            continue
        p = plan(
            initial,
            content,
            domain.operators,
            bound=domain.bound,
            required_step=u_op,
            min_cost=0 if depth is None else 1 + depth,
        )
        if p is not None:
            if trace:
                trace.emit(
                    _MODULE,
                    "plan-found",
                    goal=render(g),
                    cost=cost(p),
                    rank=rank,
                    steps=[render(p.steps[s].head()) for s in linearize(p)],
                )
            return RecognitionResult(
                utterance=utterance,
                ascribed_goal=g,
                plan_r=p,
                candidate_rank=rank,
                initial=initial,
            )
        if trace:
            trace.emit(_MODULE, "candidate-skipped", goal=render(g), cause="unreachable")
    return None


def efficiency_audit(
    r: RecognitionResult, domain: Domain, trace: Trace | None = None
) -> EfficiencyVerdict:
    """Re-plan the recognized goal without requiring the utterance."""
    parts = _goal_parts(r.ascribed_goal)
    assert parts is not None
    _, content = parts
    po = plan(r.initial, content, domain.operators, bound=domain.bound)
    cr = cost(r.plan_r)
    if po is None or cost(po) >= cr:
        verdict = EfficiencyVerdict(
            kind="optimal", plan_o=po, cost_r=cr, cost_o=cost(po) if po else None
        )
    else:
        verdict = EfficiencyVerdict(
            kind="inefficient", plan_o=po, cost_r=cr, cost_o=cost(po)
        )
    if trace:
        trace.emit(
            _MODULE,
            "audit",
            verdict=verdict.kind,
            cost_recognized=verdict.cost_r,
            cost_optimal=verdict.cost_o,
        )
    return verdict


# ---------------------------------------------------------------------------
# Goal ascription rules
# ---------------------------------------------------------------------------


def _terminal_state(initial: tuple[Term, ...], p: Plan) -> set[Term]:
    return simulate(initial, [p.steps[sid] for sid in linearize(p)])


def ascribe_conjunctive(
    store: BeliefStore,
    r: RecognitionResult,
    verdict: EfficiencyVerdict,
    domain: Domain,
    trace: Trace | None = None,
) -> tuple[BeliefStore, AscriptionReport | None]:
    """Try to explain the inefficiency as an extra goal served en route.

    Searches (exclusive state of the recognized plan) x (goal library) for a
    completion: one completion search per exclusive state serves every
    template of the library.  Each entry state comes from
    :func:`planner.exclusive_states` of the two complete plans, so it is
    asserted by the recognized plan and not by the optimal one:
    exclusiveness holds by construction.  Each (state, template) pair with
    a completion is then checked in library order for the efficiency
    condition, by planning the goal conjunction.  On success the goal and
    the completion's actions (as intentions) are ascribed into the hearer's
    view of the speaker.  Later candidates that also pass are traced as
    alternatives.
    """
    if verdict.kind != "inefficient":
        raise InferenceError("conjunctive ascription needs an inefficient verdict")
    assert verdict.plan_o is not None
    speaker, hearer = r.utterance.speaker, r.utterance.hearer
    pr, po = r.plan_r, verdict.plan_o
    library = [
        g for g in _library_goals(domain, speaker) if unify(g, r.ascribed_goal) is None
    ]
    if not library:
        return store, None
    parts = _goal_parts(r.ascribed_goal)
    assert parts is not None
    _, g1_content = parts
    # every template is goal(speaker, content): _library_goals keeps no other
    contents: list[Term] = []
    for g2 in library:
        g2_parts = _goal_parts(g2)
        assert g2_parts is not None
        contents.append(g2_parts[1])
    ambient = _terminal_state(r.initial, pr)
    winner: AscriptionReport | None = None
    for s_state in exclusive_states(pr, po):
        comps = complete_from(s_state, contents, domain.operators, domain.bound, ambient)
        for g2, comp in zip(library, comps):
            if comp is None:
                continue
            joint_initial = _dedupe(
                list(r.initial)
                + _seeds_for(struct("goal", Atom(speaker), comp.achieved_goal))
            )
            joint = plan(
                joint_initial,
                (g1_content, comp.achieved_goal),
                domain.operators,
                bound=domain.bound,
            )
            extended_cost = cost(pr) + len(comp.actions)
            efficiency_ok = joint is not None and cost(joint) == extended_cost
            if trace:
                # both sides of the efficiency condition: the unconstrained
                # joint optimum and the recognized plan plus this completion
                trace.emit(
                    _MODULE,
                    "efficiency-check",
                    goal=render(g2),
                    exclusive_state=render(s_state),
                    joint_optimum=cost(joint) if joint is not None else None,
                    recognized_plus_completion=extended_cost,
                    passed=efficiency_ok,
                )
            if not efficiency_ok:
                if trace:
                    trace.emit(
                        _MODULE,
                        "candidate-skipped",
                        goal=render(g2),
                        exclusive_state=render(s_state),
                        cause="efficiency-condition",
                    )
                continue
            g2_inst = struct("goal", Atom(speaker), comp.achieved_goal)
            if winner is not None:
                if trace:
                    trace.emit(
                        _MODULE,
                        "alternative",
                        goal=render(g2_inst),
                        exclusive_state=render(s_state),
                    )
                continue
            store = default_ascribe(
                store,
                (hearer,),
                (hearer, speaker),
                Attitude("goal", comp.achieved_goal),
                trace=trace,
                cause="conjunctive-goal",
            ).store
            intentions = tuple(a.head() for a in comp.actions)
            for action_term in intentions:
                store = default_ascribe(
                    store,
                    (hearer,),
                    (hearer, speaker),
                    Attitude("int", action_term),
                    trace=trace,
                    cause="conjunctive-intention",
                ).store
            winner = AscriptionReport(
                kind="conjunctive",
                goal=g2_inst,
                intentions=intentions,
                exclusive_state=s_state,
                completion=comp,
                conditions=(("exclusiveness", True), ("efficiency", True)),
            )
    return store, winner


def ascribe_avoidance(
    store: BeliefStore,
    r: RecognitionResult,
    verdict: EfficiencyVerdict,
    domain: Domain,
    trace: Trace | None = None,
) -> tuple[BeliefStore, AscriptionReport | None]:
    """Try to explain the inefficiency as a state the speaker is avoiding.

    Searches (exclusive state of the optimal plan) x (avoidance library) for
    a completion: one completion search per exclusive state serves every
    avoid-goal.  Each entry state comes from :func:`planner.exclusive_states`
    of the two complete plans, so it is asserted by the optimal plan and
    not by the recognized one: exclusiveness holds by construction.  The
    pairs are then checked in library order for the causality condition
    (the speaker is never the completion's actor).  The first pair that
    passes wins, and the negated goal is ascribed into the hearer's view of
    the speaker.
    """
    if verdict.kind != "inefficient":
        raise InferenceError("avoidance ascription needs an inefficient verdict")
    assert verdict.plan_o is not None
    speaker, hearer = r.utterance.speaker, r.utterance.hearer
    pr, po = r.plan_r, verdict.plan_o
    if not domain.avoid_goals:
        return store, None
    ambient = _terminal_state(r.initial, po)
    for s_state in exclusive_states(po, pr):
        comps = complete_from(
            s_state, domain.avoid_goals, domain.operators, domain.bound, ambient
        )
        for ag, comp in zip(domain.avoid_goals, comps):
            if comp is None:
                continue
            causality_ok = all(
                isinstance(a.actor, Atom) and a.actor.name != speaker
                for a in comp.actions
            )
            if not causality_ok:
                if trace:
                    trace.emit(
                        _MODULE,
                        "candidate-skipped",
                        goal=render(ag),
                        exclusive_state=render(s_state),
                        cause="causality-condition",
                    )
                continue
            avoided = struct("not", comp.achieved_goal)
            store = default_ascribe(
                store,
                (hearer,),
                (hearer, speaker),
                Attitude("goal", avoided),
                trace=trace,
                cause="avoidance-goal",
            ).store
            return store, AscriptionReport(
                kind="avoidance",
                goal=avoided,
                intentions=(),
                exclusive_state=s_state,
                completion=comp,
                conditions=(("exclusiveness", True), ("causality", True)),
            )
    return store, None


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def infer(
    store: BeliefStore,
    utterance: ActInstance,
    domain: Domain,
    trace: Trace | None = None,
) -> InferenceOutcome:
    """Process one utterance end to end.

    Applies the act-level belief updates, recognizes the dialogue plan,
    audits it against the re-planned optimum, and on an inefficient verdict
    tries the ascription rules in the configured order.  Recognition failure
    is reported but act-level ascriptions stay applied.
    """
    snapshot = tuple(render_store(store))
    check_expectation(store, utterance, domain.schemas)
    candidates = candidate_goals(store, utterance.hearer, utterance.speaker, domain)
    store = accommodate_preconditions(store, utterance, domain.schemas, trace=trace)
    store = apply_speaker_update(store, utterance, domain.schemas, trace=trace)
    store = apply_hearer_update(store, utterance, domain.schemas, trace=trace)
    recognition = recognize(snapshot, utterance, candidates, domain, trace=trace)
    if recognition is None:
        if trace:
            trace.emit(
                _MODULE,
                "error",
                cause="recognition-failure",
                utterance=str(utterance),
                candidates=[render(g) for g in candidates],
            )
        return InferenceOutcome(
            store=store,
            recognition=None,
            verdict=None,
            report=AscriptionReport(kind="none"),
        )
    verdict = efficiency_audit(recognition, domain, trace=trace)
    report: AscriptionReport | None = None
    if verdict.kind == "inefficient":
        for rule in domain.ascription_order:
            if rule == "conjunctive":
                store, report = ascribe_conjunctive(
                    store, recognition, verdict, domain, trace=trace
                )
            elif rule == "avoidance":
                store, report = ascribe_avoidance(
                    store, recognition, verdict, domain, trace=trace
                )
            else:
                raise InferenceError(f"unknown ascription rule {rule!r}")
            if report is not None:
                break
    if report is None:
        report = AscriptionReport(kind="none")
    if trace:
        trace.emit(
            _MODULE,
            "ascription-report",
            report=report.kind,
            goal=render(report.goal) if report.goal is not None else None,
            intentions=[render(t) for t in report.intentions],
            exclusive_state=render(report.exclusive_state)
            if report.exclusive_state is not None
            else None,
            completion=[render(a.head()) for a in report.completion.actions]
            if report.completion is not None
            else None,
            conditions={k: v for k, v in report.conditions},
        )
    return InferenceOutcome(
        store=store, recognition=recognition, verdict=verdict, report=report
    )

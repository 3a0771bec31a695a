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

Successful ascriptions land in the hearer's view of the speaker.  The acts,
their planner operators and their belief updates are defined in
:mod:`acts`; this module adds belief acceptance and assembles the operator
set a :class:`Domain` plans with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from .acts import (
    ACT_OPERATORS,
    ActInstance,
    accommodate_preconditions,
    apply_hearer_update,
    apply_speaker_update,
    check_expectation,
)
from .beliefs import (
    Attitude,
    BeliefStore,
    Stereotype,
    default_ascribe,
    render_store,
)
from .closure import Closure, RelevanceGate, _match
from .completion import Completion, _GoalIndex, complete_from
from .planner import (
    DEFAULT_BOUND,
    Operator,
    Plan,
    cost,
    exclusive_states,
    linearize,
    plan,
    simulate,
)
from .terms import (
    Atom,
    Compound,
    Term,
    is_ground,
    render,
    struct,
    var,
)
from .trace import Trace

_MODULE = "implicature"


class InferenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The planner operator set
# ---------------------------------------------------------------------------


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


def build_operators(extra: tuple[Operator, ...] = ()) -> tuple[Operator, ...]:
    """The full, deterministically ordered planner operator set: belief
    acceptance, the acts by name, then ``extra``."""
    ops = [accept_belief_operator()]
    ops.extend(ACT_OPERATORS[name] for name in sorted(ACT_OPERATORS))
    ops.extend(extra)
    return tuple(ops)


#: The ascription rules, in the order an inefficient verdict tries them
#: unless a domain orders them otherwise; a domain names no other rule.
DEFAULT_ASCRIPTION_ORDER = ("conjunctive", "avoidance")


@dataclass(frozen=True)
class Domain:
    """Everything inference needs beyond the store: compiled operators,
    stereotypes, declared goal libraries and search settings."""

    operators: tuple[Operator, ...]
    stereotypes: tuple[Stereotype, ...] = ()
    declared_goals: tuple[Term, ...] = ()
    avoid_goals: tuple[Term, ...] = ()
    bound: int = DEFAULT_BOUND
    ascription_order: tuple[str, ...] = DEFAULT_ASCRIPTION_ORDER

    def __post_init__(self) -> None:
        for rule in self.ascription_order:
            if rule not in DEFAULT_ASCRIPTION_ORDER:
                raise InferenceError(f"unknown ascription rule {rule!r}")


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
    #: The relevance gate's closure for the recognized candidate, which the
    #: audit and joint planning search over, and completion search too when
    #: it reached its fixpoint; :func:`infer` drops it before returning, so
    #: the only closure that outlives its turn is the one the next store
    #: carries (:attr:`beliefs.BeliefStore.carried`).
    closure: Closure | None = field(default=None, compare=False, repr=False)
    #: The gate's closure for the next gate turn to extend
    #: (:attr:`closure.RelevanceGate.carried`); :func:`infer` moves it onto
    #: the store it returns.
    carried: Closure | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EfficiencyVerdict:
    kind: str  # "optimal" | "inefficient"
    #: A cheapest plan for the recognized goal: the recognized plan itself
    #: when the verdict is optimal.  :func:`efficiency_audit` never leaves
    #: it None.
    plan_o: Plan | None
    cost_r: int
    #: ``cost(plan_o)``: below ``cost_r`` when inefficient, equal to it when
    #: optimal.
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
    return [
        g
        for g in _dedupe(templates + list(domain.declared_goals))
        if (parts := _goal_parts(g)) is not None and parts[0] == speaker
    ]


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
        if exp.answerer == speaker and exp.asker == hearer:
            for answer in (exp.content, struct("not", exp.content)):
                out.append(struct("goal", Atom(speaker), struct("bel", Atom(hearer), answer)))
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


def _expected(fact: Term) -> bool:
    """An answer_expected fact: the one relation whose facts a store loses
    (an answer discharges its question's expectation)."""
    return isinstance(fact, Compound) and fact.functor == "answer_expected"


def recognize(
    snapshot: tuple[Term, ...],
    utterance: ActInstance,
    candidates: list[Term],
    domain: Domain,
    trace: Trace | None = None,
    carried: Closure | None = None,
) -> RecognitionResult | None:
    """Cheapest plan containing the utterance that reaches a candidate goal.

    ``snapshot`` holds the facts of the store before the utterance (as
    :func:`beliefs.render_store` renders them); each candidate is planned
    from those facts, the utterance's preconditions and the candidate's
    seeds, within ``domain.bound`` steps.  Candidates are tried in order;
    the first reachable one wins.  The plan is complete and must route a
    causal-link path from the utterance step to the goal, not merely
    contain it.

    Before planning, a relevance gate (:class:`closure.RelevanceGate`,
    built once per turn) looks for the shortest chain of ground operator
    instances from the utterance's add-effects to the goal content, within
    ``domain.bound`` rounds of the delete-relaxed closure of the
    candidate's facts.  A connected plan runs through such a chain, so
    planning starts at one step more than the chain has actions (the
    depths below hold no plan).  With no chain, the candidate is skipped:
    as ``irrelevant-utterance`` when the closure reached its fixpoint, as
    ``unreachable`` when the round cap stopped it (no plan within the
    bound exists; the plan call searches nothing).  The gate always
    decides: :func:`planner.validate_operator` admits only operators whose
    instances forward grounding finds.  The plan search runs over the
    ground instances of the candidate's closure from the gate, which the
    result keeps for the audit and joint planning.

    The gate's closure extends ``carried``, the closure the store carries
    from the last gate turn (:attr:`closure.RelevanceGate.carried`), when
    that gives what a fresh closure gives.  The answer_expected facts, which
    an answer retracts, are the gate's ``volatile`` facts: its closure
    holds them and their consequences, and the next turn may lack them.
    """
    u_op = utterance.step
    if not candidates:
        return None
    base = _dedupe(list(snapshot) + list(u_op.preconditions))
    gate = RelevanceGate(
        [f for f in base if not _expected(f)],
        domain.operators,
        u_op,
        domain.bound,
        volatile=tuple(filter(_expected, base)),
        carried=carried,
    )
    for rank, g in enumerate(candidates):
        parts = _goal_parts(g)
        if parts is None:
            continue
        _, content = parts
        seeds = _seeds_for(g)
        initial = _dedupe(list(base) + seeds)
        depth, closure = gate.candidate(content, seeds)
        if depth is None:
            _skip(trace, g, "irrelevant-utterance")
            continue
        p = plan(
            initial,
            content,
            domain.operators,
            bound=domain.bound,
            required_step=u_op,
            min_cost=1 + depth,
            closure=closure,
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
                closure=closure,
                carried=gate.carried,
            )
        _skip(trace, g, "unreachable")
    return None


def efficiency_audit(
    r: RecognitionResult, domain: Domain, trace: Trace | None = None
) -> EfficiencyVerdict:
    """Re-plan the recognized goal without requiring the utterance, and
    call the recognized plan inefficient when a strictly cheaper plan exists.

    The recognized plan is itself a plan for the goal from ``r.initial``
    over instances of the candidate's closure, so the optimum never costs
    more: the search stops below the recognized cost.  A plan found there is
    the cheapest, least under the tie-break (:func:`planner.plan`); when
    none is, the recognized plan is optimal and stands as ``plan_o``.  The
    bound is at least 1, which still finds a goal that already holds.
    """
    parts = _goal_parts(r.ascribed_goal)
    assert parts is not None
    _, content = parts
    cr = cost(r.plan_r)
    # the candidate's closure also holds the utterance's add-effects: more
    # instances than the audit needs, and the same plans
    po = plan(r.initial, content, domain.operators, bound=max(1, cr - 1), closure=r.closure)
    if po is not None and cost(po) < cr:
        kind = "inefficient"
    else:
        kind, po = "optimal", r.plan_r
    verdict = EfficiencyVerdict(kind=kind, plan_o=po, cost_r=cr, cost_o=cost(po))
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


def _completions(
    r: RecognitionResult,
    entered: Plan,
    bypassed: Plan,
    goals: Sequence[Term],
    domain: Domain,
) -> Iterator[tuple[Term, int, Completion]]:
    """The completions from the states only ``entered`` asserts, lazily.

    The entry states are :func:`planner.exclusive_states` of the two
    complete plans, so each is asserted by ``entered`` and not by
    ``bypassed``: exclusiveness holds by construction.  One completion
    search per entry state serves every goal searched for, from the
    terminal state of ``entered``; yields (entry state, position of the
    goal in ``goals``, completion) for each goal with a completion, in
    entry-state order, then goal order.

    The searches share one closure: the candidate's, which holds every
    fact of the terminal state, when it reached its fixpoint; else, as a
    capped closure can miss instances applicable past its cap, a closure of
    the terminal state that completion search grows.

    Over the candidate's closed closure, only the goals that match one of
    its facts are searched for, and none at all when no goal does.  Every
    state a search visits holds only facts of that closure: ``r.initial``
    and the steps of both plans come from it, and so does every instance a
    search applies, so a goal that matches none of its facts has no
    completion (the delete-relaxed reachability the gate rests on).  With a
    capped or missing closure, every goal is searched for.
    """
    closure = r.closure if r.closure is not None and r.closure.closed else None
    if closure is None:
        kept = range(len(goals))
    else:
        kept = sorted(_GoalIndex(goals).matched(closure.index.facts))
        if not kept:
            return
        goals = [goals[i] for i in kept]
    ambient = simulate(r.initial, [entered.steps[sid] for sid in linearize(entered)])
    if closure is None:
        closure = Closure(ambient, domain.operators, 1)
    for state in exclusive_states(entered, bypassed):
        comps = complete_from(
            state, goals, domain.operators, domain.bound, ambient, closure=closure
        )
        for i, comp in zip(kept, comps):
            if comp is not None:
                yield state, i, comp


def _skip(trace: Trace | None, goal: Term, cause: str, state: Term | None = None) -> None:
    """Trace ``goal`` as a candidate skipped for ``cause``; an ascription
    rule names the exclusive ``state`` it tried the goal from."""
    if trace:
        where = {} if state is None else {"exclusive_state": render(state)}
        trace.emit(_MODULE, "candidate-skipped", goal=render(goal), **where, cause=cause)


def _ascribe(
    store: BeliefStore,
    r: RecognitionResult,
    attitude: Attitude,
    cause: str,
    trace: Trace | None,
) -> BeliefStore:
    """Ascribe ``attitude`` into the hearer's view of the speaker."""
    hearer, speaker = r.utterance.hearer, r.utterance.speaker
    return default_ascribe(
        store, (hearer,), (hearer, speaker), attitude, trace=trace, cause=cause
    ).store


def ascribe_conjunctive(
    store: BeliefStore,
    r: RecognitionResult,
    verdict: EfficiencyVerdict,
    domain: Domain,
    trace: Trace | None = None,
) -> tuple[BeliefStore, AscriptionReport | None]:
    """Try to explain the inefficiency as an extra goal served en route.

    Takes the completions (:func:`_completions`) from the states the
    recognized plan asserts and the optimal one does not, towards the goal
    library, and checks each in turn for the efficiency condition, by
    planning the goal conjunction.  Only the joint plan's cost enters the
    condition, so that search stops at its first plan of least cost
    (``tie_break=False``).  On success the goal and the
    completion's actions (as intentions) are ascribed into the hearer's
    view of the speaker.  Later completions that also pass are traced as
    alternatives.

    The library leaves out each template that the recognized goal's ground
    instance, ``goal(speaker, G)`` for the goal condition G the recognized
    plan reached, instantiates (:func:`closure._match`): the speaker already
    pursues that goal.  For a ground recognized goal the instance is the
    goal itself, and a template is left out exactly when it unifies with
    the goal.  For a recognized template, only the library goals that the
    plan's own goal instance satisfies are left out, not every goal that
    unifies with the template.
    """
    if verdict.kind != "inefficient":
        raise InferenceError("conjunctive ascription needs an inefficient verdict")
    assert verdict.plan_o is not None
    speaker, pr = r.utterance.speaker, r.plan_r
    recognized = struct("goal", Atom(speaker), *pr.goal_conditions)
    library = [g for g in _library_goals(domain, speaker) if _match(g, recognized, {}) is None]
    if not library:
        return store, None
    parts = _goal_parts(r.ascribed_goal)
    assert parts is not None
    _, g1_content = parts
    winner: AscriptionReport | None = None
    # every template is goal(speaker, content): _library_goals keeps no other
    contents = [g.args[1] for g in library]
    for s_state, i, comp in _completions(r, pr, verdict.plan_o, contents, domain):
        g2_inst = struct("goal", Atom(speaker), comp.achieved_goal)
        seeds = _seeds_for(g2_inst)
        joint = plan(
            _dedupe(list(r.initial) + seeds),
            (g1_content, comp.achieved_goal),
            domain.operators,
            bound=domain.bound,
            closure=None if r.closure is None else r.closure.with_facts(seeds),
            tie_break=False,
        )
        extended_cost = cost(pr) + len(comp.actions)
        efficiency_ok = joint is not None and cost(joint) == extended_cost
        if trace:
            # both sides of the efficiency condition: the unconstrained
            # joint optimum and the recognized plan plus this completion
            trace.emit(
                _MODULE,
                "efficiency-check",
                goal=render(library[i]),
                exclusive_state=render(s_state),
                joint_optimum=cost(joint) if joint is not None else None,
                recognized_plus_completion=extended_cost,
                passed=efficiency_ok,
            )
        if not efficiency_ok:
            _skip(trace, library[i], "efficiency-condition", s_state)
            continue
        if winner is not None:
            if trace:
                trace.emit(
                    _MODULE,
                    "alternative",
                    goal=render(g2_inst),
                    exclusive_state=render(s_state),
                )
            continue
        store = _ascribe(store, r, Attitude("goal", comp.achieved_goal), "conjunctive-goal", trace)
        intentions = tuple(a.head() for a in comp.actions)
        for act in intentions:
            store = _ascribe(store, r, Attitude("int", act), "conjunctive-intention", trace)
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

    Takes the completions (:func:`_completions`) from the states the
    optimal plan asserts and the recognized one does not, towards the
    avoidance library, and checks each in turn for the causality condition
    (the speaker is never the completion's actor).  The first that passes
    wins, and the negated goal is ascribed into the hearer's view of the
    speaker; no completion after it is searched for.
    """
    if verdict.kind != "inefficient":
        raise InferenceError("avoidance ascription needs an inefficient verdict")
    assert verdict.plan_o is not None
    speaker = r.utterance.speaker
    if not domain.avoid_goals:
        return store, None
    for s_state, i, comp in _completions(r, verdict.plan_o, r.plan_r, domain.avoid_goals, domain):
        if not all(isinstance(a.actor, Atom) and a.actor.name != speaker for a in comp.actions):
            _skip(trace, domain.avoid_goals[i], "causality-condition", s_state)
            continue
        avoided = struct("not", comp.achieved_goal)
        store = _ascribe(store, r, Attitude("goal", avoided), "avoidance-goal", trace)
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
    is reported but act-level ascriptions stay applied.  A recognized turn
    leaves its gate's carried closure on the returned store, for the next
    gate turn to extend; any other turn keeps the store's.
    """
    snapshot = tuple(render_store(store))
    check_expectation(store, utterance)
    candidates = candidate_goals(store, utterance.hearer, utterance.speaker, domain)
    store = accommodate_preconditions(store, utterance, trace=trace)
    store = apply_speaker_update(store, utterance, trace=trace)
    store = apply_hearer_update(store, utterance, trace=trace)
    # the act updates keep the closure carried from the last gate turn
    recognition = recognize(
        snapshot, utterance, candidates, domain, trace=trace, carried=store.carried
    )
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
    store = replace(store, carried=recognition.carried)
    verdict = efficiency_audit(recognition, domain, trace=trace)
    report: AscriptionReport | None = None
    if verdict.kind == "inefficient":
        for rule in domain.ascription_order:
            # looked up at each call, so a wrapper set on the module sees it
            ascribe = ascribe_conjunctive if rule == "conjunctive" else ascribe_avoidance
            store, report = ascribe(store, recognition, verdict, domain, trace=trace)
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
        store=store,
        recognition=replace(recognition, closure=None, carried=None),
        verdict=verdict,
        report=report,
    )

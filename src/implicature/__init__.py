"""Conversational-implicature inference from dialogue-plan inefficiency.

The pipeline: recognize the plan behind a speech act, audit it against a
re-planned optimum that bypasses the utterance, and when the recognized
plan is strictly costlier, ascribe the conjunctive or avoidance goal that
explains the speaker's choice.
"""

from .acts import (
    ACTS,
    ActInstance,
    ActSchema,
    apply_hearer_update,
    apply_speaker_update,
)
from .beliefs import (
    Attitude,
    BeliefStore,
    Stereotype,
    assert_attitude,
    contrary_evidence,
    default_ascribe,
    holds,
)
from .completion import Completion, complete_from, to_dot
from .inference import (
    AscriptionReport,
    Domain,
    EfficiencyVerdict,
    InferenceOutcome,
    RecognitionResult,
    ascribe_avoidance,
    ascribe_conjunctive,
    candidate_goals,
    efficiency_audit,
    infer,
    recognize,
)
from .planner import (
    CausalLink,
    Operator,
    Plan,
    asserted_states,
    cost,
    exclusive_states,
    linearize,
    plan,
    simulate,
)
from .scenario import Scenario, emit_dot, emit_json, load_scenario, parse_trace, run
from .terms import Atom, Compound, Term, Var, parse_term, render
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "ACTS",
    "ActInstance",
    "ActSchema",
    "AscriptionReport",
    "Atom",
    "Attitude",
    "BeliefStore",
    "CausalLink",
    "Completion",
    "Compound",
    "Domain",
    "EfficiencyVerdict",
    "InferenceOutcome",
    "Operator",
    "Plan",
    "RecognitionResult",
    "Scenario",
    "Stereotype",
    "Term",
    "Trace",
    "Var",
    "apply_hearer_update",
    "apply_speaker_update",
    "ascribe_avoidance",
    "ascribe_conjunctive",
    "assert_attitude",
    "asserted_states",
    "candidate_goals",
    "complete_from",
    "contrary_evidence",
    "cost",
    "default_ascribe",
    "efficiency_audit",
    "emit_dot",
    "emit_json",
    "exclusive_states",
    "holds",
    "infer",
    "linearize",
    "load_scenario",
    "parse_term",
    "parse_trace",
    "plan",
    "recognize",
    "render",
    "run",
    "simulate",
    "to_dot",
]

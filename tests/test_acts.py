"""Tests for speech-act schemas and the speaker/hearer belief updates."""

import pytest

from implicature.acts import (
    ActError,
    ActInstance,
    accept_belief,
    accommodate_preconditions,
    apply_hearer_update,
    apply_speaker_update,
    builtin_schemas,
    check_expectation,
    instantiated_preconditions,
)
from implicature.beliefs import (
    Attitude,
    BeliefStore,
    Expectation,
    assert_attitude,
    holds,
)
from implicature.terms import parse_term, struct
from implicature.trace import Trace

t = parse_term

SCHEMAS = builtin_schemas()
P = t("permission(system, switch(system, computer_off))")
Q = t("cause(switch(system, computer_off), damage(hard_drive))")

QUESTION = ActInstance("question", "system", "expert", P)
INFORM = ActInstance("inform", "expert", "system", Q)


def bel(content):
    return Attitude("bel", content)


def goal(content):
    return Attitude("goal", content)


def store_after_question():
    store = BeliefStore()
    store = accommodate_preconditions(store, QUESTION, SCHEMAS)
    store = apply_speaker_update(store, QUESTION, SCHEMAS)
    store = apply_hearer_update(store, QUESTION, SCHEMAS)
    return store


class TestSchemas:
    def test_exactly_the_four_builtins(self):
        assert set(SCHEMAS) == {"inform", "question", "yes_answer", "no_answer"}

    def test_inform_preconditions(self):
        pre = instantiated_preconditions(INFORM, SCHEMAS)
        assert pre == (
            goal(struct("bel", t("system"), Q)),
            bel(Q),
        )

    def test_question_preconditions_use_disjunction(self):
        pre = instantiated_preconditions(QUESTION, SCHEMAS)
        disj = t(
            "or(permission(system, switch(system, computer_off)),"
            " not(permission(system, switch(system, computer_off))))"
        )
        assert pre[0] == goal(struct("bel", t("system"), disj))
        assert pre[1] == bel(struct("bel", t("expert"), disj))

    def test_no_answer_mirrors_inform_negated(self):
        act = ActInstance("no_answer", "expert", "system", P)
        pre = instantiated_preconditions(act, SCHEMAS)
        assert pre == (
            goal(struct("bel", t("system"), struct("not", P))),
            bel(struct("not", P)),
        )

    def test_unknown_schema_rejected(self):
        with pytest.raises(ActError):
            instantiated_preconditions(ActInstance("shout", "a", "b", t("p")), SCHEMAS)

    def test_speaker_hearer_must_differ(self):
        with pytest.raises(ActError):
            ActInstance("inform", "a", "a", t("p"))


class TestQuestionTurn:
    def test_footnote_disjunction_lands_in_askers_view(self):
        store = store_after_question()
        disj = t(
            "or(permission(system, switch(system, computer_off)),"
            " not(permission(system, switch(system, computer_off))))"
        )
        assert holds(store, ("system", "expert"), bel(disj))

    def test_expectation_registered(self):
        store = store_after_question()
        assert store.expectations == (
            Expectation(asker="system", answerer="expert", content=P),
        )

    def test_repeat_is_idempotent(self):
        once = store_after_question()
        twice = apply_speaker_update(once, QUESTION, SCHEMAS)
        twice = apply_hearer_update(twice, QUESTION, SCHEMAS)
        assert once == twice


class TestInformTurn:
    def test_hearer_gains_effects_i_and_ii(self):
        store = apply_hearer_update(BeliefStore(), INFORM, SCHEMAS)
        # (i) bel(system, bel(expert, Q))
        assert holds(store, ("system", "expert"), bel(Q))
        # (ii) bel(system, goal(expert, bel(system, Q)))
        assert holds(store, ("system", "expert"), goal(struct("bel", t("system"), Q)))

    def test_speaker_assumes_preconditions_communicated(self):
        store = apply_speaker_update(BeliefStore(), INFORM, SCHEMAS)
        for c in instantiated_preconditions(INFORM, SCHEMAS):
            c_term = struct(c.kind, t("expert"), c.content)
            assert holds(store, ("expert", "system"), bel(c_term))

    def test_updates_commute(self):
        a = apply_hearer_update(
            apply_speaker_update(BeliefStore(), INFORM, SCHEMAS), INFORM, SCHEMAS
        )
        b = apply_speaker_update(
            apply_hearer_update(BeliefStore(), INFORM, SCHEMAS), INFORM, SCHEMAS
        )
        assert a == b

    def test_blocked_ascriptions_skipped_and_traced(self):
        trace = Trace()
        store = assert_attitude(
            BeliefStore(), ("system", "expert"), bel(struct("not", Q))
        )
        out = apply_hearer_update(store, INFORM, SCHEMAS, trace=trace)
        assert not holds(out, ("system", "expert"), bel(Q))
        # one event for the one blocked precondition
        assert [(ev.module, ev.payload["cause"]) for ev in trace.find("block")] == [
            ("belief-spaces", "contrary-evidence")
        ]


class TestAnswerActs:
    def test_answer_requires_pending_question(self):
        act = ActInstance("no_answer", "expert", "system", P)
        with pytest.raises(ActError):
            check_expectation(BeliefStore(), act, SCHEMAS)
        check_expectation(store_after_question(), act, SCHEMAS)

    def test_answer_consumes_expectation(self):
        act = ActInstance("no_answer", "expert", "system", P)
        store = apply_hearer_update(store_after_question(), act, SCHEMAS)
        assert store.expectations == ()

    def test_no_answer_effects(self):
        act = ActInstance("no_answer", "expert", "system", P)
        store = apply_hearer_update(store_after_question(), act, SCHEMAS)
        assert holds(store, ("system", "expert"), bel(struct("not", P)))
        assert holds(
            store,
            ("system", "expert"),
            goal(struct("bel", t("system"), struct("not", P))),
        )


class TestAcceptBelief:
    def seeded(self):
        store = BeliefStore().with_reliability([("expert", "permission")])
        return assert_attitude(
            store, ("system", "expert"), bel(struct("not", P))
        )

    def test_accepts_reliable_communicated_belief(self):
        result = accept_belief(self.seeded(), "system", "expert", struct("not", P))
        assert result.accepted
        assert holds(result.store, ("system",), bel(struct("not", P)))

    def test_refused_on_contrary_evidence(self):
        store = assert_attitude(self.seeded(), ("system",), bel(P))
        result = accept_belief(store, "system", "expert", struct("not", P))
        assert not result.accepted
        assert result.reason == "contrary_evidence"

    def test_refused_when_source_unreliable(self):
        store = BeliefStore()
        store = assert_attitude(store, ("system", "expert"), bel(struct("not", P)))
        result = accept_belief(store, "system", "expert", struct("not", P))
        assert not result.accepted
        assert result.reason == "unreliable_source"

    def test_refused_without_evidence(self):
        store = BeliefStore().with_reliability([("expert", "permission")])
        result = accept_belief(store, "system", "expert", struct("not", P))
        assert not result.accepted
        assert result.reason == "no_evidence"

    def test_refusals_traced(self):
        trace = Trace()
        accept_belief(BeliefStore(), "a", "b", t("p"), trace=trace)
        assert trace.kinds() == ["refuse"]

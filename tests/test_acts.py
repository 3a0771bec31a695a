"""Tests for speech-act schemas and the speaker/hearer belief updates."""

import pytest

from implicature.acts import (
    ACTS,
    ActError,
    ActInstance,
    accommodate_preconditions,
    apply_hearer_update,
    apply_speaker_update,
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

from oracles import Substitution, apply

t = parse_term

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
    store = accommodate_preconditions(store, QUESTION)
    store = apply_speaker_update(store, QUESTION)
    store = apply_hearer_update(store, QUESTION)
    return store


class TestSchemas:
    def test_exactly_the_four_builtins(self):
        assert set(ACTS) == {"inform", "question", "yes_answer", "no_answer"}

    def test_inform_preconditions(self):
        pre = instantiated_preconditions(INFORM)
        assert pre == (
            goal(struct("bel", t("system"), Q)),
            bel(Q),
        )

    def test_question_preconditions_use_disjunction(self):
        pre = instantiated_preconditions(QUESTION)
        disj = t(
            "or(permission(system, switch(system, computer_off)),"
            " not(permission(system, switch(system, computer_off))))"
        )
        assert pre[0] == goal(struct("bel", t("system"), disj))
        assert pre[1] == bel(struct("bel", t("expert"), disj))

    def test_no_answer_mirrors_inform_negated(self):
        act = ActInstance("no_answer", "expert", "system", P)
        pre = instantiated_preconditions(act)
        assert pre == (
            goal(struct("bel", t("system"), struct("not", P))),
            bel(struct("not", P)),
        )

    @pytest.mark.parametrize("name", sorted(ACTS))
    def test_preconditions_are_the_schema_attitudes_under_the_roles(self, name):
        # read off the utterance operator, they equal each schema attitude
        # with its roles replaced by unification's substitution
        roles = Substitution({"speaker": t("expert"), "hearer": t("system"), "content": Q})
        assert instantiated_preconditions(ActInstance(name, "expert", "system", Q)) == tuple(
            Attitude(c.kind, apply(roles, c.content)) for c in ACTS[name].preconditions
        )

    def test_unknown_schema_rejected(self):
        with pytest.raises(ActError):
            instantiated_preconditions(ActInstance("shout", "a", "b", t("p")))

    def test_speaker_hearer_must_differ(self):
        with pytest.raises(ActError):
            ActInstance("inform", "a", "a", t("p"))


class TestActInstance:
    def test_role_names_lowercased_before_compare(self):
        with pytest.raises(ActError, match="must differ"):
            ActInstance("inform", "A", "a", t("p"))
        act = ActInstance("inform", "Expert", "SYSTEM", Q)
        assert (act.speaker, act.hearer) == ("expert", "system")
        assert act == INFORM and hash(act) == hash(INFORM)

    @pytest.mark.parametrize("speaker, hearer", [("", "b"), ("a", "?x")])
    def test_bad_role_name_rejected(self, speaker, hearer):
        with pytest.raises(ActError):
            ActInstance("inform", speaker, hearer, t("p"))

    def test_step_built_once(self):
        act = ActInstance("inform", "expert", "system", Q)
        assert act.step is act.step
        assert act.step.preconditions[:2] == tuple(
            struct(c.kind, t("expert"), c.content) for c in instantiated_preconditions(act)
        )
        # the cached step stays out of equality and hashing
        assert act == ActInstance("inform", "expert", "system", Q)
        assert hash(act) == hash(ActInstance("inform", "expert", "system", Q))

    def test_unknown_act_raises_at_first_use(self):
        act = ActInstance("shout", "a", "b", t("p"))
        for _ in range(2):
            with pytest.raises(ActError, match="unknown act schema"):
                act.step


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
        twice = apply_speaker_update(once, QUESTION)
        twice = apply_hearer_update(twice, QUESTION)
        assert once == twice


class TestInformTurn:
    def test_hearer_gains_effects_i_and_ii(self):
        store = apply_hearer_update(BeliefStore(), INFORM)
        # (i) bel(system, bel(expert, Q))
        assert holds(store, ("system", "expert"), bel(Q))
        # (ii) bel(system, goal(expert, bel(system, Q)))
        assert holds(store, ("system", "expert"), goal(struct("bel", t("system"), Q)))

    def test_speaker_assumes_preconditions_communicated(self):
        store = apply_speaker_update(BeliefStore(), INFORM)
        for c in instantiated_preconditions(INFORM):
            c_term = struct(c.kind, t("expert"), c.content)
            assert holds(store, ("expert", "system"), bel(c_term))

    def test_updates_commute(self):
        a = apply_hearer_update(apply_speaker_update(BeliefStore(), INFORM), INFORM)
        b = apply_speaker_update(apply_hearer_update(BeliefStore(), INFORM), INFORM)
        assert a == b

    def test_blocked_ascriptions_skipped_and_traced(self):
        trace = Trace()
        store = assert_attitude(
            BeliefStore(), ("system", "expert"), bel(struct("not", Q))
        )
        out = apply_hearer_update(store, INFORM, trace=trace)
        assert not holds(out, ("system", "expert"), bel(Q))
        # one event for the one blocked precondition
        assert [(ev.module, ev.payload["cause"]) for ev in trace.find("block")] == [
            ("belief-spaces", "contrary-evidence")
        ]


class TestAnswerActs:
    def test_answer_requires_pending_question(self):
        act = ActInstance("no_answer", "expert", "system", P)
        with pytest.raises(ActError):
            check_expectation(BeliefStore(), act)
        check_expectation(store_after_question(), act)

    def test_answer_consumes_expectation(self):
        act = ActInstance("no_answer", "expert", "system", P)
        store = apply_hearer_update(store_after_question(), act)
        assert store.expectations == ()

    def test_no_answer_effects(self):
        act = ActInstance("no_answer", "expert", "system", P)
        store = apply_hearer_update(store_after_question(), act)
        assert holds(store, ("system", "expert"), bel(struct("not", P)))
        assert holds(
            store,
            ("system", "expert"),
            goal(struct("bel", t("system"), struct("not", P))),
        )

"""Tests for nested belief environments and ascription."""

import pytest
from hypothesis import assume, given, strategies as st

from implicature.beliefs import (
    Attitude,
    BeliefError,
    BeliefStore,
    ContradictionError,
    Stereotype,
    assert_attitude,
    contrary_evidence,
    default_ascribe,
    holds,
    normalize,
    render_attitude,
    render_store,
    stereotype_ascribe,
)
from implicature.terms import EMPTY_SUBST, Substitution, atom, parse_term, render
from implicature.trace import Trace

t = parse_term

CAUSE = t("cause(switch(system, computer_off), damage(hard_drive))")
PERM = t("permission(system, switch(system, computer_off))")


def bel(content):
    return Attitude("bel", content)


def goal(content):
    return Attitude("goal", content)


class TestNormalization:
    def test_bel_chain_absorbs_into_path(self):
        path, att = normalize(("system",), bel(t("bel(expert, p)")))
        assert path == ("system", "expert")
        assert att == bel(t("p"))

    def test_goal_chain_tail(self):
        path, att = normalize(("system",), bel(t("goal(expert, not(damage(hard_drive)))")))
        assert path == ("system", "expert")
        assert att == goal(t("not(damage(hard_drive))"))

    def test_goal_content_not_absorbed(self):
        path, att = normalize(("system",), goal(t("bel(system, p)")))
        assert path == ("system",)
        assert att == goal(t("bel(system, p)"))

    def test_render_inverts_normalize(self):
        term = t("bel(system, int(expert, not(switch(system, computer_off))))")
        outer = Attitude("bel", t("int(expert, not(switch(system, computer_off)))"))
        path, att = normalize(("system",), outer)
        assert render_attitude(path, att) == term


class TestAssertAndHolds:
    def test_expert_belief_lands(self):
        store = assert_attitude(BeliefStore(), ("expert",), bel(CAUSE))
        assert holds(store, ("expert",), bel(CAUSE))

    def test_idempotent(self):
        store = assert_attitude(BeliefStore(), ("expert",), bel(CAUSE))
        again = assert_attitude(store, ("expert",), bel(CAUSE))
        assert again == store

    def test_contradiction_rejected(self):
        store = assert_attitude(BeliefStore(), ("system",), bel(t("not(p)")))
        with pytest.raises(ContradictionError):
            assert_attitude(store, ("system",), bel(t("p")))

    def test_contradiction_other_direction(self):
        store = assert_attitude(BeliefStore(), ("system",), bel(t("q")))
        with pytest.raises(ContradictionError):
            assert_attitude(store, ("system",), bel(t("not(q)")))

    def test_value_semantics(self):
        store = BeliefStore()
        assert_attitude(store, ("expert",), bel(CAUSE))
        assert store.attitudes_at(("expert",)) == frozenset()

    def test_holds_on_empty_store(self):
        assert not holds(BeliefStore(), ("system",), bel(t("p")))

    def test_holds_unifies_stored_template(self):
        from implicature.terms import unify

        store = assert_attitude(BeliefStore(), ("system",), goal(t("bel(?h, p)")))
        assert holds(store, ("system",), goal(t("bel(system, p)")))
        assert unify(t("bel(?h, p)"), t("bel(system, p)")) is not None

    def test_depth_cap_skips_and_traces(self):
        trace = Trace()
        store = assert_attitude(
            BeliefStore(),
            ("a", "b", "c", "d"),
            bel(t("bel(e, p)")),
            trace=trace,
        )
        assert store.spaces == {}
        assert trace.kinds() == ["block"]
        assert trace.events[0].payload["cause"] == "nesting-depth-cap"

    def test_intention_needs_registered_action(self):
        store = BeliefStore().with_actions(["switch"])
        ok = assert_attitude(store, ("system",), Attitude("int", t("not(switch(a, b))")))
        assert holds(ok, ("system",), Attitude("int", t("not(switch(a, b))")))
        with pytest.raises(BeliefError):
            assert_attitude(store, ("system",), Attitude("int", t("dance(a)")))

    def test_empty_path_rejected(self):
        with pytest.raises(BeliefError):
            assert_attitude(BeliefStore(), (), bel(t("p")))


class TestContraryEvidence:
    def test_negation_present(self):
        store = assert_attitude(BeliefStore(), ("a",), bel(t("not(p)")))
        assert contrary_evidence(store, ("a",), t("p"))

    def test_empty_store(self):
        assert not contrary_evidence(BeliefStore(), ("a",), t("p"))

    def test_double_negation_direction(self):
        store = assert_attitude(BeliefStore(), ("a",), bel(t("q")))
        assert contrary_evidence(store, ("a",), t("not(q)"))


class TestDefaultAscribe:
    def test_success_then_holds(self):
        store = assert_attitude(BeliefStore(), ("system",), goal(t("share(info)")))
        result = default_ascribe(
            store, ("system",), ("system", "expert"), goal(t("share(info)"))
        )
        assert not result.blocked
        assert holds(result.store, ("system", "expert"), goal(t("share(info)")))

    def test_blocked_by_contrary_evidence(self):
        trace = Trace()
        store = assert_attitude(BeliefStore(), ("system", "expert"), bel(t("not(p)")))
        result = default_ascribe(
            store, ("system",), ("system", "expert"), bel(t("p")), trace=trace
        )
        assert result.blocked
        assert result.store == store
        assert "block" in trace.kinds()

    def test_idempotent(self):
        store = BeliefStore()
        once = default_ascribe(store, ("a",), ("a", "b"), bel(t("p"))).store
        twice = default_ascribe(once, ("a",), ("a", "b"), bel(t("p"))).store
        assert once == twice

    def test_must_extend_by_one_level(self):
        with pytest.raises(BeliefError):
            default_ascribe(BeliefStore(), ("a",), ("a", "b", "c"), bel(t("p")))
        with pytest.raises(BeliefError):
            default_ascribe(BeliefStore(), ("a",), ("b", "c"), bel(t("p")))


class TestStereotypeAscribe:
    expert_stereotype = Stereotype(
        name="computer_expert",
        members=frozenset({"expert"}),
        attitudes=(goal(t("not(damage(hard_drive))")),),
        goal_library=(t("goal(expert, bel(?h, cause(switch(?h, computer_off), damage(hard_drive))))"),),
    )

    def test_templates_land(self):
        store = stereotype_ascribe(
            BeliefStore(), ("system", "expert"), self.expert_stereotype, EMPTY_SUBST
        )
        assert holds(store, ("system", "expert"), goal(t("not(damage(hard_drive))")))

    def test_empty_stereotype_is_noop(self):
        st_empty = Stereotype(name="nobody", members=frozenset())
        store = BeliefStore()
        assert stereotype_ascribe(store, ("a",), st_empty, EMPTY_SUBST) == store

    def test_bindings_instantiate_templates(self):
        st_tpl = Stereotype(
            name="teacher",
            members=frozenset({"expert"}),
            attitudes=(goal(t("educated(?h)")),),
        )
        store = stereotype_ascribe(
            BeliefStore(), ("expert",), st_tpl, Substitution({"h": atom("system")})
        )
        assert holds(store, ("expert",), goal(t("educated(system)")))

    def test_blocked_template_skipped_not_fatal(self):
        trace = Trace()
        st_tpl = Stereotype(
            name="optimist", members=frozenset(), attitudes=(bel(t("fine(world)")),)
        )
        store = assert_attitude(BeliefStore(), ("a",), bel(t("not(fine(world))")))
        out = stereotype_ascribe(store, ("a",), st_tpl, EMPTY_SUBST, trace=trace)
        assert out == store
        assert trace.events[-1].kind == "block"
        assert trace.events[-1].payload["cause"] == "contrary-evidence"

    def test_template_past_nesting_cap_blocked_and_traced(self):
        trace = Trace()
        st_deep = Stereotype(
            name="gossip", members=frozenset(), attitudes=(bel(t("bel(e, p)")),)
        )
        out = stereotype_ascribe(
            BeliefStore(), ("a", "b", "c", "d"), st_deep, EMPTY_SUBST, trace=trace
        )
        assert out.spaces == {}
        assert trace.kinds() == ["block"]
        assert trace.events[0].payload["cause"] == "nesting-depth-cap"


class TestRenderStore:
    def test_deterministic_and_complete(self):
        store = BeliefStore().with_reliability([("expert", "cause")])
        store = assert_attitude(store, ("expert",), bel(CAUSE))
        store = assert_attitude(store, ("system", "expert"), bel(t("or(p, not(p))")))
        snapshot = [render(x) for x in render_store(store)]
        assert snapshot == [
            "bel(expert, cause(switch(system, computer_off), damage(hard_drive)))",
            "bel(system, bel(expert, or(p, not(p))))",
            "reliable(expert, cause)",
        ]


# -- property tests ----------------------------------------------------------

contents = st.sampled_from(
    [t("p"), t("q(a)"), t("not(p)"), t("bel(b, p)"), t("goal(b, q(a))"), t("or(p, not(p))")]
)
paths = st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a", "b")])
kinds = st.sampled_from(["bel", "goal"])


@given(paths, kinds, contents)
def test_ascribe_then_holds(path, kind, content):
    att = Attitude(kind, content)
    norm_path, _ = normalize(path + ("c",), att)
    assume(len(norm_path) <= 4)
    result = default_ascribe(BeliefStore(), path, path + ("c",), att)
    assert holds(result.store, path + ("c",), att)


@given(paths, kinds, contents)
def test_ops_are_referentially_transparent(path, kind, content):
    att = Attitude(kind, content)
    store = BeliefStore()
    a = assert_attitude(store, path, att)
    b = assert_attitude(store, path, att)
    assert a == b
    assert store == BeliefStore()


@given(paths, contents)
def test_blocked_iff_contrary_evidence(path, content):
    seeded = assert_attitude(BeliefStore(), path + ("c",), bel(t("not(p)")))
    att = Attitude("bel", content)
    norm_path, norm_att = normalize(path + ("c",), att)
    assume(len(norm_path) <= 4)
    expected = contrary_evidence(seeded, norm_path, norm_att.content)
    result = default_ascribe(seeded, path, path + ("c",), att)
    assert result.blocked == expected


@given(paths, contents)
def test_no_store_contains_p_and_not_p(path, content):
    store = assert_attitude(BeliefStore(), path, bel(content))
    try:
        store = assert_attitude(store, path, bel(t("not(p)")))
    except ContradictionError:
        pass
    for space_path in store.paths():
        for att in store.attitudes_at(space_path):
            if att.kind != "bel":
                continue
            assert not contrary_evidence(
                BeliefStore(spaces={space_path: store.attitudes_at(space_path) - {att}}),
                space_path,
                att.content,
            )

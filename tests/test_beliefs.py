"""Tests for nested belief environments and ascription."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, strategies as st

from implicature.beliefs import (
    Attitude,
    BeliefError,
    BeliefStore,
    ContradictionError,
    Expectation,
    assert_attitude,
    contrary_evidence,
    default_ascribe,
    holds,
    normalize,
    render_attitude,
    render_store,
)
from implicature.acts import ActInstance, check_expectation
from implicature.terms import parse_term, render
from implicature.trace import Trace
from oracles import reference_snapshot

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

    def test_reassert_is_a_no_op_even_with_a_nested_contrary(self):
        # not(bel(b, p)) at a is contradicted by p at (a, b), but that check
        # runs only from the outer side: once both are stored, re-asserting
        # the outer one must still be a no-op, not a ContradictionError
        store = assert_attitude(BeliefStore(), ("a",), bel(t("not(bel(b, p))")))
        store = default_ascribe(store, ("a",), ("a", "b"), bel(t("p"))).store
        assert holds(store, ("a", "b"), bel(t("p")))
        assert assert_attitude(store, ("a",), bel(t("not(bel(b, p))"))) is store

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

    @pytest.mark.parametrize("content", ["likes(?y)", "bel(expert, p(?x))", "?p"])
    def test_non_ground_content_rejected(self, content):
        with pytest.raises(BeliefError, match="must be ground"):
            assert_attitude(BeliefStore(), ("system",), goal(t(content)))


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

    def test_contrary_evidence_block_traced(self):
        trace = Trace()
        store = assert_attitude(BeliefStore(), ("a", "b"), bel(t("not(fine(world))")))
        out = default_ascribe(store, ("a",), ("a", "b"), bel(t("fine(world)")), trace=trace)
        assert out.blocked and out.store == store
        assert trace.kinds() == ["block"]
        assert trace.events[0].payload == {
            "path": ["a", "b"],
            "attitude": "bel(fine(world))",
            "cause": "contrary-evidence",
        }

    def test_nesting_cap_block_traced(self):
        trace = Trace()
        out = default_ascribe(
            BeliefStore(), ("a", "b", "c"), ("a", "b", "c", "d"), bel(t("bel(e, p)")), trace=trace
        )
        assert out.blocked and out.store.spaces == {}
        assert trace.kinds() == ["block"]
        assert trace.events[0].payload == {
            "path": ["a", "b", "c", "d", "e"],
            "attitude": "bel(p)",
            "cause": "nesting-depth-cap",
        }

    def test_non_ground_content_rejected(self):
        with pytest.raises(BeliefError, match="must be ground"):
            default_ascribe(BeliefStore(), ("a",), ("a", "b"), goal(t("educated(?h)")))

    def test_must_extend_by_one_level(self):
        with pytest.raises(BeliefError):
            default_ascribe(BeliefStore(), ("a",), ("a", "b", "c"), bel(t("p")))
        with pytest.raises(BeliefError):
            default_ascribe(BeliefStore(), ("a",), ("b", "c"), bel(t("p")))


class TestAgentNames:
    """Agent names are checked and lowercased where they enter the store,
    so a snapshot never meets a bad one."""

    @pytest.mark.parametrize("name", ["", "?x"])
    def test_bad_name_rejected_by_assert(self, name):
        with pytest.raises(BeliefError, match="agent name"):
            assert_attitude(BeliefStore(), (name,), bel(t("p")))
        with pytest.raises(BeliefError, match="agent name"):
            assert_attitude(BeliefStore(), ("system", name), bel(t("p")))

    @pytest.mark.parametrize("name", ["", "?x"])
    def test_bad_name_rejected_by_ascribe(self, name):
        with pytest.raises(BeliefError, match="agent name"):
            default_ascribe(BeliefStore(), (name,), (name, "b"), bel(t("p")))
        with pytest.raises(BeliefError, match="agent name"):
            default_ascribe(BeliefStore(), ("a",), ("a", name), bel(t("p")))

    @pytest.mark.parametrize("name", ["", "?x"])
    def test_bad_name_rejected_by_holds(self, name):
        with pytest.raises(BeliefError, match="agent name"):
            holds(BeliefStore(), (name,), bel(t("p")))

    @pytest.mark.parametrize("pair", [("", "cause"), ("expert", "?t")])
    def test_bad_reliability_name_rejected(self, pair):
        with pytest.raises(BeliefError):
            BeliefStore().with_reliability([pair])

    def test_case_variants_share_one_space(self):
        store = assert_attitude(BeliefStore(), ("Expert",), bel(CAUSE))
        store = assert_attitude(store, ("expert",), bel(CAUSE))
        store = default_ascribe(store, ("SYSTEM",), ("System", "EXPERT"), bel(t("p"))).store
        assert store.paths() == [("expert",), ("system", "expert")]
        assert holds(store, ("EXPERT",), bel(CAUSE))
        assert [render(x) for x in render_store(store)] == [
            "bel(expert, cause(switch(system, computer_off), damage(hard_drive)))",
            "bel(system, bel(expert, p))",
        ]

    @pytest.mark.parametrize("name", ["", "?x"])
    def test_bad_expectation_name_rejected(self, name):
        for exp in (Expectation(name, "b", t("p")), Expectation("a", name, t("p"))):
            with pytest.raises(BeliefError, match="agent name"):
                BeliefStore().with_expectation(exp)

    def test_expectation_names_lowercased(self):
        store = BeliefStore().with_expectation(Expectation("Bob", "ANN", t("p")))
        store = store.with_expectation(Expectation("bob", "ann", t("p")))
        assert store.expectations == (Expectation("bob", "ann", t("p")),)
        assert [render(x) for x in render_store(store)] == ["answer_expected(ann, bob, p)"]
        # the answer act's roles are lowercased too, so it finds the question
        check_expectation(store, ActInstance("yes_answer", "Ann", "Bob", t("p")))
        assert store.drop_expectation(Expectation("bob", "ann", t("p"))).expectations == ()

    def test_attitudes_at_matches_holds(self):
        store = assert_attitude(BeliefStore(), ("expert",), bel(CAUSE))
        assert holds(store, ("Expert",), bel(CAUSE))
        assert store.attitudes_at(("Expert",)) == store.attitudes_at(("expert",)) == {bel(CAUSE)}
        with pytest.raises(BeliefError, match="agent name"):
            store.attitudes_at(("?x",))

    def test_reliability_names_lowercased(self):
        store = BeliefStore().with_reliability([("Expert", "Cause"), ("expert", "cause")])
        assert store.reliability == {("expert", "cause")}
        assert [render(x) for x in render_store(store)] == ["reliable(expert, cause)"]


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

    def test_unchanged_attitudes_keep_their_fact_objects(self):
        store = assert_attitude(BeliefStore(), ("expert",), bel(CAUSE))
        store = assert_attitude(store, ("system",), bel(t("p")))
        store = assert_attitude(store, ("system",), goal(t("q(a)")))
        before = render_store(store)
        after = render_store(assert_attitude(store, ("system",), bel(t("not(r)"))))
        assert [render(x) for x in after] == [
            "bel(expert, cause(switch(system, computer_off), damage(hard_drive)))",
            "bel(system, not(r))",
            "bel(system, p)",
            "goal(system, q(a))",
        ]
        kept = after[:1] + after[2:]
        assert all(new is old for new, old in zip(kept, before, strict=True))

    def test_a_replace_that_drops_an_attitude_renders_as_the_reference(self):
        store = assert_attitude(BeliefStore(), ("system",), bel(t("p")))
        store = assert_attitude(store, ("system",), goal(t("q(a)")))
        render_store(store)
        space = store.spaces[("system",)] - {bel(t("p"))}
        edited = replace(store, spaces={**store.spaces, ("system",): space})
        assert edited.rendered is store.rendered
        assert [render(x) for x in render_store(edited)] == ["goal(system, q(a))"]
        # the older store renders as before once the newer one has rendered
        for s in (store, edited):
            assert render_store(s) == reference_snapshot(s)


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


names = st.sampled_from(["a", "b", "Ann"])
edits = st.one_of(
    st.tuples(st.just("assert"), paths, kinds, contents),
    st.tuples(st.just("ascribe"), paths, kinds, contents),
    st.tuples(st.just("reliability"), names, st.sampled_from(["p", "q"])),
    st.tuples(st.just("expect"), names, names, contents),
    st.tuples(st.just("drop"), st.integers(0, 3)),
    st.tuples(st.just("forget"), st.integers(0, 20)),
)


def edited(store, edit):
    """``store`` after one edit; an assert that would contradict leaves it
    as it is, and "forget" drops an attitude by replacing the spaces."""
    op, *args = edit
    if op == "assert":
        path, kind, content = args
        try:
            return assert_attitude(store, path, Attitude(kind, content))
        except ContradictionError:
            return store
    if op == "ascribe":
        path, kind, content = args
        return default_ascribe(store, path, path + ("c",), Attitude(kind, content)).store
    if op == "reliability":
        return store.with_reliability([tuple(args)])
    if op == "expect":
        return store.with_expectation(Expectation(*args))
    if op == "drop":
        if not store.expectations:
            return store
        return store.drop_expectation(store.expectations[args[0] % len(store.expectations)])
    stored = [(p, a) for p in store.paths() for a in sorted(store.spaces[p], key=str)]
    if not stored:
        return store
    path, att = stored[args[0] % len(stored)]
    return replace(store, spaces={**store.spaces, path: store.spaces[path] - {att}})


@given(
    st.lists(edits, max_size=6),
    st.lists(st.lists(edits, max_size=6), min_size=1, max_size=3),
    st.data(),
)
def test_snapshot_memo_matches_reference(common, branches, data):
    """Stores of one lineage, branched from a common parent and rendered
    in any order, some as they are made, render as the memo-free
    reference, and rendering changes neither equality nor ``repr``."""

    def check(store):
        assert [render(x) for x in render_store(store)] == [
            render(x) for x in reference_snapshot(store)
        ]

    parent = BeliefStore()
    for edit in common:
        parent = edited(parent, edit)
    stores = [parent]
    for branch in branches:
        store = parent
        for edit in branch:
            store = edited(store, edit)
            stores.append(store)
            if data.draw(st.booleans()):
                check(store)
    assert all(s.rendered is parent.rendered for s in stores)
    seen = [(repr(s), replace(s, rendered={})) for s in stores]
    for i in data.draw(st.permutations(range(len(stores)))):
        check(stores[i])
    for i in data.draw(st.lists(st.integers(0, len(stores) - 1), max_size=len(stores))):
        check(stores[i])
    for store, (text, fresh) in zip(stores, seen):
        assert repr(store) == text
        assert store == fresh

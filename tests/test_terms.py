"""Tests for the term layer: parsing, unification, substitution, renaming."""

import pytest
from hypothesis import given, strategies as st

from implicature.planner import Operator, rename_operator
from implicature.terms import (
    Atom,
    Compound,
    EMPTY_SUBST,
    MAX_TERM_DEPTH,
    Substitution,
    TermError,
    Var,
    apply,
    atom,
    is_ground,
    parse_term,
    render,
    struct,
    unify,
    var,
    variables,
)


def t(text):
    return parse_term(text)


class TestConstruction:
    def test_names_lowercased(self):
        assert Atom("Computer_Off").name == "computer_off"
        assert Compound("CAUSE", (atom("a"),)).functor == "cause"

    def test_empty_names_rejected(self):
        with pytest.raises(TermError):
            Atom("")
        with pytest.raises(TermError):
            Compound("", (atom("a"),))

    def test_atom_may_not_look_like_var(self):
        with pytest.raises(TermError):
            Atom("?x")

    def test_compound_needs_args(self):
        with pytest.raises(TermError):
            Compound("f", ())


class TestParse:
    def test_round_trip(self):
        text = "cause(switch(system, computer_off), damage(hard_drive))"
        assert render(t(text)) == text

    def test_case_insignificant(self):
        assert t("Damage(Hard_Drive)") == t("damage(hard_drive)")

    def test_whitespace_insignificant(self):
        assert t("f( a ,  g( b ) )") == t("f(a, g(b))")

    def test_variables(self):
        assert t("?x") == Var("x")
        assert t("bel(?h, ?p)") == struct("bel", var("h"), var("p"))

    def test_anonymous_vars_are_fresh_per_occurrence(self):
        parsed = t("f(?, ?)")
        assert isinstance(parsed.args[0], Var)
        assert isinstance(parsed.args[1], Var)
        assert parsed.args[0] != parsed.args[1]

    def test_nesting_limit(self):
        def nested(depth):
            return "f(" * (depth - 1) + "?x" + ")" * (depth - 1)

        deepest = t(nested(MAX_TERM_DEPTH))
        for _ in range(MAX_TERM_DEPTH - 1):
            deepest = deepest.args[0]
        assert deepest == Var("x")
        with pytest.raises(TermError, match=f"nested deeper than {MAX_TERM_DEPTH}"):
            t(nested(MAX_TERM_DEPTH + 1))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TermError):
            t("f(a) b")

    def test_unbalanced_rejected(self):
        with pytest.raises(TermError):
            t("f(a")


class TestUnify:
    def test_binds_variable_to_matching_atom(self):
        s = unify(t("switch(?a, computer_off)"), t("switch(system, computer_off)"))
        assert s is not None
        assert apply(s, var("a")) == atom("system")

    def test_identity(self):
        s = unify(t("damage(hard_drive)"), t("damage(hard_drive)"))
        assert s is not None and len(s) == 0

    def test_occurs_check(self):
        assert unify(t("?x"), t("cause(?x, p)")) is None

    def test_functor_clash(self):
        assert unify(t("f(a)"), t("g(a)")) is None

    def test_arity_clash(self):
        assert unify(t("f(a)"), t("f(a, b)")) is None

    def test_extends_given_substitution(self):
        s0 = unify(t("?x"), t("a"))
        s1 = unify(t("f(?x, ?y)"), t("f(a, b)"), s0)
        assert s1 is not None
        assert apply(s1, t("f(?x, ?y)")) == t("f(a, b)")
        assert unify(t("?x"), t("b"), s0) is None


class TestApply:
    def test_replaces_bound_variable(self):
        s = Substitution({"a": atom("system")})
        assert apply(s, t("switch(?a, computer_off)")) == t("switch(system, computer_off)")

    def test_empty_substitution(self):
        term = t("f(?x, a)")
        assert apply(EMPTY_SUBST, term) == term

    def test_chain_resolution(self):
        s = Substitution({"x": var("y"), "y": atom("b")})
        assert apply(s, t("f(?x)")) == t("f(b)")

    def test_unbound_vars_preserved(self):
        s = Substitution({"x": atom("a")})
        assert apply(s, t("f(?x, ?z)")) == t("f(a, ?z)")


# -- property tests ----------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "f", "g", "p"])
_varnames = st.sampled_from(["x", "y", "z"])


def _terms(depth):
    if depth == 0:
        return st.one_of(_names.map(Atom), _varnames.map(Var))
    sub = _terms(depth - 1)
    return st.one_of(
        _names.map(Atom),
        _varnames.map(Var),
        st.builds(
            lambda f, args: Compound(f, tuple(args)),
            _names,
            st.lists(sub, min_size=1, max_size=3),
        ),
    )


terms = _terms(3)


@given(terms, terms)
def test_unify_symmetric_success(a, b):
    s_ab = unify(a, b)
    s_ba = unify(b, a)
    assert (s_ab is None) == (s_ba is None)
    if s_ab is not None:
        # unifiers agree up to variable renaming
        assert unify(apply(s_ab, a), apply(s_ba, a)) is not None


@given(terms, terms)
def test_unifier_actually_unifies(a, b):
    s = unify(a, b)
    if s is not None:
        assert apply(s, a) == apply(s, b)


@given(terms, terms, terms)
def test_apply_idempotent(a, b, target):
    s = unify(a, b)
    if s is not None:
        once = apply(s, target)
        assert apply(s, once) == once


@given(terms)
def test_rename_preserves_structure(term):
    # operator schemas are renamed apart term by term: a renamed copy keeps
    # its shape, and a copy renamed from the returned counter on shares no
    # variable with the first
    op = Operator("op", args=(term,))
    first, counter = rename_operator(op, 0)
    second, _ = rename_operator(op, counter)
    renamed = first.args[0]
    assert is_ground(term) == is_ground(renamed)
    assert unify(term, renamed) is not None
    assert not (variables(renamed) & variables(second.args[0]))

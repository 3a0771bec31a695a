"""Tests for the term layer (construction, parsing, stored hash) and for
the reference unifier in ``oracles`` that the engine's matcher is checked
against."""

import copy
import dataclasses
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from implicature import terms as terms_module
from implicature.closure import _instantiate, _match
from implicature.terms import (
    Atom,
    Compound,
    MAX_TERM_DEPTH,
    TermError,
    Var,
    _atom,
    _compound,
    atom,
    parse_term,
    render,
    struct,
    var,
)

from oracles import EMPTY_SUBST, Substitution, apply, unify
from test_scenario import cli_env


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


def _compounds(term):
    """Every compound subterm of term, term itself included."""
    stack = [term]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Compound):
            yield cur
            stack.extend(cur.args)


def _hash_is_stored_value(term):
    return all(hash(c) == hash((c.functor, c.args)) for c in _compounds(term))


class TestStoredHash:
    def test_replace_lowercases_and_rehashes(self):
        c = t("f(a, g(b))")
        r = dataclasses.replace(c, functor="FOO")
        assert r.functor == "foo"
        assert r == t("foo(a, g(b))")
        assert hash(r) == hash(("foo", c.args)) == hash(t("foo(a, g(b))"))

    def test_instantiate_skips_name_check(self, monkeypatch):
        calls = []
        check = terms_module._check_name

        def counted(name, what):
            calls.append(name)
            return check(name, what)

        monkeypatch.setattr(terms_module, "_check_name", counted)
        schema = Compound("bel", (Var("h"), Compound("knows", (Var("h"), Var("p")))))
        bindings = {"h": atom("b"), "p": t("f(a)")}
        expected = t("bel(b, knows(b, f(a)))")
        calls.clear()
        out = _instantiate(schema, bindings)
        assert calls == []
        assert out == expected
        assert _hash_is_stored_value(out)
        Compound("probe", (expected,))
        assert calls == ["probe"]  # the patch reaches the constructor

    def test_pickle_across_hash_seeds(self, tmp_path):
        text = "bel(system, goal(expert, know(user, cause(switch(off), damage(disk)))))"
        dump = tmp_path / "term.pickle"
        write = (
            "import pickle, sys\n"
            "from implicature.terms import parse_term\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps(parse_term(sys.argv[2])))\n"
        )
        read = (
            "import pickle, sys\n"
            "from implicature.terms import parse_term\n"
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "assert loaded in {parse_term(sys.argv[2])}\n"
            "assert loaded in {parse_term(sys.argv[2]): 1}\n"
            "assert hash(loaded) == hash((loaded.functor, loaded.args))\n"
        )
        for seed, code in (("1", write), ("2", read)):
            proc = subprocess.run(
                [sys.executable, "-c", code, str(dump), text],
                env={**cli_env(), "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr


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

_NAMES = ["a", "b", "c", "f", "g", "p"]
_names = st.sampled_from(_NAMES)
_varnames = st.sampled_from(["x", "y", "z"])


def _terms(depth, leaves=st.one_of(_names.map(Atom), _varnames.map(Var))):
    if depth == 0:
        return leaves
    sub = _terms(depth - 1, leaves)
    return st.one_of(
        leaves,
        st.builds(
            lambda f, args: Compound(f, tuple(args)),
            _names,
            st.lists(sub, min_size=1, max_size=3),
        ),
    )


terms = _terms(3)
ground_terms = _terms(3, _names.map(Atom))


def _rebuild(term, make, leaf=None):
    """term rebuilt bottom-up, every compound through ``make`` and every
    leaf through ``leaf`` (its constructor by default)."""
    if isinstance(term, Compound):
        return make(term.functor, tuple(_rebuild(a, make, leaf) for a in term.args))
    return (leaf or type(term))(term.name)


def _lifted(term):
    """term with every atom a replaced by the variable ?k_a."""
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_lifted(a) for a in term.args))
    return Var("k_" + term.name)


@given(ground_terms)
def test_equal_terms_hash_equal_however_built(term):
    """Every way the engine builds a term gives an equal term with the
    dataclass hash, ``hash((functor, args))``, at every compound."""
    bindings = {"k_" + name: Atom(name) for name in _NAMES}
    built = [
        parse_term(render(term)),
        _rebuild(term, lambda f, args: struct(f.upper(), *args)),
        _instantiate(_lifted(term), bindings),
        copy.deepcopy(term),
        pickle.loads(pickle.dumps(term)),
        _rebuild(term, _compound),
        _rebuild(term, _compound, _atom),
    ]
    if isinstance(term, Compound):
        built.append(dataclasses.replace(term, functor=term.functor.upper()))
        built.append(dataclasses.replace(term, args=list(term.args)))
    for other in built:
        assert other == term
        assert hash(other) == hash(term)
        assert _hash_is_stored_value(other)
    assert len(set(built)) == 1


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


@given(
    terms, ground_terms, st.fixed_dictionaries({v: ground_terms for v in "xyz"}), st.booleans()
)
def test_match_against_a_ground_term_agrees_with_unify(g, other, fill, instance):
    """The engine's one-way matcher succeeds on a ground term exactly when
    the reference unifier does, and its bindings instantiate the template
    to that term.  ``instance`` makes the term an instance of the template,
    so both outcomes are drawn often."""
    a = _instantiate(g, fill) if instance else other
    match = _match(g, a, {})
    assert (match is None) == (unify(g, a) is None)
    if match is not None:
        assert _instantiate(g, match) == a

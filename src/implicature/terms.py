"""First-order terms: atoms, compounds, variables, unification, substitution.

Everything the engine manipulates (propositions, attitudes, actions, plan
states) is a term.  The canonical text syntax is ``functor(arg1, arg2)``
with lowercase atoms and ``?name`` variables; a bare ``?`` is an anonymous
variable, fresh per occurrence.  Terms are immutable and hashable.

Every belief, operator instance and plan state lives in hashed sets and
dicts, so a :class:`Compound` computes its hash once, when it is built, and
stores it: a lookup reads one attribute instead of walking the term.  The
stored value is the one the dataclass hash would compute,
``hash((functor, args))``, so set and dict order is as before.  It depends
on the process's string-hash seed, so it is never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union


class TermError(ValueError):
    """Malformed term construction or parse failure."""


#: Deepest nesting :func:`parse_term` accepts (an atom or variable is depth
#: 1, ``f(a)`` depth 2).  Term functions recurse level by level, so the
#: limit keeps every term the engine builds from its input, plus the levels
#: planning and belief updates wrap around it (``planner.MAX_DERIVED_DEPTH``
#: caps the total), well inside Python's recursion limit.
MAX_TERM_DEPTH = 100


def _check_name(name: str, what: str) -> str:
    if not name:
        raise TermError(f"empty {what} name")
    if name.startswith("?"):
        raise TermError(f"{what} name {name!r} may not begin with '?'")
    return name.lower()


@dataclass(frozen=True)
class Atom:
    """A constant. Names are case-normalized to lowercase."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _check_name(self.name, "atom"))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var:
    """A variable. The name is stored without the '?' sigil."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise TermError("variable needs a name; anonymous '?' is expanded by the parser")

    def __str__(self) -> str:
        return "?" + self.name


@dataclass(frozen=True)
class Compound:
    """A functor applied to one or more argument terms. Arity is fixed.

    The hash, ``hash((functor, args))``, is computed once at construction
    and stored; pickling and copying rebuild the term through the
    constructor, so the stored hash always belongs to this process.
    """

    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        functor = _check_name(self.functor, "functor")
        args = tuple(self.args)
        if not args:
            raise TermError(f"compound {functor!r} needs at least one argument")
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((functor, args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Compound, (self.functor, self.args))

    def __str__(self) -> str:
        return f"{self.functor}({', '.join(str(a) for a in self.args)})"


def _compound(functor: str, args: tuple["Term", ...]) -> Compound:
    """A :class:`Compound` built without validation, for engine-internal terms.

    Contract: ``functor`` is copied from a valid :class:`Compound` or is a
    literal lowercase name, and ``args`` is a non-empty tuple of terms.
    Names from outside the program go through the constructor, which
    checks and lowercases them; :func:`_atom` is the same for atoms.
    """
    c = object.__new__(Compound)
    d = c.__dict__
    d["functor"] = functor
    d["args"] = args
    d["_hash"] = hash((functor, args))
    return c


def _atom(name: str) -> Atom:
    """An :class:`Atom` built without validation: ``name`` is copied from a
    valid term or was checked by :func:`_check_name` where it entered."""
    a = object.__new__(Atom)
    a.__dict__["name"] = name
    return a


Term = Union[Atom, Var, Compound]


def atom(name: str) -> Atom:
    return Atom(name)


def var(name: str) -> Var:
    return Var(name)


def struct(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Compound):
        return all(is_ground(a) for a in t.args)
    return True


def variables(t: Term) -> set[str]:
    """Names of all variables occurring in t."""
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        elif isinstance(cur, Compound):
            stack.extend(cur.args)
    return out


def occurs(name: str, t: Term, s: "Substitution") -> bool:
    t = s.walk(t)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Compound):
        return any(occurs(name, a, s) for a in t.args)
    return False


class Substitution(Mapping[str, Term]):
    """Immutable variable bindings.

    Bindings may chain (?x -> ?y, ?y -> b); :func:`apply` resolves chains to
    a fixpoint, so applying a substitution twice equals applying it once.
    The occurs check in :func:`unify` guarantees chains are acyclic.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Term] | None = None) -> None:
        self._bindings: dict[str, Term] = dict(bindings or {})

    def __getitem__(self, name: str) -> Term:
        return self._bindings[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k} -> {v}" for k, v in sorted(self._bindings.items()))
        return "{" + inner + "}"

    def bind(self, name: str, value: Term) -> "Substitution":
        new = dict(self._bindings)
        new[name] = value
        return Substitution(new)

    def walk(self, t: Term) -> Term:
        """Follow variable bindings at the root until a non-var or free var."""
        while isinstance(t, Var) and t.name in self._bindings:
            t = self._bindings[t.name]
        return t


EMPTY_SUBST = Substitution()


def unify(a: Term, b: Term, s: Substitution = EMPTY_SUBST) -> Substitution | None:
    """Most general unifier of a and b extending s, or None.

    Failure is a normal outcome (functor/arity clash or occurs check).
    Returns ``s`` itself exactly when a and b are already equal under s.
    """
    a = s.walk(a)
    b = s.walk(b)
    if isinstance(a, Var):
        if isinstance(b, Var) and a.name == b.name:
            return s
        if occurs(a.name, b, s):
            return None
        return s.bind(a.name, b)
    if isinstance(b, Var):
        return unify(b, a, s)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return s if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s2 = unify(x, y, s)
            if s2 is None:
                return None
            s = s2
        return s
    return None


def apply(s: Substitution, t: Term) -> Term:
    """Replace every bound variable in t, resolving chains to a fixpoint."""
    t = s.walk(t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(apply(s, a) for a in t.args))
    return t


def render(t: Term) -> str:
    """Canonical text form: functor(a, b), lowercase atoms, ?name vars."""
    return str(t)


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise TermError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise TermError(f"expected a name at position {start} in {self.text!r}")
        return self.text[start : self.pos]


def parse_term(text: str) -> Term:
    """Parse one term from text. Whitespace between tokens is insignificant.

    Raises TermError for malformed text and for a term nested deeper than
    ``MAX_TERM_DEPTH``.
    """
    tok = _Tokenizer(text)
    anon = [0]
    t = _parse(tok, anon, 1)
    tok.skip_ws()
    if tok.pos != len(tok.text):
        raise TermError(f"trailing input at position {tok.pos} in {text!r}")
    return t


def _parse(tok: _Tokenizer, anon: list[int], depth: int) -> Term:
    if depth > MAX_TERM_DEPTH:
        raise TermError(
            f"term nested deeper than {MAX_TERM_DEPTH} at position {tok.pos}"
        )
    c = tok.peek()
    if c == "?":
        tok.take("?")
        nxt = tok.text[tok.pos] if tok.pos < len(tok.text) else ""
        if nxt.isalnum() or nxt == "_":
            return Var(tok.name().lower())
        anon[0] += 1
        return Var(f"_a{anon[0]}")
    name = tok.name().lower()
    if tok.pos < len(tok.text) and tok.text[tok.pos] == "(":
        tok.take("(")
        args = [_parse(tok, anon, depth + 1)]
        while tok.peek() == ",":
            tok.take(",")
            args.append(_parse(tok, anon, depth + 1))
        tok.take(")")
        return Compound(name, tuple(args))
    return Atom(name)

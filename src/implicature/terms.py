"""First-order terms: atoms, variables, compounds, and their parser.

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
from typing import Union


class TermError(ValueError):
    """Malformed term construction or parse failure."""


#: Deepest nesting :func:`parse_term` accepts (an atom or variable is depth
#: 1, ``f(a)`` depth 2).  Term functions recurse level by level, so the
#: limit keeps every term the engine builds from its input, plus the levels
#: planning and belief updates wrap around it (``closure.MAX_DERIVED_DEPTH``
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

"""Scenario files: parsing, validation, the batch run loop and trace JSON.

A scenario is an s-expression file (UTF-8, extension .vgs) declaring the
agents, their stereotypes and initial beliefs, reliability facts, extra
plan operators, the dialogue turns, and config overrides.  Terms embed in
the canonical functor(arg, ...) syntax.  Example::

    (agents system expert)
    (believes (expert) bel(cause(switch(system, computer_off), damage(hard_drive))))
    (reliable expert cause)
    (turn question(system, expert, permission(system, switch(system, computer_off))))

Running a scenario processes the turns in order through the inference
pipeline and records every event in a trace that serializes to canonical,
byte-stable JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TypeAlias, Union

from .acts import ActError, ActInstance, builtin_schemas
from .beliefs import (
    ATTITUDE_KINDS,
    Attitude,
    BeliefError,
    BeliefStore,
    Stereotype,
    assert_attitude,
)
from .inference import Domain, build_operators, infer
from .planner import DEFAULT_BOUND, Operator, PlannerError, validate_operator
from .planner import to_dot as emit_dot  # re-exported: DOT is part of the trace surface
from .terms import (
    MAX_TERM_DEPTH,
    Atom,
    Compound,
    Term,
    TermError,
    Var,
    is_ground,
    parse_term,
    render,
)
from .trace import Event, Trace


class ScenarioError(ValueError):
    """Scenario-level problem: parse error or failed cross-reference."""


class ParseError(ScenarioError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UndeclaredAgentError(ScenarioError):
    pass


# ---------------------------------------------------------------------------
# S-expression reader with embedded term literals
# ---------------------------------------------------------------------------

#: What the reader yields: a keyword, a term, or a nested list of these.
Sexp: TypeAlias = Union[str, Term, list["Sexp"]]


class _Reader:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0  # lists open at pos

    def _line_col(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        column = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, column

    def error(self, message: str, pos: int | None = None) -> ParseError:
        line, column = self._line_col(self.pos if pos is None else pos)
        return ParseError(message, line, column)

    def skip(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace():
                self.pos += 1
            elif c == ";":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl == -1 else nl + 1
            else:
                return

    def at_end(self) -> bool:
        self.skip()
        return self.pos >= len(self.text)

    def read(self) -> Sexp:
        self.skip()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            return self._read_list()
        if c == ")":
            raise self.error("unbalanced ')'")
        return self._read_atom()

    def _read_list(self) -> list[Sexp]:
        # lists nest no deeper than terms, so the recursive reader stays
        # inside Python's recursion limit
        if self.depth == MAX_TERM_DEPTH:
            raise self.error(f"lists nested deeper than {MAX_TERM_DEPTH}")
        start = self.pos
        self.pos += 1
        self.depth += 1
        items: list[Sexp] = []
        while True:
            self.skip()
            if self.pos >= len(self.text):
                raise self.error("unclosed '('", start)
            if self.text[self.pos] == ")":
                self.pos += 1
                self.depth -= 1
                return items
            items.append(self.read())

    def _read_atom(self) -> str | Term:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_?-"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        word = self.text[start : self.pos]
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            depth = 0
            end = self.pos
            while end < len(self.text):
                if self.text[end] == "(":
                    depth += 1
                elif self.text[end] == ")":
                    depth -= 1
                    if depth == 0:
                        end += 1
                        break
                end += 1
            if depth != 0:
                raise self.error("unclosed term literal", start)
            literal = self.text[start:end]
            self.pos = end
            try:
                return parse_term(literal)
            except TermError as exc:
                raise self.error(f"bad term {literal!r}: {exc}", start) from exc
        if word.startswith("?"):
            try:
                return parse_term(word)
            except TermError as exc:
                raise self.error(f"bad term {word!r}: {exc}", start) from exc
        return word


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    bound: int = DEFAULT_BOUND
    strict: bool = False
    ascription_order: tuple[str, ...] = ("conjunctive", "avoidance")
    check_alternation: bool = True


@dataclass(frozen=True)
class Scenario:
    agents: tuple[str, ...]
    stereotypes: tuple[Stereotype, ...] = ()
    initial: tuple[tuple[tuple[str, ...], Attitude], ...] = ()
    reliability: tuple[tuple[str, str], ...] = ()
    actions: tuple[str, ...] = ()
    operators: tuple[Operator, ...] = ()
    declared_goals: tuple[Term, ...] = ()
    avoid_goals: tuple[Term, ...] = ()
    turns: tuple[ActInstance, ...] = ()
    config: ScenarioConfig = field(default_factory=ScenarioConfig)


def _as_name(item: Sexp, what: str) -> str:
    if isinstance(item, str):
        return item.lower()
    if isinstance(item, Atom):
        return item.name
    raise ScenarioError(f"expected a {what} name, got {item!r}")


def _as_term(item: Sexp, what: str) -> Term:
    if isinstance(item, (Atom, Compound, Var)):
        return item
    if isinstance(item, str):
        return parse_term(item)
    raise ScenarioError(f"expected a term for {what}, got {item!r}")


def _as_attitude(item: Sexp, what: str) -> Attitude:
    t = _as_term(item, what)
    if isinstance(t, Compound) and t.functor in ATTITUDE_KINDS and len(t.args) == 1:
        return Attitude(t.functor, t.args[0])
    raise ScenarioError(
        f"{what} must be bel(...), goal(...) or int(...) with the agent left "
        f"to the path, got {render(t)}"
    )


def act_from_term(t: Term) -> ActInstance:
    """Read act(speaker, hearer, content) into an instance."""
    if not (isinstance(t, Compound) and len(t.args) == 3):
        raise ScenarioError(f"a turn must be act(speaker, hearer, content): {render(t)}")
    speaker, hearer, content = t.args
    if not isinstance(speaker, Atom) or not isinstance(hearer, Atom):
        raise ScenarioError(f"turn roles must be agent atoms: {render(t)}")
    if not is_ground(content):
        raise ScenarioError(f"turn content must be ground: {render(t)}")
    return ActInstance(
        schema=t.functor, speaker=speaker.name, hearer=hearer.name, content=content
    )


def _parse_stereotype(form: list) -> Stereotype:
    if len(form) < 2:
        raise ScenarioError("(stereotype name ...) needs a name")
    name = _as_name(form[1], "stereotype")
    members: list[str] = []
    attitudes: list[Attitude] = []
    goals: list[Term] = []
    for clause in form[2:]:
        if not isinstance(clause, list) or not clause:
            raise ScenarioError(f"bad stereotype clause in {name}: {clause!r}")
        head = _as_name(clause[0], "clause")
        if head == "member":
            members.extend(_as_name(m, "member") for m in clause[1:])
        elif head == "attitude":
            attitudes.extend(_as_attitude(a, "stereotype attitude") for a in clause[1:])
        elif head == "goal-template":
            goals.extend(_as_term(g, "goal template") for g in clause[1:])
        else:
            raise ScenarioError(f"unknown stereotype clause {head!r} in {name}")
    return Stereotype(
        name=name,
        members=frozenset(members),
        attitudes=tuple(attitudes),
        goal_library=tuple(goals),
    )


def _parse_operator(form: list) -> Operator:
    if len(form) < 2:
        raise ScenarioError("(operator head ...) needs a head term")
    head = _as_term(form[1], "operator head")
    if isinstance(head, Compound):
        name, args = head.functor, head.args
    elif isinstance(head, Atom):
        name, args = head.name, ()
    else:
        raise ScenarioError(f"operator head must be atom or compound: {head!r}")
    actor: Term | None = None
    pre: list[Term] = []
    add: list[Term] = []
    dele: list[Term] = []
    for clause in form[2:]:
        if not isinstance(clause, list) or len(clause) < 2:
            raise ScenarioError(f"bad operator clause in {name}: {clause!r}")
        kind = _as_name(clause[0], "clause")
        terms = [_as_term(t, f"operator {kind}") for t in clause[1:]]
        if kind == "actor":
            actor = terms[0]
        elif kind == "pre":
            pre.extend(terms)
        elif kind == "add":
            add.extend(terms)
        elif kind == "del":
            dele.extend(terms)
        else:
            raise ScenarioError(f"unknown operator clause {kind!r} in {name}")
    op = Operator(
        name=name,
        args=tuple(args),
        preconditions=tuple(pre),
        add=tuple(add),
        delete=tuple(dele),
        actor=actor,
    )
    try:
        validate_operator(op)
    except PlannerError as exc:
        raise ScenarioError(f"bad operator {render(head)}: {exc}") from exc
    return op


_TRUTHY = {"true", "on", "yes", "1"}
_FALSY = {"false", "off", "no", "0"}


def _parse_config(form: list, config: ScenarioConfig) -> ScenarioConfig:
    if len(form) != 3:
        raise ScenarioError("(config key value) takes exactly one key and value")
    key = _as_name(form[1], "config key")
    value = form[2]

    def as_flag(v: Sexp) -> bool:
        name = _as_name(v, "flag")
        if name in _TRUTHY:
            return True
        if name in _FALSY:
            return False
        raise ScenarioError(f"config {key}: expected a boolean, got {name!r}")

    if key == "bound":
        try:
            bound = int(_as_name(value, "bound"))
        except ValueError:
            raise ScenarioError(f"config bound: expected an integer, got {value!r}")
        if bound < 1:
            raise ScenarioError(f"config bound: expected an integer >= 1, got {bound}")
        return replace(config, bound=bound)
    if key == "strict":
        return replace(config, strict=as_flag(value))
    if key == "alternation":
        return replace(config, check_alternation=as_flag(value))
    if key == "ascription-order":
        name = _as_name(value, "ascription order")
        if name == "conjunctive-first":
            return replace(config, ascription_order=("conjunctive", "avoidance"))
        if name == "avoidance-first":
            return replace(config, ascription_order=("avoidance", "conjunctive"))
        raise ScenarioError(f"config ascription-order: unknown value {name!r}")
    raise ScenarioError(f"unknown config key {key!r}")


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from text."""
    reader = _Reader(text)
    forms: list[list] = []
    while not reader.at_end():
        form = reader.read()
        if not isinstance(form, list) or not form:
            raise reader.error(f"expected a (section ...) form, got {form!r}")
        forms.append(form)

    agents: list[str] = []
    stereotypes: list[Stereotype] = []
    initial: list[tuple[tuple[str, ...], Attitude]] = []
    reliability: list[tuple[str, str]] = []
    actions: list[str] = []
    operators: list[Operator] = []
    declared_goals: list[Term] = []
    avoid_goals: list[Term] = []
    turns: list[ActInstance] = []
    config = ScenarioConfig()

    for form in forms:
        head = _as_name(form[0], "section")
        if head == "agents":
            agents.extend(_as_name(a, "agent") for a in form[1:])
        elif head == "stereotype":
            stereotypes.append(_parse_stereotype(form))
        elif head == "believes":
            if len(form) != 3 or not isinstance(form[1], list):
                raise ScenarioError("(believes (path...) attitude-term) is malformed")
            path = tuple(_as_name(a, "path agent") for a in form[1])
            if not path:
                raise ScenarioError("belief path must name at least one agent")
            att = _as_attitude(form[2], "belief")
            if not is_ground(att.content):
                raise ScenarioError(
                    f"a believes attitude must be ground: {att.kind}({render(att.content)})"
                )
            initial.append((path, att))
        elif head == "reliable":
            if len(form) != 3:
                raise ScenarioError("(reliable agent topic) is malformed")
            reliability.append(
                (_as_name(form[1], "agent"), _as_name(form[2], "topic"))
            )
        elif head == "actions":
            actions.extend(_as_name(a, "action") for a in form[1:])
        elif head == "operator":
            operators.append(_parse_operator(form))
        elif head == "candidate-goal":
            declared_goals.extend(_as_term(g, "candidate goal") for g in form[1:])
        elif head == "avoid-goal":
            avoid_goals.extend(_as_term(g, "avoid goal") for g in form[1:])
        elif head == "turn":
            turns.append(act_from_term(_as_term(form[1], "turn")))
        elif head == "config":
            config = _parse_config(form, config)
        else:
            raise ScenarioError(f"unknown section {head!r}")

    if not agents:
        raise ScenarioError("missing agents section")

    scenario = Scenario(
        agents=tuple(agents),
        stereotypes=tuple(stereotypes),
        initial=tuple(initial),
        reliability=tuple(reliability),
        actions=tuple(actions),
        operators=tuple(operators),
        declared_goals=tuple(declared_goals),
        avoid_goals=tuple(avoid_goals),
        turns=tuple(turns),
        config=config,
    )
    _validate(scenario)
    return scenario


def _validate(s: Scenario) -> None:
    declared = set(s.agents)
    schemas = builtin_schemas()

    def check_agent(name: str, where: str) -> None:
        if name not in declared:
            raise UndeclaredAgentError(f"agent {name!r} in {where} is not declared")

    for st in s.stereotypes:
        for m in sorted(st.members):
            check_agent(m, f"stereotype {st.name}")
    for path, _ in s.initial:
        for a in path:
            check_agent(a, "believes path")
    for agent, _ in s.reliability:
        check_agent(agent, "reliable")
    previous: str | None = None
    for turn in s.turns:
        check_agent(turn.speaker, f"turn {turn}")
        check_agent(turn.hearer, f"turn {turn}")
        if turn.schema not in schemas:
            raise ScenarioError(f"turn {turn} uses unknown act {turn.schema!r}")
        if s.config.check_alternation and previous is not None and turn.speaker == previous:
            raise ScenarioError(
                f"turn {turn}: consecutive turns by {turn.speaker!r} "
                "(disable with (config alternation off))"
            )
        previous = turn.speaker


def render_scenario(s: Scenario) -> str:
    """Canonical text for a scenario; load_scenario round-trips it."""
    lines: list[str] = ["(agents " + " ".join(s.agents) + ")"]
    for st in s.stereotypes:
        parts = [f"(stereotype {st.name}"]
        for m in sorted(st.members):
            parts.append(f"  (member {m})")
        for a in st.attitudes:
            parts.append(f"  (attitude {a.kind}({render(a.content)}))")
        for g in st.goal_library:
            parts.append(f"  (goal-template {render(g)})")
        lines.append("\n".join(parts) + ")")
    for path, att in s.initial:
        lines.append(
            f"(believes ({' '.join(path)}) {att.kind}({render(att.content)}))"
        )
    for agent, topic in s.reliability:
        lines.append(f"(reliable {agent} {topic})")
    if s.actions:
        lines.append("(actions " + " ".join(s.actions) + ")")
    for op in s.operators:
        parts = [f"(operator {render(op.head())}"]
        if op.actor is not None:
            parts.append(f"  (actor {render(op.actor)})")
        for p in op.preconditions:
            parts.append(f"  (pre {render(p)})")
        for e in op.add:
            parts.append(f"  (add {render(e)})")
        for e in op.delete:
            parts.append(f"  (del {render(e)})")
        lines.append("\n".join(parts) + ")")
    for g in s.declared_goals:
        lines.append(f"(candidate-goal {render(g)})")
    for g in s.avoid_goals:
        lines.append(f"(avoid-goal {render(g)})")
    for turn in s.turns:
        lines.append(f"(turn {turn})")
    defaults = ScenarioConfig()
    if s.config.bound != defaults.bound:
        lines.append(f"(config bound {s.config.bound})")
    if s.config.strict != defaults.strict:
        lines.append(f"(config strict {'true' if s.config.strict else 'false'})")
    if s.config.check_alternation != defaults.check_alternation:
        lines.append(
            f"(config alternation {'on' if s.config.check_alternation else 'off'})"
        )
    if s.config.ascription_order != defaults.ascription_order:
        lines.append(
            "(config ascription-order "
            + (
                "conjunctive-first"
                if s.config.ascription_order[0] == "conjunctive"
                else "avoidance-first"
            )
            + ")"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def setup(scenario: Scenario, trace: Trace | None = None) -> tuple[BeliefStore, Domain]:
    """Initial store and inference domain for a scenario."""
    schemas = builtin_schemas()
    action_names = (
        set(schemas)
        | {"accept_belief", "ascribe"}
        | {op.name for op in scenario.operators}
        | set(scenario.actions)
    )
    store = BeliefStore().with_actions(sorted(action_names))
    store = store.with_reliability(scenario.reliability)
    for path, att in scenario.initial:
        store = assert_attitude(store, path, att, trace=trace, cause="scenario")
    domain = Domain(
        schemas=schemas,
        operators=build_operators(schemas, scenario.operators),
        stereotypes=scenario.stereotypes,
        declared_goals=scenario.declared_goals,
        avoid_goals=scenario.avoid_goals,
        bound=scenario.config.bound,
        ascription_order=scenario.config.ascription_order,
    )
    return store, domain


def run_detailed(scenario: Scenario) -> tuple[Trace, BeliefStore, list]:
    """Like :func:`run`, returning the final store and per-turn outcomes too."""
    trace = Trace()
    store, domain = setup(scenario, trace=trace)
    outcomes: list = []
    for i, turn in enumerate(scenario.turns):
        trace.emit(
            "scenario-cli",
            "act",
            turn=i,
            schema=turn.schema,
            speaker=turn.speaker,
            hearer=turn.hearer,
            content=render(turn.content),
        )
        try:
            outcome = infer(store, turn, domain, trace=trace)
        except (ActError, BeliefError) as exc:
            trace.emit("scenario-cli", "error", turn=i, cause=str(exc))
            if scenario.config.strict:
                break
            continue
        outcomes.append(outcome)
        store = outcome.store
        if outcome.recognition is None and scenario.config.strict:
            trace.emit(
                "scenario-cli", "error", turn=i, cause="halted: recognition failure"
            )
            break
    return trace, store, outcomes


def run(scenario: Scenario) -> Trace:
    """Process every turn through the inference pipeline, collecting a trace."""
    return run_detailed(scenario)[0]


# ---------------------------------------------------------------------------
# Canonical trace JSON
# ---------------------------------------------------------------------------


def emit_json(trace: Trace) -> str:
    """Canonical JSON for a trace: sorted keys, compact separators,
    byte-stable across runs."""
    obj = {
        "schema": "vgtrace/1",
        "events": [
            {
                "index": ev.index,
                "module": ev.module,
                "kind": ev.kind,
                "payload": ev.payload,
            }
            for ev in trace.events
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_trace(text: str) -> Trace:
    """Inverse of emit_json."""
    obj = json.loads(text)
    if obj.get("schema") != "vgtrace/1":
        raise ScenarioError(f"unknown trace schema {obj.get('schema')!r}")
    trace = Trace()
    for ev in obj["events"]:
        trace.events.append(
            Event(
                index=ev["index"],
                module=ev["module"],
                kind=ev["kind"],
                payload=ev["payload"],
            )
        )
    return trace

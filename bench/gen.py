"""Seeded generator for the benchmark workloads.

Every dialogue is produced twice over: as scenario text, which is all the
engine receives, and as an oracle specification of each answer or inform
turn (ground operators written out from the act definitions, the facts
they need, the candidate goals in order) together with the reading the
construction predicts.  ``check.expected_readings`` runs the oracle on every
specification and refuses a dialogue whose construction and search
disagree.

The seed picks names and orders.  The structure (chain depths, library
widths, dialogue lengths, where negative and indirect answers fall) is
fixed by the caller, so every seed gives a round of the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import (
    Candidate,
    GroundOp,
    TurnSpec,
    accept_belief,
    bel,
    goal,
    inform,
    neg,
    no_answer,
    seeds_for,
    yes_answer,
)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class Names:
    """Distinct seeded five-letter names for one dialogue.

    Names are handed out in sorted order, so every seed orders a dialogue's
    terms the same way and only their spelling changes; the engine's
    deterministic tie-breaks then do the same work for every seed.
    """

    def __init__(self, rng: random.Random, count: int = 96) -> None:
        words: set[str] = set()
        while len(words) < count:
            c, v = _CONSONANTS, _VOWELS
            words.add(rng.choice(c) + rng.choice(v) + rng.choice(c) + rng.choice(v) + rng.choice(c))
        self.pool = sorted(words, reverse=True)

    def take(self) -> str:
        return self.pool.pop()


@dataclass(frozen=True)
class Expected:
    """The reading the construction predicts for one turn."""

    rank: int
    goal: str
    cost_r: int
    cost_o: int
    report: str = "none"
    report_goal: str | None = None


@dataclass
class Dialogue:
    name: str
    text: str
    #: per turn: None for a question (no candidate goals), else the oracle
    #: specification and the predicted reading
    turns: list[tuple[TurnSpec, Expected] | None] = field(default_factory=list)


def _stereotype(name: str, member: str, templates: list[str]) -> str:
    clauses = [f"(member {member})"] + [f"(goal-template {t})" for t in templates]
    return f"(stereotype {name} " + " ".join(clauses) + ")"


def _operator(op: GroundOp) -> str:
    clauses = [f"(actor {op.actor})"]
    clauses += [f"(pre {p})" for p in op.pre]
    clauses += [f"(add {a})" for a in op.add]
    return f"(operator {op.head} " + " ".join(clauses) + ")"


# ---------------------------------------------------------------------------
# Warning family: an indirect no-answer through a chain of operators
# ---------------------------------------------------------------------------


@dataclass
class Warning:
    """computer_off-shaped exchange: asked for permission, the expert warns.

    The warning reaches the no-answer belief through ``depth`` scenario
    operators; the last one also reads off the expert's goal and intention,
    as the bundled ``ascribe`` operator does.  The expert's goal library
    holds the teaching template, ``failing`` templates that a two-step
    completion reaches but a direct inform serves more cheaply, and
    ``unreachable`` templates nothing produces.
    """

    asker: str
    expert: str
    verb: str
    obj: str
    harm: str
    thing: str
    links: list[str]
    facts: list[str]
    nowhere: list[str]

    @classmethod
    def make(
        cls, names: Names, asker: str, expert: str, depth: int, failing: int = 0,
        unreachable: int = 0,
    ) -> "Warning":
        return cls(
            asker, expert, names.take(), names.take(), names.take(), names.take(),
            [names.take() for _ in range(depth - 1)],
            [names.take() for _ in range(failing)],
            [names.take() for _ in range(unreachable)],
        )

    @property
    def p(self) -> str:
        return f"permission({self.asker}, {self.verb}({self.asker}, {self.obj}))"

    @property
    def w(self) -> str:
        return f"cause({self.verb}({self.asker}, {self.obj}), {self.harm}({self.thing}))"

    def templates(self, rng: random.Random) -> list[str]:
        e = self.expert
        out = [goal(e, bel("?h", f"{f}(?h)")) for f in self.facts]
        out += [goal(e, bel("?h", f"{n}(?h)")) for n in self.nowhere]
        rng.shuffle(out)
        teach = goal(e, bel("?h", f"cause({self.verb}(?h, {self.obj}), {self.harm}({self.thing}))"))
        out.insert(rng.randrange(len(out) + 1), teach)
        return out

    def chain(self) -> list[GroundOp]:
        a, e = self.asker, self.expert
        prev = bel(a, bel(e, self.w))
        ops = []
        for link in self.links:
            fact = bel(a, bel(e, f"{link}({self.thing})"))
            ops.append(GroundOp(f"{link}({a})", (prev,), (fact,), a))
            prev = fact
        final = (
            bel(a, goal(e, neg(f"{self.harm}({self.thing})"))),
            bel(a, f"int({e}, {neg(f'{self.verb}({a}, {self.obj})')})"),
            bel(a, bel(e, neg(self.p))),
        )
        ops.append(GroundOp(f"ascribe({a}, {goal(e, neg(f'{self.harm}({self.thing})'))})", (prev,), final, a))
        if self.facts:
            adds = tuple(bel(a, bel(e, f"{f}({a})")) for f in self.facts)
            ops.append(GroundOp(f"explain({a}, {self.thing})", (bel(a, bel(e, self.w)),), adds, a))
        return ops

    def scenario_lines(self) -> list[str]:
        e = self.expert
        lines = [f"(believes ({e}) bel({self.w}))"]
        lines += [f"(reliable {e} {f})" for f in self.facts]
        lines += [_operator(op) for op in self.chain()]
        return lines

    def turns(self) -> list[str]:
        return [
            f"(turn question({self.asker}, {self.expert}, {self.p}))",
            f"(turn inform({self.expert}, {self.asker}, {self.w}))",
        ]

    def spec(self, library: list[str], bound: int) -> TurnSpec:
        a, e, p, w = self.asker, self.expert, self.p, self.w
        utterance = inform(e, a, w)
        ops = [
            utterance,
            yes_answer(e, a, p),
            no_answer(e, a, p),
            inform(e, a, p),
            accept_belief(a, e, p, "permission"),
            accept_belief(a, e, neg(p), "permission"),
            accept_belief(a, e, w, "cause"),
        ]
        ops += self.chain()
        for f in self.facts:
            ops.append(inform(e, a, f"{f}({a})"))
            ops.append(accept_belief(a, e, f"{f}({a})", f))
        initial = frozenset(
            utterance.pre
            + (f"answer_expected({e}, {a}, {p})", f"reliable({e}, cause)", f"reliable({e}, permission)")
            + tuple(f"reliable({e}, {f})" for f in self.facts)
        )
        return TurnSpec(
            speaker=e,
            utterance=utterance.head,
            candidates=_answer_candidates(e, a, p) + _template_candidates(library),
            ops=ops,
            initial=initial,
            bound=bound,
            library=library,
        )

    def expected(self) -> Expected:
        a, e = self.asker, self.expert
        depth = len(self.links) + 1
        # the direct route (no_answer, accept) costs 2; the teaching goal
        # passes the efficiency test only when the chain adds no step beyond
        # the paper's: recognized 3 plus one accept equals the joint optimum 4
        if depth == 1:
            return Expected(1, goal(e, bel(a, neg(self.p))), depth + 2, 2,
                            "conjunctive", goal(e, bel(a, self.w)))
        return Expected(1, goal(e, bel(a, neg(self.p))), depth + 2, 2)


def _answer_candidates(speaker: str, asker: str, p: str) -> list[Candidate]:
    out = []
    for content in (bel(asker, p), bel(asker, neg(p))):
        out.append(Candidate(goal(speaker, content), content, seeds_for(speaker, content)))
    return out


def _template_candidates(library: list[str]) -> list[Candidate]:
    out = []
    for g in library:
        content = g[g.index(", ") + 2 : -1]
        out.append(Candidate(g, content, ()))
    return out


def warning_dialogue(
    rng: random.Random, name: str, depth: int, bound: int = 8, failing: int = 0,
    unreachable: int = 0,
) -> Dialogue:
    names = Names(rng)
    a, e = names.take(), names.take()
    w = Warning.make(names, a, e, depth, failing, unreachable)
    library = w.templates(rng)
    lines = [f"(agents {a} {e})", _stereotype(names.take(), e, library)]
    lines += w.scenario_lines()
    lines += [f"(reliable {e} cause)", f"(reliable {e} permission)", f"(actions {w.verb})"]
    lines += w.turns()
    if bound != 8:
        lines.append(f"(config bound {bound})")
    return Dialogue(name, "\n".join(lines) + "\n", [None, (w.spec(library, bound), w.expected())])


# ---------------------------------------------------------------------------
# Avoidance family: burnt_cakes-shaped deflection
# ---------------------------------------------------------------------------


def avoidance_dialogue(
    rng: random.Random, name: str, failing: int, unreachable: int, avoid_unreachable: int,
) -> Dialogue:
    """Asked whether they checked, the speaker says what they did instead.

    The direct no-answer would let the asker blame the speaker with no
    further act by the speaker, so avoiding blame is ascribed.  The goal
    library holds only failing and unreachable templates, so the
    conjunctive rule finds nothing first; the avoid-goals add one the
    speaker would cause itself (failing the causality condition) and
    ``avoid_unreachable`` that nothing produces.
    """
    names = Names(rng)
    a, c = names.take(), names.take()
    chk, obj, watch, water = names.take(), names.take(), names.take(), names.take()
    blame, blamed, confess, exposed = names.take(), names.take(), names.take(), names.take()
    facts = [names.take() for _ in range(failing)]
    nowhere = [names.take() for _ in range(unreachable)]
    p, w = f"{chk}({c}, {obj})", f"{watch}({c}, {water})"
    infer_op = GroundOp(f"infer_neglect({a})", (bel(a, w),), (bel(a, neg(p)),), a)
    blame_op = GroundOp(f"{blame}({a}, {c})", (bel(a, bel(c, neg(p))),), (f"{blamed}({c})",), a)
    confess_op = GroundOp(f"{confess}({c})", (bel(a, bel(c, neg(p))),), (f"{exposed}({c})",), c)
    scenario_ops = [infer_op, blame_op, confess_op]
    if facts:
        adds = tuple(bel(a, bel(c, f"{f}({a})")) for f in facts)
        scenario_ops.append(GroundOp(f"explain({a}, {water})", (bel(a, bel(c, w)),), adds, a))
    library = [goal(c, bel("?h", f"{f}(?h)")) for f in facts + nowhere]
    rng.shuffle(library)
    # the reading comes last, so that every other avoid-goal is tried first
    avoid = [f"{exposed}({c})"] + [f"{names.take()}({c})" for _ in range(avoid_unreachable)] + [f"{blamed}({c})"]

    lines = [f"(agents {a} {c})"]
    if library:
        lines.append(_stereotype(names.take(), c, library))
    lines += [f"(believes ({c}) bel({w}))", f"(reliable {c} {watch})", f"(reliable {c} {chk})"]
    lines += [f"(reliable {c} {f})" for f in facts]
    lines.append(f"(actions {blame} {confess})")
    lines += [f"(avoid-goal {g})" for g in avoid]
    lines += [_operator(op) for op in scenario_ops]
    lines += [f"(turn question({a}, {c}, {p}))", f"(turn inform({c}, {a}, {w}))"]

    utterance = inform(c, a, w)
    ops = [
        utterance, yes_answer(c, a, p), no_answer(c, a, p), inform(c, a, p),
        accept_belief(a, c, w, watch), accept_belief(a, c, p, chk), accept_belief(a, c, neg(p), chk),
    ] + scenario_ops
    for f in facts:
        ops += [inform(c, a, f"{f}({a})"), accept_belief(a, c, f"{f}({a})", f)]
    initial = frozenset(
        utterance.pre
        + (f"answer_expected({c}, {a}, {p})", f"reliable({c}, {watch})", f"reliable({c}, {chk})")
        + tuple(f"reliable({c}, {f})" for f in facts)
    )
    spec = TurnSpec(
        speaker=c, utterance=utterance.head,
        candidates=_answer_candidates(c, a, p) + _template_candidates(library),
        ops=ops, initial=initial, bound=8, library=library, avoid=avoid,
    )
    expected = Expected(1, goal(c, bel(a, neg(p))), 3, 2, "avoidance", neg(f"{blamed}({c})"))
    return Dialogue(name, "\n".join(lines) + "\n", [None, (spec, expected)])


# ---------------------------------------------------------------------------
# Long question/answer dialogues
# ---------------------------------------------------------------------------


def exchange_dialogue(
    rng: random.Random, name: str, agents: int, exchanges: int, indirect: int, no: int,
) -> Dialogue:
    """``exchanges`` yes/no questions over distinct propositions.

    Askers and answerers are disjoint, so turns alternate and no asker owes
    an answer.  Every (asker, answerer) pair is questioned equally often,
    in a seeded order.  Most answers are direct; ``no`` of them, evenly
    spaced, are negative.  The last ``indirect`` exchanges, by distinct
    answerers, are computer_off-shaped warnings: an indirect answer leaves
    its question pending, so it closes its pair's part of the dialogue.
    """
    names = Names(rng)
    n_ask = agents // 2
    askers = [names.take() for _ in range(n_ask)]
    answerers = [names.take() for _ in range(agents - n_ask)]
    pairs = [(askers[i % n_ask], answerers[i // n_ask % len(answerers)]) for i in range(exchanges)]
    rng.shuffle(pairs)
    for k in range(1, indirect):
        # make the closing exchanges' answerers distinct
        j = next(j for j in range(exchanges - k - 1, -1, -1)
                 if pairs[j][1] not in {e for _, e in pairs[exchanges - k:]})
        pairs[j], pairs[exchanges - k - 1] = pairs[exchanges - k - 1], pairs[j]
    warned = {i: Warning.make(names, *pairs[i], 1) for i in range(exchanges - indirect, exchanges)}
    direct = exchanges - indirect
    negative = {direct * (k + 1) // (no + 1) for k in range(no)}

    lines = [f"(agents {' '.join(askers + answerers)})"]
    library: dict[str, list[str]] = {e: [] for e in answerers}
    for w in warned.values():
        library[w.expert] = w.templates(rng)
        lines.append(_stereotype(names.take(), w.expert, library[w.expert]))
        lines += w.scenario_lines()
        lines += [f"(reliable {w.expert} cause)", f"(reliable {w.expert} permission)"]
    verbs = sorted(w.verb for w in warned.values())
    if verbs:
        lines.append(f"(actions {' '.join(verbs)})")
    turns: list[str] = []
    dialogue = Dialogue(name, "")
    for i, (a, e) in enumerate(pairs):
        if i in warned:
            w = warned[i]
            turns += w.turns()
            dialogue.turns += [None, (w.spec(library[e], 8), w.expected())]
            continue
        topic = names.take()
        p = f"{topic}({names.take()})"
        lines.append(f"(reliable {e} {topic})")
        act = no_answer if i in negative else yes_answer
        utterance = act(e, a, p)
        turns += [f"(turn question({a}, {e}, {p}))", f"(turn {utterance.head})"]
        spec = TurnSpec(
            speaker=e,
            utterance=utterance.head,
            candidates=_answer_candidates(e, a, p) + _template_candidates(library[e]),
            ops=[yes_answer(e, a, p), no_answer(e, a, p), inform(e, a, p),
                 accept_belief(a, e, p, topic), accept_belief(a, e, neg(p), topic)],
            initial=frozenset(utterance.pre + (f"answer_expected({e}, {a}, {p})", f"reliable({e}, {topic})")),
            bound=8,
            library=library[e],
        )
        if i in negative:
            expected = Expected(1, goal(e, bel(a, neg(p))), 2, 2)
        else:
            expected = Expected(0, goal(e, bel(a, p)), 2, 2)
        dialogue.turns += [None, (spec, expected)]
    dialogue.text = "\n".join(lines + turns) + "\n"
    return dialogue


# ---------------------------------------------------------------------------
# The bundled scenarios, as shipped
# ---------------------------------------------------------------------------


SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "implicature" / "scenarios"


def shipped(name: str) -> str:
    """The text of a bundled scenario file."""
    return (SCENARIOS / f"{name}.vgs").read_text(encoding="utf-8")


def paper_dialogues() -> list[Dialogue]:
    """computer_off, swim_waves and burnt_cakes with their published readings.

    The text is read from the shipped scenario files, so an edit to one of
    them shows as a reading the oracle refutes.
    """
    out = []
    for name, (a, e, verb, obj, harm, thing) in (
        ("computer_off", ("system", "expert", "switch", "computer_off", "damage", "hard_drive")),
        ("swim_waves", ("swimmer", "guard", "swim", "sea", "drowning", "swimmer")),
    ):
        w = Warning(a, e, verb, obj, harm, thing, [], [], [])
        target = "?h" if thing == a else thing  # swim_waves: drowning(?h)
        library = [goal(e, bel("?h", f"cause({verb}(?h, {obj}), {harm}({target}))"))]
        out.append(Dialogue(name, shipped(name), [None, (w.spec(library, 8), w.expected())]))
    a, c, p, w = "asker", "cook", "checked(cook, cakes)", "watching(cook, water)"
    utterance = inform(c, a, w)
    scenario_ops = [
        GroundOp("infer_neglect(asker)", (bel(a, w),), (bel(a, neg(p)),), a),
        GroundOp("blame(asker, cook)", (bel(a, bel(c, neg(p))),), ("blamed(cook)",), a),
    ]
    spec = TurnSpec(
        speaker=c, utterance=utterance.head, candidates=_answer_candidates(c, a, p),
        ops=[utterance, yes_answer(c, a, p), no_answer(c, a, p), inform(c, a, p),
             accept_belief(a, c, w, "watching"), accept_belief(a, c, p, "checked"),
             accept_belief(a, c, neg(p), "checked")] + scenario_ops,
        initial=frozenset(utterance.pre + (f"answer_expected({c}, {a}, {p})",
                                           "reliable(cook, watching)", "reliable(cook, checked)")),
        bound=8, avoid=["blamed(cook)"],
    )
    expected = Expected(1, goal(c, bel(a, neg(p))), 3, 2, "avoidance", "not(blamed(cook))")
    out.append(Dialogue("burnt_cakes", shipped("burnt_cakes"), [None, (spec, expected)]))
    return out


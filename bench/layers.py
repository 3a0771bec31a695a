"""Per-layer tracing for the benchmark, from outside the engine.

:class:`Tracer` replaces public functions of the engine's modules with
wrappers: the pipeline layers record spans (name, start, end, parent span,
dialogue and turn), the term functions only count calls.  A function is
replaced under the name each calling module imported it by, so the counts
are exact for calls between modules and recursion inside ``terms`` is not
counted.  :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: (module that calls it, attribute) -> span name
SPANS = {
    ("inference", "check_expectation"): "acts.check_expectation",
    ("inference", "accommodate_preconditions"): "acts.accommodate_preconditions",
    ("inference", "apply_speaker_update"): "acts.apply_speaker_update",
    ("inference", "apply_hearer_update"): "acts.apply_hearer_update",
    ("inference", "render_store"): "beliefs.render_store",
    ("inference", "candidate_goals"): "inference.candidate_goals",
    ("inference", "recognize"): "inference.recognize",
    ("inference", "efficiency_audit"): "inference.efficiency_audit",
    ("inference", "ascribe_conjunctive"): "inference.ascribe_conjunctive",
    ("inference", "ascribe_avoidance"): "inference.ascribe_avoidance",
    ("inference", "plan"): "planner.plan",
    ("inference", "complete_from"): "planner.complete_from",
    ("inference", "exclusive_states"): "planner.exclusive_states",
}

#: term functions counted where the other modules imported them
COUNTED = ("unify", "apply", "rename_apart", "render")
CALLERS = ("acts", "beliefs", "inference", "planner", "scenario")

ACT_UPDATES = (
    "acts.check_expectation",
    "acts.accommodate_preconditions",
    "acts.apply_speaker_update",
    "acts.apply_hearer_update",
)

#: recognition skips and ascription skips, by the cause the trace gives
SKIP_CAUSES = (
    "irrelevant-utterance",
    "unreachable",
    "efficiency-condition",
    "exclusiveness-condition",
    "causality-condition",
)

PLAN_CALLER = {
    "inference.recognize": "planner.plan_recognition_ms",
    "inference.efficiency_audit": "planner.plan_audit_ms",
    "inference.ascribe_conjunctive": "planner.plan_joint_ms",
}


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, dialogue, turn, turn kind,
        #:  whether the call returned None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.dialogue = ""
        self.turn = -1
        self.turn_kind = ""
        self.store_sizes: list[int] = []
        #: dialogue -> factor to the reference speed (see run.speed_scale)
        self.scale: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self.dialogue, self.turn, self.turn_kind, False]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                record[7] = result is None
                return result
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for (mod, attr), name in SPANS.items():
            module = sys.modules[f"implicature.{mod}"]
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        for mod in CALLERS:
            module = sys.modules[f"implicature.{mod}"]
            for attr in COUNTED:
                if hasattr(module, attr):
                    self._patch(module, attr, self.counted(f"terms.{attr}_calls", getattr(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        self.spans.clear()
        self.counts.clear()
        self.store_sizes.clear()
        self.scale.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "dialogue", "turn", "turn_kind")
        with path.open("w", encoding="utf-8") as out:
            json.dump([dict(zip(keys, s[:7])) for s in self.spans], out)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self) -> dict[str, float]:
        """Milliseconds (at the reference speed) and counts summed over the
        run, by layer metric."""
        out: dict[str, float] = defaultdict(float)
        own = self.self_times()
        for s, self_time in zip(self.spans, own):
            scale = self.scale.get(s[4], 1.0)
            name, duration, self_time = s[0], (s[2] - s[1]) * 1000 * scale, self_time * scale
            parent = self.spans[s[3]][0] if s[3] >= 0 else ""
            if name in ACT_UPDATES:
                out["acts.update_ms"] += duration
            elif name == "beliefs.render_store":
                out["beliefs.snapshot_ms"] += duration
            elif name == "inference.recognize":
                out["inference.recognize_ms"] += duration
                out["inference.recognize_self_ms"] += self_time * 1000
            elif name == "inference.efficiency_audit":
                out["inference.audit_ms"] += duration
            elif name == "inference.ascribe_conjunctive":
                out["inference.conjunctive_ms"] += duration
                out["inference.conjunctive_self_ms"] += self_time * 1000
                out["inference.ascription_ms"] += duration
            elif name == "inference.ascribe_avoidance":
                out["inference.avoidance_ms"] += duration
                out["inference.ascription_ms"] += duration
            elif name == "planner.plan":
                out["planner.plan_calls"] += 1
                out["planner.plan_ms"] += duration
                out[PLAN_CALLER[parent]] += duration
                if s[7]:
                    out["planner.plan_none_calls"] += 1
                    out["planner.plan_none_ms"] += duration
            elif name == "planner.complete_from":
                out["planner.complete_from_calls"] += 1
                out["planner.complete_from_ms"] += duration
            elif name == "planner.exclusive_states":
                out["planner.exclusive_states_ms"] += duration
            elif name in ("scenario.load", "scenario.setup", "scenario.emit_json", "inference.infer"):
                out[f"{name}_ms"] += duration
        return out

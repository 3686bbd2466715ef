"""Search instrumentation: node/leaf counters, measure-ledger assertions,
and JSON-lines streaming.

The ledger is the runtime face of the analysis: every branching step files
an entry with the analysis-claimed per-branch drops and the observed ones.  A
child that gets settled outright (verdict, or nothing left to branch on) is
a search-tree leaf and is exempt: the bounds promise progress per surviving
branch, and a resolved branch has made all the progress there is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


class LedgerViolation(AssertionError):
    """An observed measure drop fell short of the analysis-claimed bound."""


def _plain(value):
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class LedgerEntry:
    step: str
    child: int
    claimed: dict
    observed: dict
    passed: bool
    resolved: bool = False
    note: str = ""

    def to_record(self) -> dict:
        return {
            "kind": "ledger",
            "step": self.step,
            "child": self.child,
            "claimed": {k: _plain(v) for k, v in self.claimed.items()},
            "observed": {k: _plain(v) for k, v in self.observed.items()},
            "passed": self.passed,
            "resolved": self.resolved,
            "note": self.note,
        }


class Telemetry:
    """Collects counters and ledger entries, and streams JSONL records.

    strict=True raises LedgerViolation on any failed, non-exempt entry;
    solvers run strict by default because a violation means either an
    implementation bug or a broken analysis claim, and neither should pass
    silently.
    """

    def __init__(self, sink=None, strict: bool = True):
        self.sink = sink
        self.strict = strict
        self.nodes = 0
        self.leaves = 0
        self.max_depth = 0
        self.ledger: list[LedgerEntry] = []
        self.violations = 0

    # -- counters ------------------------------------------------------------

    def node(self, depth: int, kind: str, detail: dict | None = None):
        self.nodes += 1
        self.max_depth = max(self.max_depth, depth)
        self.event({"kind": "node", "depth": depth, "node": kind, **(detail or {})})

    def leaf(self, depth: int, kind: str, detail: dict | None = None):
        self.leaves += 1
        self.max_depth = max(self.max_depth, depth)
        self.event({"kind": "leaf", "depth": depth, "node": kind, **(detail or {})})

    # -- ledger ----------------------------------------------------------------

    def check(
        self,
        step: str,
        child: int,
        claimed: dict,
        observed: dict,
        passed: bool,
        resolved: bool = False,
        note: str = "",
    ):
        entry = LedgerEntry(step, child, claimed, observed, passed, resolved, note)
        self.ledger.append(entry)
        self.event(entry.to_record())
        if not passed and not resolved:
            self.violations += 1
            if self.strict:
                raise LedgerViolation(
                    f"{step} child {child}: claimed {claimed}, observed {observed} ({note})"
                )
        return entry

    def event(self, record: dict):
        """Stream one JSON-lines record to the sink, if there is one."""
        if self.sink is not None:
            self.sink.write(json.dumps(record, separators=(",", ":")) + "\n")

    # -- summaries --------------------------------------------------------------

    def ledger_summary(self) -> dict:
        by_step: dict[str, dict] = {}
        for e in self.ledger:
            slot = by_step.setdefault(
                e.step, {"entries": 0, "passed": 0, "resolved": 0, "failed": 0}
            )
            slot["entries"] += 1
            if e.resolved:
                slot["resolved"] += 1
            elif e.passed:
                slot["passed"] += 1
            else:
                slot["failed"] += 1
        return by_step

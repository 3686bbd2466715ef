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
from fractions import Fraction


class LedgerViolation(AssertionError):
    """An observed measure drop fell short of the analysis-claimed bound."""


def _fraction_pair(value):
    """``json.dumps``'s hook for what it cannot encode: a Fraction becomes
    [numerator, denominator]."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class Ledger:
    """What the telemetry keeps of its ledger entries: a tally per step, in
    order of first entry.  ``len`` is the number of entries filed; the
    entries themselves are only streamed, so the ledger does not grow with
    the search tree."""

    def __init__(self):
        self.steps: dict[str, dict] = {}
        self.entries = 0

    def __len__(self) -> int:
        return self.entries


class Telemetry:
    """Keeps counters and ledger tallies, and streams JSONL records.

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
        self.ledger = Ledger()

    # -- counters ------------------------------------------------------------

    def node(self, depth: int, kind: str, detail: dict | None = None):
        self.nodes += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.sink is not None:
            self.event({"kind": "node", "depth": depth, "node": kind, **(detail or {})})

    def leaf(self, depth: int, kind: str, detail: dict | None = None):
        self.leaves += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.sink is not None:
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
        self.ledger.entries += 1
        slot = self.ledger.steps.setdefault(
            step, {"entries": 0, "passed": 0, "resolved": 0, "failed": 0}
        )
        slot["entries"] += 1
        slot["resolved" if resolved else "passed" if passed else "failed"] += 1
        if self.sink is not None:
            self.event(
                {
                    "kind": "ledger",
                    "step": step,
                    "child": child,
                    "claimed": claimed,
                    "observed": observed,
                    "passed": passed,
                    "resolved": resolved,
                    "note": note,
                }
            )
        if self.strict and not passed and not resolved:
            raise LedgerViolation(
                f"{step} child {child}: claimed {claimed}, observed {observed} ({note})"
            )

    def event(self, record: dict):
        """Stream one JSON-lines record to the sink, if there is one."""
        if self.sink is not None:
            line = json.dumps(record, separators=(",", ":"), default=_fraction_pair)
            self.sink.write(line + "\n")

    # -- summaries --------------------------------------------------------------

    def ledger_summary(self) -> dict:
        """{step: {"entries", "passed", "resolved", "failed"}}, in order of
        each step's first entry."""
        return {step: dict(slot) for step, slot in self.ledger.steps.items()}

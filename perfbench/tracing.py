"""Spans around xparity's public layer functions, installed from outside.

The solvers bind names at import (``occ2.reduce_formula``,
``docc.variable_branch`` and so on), so a function is wrapped by replacing
every module attribute of the xparity package that holds it, including
re-exports.  ``Tracer.uninstall`` puts every original back.

Each call becomes a span (parent span, layer name, start and end in ns)
kept in flat arrays and written out by ``Tracer.dump``.  Self time is a
span's duration minus the time its child spans cover; the time observers
spend reading results is charged to ``trace.observe`` instead of the
caller, so self times plus the loop's unattributed remainder add up to the
traced wall time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

RULE_IDS = tuple(f"R{i}" for i in range(1, 14))
STEP_KINDS = ("step1", "step2", "step3_1", "step3_2", "step4", "step5_1", "step5_2", "step6")
# The cut fraction the occ2 analysis needs from each bisection (1/6 + eps).
CUT_BOUND = 1.0 / 6.0


class LayerStats:
    """Counters read from what the wrapped functions take and return."""

    def __init__(self):
        self.reducer_in_length = 0
        self.reducer_settled = 0
        self.firings = dict.fromkeys(RULE_IDS, 0)
        self.cut_fractions: list[float] = []
        self.steps = dict.fromkeys(STEP_KINDS, 0)
        self.children = 0

    def reduce(self, args, outcome):
        self.reducer_in_length += args[0].length
        self.reducer_settled += outcome.settled
        for rule_id, _ in outcome.trace:
            self.firings[rule_id] += 1

    def bisect(self, args, partition):
        self.cut_fractions.append(len(partition.cut) / len(args[0].vertices))

    def classify(self, args, step):
        self.steps[step.kind] += 1

    def branch(self, args, branch_set):
        self.children += len(branch_set.children)


def layer_table(xp):
    """(span name, owner, attribute, observer name) for every traced
    function; ``xp`` maps module names to the imported xparity modules."""
    return [
        ("dimacs.parse", xp["dimacs"], "parse_dimacs", None),
        ("occ2.solve_occ2", xp["occ2"], "solve_occ2", None),
        ("length.solve_length", xp["length"], "solve_length", None),
        ("docc", xp["docc"], "solve_positive_fib", None),
        ("reducer", xp["reducer"], "reduce_formula", "reduce"),
        ("occ2.build_multigraph", xp["occ2"], "build_multigraph", None),
        ("occ2.bisect_multigraph", xp["occ2"], "bisect_multigraph", "bisect"),
        ("occ2.crossing_edges", xp["occ2"], "crossing_edges", None),
        ("occ2.solve_2cnf", xp["occ2"], "solve_2cnf", None),
        ("occ2.eliminate_self_loops", xp["occ2"], "eliminate_self_loops", None),
        ("length.classify_step", xp["length"], "classify_step", "classify"),
        ("length.measure_mu", xp["length"], "measure_mu", None),
        ("branching.clause_branch", xp["branching"], "clause_branch", "branch"),
        ("branching.simple_branch", xp["branching"], "simple_branch", "branch"),
        ("branching.variable_branch", xp["branching"], "variable_branch", "branch"),
        ("formula.assign_literal", xp["formula"], "assign_literal", None),
        ("formula.falsify_clause", xp["formula"], "falsify_clause", None),
        ("formula.flip_variable", xp["formula"], "flip_variable", None),
        ("formula.merge_variables", xp["formula"], "merge_variables", None),
        ("formula.remove_variable", xp["formula"], "remove_variable", None),
        ("oracle.brute_parity", xp["oracle"], "brute_parity", None),
        ("telemetry.node", xp["telemetry"].Telemetry, "node", None),
        ("telemetry.leaf", xp["telemetry"].Telemetry, "leaf", None),
        ("telemetry.check", xp["telemetry"].Telemetry, "check", None),
    ]


OBSERVE = "trace.observe"


class Tracer:
    """Wrappers for every function in ``table`` (see ``layer_table``),
    switched on by ``install`` and off by ``uninstall``; spans and counters
    accumulate across installs."""

    def __init__(self, table):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.stats = LayerStats()
        self._observe_idx = self._name_index(OBSERVE)
        self._patches = self._prepare(table)

    def _name_index(self, label: str) -> int:
        self.names.append(label)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def wrap(self, label: str, fn, observer=None):
        idx = self._name_index(label)
        observe_idx = self._observe_idx
        clock = time.perf_counter_ns
        stack, parent, name, start, end = self.stack, self.parent, self.name, self.start, self.end
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1][0] if stack else -1)
            name.append(idx)
            start.append(0)
            end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid], end[sid] = t0, t1
                calls[idx] += 1
                self_ns[idx] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if observer is not None:
                observer(args, result)
                t2 = clock()
                self_ns[observe_idx] += t2 - t1
                calls[observe_idx] += 1
                if stack:
                    stack[-1][1] += t2 - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def _prepare(self, table):
        """(holder, attribute, original, wrapper) for every place the
        xparity package binds a listed function."""
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "xparity" or n.startswith("xparity.")
        ]
        patches = []
        for label, owner, attr, observer in table:
            original = owner.__dict__[attr]
            traced = self.wrap(label, original, getattr(self.stats, observer) if observer else None)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    patches.append((holder, attr, original, traced))
        return patches

    def install(self):
        for holder, attr, _, traced in self._patches:
            setattr(holder, attr, traced)

    def uninstall(self):
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def call_count(self, label: str) -> int:
        return self.calls[self.names.index(label)]

    def dump(self, path: str):
        """Write the spans: a JSON header line, then the int64 arrays
        parent, name, start_ns, end_ns, each ``count`` entries long."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["parent", "name", "start_ns", "end_ns"], "dtype": "int64"}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)

"""Pinned search trees: parity, tree nodes and leaves, ledger entries,
R1-R13 firing counts and the sha256 of the JSON-lines telemetry stream of
nine fixed instances, one or more per solver route.

A change meant to keep every search tree (a faster rule, a cheaper
transform, a scoped rescan) must leave these figures as they are.  A change
that alters a tree updates them and says why.
"""

import hashlib
import io
import json
import random

import pytest

from test_occ2 import cubic_edge_cover
from test_reducer_oracle import signed_cycles
from xparity import docc, length, occ2, reducer
from xparity.docc import solve_docc, solve_positive_fib
from xparity.generators import gen_random_docc
from xparity.length import solve_length
from xparity.occ2 import solve_occ2
from xparity.telemetry import Telemetry
from xparity.verify import circulant_triples, positive_3regular

CASES = {
    "occ2 cubic edge cover, 40 vertices": (
        solve_occ2, lambda: cubic_edge_cover(random.Random(1), 40)),
    "occ2 signed 2-CNF cycles": (
        solve_occ2, lambda: signed_cycles(random.Random(23), [12, 20, 31, 16])),
    "length 4-regular 3-CNF (step 1)": (
        solve_length, lambda: gen_random_docc(24, 4, 3, 3, seed=3)),
    "length mixed 3-regular 3-CNF (step 3)": (
        solve_length, lambda: gen_random_docc(42, 3, 3, 3, seed=3)),
    "length positive 3-regular 3-CNF (steps 4, 5)": (
        solve_length, lambda: positive_3regular(36, 1)),
    "length circulant triples (step 5.2)": (
        solve_length, lambda: circulant_triples(24)),
    "docc mixed 3-occ": (
        solve_docc, lambda: gen_random_docc(30, 3, 2, 4, seed=14)),
    "positive-fib positive 3-regular": (
        solve_positive_fib, lambda: positive_3regular(24, 2)),
    "positive-fib positive 4-occ (every leaf kind)": (
        solve_positive_fib, lambda: gen_random_docc(20, 4, 2, 5, seed=1, polarity="positive")),
}

# parity, nodes, leaves, ledger entries, {rule id: firings} (rules that fire)
PINNED = {
    "occ2 cubic edge cover, 40 vertices":
        (0, 22, 23, 24, {"R4": 148, "R5": 154, "R6": 17, "R7": 189, "R13": 1}),
    "occ2 signed 2-CNF cycles":
        (1, 0, 5, 0, {}),
    "length 4-regular 3-CNF (step 1)":
        (0, 29, 30, 114, {"R1": 2, "R4": 69, "R5": 114, "R6": 13, "R7": 94, "R8": 7,
                          "R9": 3, "R10": 10, "R13": 2}),
    "length mixed 3-regular 3-CNF (step 3)":
        (0, 30, 31, 95, {"R4": 52, "R5": 76, "R6": 26, "R7": 122, "R8": 2, "R13": 1}),
    "length positive 3-regular 3-CNF (steps 4, 5)":
        (1, 31, 32, 115, {"R4": 201, "R5": 163, "R6": 19, "R7": 141, "R8": 8}),
    "length circulant triples (step 5.2)":
        (0, 25, 27, 127, {"R4": 49, "R5": 40, "R7": 42}),
    "docc mixed 3-occ":
        (0, 12, 19, 30, {"R4": 25, "R5": 55, "R6": 7, "R7": 61}),
    "positive-fib positive 3-regular":
        (0, 933, 795, 0, {}),
    "positive-fib positive 4-occ (every leaf kind)":
        (1, 224, 233, 0, {}),
}

# sha256 of each case's telemetry stream: every node, leaf, ledger and
# bisection record, in order
STREAM_SHA256 = {
    "occ2 cubic edge cover, 40 vertices":
        "4bd5fee688e14ea8348bba76be716d6c893c0ead1ad6fae6c209fb7bab4f0c95",
    "occ2 signed 2-CNF cycles":
        "8f62c7d0d13eb7aa7718737cbbdb9c5e77085e03bcd4fad16674dbda9b8a9aa7",
    "length 4-regular 3-CNF (step 1)":
        "32b090c399f7d6fe3024f92f75e68b2d6e653eeafec7337228fc6190de99f739",
    "length mixed 3-regular 3-CNF (step 3)":
        "53d82ce35882fefdd50fe9fc9a3a09f5fe6463ac9654cb533fa1fa286cbb8aa6",
    "length positive 3-regular 3-CNF (steps 4, 5)":
        "9dbde75c85531d09091a8d3317ea57a181b4aba6aa9a5a04adbdcd3b24cfef21",
    "length circulant triples (step 5.2)":
        "e34e9dab6a03b2010eaf16ace9e3fbe02941e322ddd3ad08d549652a16245854",
    "docc mixed 3-occ":
        "b58c3e0ec3cd155aa5e342826ca0175e545005713cf44694a5b101da16b52305",
    "positive-fib positive 3-regular":
        "313bc19e18d08a0d050bfa2fdc1c3d42af6cefde12e656748b14c243b5f13cdf",
    "positive-fib positive 4-occ (every leaf kind)":
        "cdb9b1cd2e59659781aca4b94b2f662dca59c7a3ca26a19b9d9ff11022081025",
}


def firing_counts(monkeypatch) -> dict:
    counts = {}
    reduce = reducer.reduce_formula

    def counted(phi, **kw):
        out = reduce(phi, **kw)
        for rule_id, _ in out.trace:
            counts[rule_id] = counts.get(rule_id, 0) + 1
        return out

    for mod in (occ2, length, docc):
        monkeypatch.setattr(mod, "reduce_formula", counted)
    return counts


@pytest.mark.parametrize("name", list(CASES))
def test_search_tree_is_pinned(monkeypatch, name):
    solve, make = CASES[name]
    counts = firing_counts(monkeypatch)
    sink = io.StringIO()
    tel = Telemetry(sink=sink)
    parity = solve(make(), tel)
    got = (parity, tel.nodes, tel.leaves, len(tel.ledger), counts)
    assert got == PINNED[name]
    assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == STREAM_SHA256[name]


def test_pinned_cases_reach_their_steps(monkeypatch):
    kinds = set()
    classify = length.classify_step

    def recorded(phi):
        step = classify(phi)
        kinds.add(step.kind)
        return step

    monkeypatch.setattr(length, "classify_step", recorded)
    for name, (solve, make) in CASES.items():
        if solve is solve_length:
            solve(make(), Telemetry())
    assert {"step1", "step3_1", "step4", "step5_2"} <= kinds, kinds


def test_positive_fib_pin_reaches_every_leaf_kind():
    sink = io.StringIO()
    solve, make = CASES["positive-fib positive 4-occ (every leaf kind)"]
    solve(make(), Telemetry(sink=sink))
    kinds = {json.loads(line)["node"] for line in sink.getvalue().splitlines()}
    assert kinds == {"fib.branch", "fib.falsified", "fib.trivial", "fib.free-variable"}

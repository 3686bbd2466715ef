"""The solvers against ``perfbench/refcount.py`` at the scale where their
machinery runs, past the brute-force cap: ``solve_occ2`` on long signed
2-CNF cycles, which the transfer-matrix walk settles, and cubic edge
covers, which bisect (at four bisection seeds, and, at n_eps = 2,
rebisect below the root); ``solve_length`` and ``solve_docc`` on 36-52
variable families that take ``solve_length`` through steps 1 to 5.2;
``solve_positive_fib`` on positive 30-40 variable formulas.

refcount counts models modulo 2 by variable elimination over GF(2) and
shares no code with the solvers; it is imported read-only from the
benchmark directory.  It needs numpy (the ``test`` extra).
"""

import io
import json
import os
import random
import sys

import pytest

from test_cycle_walk import cycle_clauses
from test_occ2 import cubic_edge_cover
from xparity import occ2
from xparity.dimacs import parse_dimacs
from xparity.docc import solve_docc, solve_positive_fib
from xparity.formula import Formula
from xparity.generators import gen_random_docc
from xparity.length import solve_length
from xparity.occ2 import Occ2Config, solve_occ2
from xparity.reducer import clause_components
from xparity.telemetry import Telemetry
from xparity.verify import circulant_triples, positive_3regular

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)
import refcount  # noqa: E402
from workloads import make_instance, regular_clauses  # noqa: E402


def reference(phi: Formula) -> int:
    assert phi.variables == set(range(1, phi.n + 1))
    return refcount.cnf_parity(phi.n, phi.clauses)


def signed_cycle(rng: random.Random, first: int, k: int, odd: bool) -> list:
    """Clauses of a randomly signed cycle over first..first+k-1 in random
    order, redrawn until its parity is the one asked for."""
    labels = list(range(first, first + k))
    rng.shuffle(labels)
    while True:
        clauses = cycle_clauses(rng, labels)
        if refcount.cycle_parity(clauses) == odd:
            return clauses


def signed_cycle_set(seed: int) -> Formula:
    """11 to 400 variables in cycles of at least 11 (shorter ones the
    reducer settles by brute force).  Every cycle is odd except, for odd
    seeds, the last, so both verdicts occur."""
    rng = random.Random(seed)
    total = rng.randint(11, 400)
    lengths = []
    while total - sum(lengths) >= 22:
        lengths.append(rng.randint(11, total - sum(lengths) - 11))
    lengths.append(total - sum(lengths))
    clauses, first = [], 1
    for i, k in enumerate(lengths):
        odd = not (seed % 2 and i == len(lengths) - 1)
        clauses += signed_cycle(rng, first, k, odd)
        first += k
    return Formula(range(1, first), clauses)


@pytest.mark.parametrize("seed", range(24))
def test_signed_cycle_sets(seed):
    phi = signed_cycle_set(seed)
    want = reference(phi)
    assert want == 1 - seed % 2
    assert solve_occ2(phi, Telemetry(strict=True)) == want


CUBIC_COVERS = [(40, 0), (40, 1), (60, 2), (60, 3), (80, 4)]


@pytest.mark.parametrize(
    "vertices, seed, n_eps",
    [(v, s, 16) for v, s in CUBIC_COVERS] + [(v, s, 2) for v, s in CUBIC_COVERS],
    ids=[f"{v}-{s}" for v, s in CUBIC_COVERS] + [f"{v}-{s}-n_eps2" for v, s in CUBIC_COVERS],
)
def test_cubic_edge_covers(vertices, seed, n_eps):
    # at n_eps = 2 the larger covers rebisect below the root, so the
    # rebisection route is checked against the reference count too
    phi = cubic_edge_cover(random.Random(seed), vertices)
    sink = io.StringIO()
    tel = Telemetry(sink=sink, strict=True)
    assert solve_occ2(phi, tel, Occ2Config(n_eps=n_eps)) == reference(phi)
    if n_eps == 2 and vertices >= 60:
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert any(r["kind"] == "rebisect" and r["depth"] > 0 for r in events)


@pytest.mark.parametrize(
    "vertices, seed, bisect_seed",
    [(v, s, b) for v, s in CUBIC_COVERS for b in (1, 2, 3)],
    ids=[f"{v}-{s}-seed{b}" for v, s in CUBIC_COVERS for b in (1, 2, 3)],
)
def test_cubic_edge_covers_at_other_bisection_seeds(vertices, seed, bisect_seed):
    # another seed draws other Kernighan-Lin starts, so other cuts and trees
    phi = cubic_edge_cover(random.Random(seed), vertices)
    assert solve_occ2(phi, Telemetry(strict=True), Occ2Config(seed=bisect_seed)) == reference(phi)


@pytest.mark.parametrize("index", [3, 24])
def test_base_solve_splits_into_odd_components(index, monkeypatch):
    # instances 3 and 24 of the seed-3 occ2-cubic pool reach a base-solver
    # formula that splits into components, each of them odd, at n_eps = 16
    splits = []
    base = occ2._base_solve

    def counted(psi, tel, depth):
        parity = base(psi, tel, depth)
        if psi.m3 and len(clause_components(psi)) > 1 and parity == 1:
            splits.append(n_eps)
        return parity

    monkeypatch.setattr(occ2, "_base_solve", counted)
    phi = parse_dimacs(make_instance("occ2-cubic", 3, index).dimacs())
    for n_eps in (16, 2):
        assert solve_occ2(phi, Telemetry(strict=True), Occ2Config(n_eps=n_eps)) == reference(phi)
    assert 16 in splits


def signed_4regular(n: int, seed: int) -> Formula:
    return Formula(range(1, n + 1), regular_clauses(random.Random(seed), n, 4, 3, True))


# name -> (formula, the length step solve_length is to reach on it)
LENGTH_CASES = {
    **{f"circulant-{n}": (lambda n=n: circulant_triples(n), "step5_2") for n in range(40, 53)},
    **{f"positive-3regular-42-{s}": (lambda s=s: positive_3regular(42, s), "step4")
       for s in range(4)},
    **{f"signed-4regular-36-{s}": (lambda s=s: signed_4regular(36, s), "step3_1") for s in range(4)},
    # n = 48 takes steps 1 to 3.2 on every seed
    **{f"signed-4regular-48-{s}": (lambda s=s: signed_4regular(48, s), "step3_2") for s in range(4)},
    **{f"random-docc-40-{s}": (lambda s=s: gen_random_docc(40, 3, 2, 4, seed=s), "step2")
       for s in range(4)},
}


@pytest.mark.parametrize("name", list(LENGTH_CASES))
def test_solve_length(name):
    make, step = LENGTH_CASES[name]
    phi = make()
    tel = Telemetry(strict=True)
    assert solve_length(phi, tel) == reference(phi)
    assert f"len.{step}" in tel.ledger.steps


@pytest.mark.parametrize("name", list(LENGTH_CASES))
def test_solve_docc(name):
    phi = LENGTH_CASES[name][0]()
    assert solve_docc(phi, Telemetry(strict=True)) == reference(phi)


# positive formulas past the brute-force cap, for the clause-int search
FIB_CASES = {
    **{f"positive-3regular-{n}-{s}": (lambda n=n, s=s: positive_3regular(n, s))
       for n in (30, 36) for s in range(3)},
    **{f"random-positive-4occ-40-{s}":
       (lambda s=s: gen_random_docc(40, 4, 2, 5, seed=s, polarity="positive")) for s in range(3)},
}


@pytest.mark.parametrize("name", list(FIB_CASES))
def test_solve_positive_fib(name):
    phi = FIB_CASES[name]()
    assert solve_positive_fib(phi, Telemetry(strict=True)) == reference(phi)

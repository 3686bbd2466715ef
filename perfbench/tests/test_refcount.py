import random

import pytest

from refcount import ReferenceTooWide, cnf_parity, cycle_parity
from workloads import signed_cycle
from xparity import Formula, brute_parity


def _random_cnf(rng):
    n = rng.randint(1, 12)
    clauses = [
        [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 16))
    ]
    if rng.random() < 0.05:
        clauses.append([])
    return n, clauses


def test_cnf_parity_matches_brute_force():
    rng = random.Random(2024)
    for _ in range(1500):
        n, clauses = _random_cnf(rng)
        assert cnf_parity(n, clauses) == brute_parity(Formula(range(1, n + 1), clauses))


def test_cnf_parity_matches_brute_force_on_bounded_occurrence_formulas():
    from xparity.generators import gen_random_docc

    for seed in range(200):
        phi = gen_random_docc(18, 3, 2, 4, seed=seed, polarity="positive" if seed % 2 else "mixed")
        assert cnf_parity(phi.n, [list(c) for c in phi.clauses]) == brute_parity(phi)


def test_cycle_parity_matches_brute_force():
    rng = random.Random(7)
    for k in range(3, 15):
        for parity in (0, 1):
            links = signed_cycle(rng, 1, k, parity)
            phi = Formula(range(1, k + 1), [list(link) for link in links])
            assert brute_parity(phi) == parity == cycle_parity(links)


def test_too_wide_elimination_is_refused():
    n = 30
    clauses = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    with pytest.raises(ReferenceTooWide):
        cnf_parity(n, clauses)

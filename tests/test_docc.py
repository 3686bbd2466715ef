import random

import pytest

from xparity.docc import (
    NotPositive,
    flip_negative_variables,
    is_positive,
    reduce_to_positive,
    solve_docc,
    solve_positive_fib,
    to_dual_system,
)
from xparity.factors import fibonacci_constant
from xparity.formula import Formula
from xparity.generators import gen_random_docc
from xparity.occ2 import solve_occ2
from xparity.oracle import SetSystem, brute_parity, count_hitting_sets, count_set_covers
from xparity.telemetry import Telemetry


def test_already_positive_is_single_leaf():
    phi = gen_random_docc(8, 3, 1, 3, seed=2, polarity="positive")
    tel = Telemetry()
    red = reduce_to_positive(phi, tel)
    assert tel.nodes == 0
    total = red.base_parity
    for leaf in red.leaves:
        assert is_positive(leaf)
        total ^= brute_parity(leaf)
    assert total == brute_parity(phi)


def test_mixed_two_clause_example():
    phi = Formula([1, 2, 3], [[1, 2], [-1, 3]])
    red = reduce_to_positive(phi)
    total = red.base_parity
    for leaf in red.leaves:
        total ^= brute_parity(leaf)
    assert total == brute_parity(phi)


def test_reduce_to_positive_xor_fuzz():
    for seed in range(400):
        rng = random.Random(seed)
        phi = gen_random_docc(rng.randint(3, 12), rng.randint(2, 4), 1, 4, seed=seed)
        tel = Telemetry(strict=True)
        red = reduce_to_positive(phi, tel)
        total = red.base_parity
        for leaf in red.leaves:
            assert is_positive(leaf)
            total ^= brute_parity(leaf)
        assert total == brute_parity(phi), seed
        assert tel.violations == 0


def test_flip_negative_variables():
    phi = Formula([1, 2], [[-1, 2], [-1, -2]])
    flipped, which = flip_negative_variables(phi)
    assert which == (1,)
    assert all(any(l == 1 for l in c) or 1 not in {abs(x) for x in c} for c in flipped.clauses)


def test_single_positive_clause_parity():
    phi = Formula([1, 2, 3], [[1, 2, 3]])
    assert solve_positive_fib(phi) == 1  # 7 models
    assert brute_parity(phi) == 1


def test_fib_requires_positive():
    with pytest.raises(NotPositive):
        solve_positive_fib(Formula([1], [[-1]]))


def test_fib_oracle_fuzz_and_leaf_growth():
    for d in (2, 3):
        bound = fibonacci_constant(d)
        for seed in range(200):
            phi = gen_random_docc(4 + seed % 9, d, 1, 4, seed=seed, polarity="positive")
            tel = Telemetry(strict=True)
            assert solve_positive_fib(phi, d, tel) == brute_parity(phi), (d, seed)
            if phi.m:
                assert tel.leaves <= 40 * bound ** phi.m


def test_dual_system_shape():
    phi = Formula([1, 2, 3], [[1, 2], [2, 3]])
    dual = to_dual_system(phi)
    assert dual.universe == frozenset({0, 1})
    assert sorted(dual.family, key=sorted) == [
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({1}),
    ]
    # d-occ input: every dual set has size at most d
    for seed in range(100):
        d = 2 + seed % 3
        psi = gen_random_docc(8, d, 1, 3, seed=seed, polarity="positive")
        assert all(len(s) <= d for s in to_dual_system(psi).family)


def test_chain_consistency_per_leaf():
    for seed in range(200):
        phi = gen_random_docc(4 + seed % 8, 3, 1, 3, seed=seed, polarity="positive")
        models = brute_parity(phi)
        primal = SetSystem(phi.variables, [frozenset(c) for c in phi.clauses])
        hs_primal = count_hitting_sets(primal) & 1
        dual = to_dual_system(phi)
        sc_dual = count_set_covers(dual) & 1
        hs_dual = count_hitting_sets(dual) & 1
        assert models == hs_primal == sc_dual == hs_dual, seed


def test_solve_docc_three_way_cross_check():
    for seed in range(400):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        phi = gen_random_docc(rng.randint(3, 12), d, 1, 4, seed=seed)
        want = brute_parity(phi)
        assert solve_docc(phi, d) == want, seed
    for seed in range(200):
        phi = gen_random_docc(4 + seed % 9, 3, 1, 3, seed=seed, polarity="positive")
        assert solve_docc(phi, 3) == solve_positive_fib(phi, 3) == brute_parity(phi), seed


def test_solve_docc_agrees_with_occ2_at_d2():
    for seed in range(200):
        phi = gen_random_docc(4 + seed % 10, 2, 1, 3, seed=seed)
        assert solve_docc(phi, 2) == solve_occ2(phi), seed


def test_docc_rejects_degree_overflow():
    phi = Formula([1, 2], [[1, 2], [1], [-1]])
    with pytest.raises(ValueError):
        solve_docc(phi, 2)

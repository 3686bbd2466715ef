import itertools
import random

import pytest

from xparity.formula import Formula
from xparity.oracle import (
    CapExceeded,
    SetSystem,
    SimpleGraph,
    brute_count,
    brute_parity,
    count_edge_covers,
    count_hitting_sets,
    count_set_covers,
    count_vertex_covers,
    inclusion_exclusion_edge_covers,
)


def naive_count(phi):
    order = sorted(phi.variables)
    total = 0
    for bits in itertools.product([0, 1], repeat=len(order)):
        assignment = dict(zip(order, bits))
        ok = True
        for clause in phi.clauses:
            if not any(
                assignment[abs(l)] == (1 if l > 0 else 0) for l in clause
            ):
                ok = False
                break
        if ok:
            total += 1
    return total


def test_brute_count_examples():
    assert brute_count(Formula([1, 2], [[1, 2]])) == 3
    assert brute_count(Formula([1, 2], [[1]])) == 2
    assert brute_count(Formula([], [])) == 1
    assert brute_count(Formula([1], [[]])) == 0


def test_brute_parity_examples():
    assert brute_parity(Formula([1, 2], [[1, 2]])) == 1
    assert brute_parity(Formula([1, 2], [[1]])) == 0
    # triangle of 2-clauses has 4 models
    tri = Formula([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
    assert brute_count(tri) == 4
    assert brute_parity(tri) == 0


def test_brute_count_matches_naive_enumeration():
    rng = random.Random(1)
    for _ in range(80):
        n = rng.randint(0, 7)
        clauses = []
        for _ in range(rng.randint(0, 8)):
            k = rng.randint(0, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            clauses.append([rng.choice([v, -v]) for v in vs])
        phi = Formula(range(1, n + 1), clauses)
        assert brute_count(phi) == naive_count(phi)


def test_cap_refusal():
    phi = Formula(range(1, 30), [])
    with pytest.raises(CapExceeded):
        brute_count(phi)


def test_hitting_and_cover_examples():
    s = SetSystem([1, 2], [{1}, {1, 2}])
    assert count_hitting_sets(s) == 2
    assert count_set_covers(s) == 2
    empty = SetSystem([], [])
    assert count_hitting_sets(empty) == 1
    assert count_set_covers(empty) == 1
    with_empty = SetSystem([1], [frozenset()])
    assert count_hitting_sets(with_empty) == 0


def naive_hitting_sets(system):
    u = sorted(system.universe)
    total = 0
    for r in range(len(u) + 1):
        for h in itertools.combinations(u, r):
            hs = set(h)
            if all(hs & s for s in system.family):
                total += 1
    return total


def naive_set_covers(system):
    fam = system.family
    total = 0
    for r in range(len(fam) + 1):
        for picked in itertools.combinations(range(len(fam)), r):
            union = set()
            for j in picked:
                union |= fam[j]
            if union == set(system.universe):
                total += 1
    return total


def test_counts_match_naive():
    rng = random.Random(2)
    for _ in range(40):
        nu = rng.randint(0, 6)
        u = list(range(nu))
        fam = [
            frozenset(rng.sample(u, rng.randint(0, nu))) for _ in range(rng.randint(0, 5))
        ]
        s = SetSystem(u, fam)
        assert count_hitting_sets(s) == naive_hitting_sets(s)
        assert count_set_covers(s) == naive_set_covers(s)


def triangle():
    return SimpleGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


def test_vertex_edge_cover_examples():
    g = triangle()
    assert count_vertex_covers(g) == 4
    assert count_edge_covers(g) == 4
    single = SimpleGraph([1, 2], [(1, 2)])
    assert count_vertex_covers(single) == 3
    assert count_edge_covers(single) == 1
    isolated = SimpleGraph([1, 2, 3], [(1, 2)])
    assert count_edge_covers(isolated) == 0


def test_inclusion_exclusion_examples():
    assert inclusion_exclusion_edge_covers(triangle()) == 4
    single = SimpleGraph([1, 2], [(1, 2)])
    assert inclusion_exclusion_edge_covers(single) == 1
    nothing = SimpleGraph([], [])
    assert inclusion_exclusion_edge_covers(nothing) == 1


def random_graph(rng, max_n=8):
    n = rng.randint(0, max_n)
    vs = list(range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                edges.append((u, v))
    return SimpleGraph(vs, edges)


def test_inclusion_exclusion_matches_enumeration():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng)
        assert inclusion_exclusion_edge_covers(g) == count_edge_covers(g)


def test_vc_ec_parity_identity():
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        g = random_graph(rng)
        if any(g.degree(v) == 0 for v in g.vertices):
            continue
        checked += 1
        assert count_vertex_covers(g) % 2 == count_edge_covers(g) % 2
    assert checked > 50


def test_hs_sc_parity_identity():
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        nu = rng.randint(1, 8)
        u = list(range(nu))
        fam = [
            frozenset(rng.sample(u, rng.randint(1, nu)))
            for _ in range(rng.randint(1, 6))
        ]
        s = SetSystem(u, fam)
        if set().union(*s.family) != set(u):
            continue  # uncovered element: identity preconditions not met
        checked += 1
        assert count_hitting_sets(s) % 2 == count_set_covers(s) % 2
    assert checked > 50


def test_ring_formula_golden_count():
    # ten-variable ring of four 3-clauses with two 2-clause chains; the
    # count was frozen from enumeration of all 1024 assignments
    phi = Formula(
        range(1, 11),
        [
            [1, -4, 5], [-1, 2, 6], [2, 3, 7], [3, 4, 8],
            [-5, 9], [9, 6], [7, 10], [-10, 8],
        ],
    )
    assert brute_count(phi) == 209
    assert brute_parity(phi) == 1

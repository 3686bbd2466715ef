import pytest
from test_reducer_oracle import is_fixpoint

from xparity.generators import (
    GenerationError,
    gen_4plus_survivor,
    gen_edge_cover_formula,
    gen_random_docc,
    gen_rule_trigger,
    random_graph,
)
from xparity.oracle import (
    SimpleGraph,
    brute_parity,
    count_edge_covers,
    count_vertex_covers,
)
from xparity.reducer import apply_rule


def test_docc_determinism_golden():
    a = gen_random_docc(10, 2, 2, 3, seed=7)
    b = gen_random_docc(10, 2, 2, 3, seed=7)
    assert a == b
    assert a.variables == frozenset(range(1, 11))
    # frozen golden: regenerating with the same seed must never drift
    assert a.clauses == gen_random_docc(10, 2, 2, 3, seed=7).clauses


def test_docc_degree_budget():
    for seed in range(50):
        d = 2 + seed % 4
        phi = gen_random_docc(12, d, 1, 4, seed=seed)
        assert all(phi.degree(v) <= d for v in phi.variables)


def test_docc_positive_mode():
    phi = gen_random_docc(10, 3, 1, 3, seed=5, polarity="positive")
    assert all(l > 0 for c in phi.clauses for l in c)


def test_docc_refusals():
    with pytest.raises(GenerationError):
        gen_random_docc(2, 2, 3, 3, m=4, seed=0)  # 4*3 > 2*2 occurrences
    with pytest.raises(GenerationError):
        gen_random_docc(5, 0, 1, 2)


def test_edge_cover_formula_k3():
    g = SimpleGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    phi = gen_edge_cover_formula(g)
    assert phi.n == 3 and phi.m == 3
    assert all(l > 0 for c in phi.clauses for l in c)
    assert all(phi.polarity_counts(v) == (2, 0) for v in phi.variables)
    assert brute_parity(phi) == count_edge_covers(g) % 2 == 0


def test_edge_cover_single_edge_collapses():
    g = SimpleGraph([1, 2], [(1, 2)])
    phi = gen_edge_cover_formula(g)
    assert phi.clauses == ((1,),)
    assert brute_parity(phi) == 1 == count_edge_covers(g)


def test_edge_cover_rejects_isolated_vertex():
    g = SimpleGraph([1, 2, 3], [(1, 2)])
    with pytest.raises(GenerationError):
        gen_edge_cover_formula(g)


def test_edge_cover_parity_identity_small():
    for seed in range(60):
        g = random_graph(2 + seed % 7, 0.5, seed)
        if any(g.degree(v) == 0 for v in g.vertices):
            continue
        phi = gen_edge_cover_formula(g)
        assert brute_parity(phi) == count_edge_covers(g) % 2 == count_vertex_covers(g) % 2


def test_rule_triggers_fire():
    for i in range(1, 14):
        rule = f"R{i}"
        for seed in range(20):
            phi = gen_rule_trigger(rule, seed)
            assert apply_rule(phi, rule) is not None, (rule, seed)


def test_4plus_survivor_shape():
    for seed in range(20):
        phi = gen_4plus_survivor(seed)
        assert is_fixpoint(phi)
        assert max(len(c) for c in phi.clauses) == 4
        assert all(phi.degree(v) == 2 for v in phi.variables)

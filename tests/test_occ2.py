import io
import json

import pytest

from xparity.formula import Formula
from xparity.generators import gen_4plus_survivor, gen_random_docc
from xparity.occ2 import (
    EPS,
    ContractViolation,
    Occ2Config,
    bisect_multigraph,
    build_multigraph,
    crossing_edges,
    eliminate_self_loops,
    find_self_loop,
    solve_2cnf,
    solve_occ2,
)
from xparity.oracle import brute_parity
from xparity.reducer import reduce_formula
from xparity.telemetry import Telemetry


def records(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def fig2_formula():
    # ring of four 3-clauses with two 2-clause chains across, 10 variables
    return Formula(
        range(1, 11),
        [
            [1, -4, 5],
            [-1, 2, 6],
            [2, 3, 7],
            [3, 4, 8],
            [-5, 9],
            [9, 6],
            [7, 10],
            [-10, 8],
        ],
    )


def test_contract_rejects_high_degree():
    phi = Formula([1, 2], [[1, 2], [1], [-1]])
    with pytest.raises(ContractViolation):
        solve_occ2(phi)


def test_multigraph_of_ring_formula():
    phi = fig2_formula()
    g = build_multigraph(phi)
    assert len(g.vertices) == 4 == phi.m3
    assert len(g.edges) == 6
    kinds = sorted(e.label[0] for e in g.edges)
    assert kinds == ["chain", "chain", "var", "var", "var", "var"]
    for v in g.vertices:
        assert g.degree(v) == 3
    assert not g.self_loops


def test_multigraph_degree_three_on_fuzz():
    checked = 0
    for seed in range(200):
        phi = gen_random_docc(20, 2, 2, 3, seed=seed)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        loop_free = eliminate_self_loops(out.formula)
        if loop_free.parity is not None:
            continue
        # drop pure 2-clause components before grading the graph
        if loop_free.formula.m3 == 0:
            continue
        g = build_multigraph(loop_free.formula)
        for v in g.vertices:
            assert g.degree(v) == 3
        checked += 1
    assert checked > 20


def test_solve_2cnf_examples():
    tri = Formula([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
    assert solve_2cnf(tri) == 0 == brute_parity(tri)
    path = Formula([1, 2, 3], [[1, 2], [-2, 3]])
    assert solve_2cnf(path) == brute_parity(path)


def test_solve_2cnf_fuzz():
    for seed in range(300):
        phi = gen_random_docc(3 + seed % 10, 2, 1, 2, seed=seed)
        assert solve_2cnf(phi) == brute_parity(phi), seed


def double_loop_formula():
    # two 3-clauses sharing variable 1, each closed by a long chain of
    # 2-clauses back to itself; each loop subformula has 12 > 10 variables,
    # out of the semi-isolate rule's reach
    a = list(range(4, 13))  # chain variables of the first loop
    b = list(range(15, 24))  # chain variables of the second loop
    clauses = [[1, 2, 3], [-1, 13, 14]]
    chain_a = [[-2, a[0]]] + [[a[i], a[i + 1]] for i in range(8)] + [[a[8], -3]]
    chain_b = [[-13, b[0]]] + [[b[i], b[i + 1]] for i in range(8)] + [[b[8], -14]]
    return Formula(range(1, 24), clauses + chain_a + chain_b)


def test_self_loop_detection_and_elimination():
    phi = double_loop_formula()
    out = reduce_formula(phi)
    assert out.parity is None
    assert find_self_loop(out.formula) is not None
    loop_free = eliminate_self_loops(out.formula)
    if loop_free.parity is None:
        assert find_self_loop(loop_free.formula) is None
    assert solve_occ2(phi) == brute_parity(phi)


def test_loop_free_formula_is_untouched():
    phi = fig2_formula()
    out = reduce_formula(phi)
    loop_free = eliminate_self_loops(out.formula)
    assert loop_free.parity is None and loop_free.formula == out.formula


def test_bisect_balance_and_determinism():
    phi = fig2_formula()
    g = build_multigraph(phi)
    part = bisect_multigraph(g, seed=5)
    assert part.balance <= 1
    assert len(part.cut) == 2  # the ring splits 2 | 6 | 4; optimum is 2
    again = bisect_multigraph(g, seed=5)
    assert part.a == again.a and part.b == again.b


def test_bisect_exhaustive_matches_enumeration():
    import itertools

    from xparity.formula import clause_sort_key

    for seed in range(40):
        phi = gen_random_docc(24, 2, 2, 3, seed=seed)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        loop_free = eliminate_self_loops(out.formula)
        if loop_free.parity is not None:
            continue
        psi = loop_free.formula
        if psi.m3 < 2 or psi.m3 > 10 or any(len(c) not in (2, 3) for c in psi.clauses):
            continue
        g = build_multigraph(psi)
        part = bisect_multigraph(g, seed=0)
        verts = sorted(g.vertices, key=clause_sort_key)
        best = None
        for size in {(len(verts) + 1) // 2, len(verts) // 2}:
            for a in itertools.combinations(verts, size):
                aset = frozenset(a)
                cut = len(crossing_edges(g, aset, g.vertices - aset))
                best = cut if best is None else min(best, cut)
        assert len(part.cut) == best  # exhaustive regime must be optimal


def test_disconnected_components_get_cut_zero():
    # two disjoint copies of the ring formula (the multigraph builder only
    # needs the degree-2 / length-{2,3} shape, not reducedness)
    base = fig2_formula()
    shifted = Formula(
        range(1, 21),
        list(base.clauses) + [tuple(l + 10 if l > 0 else l - 10 for l in c) for c in base.clauses],
    )
    g = build_multigraph(shifted)
    assert len(g.vertices) == 8
    part = bisect_multigraph(g, seed=1)
    assert part.balance <= 1
    assert len(part.cut) == 0


def test_fig2_solve_matches_oracle():
    phi = fig2_formula()
    assert solve_occ2(phi) == brute_parity(phi)


def test_occ2_fuzz_oracle_agreement():
    for seed in range(500):
        n = 4 + seed % 13
        phi = gen_random_docc(n, 2, 2, 3 + seed % 4, seed=seed)
        assert solve_occ2(phi, Telemetry(strict=True)) == brute_parity(phi), seed


def test_occ2_forced_bisection_machinery():
    cfg = Occ2Config(n_eps=2)
    for seed in range(300):
        phi = gen_random_docc(6 + seed % 12, 2, 2, 3, seed=seed)
        tel = Telemetry(strict=True)
        assert solve_occ2(phi, tel, cfg) == brute_parity(phi), seed


def test_branch_4plus_survivor_family():
    for seed in range(40):
        phi = gen_4plus_survivor(seed)
        sink = io.StringIO()
        assert solve_occ2(phi, Telemetry(sink=sink, strict=True)) == brute_parity(phi)
        pair = [r for r in records(sink) if r.get("step") == "occ2.4plus-pair"]
        assert pair and all(r["passed"] for r in pair)


def test_alternation_of_branch_sides():
    # every bisection branch node records the side of its parent branch; a
    # child must come from the opposite side (also enforced in the solver)
    cfg = Occ2Config(n_eps=2)
    with_parent = 0
    for seed in range(60):
        phi = gen_random_docc(30 + (seed % 5) * 10, 2, 2, 3, seed=seed)
        sink = io.StringIO()
        solve_occ2(phi, Telemetry(sink=sink, strict=True), cfg)
        for r in records(sink):
            if r.get("kind") == "node" and r["node"] == "occ2.bisect-branch":
                if r["parent_side"] is not None:
                    assert r["side"] != r["parent_side"]
                    with_parent += 1
    assert with_parent > 3


def cubic_edge_cover(rng, nv: int) -> Formula:
    """Edge-cover formula of a random simple cubic graph on nv vertices."""
    from xparity.generators import gen_edge_cover_formula
    from xparity.oracle import SimpleGraph

    while True:
        stubs = [v for v in range(1, nv + 1) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in edges) and len(set(edges)) == len(edges):
            return gen_edge_cover_formula(SimpleGraph(range(1, nv + 1), edges))


def test_relabelled_sides_keep_alternating_on_cubic_80():
    # edge-cover formula of a random cubic graph on 80 vertices: a child
    # whose A side empties is relabelled and re-bisected, which used to
    # trip the alternation check with the parent's side under the old label
    import random

    from xparity.length import solve_length

    phi = cubic_edge_cover(random.Random(80), 80)
    assert (phi.n, phi.m) == (120, 80)
    assert solve_occ2(phi, Telemetry(strict=True)) == solve_length(phi) == 1


def test_rebisect_records_whether_the_measure_was_checked():
    # the rebisection measure check runs only for cuts within 1/6 + eps;
    # every rebisect record says whether it ran
    import random

    cfg = Occ2Config(n_eps=4)
    seen = set()
    for seed in range(8):
        sink = io.StringIO()
        phi = cubic_edge_cover(random.Random(seed), 40)
        solve_occ2(phi, Telemetry(sink=sink, strict=True), cfg)
        for r in records(sink):
            if r["kind"] == "rebisect":
                assert r["checked"] == (r["cut"] / r["vertices"] <= 1.0 / 6.0 + EPS)
                seen.add(r["checked"])
    assert seen == {True, False}


def test_peeled_cycles_are_not_reduced_again(monkeypatch):
    # k odd cycles at the fixpoint: each is settled by one walk round it,
    # with no reduction at all
    import random

    from test_reducer_oracle import signed_cycles
    from xparity import occ2

    psi = signed_cycles(random.Random(23), [12, 20, 31, 16])
    assert reduce_formula(psi).trace == []
    calls = []
    reduce = occ2.reduce_formula
    monkeypatch.setattr(
        occ2, "reduce_formula", lambda phi, **kw: calls.append(1) or reduce(phi, **kw)
    )
    assert occ2._prepare(psi, Telemetry(), 0) == (1, None)
    assert calls == []

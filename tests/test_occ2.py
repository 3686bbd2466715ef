import io
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xparity import occ2
from xparity.formula import Formula, assign_literal, var_of
from xparity.generators import gen_4plus_survivor, gen_random_docc
from xparity.occ2 import (
    EPS,
    ContractViolation,
    Occ2Config,
    bisect_multigraph,
    build_multigraph,
    check_occ2,
    crossing_edges,
    eliminate_self_loops,
    solve_2cnf,
    solve_occ2,
)
from xparity.oracle import brute_parity
from xparity.reducer import ReductionOutcome, reduce_formula, remove_hinged_side, subformula
from xparity.telemetry import Telemetry

# the GF(2) reference count, imported read-only from the benchmark directory
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)
import refcount  # noqa: E402


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


def test_degree_and_length_checks_name_the_offender():
    with pytest.raises(ContractViolation, match=r"^variable 1 occurs 3 times; need <= 2$"):
        check_occ2(Formula([1, 2], [[1, 2], [1], [-1]]))
    for phi, message in (
        (Formula(range(1, 5), [[1, 2, 3], [-1, -2, -3]]), "variable 4 has degree 0; want exactly 2"),
        (Formula(range(1, 4), [[1, 2, 3], [-1, -2]]), "variable 3 has degree 1; want exactly 2"),
        (Formula(range(1, 5), [[1, 2, 3, 4], [-1, -2, -3, -4]]), "clause (1, 2, 3, 4) has length 4"),
    ):
        with pytest.raises(ContractViolation) as err:
            build_multigraph(phi)
        assert str(err.value) == message


def test_multigraph_refuses_a_variable_held_twice_by_one_clause():
    # every variable occurs twice, but 1 and 3 never leave their clause
    phi = Formula([1, 2, 3], [[1, -1, 2], [-2, 3, -3]])
    with pytest.raises(ContractViolation, match="occurs twice in clause"):
        build_multigraph(phi)


def test_multigraph_of_ring_formula():
    phi = fig2_formula()
    g = build_multigraph(phi)
    assert len(g.vertices) == 4 == phi.m3
    assert len(g.edges) == 6
    for v in g.vertices:
        assert sum((e.u == v) + (e.v == v) for e in g.edges) == 3
    assert not g.self_loops


def test_multigraph_degree_three_on_fuzz():
    checked = 0
    for seed in range(200):
        phi = gen_random_docc(20, 2, 2, 3, seed=seed)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        loop_free, g = eliminate_self_loops(out.formula)
        if loop_free.parity is not None:
            continue
        # drop pure 2-clause components before grading the graph
        if loop_free.formula.m3 == 0:
            continue
        for v in g.vertices:
            assert sum((e.u == v) + (e.v == v) for e in g.edges) == 3
        checked += 1
    assert checked > 20


def test_multigraph_edges_follow_the_clause_order():
    from xparity.formula import clause_sort_key

    def edge_key(e):
        return sorted((clause_sort_key(e.u), clause_sort_key(e.v)))

    graphs = []
    for seed in range(60):
        out = reduce_formula(gen_random_docc(20, 2, 2, 3, seed=seed))
        if out.parity is None and out.formula.m3:
            graphs.append(build_multigraph(out.formula))
    graphs += [build_multigraph(cubic_edge_cover(random.Random(nv), nv)) for nv in (14, 40)]
    assert len(graphs) > 20
    for g in graphs:
        assert g.edges == sorted(g.edges, key=edge_key)


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
    assert build_multigraph(out.formula).self_loops
    loop_free, g = eliminate_self_loops(out.formula)
    if loop_free.parity is None:
        assert not build_multigraph(loop_free.formula).self_loops
        assert g == build_multigraph(loop_free.formula)
    assert solve_occ2(phi) == brute_parity(phi)


# -- the oracle: self-loops found by their own walk of every chain ------------


def walk_self_loop(phi: Formula):
    """A 3-clause whose chain through two of its variables returns to it:
    returns (subformula clause indices, hinge variable), or None."""
    for cidx, clause in enumerate(phi.clauses):
        if len(clause) != 3:
            continue
        cvars = sorted({var_of(l) for l in clause})
        for v in cvars:
            end_idx, end_var, chain, _ = occ2._walk(phi, cidx, v)
            if end_idx == cidx and end_var != v and chain:
                hinge = [w for w in cvars if w not in (v, end_var)]
                if len(hinge) == 1:
                    return [cidx] + chain, hinge[0]
    return None


def walk_eliminate_self_loops(phi: Formula) -> ReductionOutcome:
    out = ReductionOutcome(phi, None)
    while out.parity is None:
        phi = out.formula
        loop = walk_self_loop(phi)
        if loop is None:
            break
        idxs, hinge = loop
        sub = subformula(phi, idxs)
        p1 = solve_2cnf(assign_literal(sub, hinge))
        p0 = solve_2cnf(assign_literal(sub, -hinge))
        if p0 == 0 and p1 == 0:
            return ReductionOutcome(None, 0)
        out = reduce_formula(remove_hinged_side(phi, idxs, hinge, p0, p1))
    return out


def plant_self_loops(base: Formula, chains: list, rng: random.Random) -> Formula:
    """base over 1..n, with one self-loop per chain length k hung off it: a
    base variable x is split by a new 3-clause (x, y, h), y taking x's place
    in its later clause, and h's other clause is a 3-clause (h, a, b) closed
    by k randomly signed 2-clauses from a back to b."""
    rename = {v: i for i, v in enumerate(sorted(base.variables), 1)}
    clauses = [[rename[var_of(l)] * (1 if l > 0 else -1) for l in c] for c in base.clauses]

    def signed(v):
        return rng.choice((v, -v))

    top = len(rename)
    for k in chains:
        x = rng.randint(1, len(rename))
        y, h = top + 1, top + 2
        walk = list(range(top + 3, top + k + 4))  # a, k - 1 chain variables, b
        top = walk[-1]
        later = next(c for c in reversed(clauses) if x in map(var_of, c))
        slot = [var_of(l) for l in later].index(x)
        later[slot] = y if later[slot] > 0 else -y
        clauses.append([signed(x), signed(y), signed(h)])
        clauses.append([signed(h), signed(walk[0]), signed(walk[-1])])
        clauses += [[signed(walk[i]), signed(walk[i + 1])] for i in range(k)]
    return Formula(range(1, top + 1), clauses)


@st.composite
def planted_loops(draw, shortest=9, longest=40):
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        base = cubic_edge_cover(rng, draw(st.sampled_from([4, 6, 8, 10])))
    else:
        n = draw(st.integers(12, 30))
        out = reduce_formula(gen_random_docc(n, 2, 2, 3, seed=rng.randrange(2**32)))
        base = out.formula if out.parity is None else cubic_edge_cover(rng, 4)
    chains = draw(st.lists(st.integers(shortest, longest), min_size=1, max_size=3))
    return plant_self_loops(base, chains, rng)


@settings(max_examples=60, deadline=None)
@given(planted_loops())
def test_planted_self_loops_match_the_walk(phi):
    # loops past R13's 10-variable reach, read off the multigraph, are
    # settled as the chain walk settled them
    out = reduce_formula(phi)
    if out.parity is None:
        loop_free, g = eliminate_self_loops(out.formula)
        want = walk_eliminate_self_loops(out.formula)
        assert (loop_free.verdict, loop_free.formula) == (want.verdict, want.formula)
        if loop_free.parity is None:
            assert g == build_multigraph(loop_free.formula)
        else:
            assert g is None
    truth = brute_parity(phi) if phi.n <= 24 else refcount.cnf_parity(phi.n, phi.clauses)
    assert solve_occ2(phi, Telemetry(strict=True)) == truth


@settings(max_examples=8, deadline=None)
@given(planted_loops(100, 300))
def test_long_planted_loops_match_the_walk(phi):
    # chains the 2-CNF solver of the oracle takes in quadratic time
    out = reduce_formula(phi)
    if out.parity is None:
        loop_free, _ = eliminate_self_loops(out.formula)
        want = walk_eliminate_self_loops(out.formula)
        assert (loop_free.verdict, loop_free.formula) == (want.verdict, want.formula)


def test_a_long_loop_is_read_off_one_walk(monkeypatch):
    # a loop with a 2,000-clause chain: one reduction after its removal, and
    # no 2-CNF solve, which would eat the open chain one firing at a time
    rng = random.Random(2000)
    out = reduce_formula(plant_self_loops(cubic_edge_cover(rng, 8), [2000], rng))
    assert out.parity is None and build_multigraph(out.formula).self_loops
    reductions, solves = [], []
    reduce = occ2.reduce_formula
    monkeypatch.setattr(
        occ2, "reduce_formula", lambda phi, **kw: reductions.append(1) or reduce(phi, **kw)
    )
    monkeypatch.setattr(occ2, "solve_2cnf", lambda phi: solves.append(1))
    loop_free, _ = eliminate_self_loops(out.formula)
    assert (len(reductions), len(solves)) == (1, 0)
    assert loop_free.parity is not None or not build_multigraph(loop_free.formula).self_loops


def test_loop_free_formula_is_untouched():
    phi = fig2_formula()
    out = reduce_formula(phi)
    loop_free, g = eliminate_self_loops(out.formula)
    assert loop_free.parity is None and loop_free.formula == out.formula
    assert g == build_multigraph(out.formula)


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
        loop_free, g = eliminate_self_loops(out.formula)
        if loop_free.parity is not None:
            continue
        psi = loop_free.formula
        if psi.m3 < 2 or psi.m3 > 10 or any(len(c) not in (2, 3) for c in psi.clauses):
            continue
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


def test_divide_restricts_the_multigraph_to_each_component(monkeypatch):
    # two disjoint cubic edge covers: the rebisection cuts no edge, and the
    # divide step hands each component the multigraph restricted to its
    # 3-clauses instead of building it again
    rng = random.Random(5)
    left, right = cubic_edge_cover(rng, 8), cubic_edge_cover(rng, 8)
    shifted = [tuple(l + left.n for l in c) for c in right.clauses]
    phi = Formula(range(1, left.n + right.n + 1), list(left.clauses) + shifted)
    calls = []
    solve = occ2.bisection_solve

    def recorded(psi, g, *args):
        calls.append((psi, g))
        return solve(psi, g, *args)

    monkeypatch.setattr(occ2, "bisection_solve", recorded)
    sink = io.StringIO()
    parity = solve_occ2(phi, Telemetry(sink=sink, strict=True), Occ2Config(n_eps=4))
    assert parity == brute_parity(phi)
    assert any(r["kind"] == "divide" for r in records(sink))
    assert len(calls) > 2 and all(g == build_multigraph(psi) for psi, g in calls)


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


def test_occ2_refuses_n_eps_zero_at_its_first_rebisection():
    # 12 variables and 8 3-clauses: past the brute-force cap, so it bisects
    phi = cubic_edge_cover(random.Random(0), 8)
    with pytest.raises(ValueError, match="n_eps=0 is below 1"):
        solve_occ2(phi, Telemetry(strict=True), Occ2Config(n_eps=0))


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
    # with no reduction and no derived formula at all
    import random

    from test_reducer_oracle import signed_cycles
    from xparity import occ2

    psi = signed_cycles(random.Random(23), [12, 20, 31, 16])
    assert reduce_formula(psi).trace == []
    calls, derivations = [], []
    reduce = occ2.reduce_formula
    derive = Formula._derive.__func__
    monkeypatch.setattr(
        occ2, "reduce_formula", lambda phi, **kw: calls.append(1) or reduce(phi, **kw)
    )
    monkeypatch.setattr(
        Formula,
        "_derive",
        classmethod(lambda cls, *a, **kw: derivations.append(1) or derive(cls, *a, **kw)),
    )
    assert occ2._prepare(psi, Telemetry(), 0) == (1, None)
    assert calls == [] and derivations == []


def test_prepare_reuses_the_split_of_the_reduction_before_it(monkeypatch):
    # the last fixpoint pass of every reduction splits its formula for R12;
    # _prepare, the divide step and _base_solve read that split off the
    # formula, so no formula is searched twice, and the _prepare after the
    # root reduction searches none
    from test_reducer_oracle import signed_cycles

    from xparity import reducer

    searched = []
    search = reducer._incidence
    monkeypatch.setattr(
        reducer,
        "_incidence",
        lambda phi: (phi._incidence is None and searched.append(phi)) or search(phi),
    )
    in_prepare = []
    prepare = occ2._prepare

    def counted(psi, tel, depth):
        before = len(searched)
        result = prepare(psi, tel, depth)
        in_prepare.append(len(searched) - before)
        return result

    monkeypatch.setattr(occ2, "_prepare", counted)
    rng = random.Random(14)
    for phi in (signed_cycles(rng, [20, 30, 40]), cubic_edge_cover(rng, 40)):
        searched.clear()
        truth = refcount.cnf_parity(phi.n, phi.clauses)
        assert solve_occ2(phi, config=Occ2Config(n_eps=4)) == truth
        assert len({id(psi) for psi in searched}) == len(searched)
    assert len(in_prepare) > 2 and in_prepare[0] == 0


@pytest.mark.parametrize("seed", [0, 2, 7, 10, 12, 15, 17, 21, 25])
def test_prepare_peels_cycles_and_keeps_the_core(seed, monkeypatch):
    # a cubic edge cover (variables 1-12) beside an odd signed 11-cycle
    # (13-23), too long for R12: _prepare peels the cycle and returns the
    # cover's clauses as the core, which the base solver then branches on
    from test_cycle_walk import cycle_clauses

    from xparity.length import solve_length

    prepared = []
    prepare = occ2._prepare
    monkeypatch.setattr(occ2, "_prepare", lambda *a: prepared.append(prepare(*a)) or prepared[-1])
    rng = random.Random(seed)
    cover = cubic_edge_cover(rng, 8).clauses
    phi = Formula(range(1, 24), [*map(list, cover), *cycle_clauses(rng, list(range(13, 24)))])
    sink = io.StringIO()
    parity = solve_occ2(phi, Telemetry(sink=sink, strict=True))
    assert parity == brute_parity(phi) == solve_length(phi)
    first, second = records(sink)[:2]
    assert (first["kind"], first["node"], first["depth"]) == ("leaf", "occ2.2cnf-peel", 0)
    assert second["kind"] == "node"
    core, _ = prepared[0][1]
    assert core.m3 and max(core.variables) <= 12

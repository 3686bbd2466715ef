import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_occ2 import cubic_edge_cover
from xparity.branching import variable_branch
from xparity.docc import (
    NotPositive,
    dual_formula,
    flip_negative_variables,
    is_positive,
    reduce_to_positive,
    solve_docc,
    solve_positive_fib,
)
from xparity.factors import tau
from xparity.formula import Formula, flip_variable
from xparity.generators import gen_random_docc
from xparity.length import solve_length
from xparity.occ2 import solve_occ2
from xparity.oracle import (
    SetSystem,
    brute_count,
    brute_parity,
    count_hitting_sets,
    count_set_covers,
)
from xparity.telemetry import Telemetry
from xparity.verify import positive_3regular


def test_already_positive_is_single_leaf():
    phi = gen_random_docc(8, 3, 1, 3, seed=2, polarity="positive")
    tel = Telemetry()
    total = 0
    for leaf in reduce_to_positive(phi, tel):
        assert is_positive(leaf)
        total ^= brute_parity(leaf)
    assert tel.nodes == 0
    assert total == brute_parity(phi)


def test_mixed_two_clause_example():
    phi = Formula([1, 2, 3], [[1, 2], [-1, 3]])
    total = 0
    for leaf in reduce_to_positive(phi):
        total ^= brute_parity(leaf)
    assert total == brute_parity(phi)


def test_reduce_to_positive_xor_fuzz():
    for seed in range(400):
        rng = random.Random(seed)
        phi = gen_random_docc(rng.randint(3, 12), rng.randint(2, 4), 1, 4, seed=seed)
        tel = Telemetry(strict=True)
        total = 0
        for leaf in reduce_to_positive(phi, tel):
            assert is_positive(leaf)
            total ^= brute_parity(leaf)
        assert total == brute_parity(phi), seed
        assert all(slot["failed"] == 0 for slot in tel.ledger_summary().values())


def test_flip_negative_variables():
    phi = Formula([1, 2], [[-1, 2], [-1, -2]])
    assert flip_negative_variables(phi) == (flip_variable(phi, 1), [2])
    positive = Formula([1, 2, 3], [[-1, -2], [-1, 3]])
    assert flip_negative_variables(positive) == (Formula([1, 2, 3], [[1, 2], [1, 3]]), [])


def test_leaves_are_generated_one_at_a_time():
    # the full tree of this instance has 327 nodes; the first positive leaf
    # is reached after 25 branchings
    tel = Telemetry()
    next(reduce_to_positive(gen_random_docc(50, 5, 2, 5, seed=1), tel))
    assert tel.nodes < 100


def test_each_child_is_reduced_once(monkeypatch):
    # one reduction for the root and one per child, none again when a
    # reduced child is popped
    from xparity import docc

    calls = []
    reduce = docc.reduce_formula
    monkeypatch.setattr(
        docc, "reduce_formula", lambda phi, **kw: calls.append(1) or reduce(phi, **kw)
    )
    tel = Telemetry()
    for _ in reduce_to_positive(gen_random_docc(50, 5, 2, 5, seed=1), tel):
        pass
    assert tel.nodes >= 100
    assert len(calls) == 1 + 2 * tel.nodes


def test_parity_reduction_keeps_mixed_docc_small():
    # with only the counting rules R1-R5 these took 6,887, 21,601 and
    # 360,196 branch nodes
    for n, d, seed in ((30, 3, 1), (32, 4, 0), (45, 3, 1)):
        phi = gen_random_docc(n, d, 2, 4, seed=seed)
        tel = Telemetry()
        assert solve_docc(phi, tel) == solve_length(phi), (n, d, seed)
        assert tel.nodes < 100, (n, d, seed)


def test_positive_leaves_report_their_longest_dual_clause():
    sink = io.StringIO()
    leaves = list(reduce_to_positive(gen_random_docc(32, 4, 2, 4, seed=0), Telemetry(sink=sink)))
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    reported = [r["max_degree"] for r in records if r.get("node") == "docc.positive-leaf"]
    assert reported == [max((len(c) for c in dual_formula(leaf).clauses), default=0) for leaf in leaves]
    assert leaves and max(reported) <= 4


def test_single_positive_clause_parity():
    phi = Formula([1, 2, 3], [[1, 2, 3]])
    assert solve_positive_fib(phi) == 1  # 7 models
    assert brute_parity(phi) == 1


def test_fib_requires_positive():
    with pytest.raises(NotPositive):
        solve_positive_fib(Formula([1], [[-1]]))


def test_fib_oracle_fuzz_and_leaf_growth():
    for d in (2, 3):
        bound = tau(*range(d, 0, -1))
        for seed in range(200):
            phi = gen_random_docc(4 + seed % 9, d, 1, 4, seed=seed, polarity="positive")
            tel = Telemetry(strict=True)
            assert solve_positive_fib(phi, tel) == brute_parity(phi), (d, seed)
            if phi.m:
                assert tel.leaves <= 40 * bound ** phi.m


def reference_positive_fib(phi, telemetry=None):
    """``solve_positive_fib`` as it was when it built every child through
    ``variable_branch``: the oracle for the version that reads falsified
    and clause-free children off their recipe."""
    if not is_positive(phi):
        raise NotPositive("solve_positive_fib needs a positive formula")
    tel = telemetry if telemetry is not None else Telemetry()
    parity = 0
    stack = [(phi, 0)]
    while stack:
        cur, depth = stack.pop()
        if cur.has_empty_clause():
            tel.leaf(depth, "fib.falsified")
            continue
        if not cur.clauses:
            tel.leaf(depth, "fib.trivial")
            parity ^= 1 if cur.n == 0 else 0
            continue
        occ = cur.occ
        if len(occ) < cur.n:
            tel.leaf(depth, "fib.free-variable")
            continue
        top = max(map(len, occ.values()))
        x = min(v for v, o in occ.items() if len(o) == top)
        tel.node(depth, "fib.branch", {"on": x, "degree": top})
        children = variable_branch(cur, x).children
        stack.extend((child, depth + 1) for child in reversed(children))
    return parity


@st.composite
def positive_formulas(draw, max_degree=5):
    """Positive formulas over 0-7 variables, some of them free: clauses of
    0-4 literals, duplicates kept, no variable in more than ``max_degree``
    literal occurrences."""
    n = draw(st.integers(0, 7))
    used = dict.fromkeys(range(1, n + 1), 0)
    clauses = []
    for lits in draw(st.lists(st.lists(st.integers(1, max(n, 1)), max_size=4), max_size=9)):
        clause = [v for v in lits if v <= n and used[v] < max_degree]
        for v in clause:
            used[v] += 1
        clauses.append(clause)
    return Formula(range(1, n + 1), clauses)


def fib_run(solve, phi):
    sink = io.StringIO()
    tel = Telemetry(sink=sink)
    parity = solve(phi, tel)
    return parity, tel.nodes, tel.leaves, tel.max_depth, sink.getvalue()


@given(positive_formulas())
@settings(max_examples=400, deadline=None)
@example(Formula([], []))
@example(Formula([1, 2], []))
@example(Formula([1, 2], [[], [1, 2]]))
@example(Formula([1, 2, 3], [[1, 1, 2], [1, 2]]))
@example(Formula([1, 2, 3, 4], [[1, 2], [1, 3], [1, 4], [1, 2, 3]]))
@example(Formula(range(1, 7), [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [2, 3, 4]]))
def test_fib_matches_the_build_every_child_loop(phi):
    got = fib_run(solve_positive_fib, phi)
    assert got == fib_run(reference_positive_fib, phi)
    assert got[0] == brute_parity(phi)


def test_fib_builds_no_formula(monkeypatch):
    # the search runs on clause ints: below the input, no Formula is built
    # or derived and no transform or branching scheme runs, yet the tree is
    # the build-every-child loop's and reaches every leaf kind
    from xparity import branching, docc, formula

    phi = positive_3regular(24, 2)
    want = fib_run(reference_positive_fib, phi)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_positive_fib built a formula")

    monkeypatch.setattr(Formula, "_derive", classmethod(refuse))
    transforms = ("assign_literal", "falsify_clause", "flip_variable", "merge_variables",
                  "remove_clause", "remove_variable")
    for module, names in ((formula, transforms),
                          (branching, transforms + ("clause_branch", "simple_branch",
                                                    "variable_branch")),
                          (docc, ("flip_variable", "clause_branch", "variable_branch"))):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    got = fib_run(solve_positive_fib, phi)
    assert got == want
    kinds = {json.loads(line)["node"] for line in got[4].splitlines()}
    assert {"fib.falsified", "fib.trivial", "fib.free-variable"} <= kinds


@pytest.mark.parametrize(
    "phi",
    [
        # sparse and large ids
        Formula([2, 7, 10**6], [[2, 7], [7, 10**6], [2, 10**6], [2, 7, 10**6]]),
        Formula([3, 10**9, 10**12], [[10**12], [3, 10**9], [10**9, 10**12]]),
        # free variables between occurring ones: at the root, and in the
        # child that keeps 8 but none of its clauses, between 5 and 9
        Formula(range(1, 9), [[1, 3], [3, 6], [1, 6, 8]]),
        Formula([1, 5, 6, 8, 9], [[1, 5, 9], [1, 6], [1, 6, 8], [5]]),
        # literals repeated inside a clause count in the degree and make
        # two sides of one clause
        Formula([1, 2, 3], [[1, 1, 2], [2, 2, 3], [1, 3, 3, 3], [1, 2, 3]]),
        Formula([1, 2], [[1, 1], [1, 2, 2]]),
        Formula([4, 9], [[4, 4, 4, 9], [9, 9]]),
        # roots whose maximum degree needs a field wider than a byte: degree
        # 300 on one variable, then 300 and 255 copies of a literal in a clause
        Formula(range(1, 302), [[1, k] for k in range(2, 302)]),
        Formula([1, 2, 3], [[1] * 300, [1, 2], [2, 3]]),
        Formula([5, 6], [[5] * 255 + [6], [6] * 129]),
    ],
    ids=["sparse", "huge-ids", "free-root", "free-below", "repeats", "repeat-pair",
         "repeat-run", "degree-300", "copies-300", "copies-255"],
)
def test_fib_edge_cases_match_the_build_every_child_loop(phi):
    assert fib_run(solve_positive_fib, phi) == fib_run(reference_positive_fib, phi)


def test_fib_without_a_sink_builds_no_record(monkeypatch):
    # nodes and leaves are counted, but nothing is streamed or built for it
    def event(self, record):
        raise AssertionError(f"record built without a sink: {record}")

    monkeypatch.setattr(Telemetry, "event", event)
    phi = gen_random_docc(16, 3, 2, 3, seed=4, polarity="positive")
    tel = Telemetry()
    assert solve_positive_fib(phi, tel) == brute_parity(phi)
    assert tel.nodes > 0 and tel.leaves > 0


def test_dual_system_shape():
    phi = Formula([1, 2, 3], [[1, 2], [2, 3]])
    assert dual_formula(phi) == Formula([1, 2], [[1], [1, 2], [2]])
    # clause-free leaves: a free variable gives an empty dual clause
    assert dual_formula(Formula([], [])) == Formula([], [])
    assert dual_formula(Formula([1], [])) == Formula([], [[]])
    # d-occ input: every dual clause has length at most d
    for seed in range(100):
        d = 2 + seed % 3
        psi = gen_random_docc(8, d, 1, 3, seed=seed, polarity="positive")
        assert all(len(c) <= d for c in dual_formula(psi).clauses)


def test_chain_consistency_per_leaf():
    for seed in range(200):
        phi = gen_random_docc(4 + seed % 8, 3, 1, 3, seed=seed, polarity="positive")
        models = brute_parity(phi)
        primal = SetSystem(phi.variables, [frozenset(c) for c in phi.clauses])
        hs_primal = count_hitting_sets(primal) & 1
        dual = SetSystem(
            frozenset(range(phi.m)),
            [frozenset(cidx for cidx, _ in phi.occ.get(v, ())) for v in sorted(phi.variables)],
        )
        sc_dual = count_set_covers(dual) & 1
        hs_dual = count_hitting_sets(dual)
        # the dual formula's models are exactly the dual hitting sets
        assert brute_count(dual_formula(phi)) == hs_dual, seed
        assert models == hs_primal == sc_dual == hs_dual & 1, seed


def test_solve_docc_three_way_cross_check():
    for seed in range(400):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        phi = gen_random_docc(rng.randint(3, 12), d, 1, 4, seed=seed)
        want = brute_parity(phi)
        assert solve_docc(phi) == want, seed
    for seed in range(200):
        phi = gen_random_docc(4 + seed % 9, 3, 1, 3, seed=seed, polarity="positive")
        assert solve_docc(phi) == solve_positive_fib(phi) == brute_parity(phi), seed


def test_solve_docc_agrees_with_occ2_at_d2():
    for seed in range(200):
        phi = gen_random_docc(4 + seed % 10, 2, 1, 3, seed=seed)
        assert solve_docc(phi) == solve_occ2(phi), seed


def test_solve_docc_on_cubic_edge_covers():
    # 24 vertices is where the capped brute-force terminal used to give out
    for nv in (24, 50):
        phi = cubic_edge_cover(random.Random(nv), nv)
        tel = Telemetry(strict=True)
        assert solve_docc(phi, telemetry=tel) == solve_occ2(phi) == solve_length(phi), nv
        assert all(slot["failed"] == 0 for slot in tel.ledger_summary().values())

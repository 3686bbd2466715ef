import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xparity.branching import clause_branch, settle_children, simple_branch, variable_branch
from xparity.formula import Formula, falsify_clause
from xparity.generators import gen_4plus_survivor
from xparity.occ2 import solve_occ2
from xparity.oracle import brute_parity
from xparity.reducer import reduce_formula
from xparity.telemetry import Telemetry


def formulas(max_n=6, max_m=6, max_len=3):
    def build(n):
        lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        clause = st.lists(lit, min_size=1, max_size=max_len).map(
            lambda ls: list(dict.fromkeys(ls))
        )
        return st.lists(clause, min_size=1, max_size=max_m).map(
            lambda cs: Formula(range(1, n + 1), cs)
        )

    return st.integers(1, max_n).flatmap(build)


def test_simple_branch_examples():
    phi = Formula([1, 2], [[1, 2]])
    branch = simple_branch(phi, 1)
    ps = [brute_parity(c) for c in branch.children]
    assert ps == [1, 0]  # y forced vs y free
    assert sum(ps) % 2 == brute_parity(phi) == 1

    phi = Formula([1], [[1]])
    ps = [brute_parity(c) for c in simple_branch(phi, 1).children]
    assert ps == [0, 1]


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_simple_branch_xor_identity(phi):
    x = min(phi.variables)
    ps = [brute_parity(c) for c in simple_branch(phi, x).children]
    assert sum(ps) % 2 == brute_parity(phi)


def test_clause_branch_examples():
    phi = Formula([1, 2], [[1, 2]])
    branch = clause_branch(phi, [1, 2])
    ps = [brute_parity(c) for c in branch.children]
    assert ps == [0, 1]  # 4 models without the clause; x=y=0 leaves 1
    assert sum(ps) % 2 == 1


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_clause_branch_xor_identity(phi):
    pivot = phi.clauses[0]
    try:
        branch = clause_branch(phi, pivot)
    except ValueError:
        return  # tautological pivot cannot be falsified
    ps = [brute_parity(c) for c in branch.children]
    assert sum(ps) % 2 == brute_parity(phi)


def test_variable_branch_two_clauses():
    # x in (x a) and (x b): children per the first-falsified-side split
    phi = Formula([1, 2, 3], [[1, 2], [1, 3]])
    branch = variable_branch(phi, 1)
    assert len(branch.children) == 2
    ps = [brute_parity(c) for c in branch.children]
    assert sum(ps) % 2 == brute_parity(phi)


def test_variable_branch_degenerate_degree_one():
    phi = Formula([1, 2, 3], [[1, 2], [2, 3]])
    branch = variable_branch(phi, 1)
    assert len(branch.children) == 1
    # single child equals assigning the side false and the literal true
    child = branch.children[0]
    assert brute_parity(child) == brute_parity(phi)


def test_variable_branch_rejects_tautological_side():
    phi = Formula([1, 2], [[1, 2, -2]])
    with pytest.raises(ValueError):
        variable_branch(phi, 1)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_variable_branch_xor_identity(phi):
    occupied = [v for v in sorted(phi.variables) if phi.degree(v) > 0]
    if not occupied:
        return
    x = occupied[0]
    try:
        branch = variable_branch(phi, x)
    except ValueError:
        return
    assert len(branch.children) == phi.degree(x)
    ps = [brute_parity(c) for c in branch.children]
    assert sum(ps) % 2 == brute_parity(phi)


def test_variable_branch_adds_real_clauses_on_reduced_input():
    rng = random.Random(3)
    checked = 0
    for seed in range(300):
        n = rng.randint(4, 12)
        clauses = [
            [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(2, 3))]
            for _ in range(rng.randint(2, 10))
        ]
        out = reduce_formula(Formula(range(1, n + 1), clauses))
        if out.parity is not None:
            continue
        psi = out.formula
        x = min(v for v in psi.variables if psi.degree(v) > 0)
        # on reduced input no side of x is already a clause (R4 would drop
        # the longer one), so each child really adds the earlier sides
        sides = {tuple(l for l in psi.clauses[cidx] if l != lit) for cidx, lit in psi.occ[x]}
        assert len(sides) == psi.degree(x) and not sides & set(psi.clauses)
        branch = variable_branch(psi, x)
        assert sum(brute_parity(c) for c in branch.children) % 2 == brute_parity(psi)
        checked += 1
    assert checked >= 20


def two_step_variable_branch(phi, x):
    """The children built the direct way: earlier sides added back by one
    derivation, then the side and x's literal falsified by another."""
    occs = phi.occ.get(x, ())
    if not occs:
        raise ValueError(f"variable {x} does not occur")
    items = [(lit, tuple(l for l in phi.clauses[cidx] if l != lit)) for cidx, lit in occs]
    for _, side in items:
        s = set(side)
        if any(-l in s for l in s):
            raise ValueError("side clause contains complementary literals; reduce first")
    children = []
    for i, (lit, side) in enumerate(items):
        child = Formula._derive(phi.variables, phi, added=[s for _, s in items[:i]])
        children.append(falsify_clause(child, side + (-lit,)))
    return children


@st.composite
def branch_cases(draw):
    """A small formula, with repeated literals, both polarities of a
    variable in one clause and tautologies allowed, plus a variable; some
    of the variable's sides are added as clauses of their own."""
    n = draw(st.integers(1, 5))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, max_size=4), max_size=8))
    x = draw(st.integers(1, n))
    phi = Formula(range(1, n + 1), clauses)
    sides = [tuple(l for l in phi.clauses[cidx] if l != l0) for cidx, l0 in phi.occ.get(x, ())]
    extra = [s for s in sides if draw(st.booleans())]
    return Formula(range(1, n + 1), clauses + extra), x


def outcome(build, phi, x):
    try:
        return [(c.variables, c.clauses, c.occ) for c in build(phi, x)]
    except ValueError as exc:
        return str(exc)


@given(branch_cases())
@settings(max_examples=400, deadline=None)
# a side that is already a clause; an earlier side the falsification
# satisfies, and one it shortens
@example((Formula([1, 2, 3], [[1, 2], [2], [1, 3]]), 1))
@example((Formula([1, 2, 3], [[1, 2], [-1, -2, 3], [1, -3]]), 1))
@example((Formula([1, 2, 3], [[1, 2, 3], [1, -2], [-1, 3, 3]]), 1))
# a clause with both polarities of x; a tautological side
@example((Formula([1, 2], [[1, -1, 2], [1, 2]]), 1))
@example((Formula([1, 2], [[1, 2, -2]]), 1))
def test_variable_branch_matches_two_step_construction(case):
    phi, x = case
    assert outcome(lambda p, v: variable_branch(p, v).children, phi, x) == outcome(
        two_step_variable_branch, phi, x
    )


# -- settle_children ----------------------------------------------------------


def records(sink) -> list:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def scripted_reduce(tel, parities):
    """A reduce that files one record of its own per child and settles
    child i to ``parities[i]`` (None: it survives as itself); ``reduced``
    lists the indices of the children reduced so far."""
    reduced = []

    def reduce(child):
        i = len(reduced)
        reduced.append(i)
        tel.event({"kind": "reduce", "child": i})
        return parities[i], None if parities[i] is not None else child

    return reduce, reduced


def three_children():
    return variable_branch(Formula([1, 2, 3, 4], [[1, 2], [1, 3], [1, 4]]), 1)


def claim_one(i, parity, rest):
    return {"drop": 1}, {"drop": 1}, True, f"child {i}"


def test_settle_children_files_reduction_then_ledger_then_leaf():
    sink = io.StringIO()
    tel = Telemetry(sink=sink)
    reduce, _ = scripted_reduce(tel, [None, 0, 1])
    branch = three_children()
    got = list(settle_children(branch, reduce, tel, 4, ("t.zero", "t.one"), "t.step", claim_one))
    assert got == [(None, branch.children[0]), (0, None), (1, None)]
    order = [(r["kind"], r.get("child"), r.get("resolved"), r.get("node")) for r in records(sink)]
    assert order == [
        ("reduce", 0, None, None), ("ledger", 0, False, None),
        ("reduce", 1, None, None), ("ledger", 1, True, None), ("leaf", None, None, "t.zero"),
        ("reduce", 2, None, None), ("ledger", 2, True, None), ("leaf", None, None, "t.one"),
    ]
    assert {r["depth"] for r in records(sink) if r["kind"] == "leaf"} == {5}
    notes = [r["note"] for r in records(sink) if r["kind"] == "ledger"]
    assert notes == ["child 0", "child 1", "child 2"] and len(tel.ledger) == 3


def test_settle_children_files_no_ledger_entry_without_a_step():
    sink = io.StringIO()
    tel = Telemetry(sink=sink)
    reduce, _ = scripted_reduce(tel, [1, None, 0])
    list(settle_children(three_children(), reduce, tel, 0, "t.settled"))
    assert [r["kind"] for r in records(sink)] == ["reduce", "leaf", "reduce", "reduce", "leaf"]
    assert len(tel.ledger) == 0 and tel.leaves == 2


def test_settle_children_reduces_a_child_only_when_resumed():
    tel = Telemetry()
    reduce, reduced = scripted_reduce(tel, [None, 1, None])
    children = settle_children(three_children(), reduce, tel, 0, "t.settled", "t.step", claim_one)
    assert reduced == []
    for i in range(3):
        next(children)
        assert reduced == list(range(i + 1)) and len(tel.ledger) == i + 1
    with pytest.raises(StopIteration):
        next(children)


def test_resolved_leaf_follows_its_own_ledger_entry():
    # 4+-clause branching files a joint check after both children, so it
    # takes them all before recursing; each settled child's leaf still
    # directly follows the child's ledger entry
    steps = set()
    for seed in range(5):
        sink = io.StringIO()
        solve_occ2(gen_4plus_survivor(seed), Telemetry(sink=sink))
        recs = records(sink)
        for j, r in enumerate(recs):
            if r["kind"] == "leaf" and r["node"] == "occ2.resolved":
                before = recs[j - 1]
                assert before["kind"] == "ledger" and before["resolved"], (seed, j)
                steps.add(before["step"])
    assert "occ2.4plus" in steps

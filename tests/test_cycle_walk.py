"""The transfer-matrix walk that settles a 2-CNF cycle, against the branch
and reduce it replaced, kept here as the oracle: branch on the first
clause and let the reducer consume the two paths that are left.

The walk must give the same parity on every cycle, take one pass round it
(no reduction, no derived formula), and refuse anything that is not one
cycle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xparity import occ2
from xparity.branching import clause_branch
from xparity.formula import Formula
from xparity.occ2 import ContractViolation, _break_cycle
from xparity.oracle import brute_parity
from xparity.reducer import ReducerInvariantError, reduce_formula

# -- the oracle: clause-branch, then reduce both paths -----------------------


def branch_and_reduce(sub: Formula) -> int:
    p = 0
    for child in clause_branch(sub, sub.clauses[0]).children:
        res = reduce_formula(child)
        assert res.parity is not None, "breaking a cycle must leave reducible paths"
        p ^= res.parity
    return p


# -- cycles -------------------------------------------------------------------


def cycle_clauses(rng: random.Random, labels: list) -> list:
    """One randomly signed clause per step round labels[0] - ... - labels[-1]."""
    k = len(labels)
    return [
        [rng.choice([v, -v]), rng.choice([w, -w])]
        for v, w in ((labels[i], labels[(i + 1) % k]) for i in range(k))
    ]


def relabelled_cycle(rng: random.Random, k: int) -> Formula:
    """A signed cycle over 1..k whose walk order is a random permutation of
    the variables, so clause order differs from walk order."""
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    return Formula(labels, cycle_clauses(rng, labels))


# -- properties ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 400), st.integers(0, 2**32))
def test_walk_matches_branch_and_reduce(k, seed):
    sub = relabelled_cycle(random.Random(seed), k)
    got = _break_cycle(sub, range(sub.m))
    assert got == branch_and_reduce(sub)
    if k <= 20:
        assert got == brute_parity(sub)


def test_walk_on_every_sign_pattern_of_small_cycles():
    for k in (3, 4, 5):
        for signs in range(4**k):
            clauses = []
            for i in range(k):
                v, w = i + 1, (i + 1) % k + 1
                s = signs >> (2 * i)
                clauses.append([v if s & 1 else -v, w if s & 2 else -w])
            sub = Formula(range(1, k + 1), clauses)
            assert _break_cycle(sub, range(sub.m)) == brute_parity(sub), clauses


# -- shapes that are not one cycle ------------------------------------------------


def test_path_is_refused():
    path = Formula(range(1, 6), [[1, 2], [-2, 3], [3, -4], [4, 5]])
    with pytest.raises(ReducerInvariantError, match="occurs 1 times"):
        _break_cycle(path, range(path.m))


def test_two_disjoint_cycles_are_refused():
    rng = random.Random(7)
    clauses = cycle_clauses(rng, list(range(1, 13))) + cycle_clauses(rng, list(range(13, 25)))
    with pytest.raises(ReducerInvariantError, match="closed after 12 of 24 clauses"):
        _break_cycle(Formula(range(1, 25), clauses), range(24))


def test_cycle_with_a_degree_one_variable_is_refused():
    clauses = cycle_clauses(random.Random(8), list(range(1, 13))) + [[-13, 14], [-14, 15]]
    with pytest.raises(ReducerInvariantError, match="variable 13 occurs 1 times"):
        _break_cycle(Formula(range(1, 16), clauses), range(14))


def test_a_unit_clause_does_not_continue_the_walk():
    # every variable occurs twice, but one clause has a single literal
    sub = Formula(range(1, 4), [[1, 2], [-2, 3], [3], [-1]])
    with pytest.raises(ReducerInvariantError, match="does not continue the walk"):
        _break_cycle(sub, range(sub.m))


def test_a_3_clause_is_a_contract_violation():
    sub = Formula(range(1, 4), [[1, 2, 3], [-1, -2, -3]])
    with pytest.raises(ContractViolation):
        _break_cycle(sub, range(sub.m))


# -- cost -----------------------------------------------------------------------


def test_walk_reduces_and_derives_nothing(monkeypatch):
    sub = relabelled_cycle(random.Random(5000), 5000)
    reductions, derivations = [], []
    reduce = occ2.reduce_formula
    derive = Formula._derive.__func__
    monkeypatch.setattr(
        occ2, "reduce_formula", lambda phi, **kw: reductions.append(1) or reduce(phi, **kw)
    )
    monkeypatch.setattr(
        Formula,
        "_derive",
        classmethod(lambda cls, *a, **kw: derivations.append(1) or derive(cls, *a, **kw)),
    )
    _break_cycle(sub, range(sub.m))
    assert (len(reductions), len(derivations)) == (0, 0)

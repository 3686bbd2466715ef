from collections import Counter

import pytest

from refcount import cycle_parity
from workloads import CYCLE_LENGTHS, LENGTH_SHAPES, WORKLOADS, make_instance


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = [make_instance(workload, 5, i) for i in range(4)]
    again = [make_instance(workload, 5, i) for i in range(4)]
    other = [make_instance(workload, 6, i) for i in range(4)]
    assert [i.dimacs() for i in first] == [i.dimacs() for i in again]
    assert [i.dimacs() for i in first] != [i.dimacs() for i in other]


def _occurrences(inst):
    return Counter(abs(l) for c in inst.clauses for l in c)


def test_cubic_edge_cover_shape():
    inst = make_instance("occ2-cubic", 0, 0)
    assert all(len(c) == 3 and all(l > 0 for l in c) for c in inst.clauses)
    assert set(_occurrences(inst).values()) == {2}
    assert len(_occurrences(inst)) == inst.nvars


def test_length_regular_shapes_rotate():
    for i, (n, d, k, signed) in enumerate(LENGTH_SHAPES):
        inst = make_instance("length-regular", 0, i)
        assert inst.nvars == n
        assert all(len(set(map(abs, c))) == k for c in inst.clauses)
        assert set(_occurrences(inst).values()) == {d}
        assert any(l < 0 for c in inst.clauses for l in c) == signed


def test_cycles_are_two_occurrence_two_cnf():
    inst = make_instance("occ2-2cnf-cycles", 0, 0)
    assert all(len(c) == 2 for c in inst.clauses)
    assert set(_occurrences(inst).values()) == {2}
    assert sum(len(c) for c in inst.cycles) == inst.nvars


def test_cycles_have_fixed_lengths_and_alternate_parity():
    for i in range(6):
        inst = make_instance("occ2-2cnf-cycles", 3, i)
        assert sorted(len(c) for c in inst.cycles) == sorted(CYCLE_LENGTHS)
        parities = [cycle_parity(c) for c in inst.cycles]
        assert parities[:-1] == [1] * (len(parities) - 1)
        assert parities[-1] == (0 if i % 2 else 1)

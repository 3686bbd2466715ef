"""The multigraph build against the one it replaced, kept here verbatim as
the oracle: it walks from every slot (3-clause, variable) not yet met,
direct sharings included, and sorts the edges on pairs of clause sort
keys.

Both must return the same vertices and the same edge list, labels and the
order of parallel edges included, so the crossing edges that
``bisection_solve`` branches on come in the same order; on input outside
the contract both must raise the same error.
"""

import random

from hypothesis import given, settings

from test_occ2 import cubic_edge_cover, planted_loops
from xparity.formula import Formula, var_of
from xparity.generators import gen_random_docc
from xparity.occ2 import (
    ClauseMultigraph,
    ContractViolation,
    MultiEdge,
    _walk,
    build_multigraph,
)
from xparity.reducer import ReducerInvariantError, reduce_formula


# -- the oracle: a walk from every slot ---------------------------------------


def walk_every_slot(phi: Formula) -> ClauseMultigraph:
    """Requires every variable to have degree exactly 2 and clause lengths in
    {2, 3} (the shape reduction guarantees on 2-occ input)."""
    three = [i for i, c in enumerate(phi.clauses) if len(c) == 3]
    # one pass over the lengths each; the loops only name the offender
    if not set(map(len, phi.clauses)) <= {2, 3}:
        for c in phi.clauses:
            if len(c) not in (2, 3):
                raise ContractViolation(f"clause {c} has length {len(c)}")
    # the variables that occur are the keys of occ, so all have degree 2
    # when there are n keys, each with two occurrences
    if len(phi.occ) != phi.n or not set(map(len, phi.occ.values())) <= {2}:
        for v in phi.variables:
            if phi.degree(v) != 2:
                raise ContractViolation(f"variable {v} has degree {phi.degree(v)}; want exactly 2")
    keyed = []  # (sort key, edge); the keys are the formula's own
    seen_slots = set()
    for cidx in three:
        for v in sorted({var_of(l) for l in phi.clauses[cidx]}):
            if (cidx, v) in seen_slots:
                continue
            end_idx, end_var, _, _ = _walk(phi, cidx, v)
            if len(phi.clauses[end_idx]) != 3:
                raise ReducerInvariantError("chain ended in a non-3-clause")
            seen_slots.add((cidx, v))
            seen_slots.add((end_idx, end_var))
            key = sorted((phi.keys[cidx], phi.keys[end_idx]))
            keyed.append((key, MultiEdge(phi.clauses[cidx], phi.clauses[end_idx], v)))
    keyed.sort(key=lambda pair: pair[0])
    return ClauseMultigraph(frozenset(phi.clauses[i] for i in three), [e for _, e in keyed])


def built(build, phi: Formula):
    """(vertices, edges), or the error raised, by type and message."""
    try:
        g = build(phi)
    except (ContractViolation, ReducerInvariantError) as exc:
        return type(exc), str(exc)
    return g.vertices, [(e.u, e.v, e.label) for e in g.edges]


def assert_same_multigraph(phi: Formula) -> bool:
    """Whether phi met the contract; the builds agree either way."""
    want = built(walk_every_slot, phi)
    assert built(build_multigraph, phi) == want, phi
    return isinstance(want[0], frozenset)


# -- formulas -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(planted_loops())
def test_planted_self_loops(phi):
    assert_same_multigraph(phi)
    out = reduce_formula(phi)
    if out.parity is None:
        assert_same_multigraph(out.formula)


def test_reduced_random_two_occurrence_formulas():
    met = 0
    for seed in range(150):
        out = reduce_formula(gen_random_docc(20, 2, 2, 3, seed=seed))
        if out.parity is None:
            met += assert_same_multigraph(out.formula)
    assert met > 40


def test_cubic_edge_covers():
    for nv in (14, 16, 22, 30, 40, 50, 64, 80):
        for seed in range(3):
            assert assert_same_multigraph(cubic_edge_cover(random.Random(1000 * nv + seed), nv))


def test_input_outside_the_contract():
    for clauses in (
        [[1, -1, 2], [-2, 3, -3]],  # variables held twice by one clause
        [[1, 1, 2], [-2, 3, 4], [-3, -4]],
        [[1, 2, 3], [-1, -2]],  # 3 has degree 1
        [[1, 2, 3, 4], [-1, -2, -3, -4]],  # a 4-clause
        [[1, 2], [-1, -2]],  # no 3-clause: no vertex, no edge
    ):
        n = max(abs(l) for c in clauses for l in c)
        assert_same_multigraph(Formula(range(1, n + 1), clauses))

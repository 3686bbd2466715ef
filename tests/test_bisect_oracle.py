"""The gain-based Kernighan-Lin bisection against the all-pairs swap scan
it replaced, kept here verbatim as the oracle: for every candidate swap
that scan counts the cut edges at the two vertices before and after.

Both must return the same partition and the same cut list, so the search
trees of ``solve_occ2`` do not depend on which one runs.  Every graph here
has more than ``EXHAUSTIVE_BISECT_BELOW`` vertices, where local search
takes over from enumeration.
"""

import random
import signal
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from test_occ2 import cubic_edge_cover
from xparity.formula import Formula, clause_sort_key
from xparity.occ2 import (
    EXHAUSTIVE_BISECT_BELOW,
    KL_RESTARTS,
    ClauseMultigraph,
    MultiEdge,
    Partition,
    _cut_size,
    bisect_multigraph,
    build_multigraph,
)

SEEDS = (0, 1, 5)


# -- the oracle: all-pairs swap scan ------------------------------------------


def all_pairs_bisect(graph: ClauseMultigraph, seed: int = 0) -> Partition:
    verts = sorted(graph.vertices, key=clause_sort_key)
    nv = len(verts)
    assert nv > EXHAUSTIVE_BISECT_BELOW
    edges = [e for e in graph.edges if not e.is_loop()]

    def finish(a_set):
        a = frozenset(a_set)
        b = frozenset(v for v in verts if v not in a)
        in_a = {v: (v in a) for v in verts}
        return Partition(a, b, [e for e in edges if in_a[e.u] != in_a[e.v]])

    rng = random.Random(seed)
    incident: dict = {v: [] for v in verts}
    for e in edges:
        incident[e.u].append(e)
        if e.v != e.u:
            incident[e.v].append(e)
    best = None
    for _ in range(KL_RESTARTS):
        shuffled = verts[:]
        rng.shuffle(shuffled)
        half = (nv + 1) // 2
        in_a = {v: i < half for i, v in enumerate(shuffled)}
        cut = _cut_size(edges, in_a)
        improved = True
        while improved:
            improved = False
            best_gain, best_pair = 0, None
            a_side = [v for v in verts if in_a[v]]
            b_side = [v for v in verts if not in_a[v]]
            for va in a_side:
                for vb in b_side:
                    touched = {id(e): e for e in incident[va] + incident[vb]}
                    before = sum(
                        1 for e in touched.values() if in_a[e.u] != in_a[e.v]
                    )
                    in_a[va], in_a[vb] = False, True
                    after = sum(
                        1 for e in touched.values() if in_a[e.u] != in_a[e.v]
                    )
                    in_a[va], in_a[vb] = True, False
                    gain = before - after
                    if gain > best_gain:
                        best_gain, best_pair = gain, (va, vb)
            if best_pair is not None:
                va, vb = best_pair
                in_a[va], in_a[vb] = False, True
                cut -= best_gain
                improved = True
        a = frozenset(v for v in verts if in_a[v])
        key = (cut, tuple(sorted(map(clause_sort_key, a))))
        if best is None or key < best[0]:
            best = (key, a)
    return finish(best[1])


@contextmanager
def time_limit(seconds: int):
    def stop(signum, frame):
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_same_bisections(g: ClauseMultigraph):
    for seed in SEEDS:
        # every accepted swap lowers the cut, so a search that is still
        # swapping after a few seconds (milliseconds are needed) never stops
        with time_limit(5):
            got = bisect_multigraph(g, seed)
        want = all_pairs_bisect(g, seed)
        assert (got.a, got.b, got.cut) == (want.a, want.b, want.cut), seed


# -- graphs -------------------------------------------------------------------


def vertex(k: int) -> tuple:
    return (3 * k + 1, 3 * k + 2, 3 * k + 3)


@st.composite
def multigraphs(draw):
    """Random multigraphs with parallel chain edges and loops; optionally
    split into two parts no edge joins, and with a few isolated vertices."""
    nv = draw(st.integers(EXHAUSTIVE_BISECT_BELOW + 1, 40))
    isolated = draw(st.integers(0, 2))
    split = draw(st.integers(0, nv - isolated))  # 0: one part
    ends = st.integers(0, nv - isolated - 1)
    edge = st.tuples(ends, ends, st.integers(1, 3))
    raw = draw(st.lists(edge, min_size=nv // 2, max_size=2 * nv))
    edges = []
    for i, j, mult in raw:
        if split and (i < split) != (j < split):
            continue
        for _ in range(mult):
            edges.append(MultiEdge(vertex(i), vertex(j), ("chain", len(edges))))
    return ClauseMultigraph(frozenset(map(vertex, range(nv))), edges)


def shifted(phi, by: int) -> list:
    return [tuple(l + by if l > 0 else l - by for l in c) for c in phi.clauses]


# -- properties ---------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(7, 40), st.integers(0, 2**32))
def test_cubic_edge_cover_multigraphs(half, graph_seed):
    phi = cubic_edge_cover(random.Random(graph_seed), 2 * half)
    assert_same_bisections(build_multigraph(phi))


@settings(max_examples=40, deadline=None)
@given(multigraphs())
def test_random_multigraphs(g):
    assert_same_bisections(g)


def test_disconnected_cubic_edge_covers_and_an_isolated_vertex():
    one = cubic_edge_cover(random.Random(3), 16)
    two = cubic_edge_cover(random.Random(4), 14)
    both = Formula(range(1, one.n + two.n + 1), list(one.clauses) + shifted(two, one.n))
    g = build_multigraph(both)
    assert_same_bisections(g)
    lone = (both.n + 1, both.n + 2, both.n + 3)
    assert_same_bisections(ClauseMultigraph(g.vertices | {lone}, g.edges))


def test_dense_multigraphs_where_a_vertex_neighbours_all_of_b():
    # the pair search takes i's best non-neighbour from B in (-d, index)
    # order; here some i has none, so only its neighbours are candidates
    for nv, extra in ((14, 0), (15, 20), (17, 40)):
        rng = random.Random(nv)
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        pairs += [rng.choice(pairs) for _ in range(extra)]
        edges = [MultiEdge(vertex(i), vertex(j), ("chain", k)) for k, (i, j) in enumerate(pairs)]
        assert_same_bisections(ClauseMultigraph(frozenset(map(vertex, range(nv))), edges))
    # a star of parallel edges: its centre neighbours every vertex
    edges = [
        MultiEdge(vertex(0), vertex(j), ("chain", 2 * j + k)) for j in range(1, 16) for k in (0, 1)
    ]
    edges += [MultiEdge(vertex(j), vertex(j + 1), ("chain", 100 + j)) for j in range(1, 15, 3)]
    assert_same_bisections(ClauseMultigraph(frozenset(map(vertex, range(16))), edges))

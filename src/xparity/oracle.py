"""Brute-force ground-truth counters.

Deliberately the dumbest possible oracles: every counter enumerates the full
space.  Enumeration is done on big-integer bitmaps (one bit per assignment /
subset), so the Python loop is over clauses or sets, not over the 2^n
space; counts are exact arbitrary-precision ints.  There is one such loop,
``_models``, over clauses: a hitting set is a model of one positive clause
per family member over the universe, a set cover one of one positive clause
per element over the family.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from .formula import Formula


class CapExceeded(Exception):
    """Raised when an instance is larger than the oracle cap."""


VAR_CAP = 24  # variables of a formula
SET_CAP = 20  # universe or family of a set system, edges or vertices of a graph


@functools.cache
def _pattern(i: int, width: int) -> int:
    """Bit pattern with bit a set iff (a >> i) & 1, over 2**width bits."""
    block = 1 << i
    p = ((1 << block) - 1) << block
    span = block * 2
    total = 1 << width
    while span < total:
        p |= p << span
        span *= 2
    return p


# -- CNF model counting ------------------------------------------------------


def _models(width: int, clauses) -> int:
    """Assignments to the variables 1..width satisfying every clause, each
    a collection of literals over them: the AND over clauses of the OR of
    their literals' patterns, over 2**width bits."""
    acc = (1 << (1 << width)) - 1
    for clause in clauses:
        cm = 0
        for lit in clause:
            p = _pattern(abs(lit) - 1, width)
            cm |= p if lit > 0 else ~p
        acc &= cm
        if acc == 0:
            return 0
    return acc.bit_count()


def count_models(variables, clauses) -> int:
    """Exact number of assignments to the distinct ids ``variables`` that
    satisfy every clause over them.  A variable absent from every clause is
    free and doubles the count."""
    order = dict(zip(variables, itertools.count(1)))
    n = len(order)
    if n > VAR_CAP:
        raise CapExceeded(f"{n} variables exceeds oracle cap {VAR_CAP}")
    return _models(n, ([order[l] if l > 0 else -order[-l] for l in c] for c in clauses))


def brute_count(phi: Formula) -> int:
    """Exact number of satisfying assignments over the full variable set."""
    return count_models(phi.variables, phi.clauses)


def brute_parity(phi: Formula) -> int:
    return brute_count(phi) & 1


# -- set systems -------------------------------------------------------------


@dataclass(frozen=True)
class SetSystem:
    """Universe plus a family of subsets.  The family is a tuple (members
    may repeat: the dual of a formula keeps one set per variable)."""

    universe: frozenset
    family: tuple

    def __post_init__(self):
        fam = tuple(frozenset(s) for s in self.family)
        object.__setattr__(self, "universe", frozenset(self.universe))
        object.__setattr__(self, "family", fam)
        for s in fam:
            if not s <= self.universe:
                raise ValueError("family member not contained in universe")


def count_hitting_sets(system: SetSystem) -> int:
    """Number of H subseteq U intersecting every family member.  An empty
    set in the family admits no hitting set."""
    u = system.universe
    if len(u) > SET_CAP:
        raise CapExceeded(f"universe size {len(u)} exceeds cap {SET_CAP}")
    order = dict(zip(u, itertools.count(1)))
    return _models(len(u), ([order[e] for e in s] for s in system.family))


def count_set_covers(system: SetSystem) -> int:
    """Number of subcollections of the family whose union is the universe."""
    fam = system.family
    if len(fam) > SET_CAP:
        raise CapExceeded(f"family size {len(fam)} exceeds cap {SET_CAP}")
    return _models(
        len(fam), ([j for j, s in enumerate(fam, 1) if e in s] for e in system.universe)
    )


# -- graphs ------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without loops or parallel edges."""

    vertices: frozenset
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        vs = frozenset(self.vertices)
        es = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError("loops not allowed")
            if u not in vs or v not in vs:
                raise ValueError("edge endpoint outside vertex set")
            es.add(frozenset((u, v)))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(es))

    def degree(self, v) -> int:
        return sum(1 for e in self.edges if v in e)


def count_vertex_covers(graph: SimpleGraph) -> int:
    """Vertex covers are exactly hitting sets of the edge system."""
    return count_hitting_sets(SetSystem(graph.vertices, tuple(graph.edges)))


def count_edge_covers(graph: SimpleGraph) -> int:
    """Edge covers are exactly set covers of the vertices by the edges; 0
    if some vertex is isolated."""
    return count_set_covers(SetSystem(graph.vertices, tuple(graph.edges)))


def inclusion_exclusion_edge_covers(graph: SimpleGraph) -> int:
    """Evaluate the alternating sum over vertex subsets S of
    (-1)^|S| * 2^|E(G-S)|; equals the direct edge-cover count."""
    vs = sorted(graph.vertices)
    if len(vs) > SET_CAP:
        raise CapExceeded(f"{len(vs)} vertices exceeds cap {SET_CAP}")
    order = {v: i for i, v in enumerate(vs)}
    edges = sorted(graph.edges, key=sorted)
    inc = [0] * len(vs)
    for j, e in enumerate(edges):
        u, v = sorted(e)
        inc[order[u]] |= 1 << j
        inc[order[v]] |= 1 << j
    nbits = len(vs)
    m = len(edges)
    # touched[S] = set of edges meeting S, filled by peeling the lowest bit
    touched = [0] * (1 << nbits)
    total = 0
    for mask in range(1 << nbits):
        if mask:
            low = mask & -mask
            touched[mask] = touched[mask ^ low] | inc[low.bit_length() - 1]
        surviving = m - touched[mask].bit_count()
        total += (-1) ** (mask.bit_count() & 1) * (1 << surviving)
    return total

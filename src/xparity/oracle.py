"""Brute-force ground-truth counters.

Deliberately the dumbest possible oracles: every counter enumerates the full
space.  Enumeration is done on big-integer bitmaps (one bit per assignment /
subset), so the Python loop is over clauses or sets, not over the 2^n
space; counts are exact arbitrary-precision ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from .formula import Formula, var_of


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


def _all_ones(width: int) -> int:
    return (1 << (1 << width)) - 1


# -- CNF model counting ------------------------------------------------------


def brute_count(phi: Formula) -> int:
    """Exact number of satisfying assignments over the full variable set.

    Variables absent from every clause are free and double the count.
    """
    n = phi.n
    if n > VAR_CAP:
        raise CapExceeded(f"{n} variables exceeds oracle cap {VAR_CAP}")
    order = {v: i for i, v in enumerate(sorted(phi.variables))}
    acc = _all_ones(n)
    for clause in phi.clauses:
        cm = 0
        for lit in clause:
            p = _pattern(order[var_of(lit)], n)
            cm |= p if lit > 0 else ~p
        acc &= cm
        if acc == 0:
            return 0
    return (acc & _all_ones(n)).bit_count()


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
    u = sorted(system.universe)
    if len(u) > SET_CAP:
        raise CapExceeded(f"universe size {len(u)} exceeds cap {SET_CAP}")
    order = {e: i for i, e in enumerate(u)}
    width = len(u)
    acc = _all_ones(width)
    for s in system.family:
        hit = 0
        for e in s:
            hit |= _pattern(order[e], width)
        acc &= hit
        if acc == 0:
            return 0
    return (acc & _all_ones(width)).bit_count()


def count_set_covers(system: SetSystem) -> int:
    """Number of subcollections of the family whose union is the universe."""
    fam = system.family
    if len(fam) > SET_CAP:
        raise CapExceeded(f"family size {len(fam)} exceeds cap {SET_CAP}")
    width = len(fam)
    acc = _all_ones(width)
    for e in system.universe:
        covered = 0
        for j, s in enumerate(fam):
            if e in s:
                covered |= _pattern(j, width)
        acc &= covered
        if acc == 0:
            return 0
    return (acc & _all_ones(width)).bit_count()


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
    """Edge subsets touching every vertex; 0 if some vertex is isolated."""
    edges = sorted(graph.edges, key=sorted)
    if len(edges) > SET_CAP:
        raise CapExceeded(f"{len(edges)} edges exceeds cap {SET_CAP}")
    width = len(edges)
    acc = _all_ones(width)
    for v in graph.vertices:
        touched = 0
        for j, e in enumerate(edges):
            if v in e:
                touched |= _pattern(j, width)
        acc &= touched
        if acc == 0:
            return 0
    return (acc & _all_ones(width)).bit_count()


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

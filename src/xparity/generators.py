"""Instance generators: random bounded-occurrence CNF, graph encodings,
and targeted patterns that guarantee coverage of the rarer reduction rules.

Everything is deterministic under its seed.
"""

from __future__ import annotations

import random

from .formula import Formula, canonical_clause
from .oracle import SimpleGraph


class GenerationError(ValueError):
    pass


def gen_random_docc(
    n: int,
    d: int,
    min_len: int = 2,
    max_len: int = 3,
    m: int | None = None,
    seed: int = 0,
    polarity: str = "mixed",
) -> Formula:
    """Random formula over variables 1..n where each variable occurs at most
    d times.  polarity is "mixed" or "positive".  When m is None, clauses are
    drawn until the occurrence budget runs dry."""
    if d < 1:
        raise GenerationError("d must be at least 1")
    if min_len < 1 or max_len < min_len:
        raise GenerationError("bad length range")
    if m is not None and m * min_len > n * d:
        raise GenerationError(
            f"infeasible: {m} clauses of length >= {min_len} need more than {n * d} occurrences"
        )
    rng = random.Random(seed)
    budget = {v: d for v in range(1, n + 1)}
    clauses = []
    target = m if m is not None else n * d  # upper bound on attempts
    while len(clauses) < target:
        avail = [v for v in range(1, n + 1) if budget[v] > 0]
        if len(avail) < min_len:
            break
        k = rng.randint(min_len, min(max_len, len(avail)))
        vs = rng.sample(avail, k)
        lits = []
        for v in vs:
            if polarity == "positive":
                lits.append(v)
            else:
                lits.append(rng.choice([v, -v]))
            budget[v] -= 1
        clauses.append(lits)
        if m is None and all(b == 0 for b in budget.values()):
            break
    if m is not None and len(clauses) < m:
        raise GenerationError("occurrence budget exhausted before reaching m clauses")
    return Formula(range(1, n + 1), clauses)


def random_graph(n: int, p: float, seed: int = 0) -> SimpleGraph:
    """G(n, p) on vertices 1..n; with n > 1, each vertex left isolated gets
    one edge to a random other vertex."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    if n > 1:
        present = {x for e in edges for x in e}
        for v in range(1, n + 1):
            if v not in present:
                w = rng.choice([u for u in range(1, n + 1) if u != v])
                edges.append((min(v, w), max(v, w)))
                present.add(v)
                present.add(w)
    return SimpleGraph(range(1, n + 1), edges)


def gen_edge_cover_formula(graph: SimpleGraph) -> Formula:
    """Edge-cover encoding: one positive variable per edge, one clause per
    vertex requiring an incident edge.  Each variable occurs exactly twice
    positively; the formula's parity is the edge-cover count mod 2."""
    if any(graph.degree(v) == 0 for v in graph.vertices):
        raise GenerationError("graph has an isolated vertex: the formula would contain an empty clause")
    edges = sorted(graph.edges, key=sorted)
    index = {e: i + 1 for i, e in enumerate(edges)}
    clauses = []
    for v in sorted(graph.vertices):
        clauses.append([index[e] for e in edges if v in e])
    return Formula(range(1, len(edges) + 1), clauses)


# -- targeted patterns for the rare rules -------------------------------------


def _pad(rng: random.Random, clauses: list, first_free: int, extra_vars: int) -> list:
    """Append a random 2-occ tail over fresh variables so the pattern sits
    inside a bigger formula."""
    vs = list(range(first_free, first_free + extra_vars))
    if len(vs) >= 2:
        for i in range(0, len(vs) - 1, 2):
            a, b = vs[i], vs[i + 1]
            clauses.append([rng.choice([a, -a]), rng.choice([b, -b])])
    return clauses


def gen_rule_trigger(rule_id: str, seed: int = 0) -> Formula:
    """A formula where the given reduction rule is applicable (possibly among
    others); used to guarantee per-rule firing coverage."""
    rng = random.Random(seed)
    pad_n = rng.randint(0, 4) * 2

    if rule_id == "R1":
        clauses = [[], [1, 2]]
        base = 3
    elif rule_id == "R2":
        clauses = [[1, 1, rng.choice([2, -2])], [2, 3]]
        base = 4
    elif rule_id == "R3":
        clauses = [[1, -1, 2], [2, 3]]
        base = 4
    elif rule_id == "R4":
        c = [rng.choice([1, -1]), rng.choice([2, -2])]
        clauses = [c, c + [3], [3, 4]]
        base = 5
    elif rule_id == "R5":
        clauses = [[rng.choice([1, -1])], [1, 2], [2, 3]]
        base = 4
    elif rule_id == "R6":
        clauses = [[1, 2]]
        base = 4  # variable 3 never occurs
    elif rule_id == "R7":
        clauses = [[1, 2, 3], [2, 4], [3, 4]]  # variable 1 occurs once
        base = 5
    elif rule_id == "R8":
        # literal 2 in every clause of variable 1, plus an extra occurrence
        clauses = [[1, 2], [-1, 2, 3], [3, 4], [4, -2]]
        base = 5
    elif rule_id == "R9":
        s1 = rng.choice([1, -1])
        clauses = [[s1, 2, 3], [-s1, -2, 4], [3, 5], [4, 5]]
        base = 6
    elif rule_id == "R10":
        clauses = [[1, 2], [-1, 2, 3], [3, 4], [2, 4]]
        base = 5
    elif rule_id == "R11":
        clauses = [[1, 2], [-1, -2], [1, 3], [2, 4], [3, 4]]
        base = 5
    elif rule_id == "R12":
        k = rng.randint(1, 4)
        island = [[i, i + 1] for i in range(1, k + 1)]
        clauses = island + [[k + 2, k + 3], [k + 3, k + 4], [k + 4, k + 2]]
        base = k + 5
    elif rule_id == "R13":
        # clauses on {1,2,3} and {1,4,5} hinge on variable 1 only
        clauses = [[1, 2], [2, 3], [3, 1], [-1, 4], [4, 5], [5, -1]]
        base = 6
    else:
        raise GenerationError(f"unknown rule {rule_id}")

    return Formula(
        range(1, base + pad_n),
        _pad(rng, [canonical_clause(c) for c in clauses], base, pad_n),
    )


def gen_4plus_survivor(seed: int = 0) -> Formula:
    """Reduced 2-occ instance whose longest clause is a 4-clause and whose
    clause branching leaves both children unsettled: the 4-clause feeds
    3-clause neighbors whose spill variables land in length-4 absorbers, so
    the reduction cascade stops at 2-clauses on both sides."""
    rng = random.Random(seed)
    a = [1, 2, 3, 4]
    p = [5, 6, 7, 8]
    q = [9, 10, 11, 12]
    x = [13, 14, 15, 16]
    y = [17, 18, 19, 20]
    z = [21, 22]
    sx = [rng.choice([1, -1]) for _ in range(4)]
    sy = [rng.choice([1, -1]) for _ in range(4)]
    clauses = [a[:]]  # the pivot 4-clause
    for i in range(4):
        clauses.append([a[i], p[i], q[i]])
    clauses.append([p[0], p[1], x[0], x[1]])
    clauses.append([p[2], p[3], x[2], x[3]])
    clauses.append([q[0], q[1], y[0], y[1]])
    clauses.append([q[2], q[3], y[2], y[3]])
    # closers interleave the x and y sides so the drop-branch residue stays
    # one component and out of the isolate rule's reach
    clauses.append([sx[0] * x[0], sy[0] * y[0], z[0]])
    clauses.append([sx[1] * x[1], sy[2] * y[2], -z[0]])
    clauses.append([sx[2] * x[2], sy[1] * y[1], z[1]])
    clauses.append([sx[3] * x[3], sy[3] * y[3], -z[1]])
    return Formula(range(1, 23), clauses)

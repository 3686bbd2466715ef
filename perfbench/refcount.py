"""Reference parities that share no code with the xparity solvers.

``cnf_parity`` counts models modulo 2 by variable elimination over GF(2):
every clause is a 0/1 table over its variables, and eliminating a variable
multiplies the tables that mention it and sums it out (XOR).  Tables over
disjoint variable sets are never multiplied, so independent components are
counted separately.  The order is the narrowest of a few greedy min-fill
orders, which keeps the tables small on the sparse bounded-occurrence
formulas the benchmark draws.  A
variable that no remaining table mentions is free and doubles the count,
so the parity is 0 at once.

``cycle_parity`` is the closed form for a 2-CNF whose clauses form one
cycle: the model count is the trace of the product of the clauses' 2x2
transfer matrices.
"""

from __future__ import annotations

import random

import numpy as np

# A step of width w holds two tables of 2**(w-1) bytes, 32 MiB each at 26;
# wider instances are refused rather than allowed to exhaust memory.
MAX_TABLE_VARS = 26
ORDER_TRIES = 8
EASY_WIDTH = 20  # 1 MiB tables: not worth a search for a narrower order


class ReferenceTooWide(ValueError):
    """The elimination order needs a table over more than MAX_TABLE_VARS."""


def _clause_table(clause):
    """(variables, table) for one clause, or None for a tautology."""
    lits = {}
    for lit in clause:
        if lits.get(abs(lit), lit) != lit:
            return None
        lits[abs(lit)] = lit
    vs = tuple(sorted(lits))
    table = np.ones((2,) * len(vs), dtype=np.uint8)
    table[tuple(0 if lits[v] > 0 else 1 for v in vs)] = 0  # the falsifying row
    return vs, table


def _fill_in(adj, v):
    nb = sorted(adj[v])
    return sum(1 for i, a in enumerate(nb) for b in nb[i + 1 :] if b not in adj[a])


def elimination_order(adj):
    """(width, order): greedy min-fill, ties broken by degree and then at
    random (fixed seed), retried up to ORDER_TRIES times while the width
    exceeds EASY_WIDTH.  Width is the largest number of variables one
    elimination step involves."""
    best = None
    rng = random.Random(0)
    for _ in range(ORDER_TRIES):
        if best is not None and best[0] <= EASY_WIDTH:
            break
        graph = {v: set(nb) for v, nb in adj.items()}
        order, width = [], 0
        while graph:
            x = min(graph, key=lambda v: (_fill_in(graph, v), len(graph[v]), rng.random()))
            neighbours = graph.pop(x)
            width = max(width, len(neighbours) + 1)
            for v in neighbours:
                graph[v].discard(x)
                graph[v].update(w for w in neighbours if w != v)
            order.append(x)
        if best is None or width < best[0]:
            best = (width, order)
    return best


def _product(tables, x, value, rest):
    """Product of the tables' x=value slices, as a full table over rest."""
    axis = {v: i for i, v in enumerate(rest)}
    out = np.ones((2,) * len(rest), dtype=np.uint8)
    for vs, table in tables:
        table = np.take(table, value, axis=vs.index(x))
        shape = [1] * len(rest)
        for v in vs:
            if v != x:
                shape[axis[v]] = 2
        out &= table.reshape(shape)
    return out


def cnf_parity(nvars: int, clauses) -> int:
    """Parity of the number of models of a CNF over variables 1..nvars."""
    tables = []
    adj = {v: set() for v in range(1, nvars + 1)}
    for clause in clauses:
        if not clause:
            return 0
        made = _clause_table(clause)
        if made is None:
            continue
        tables.append(made)
        for v in made[0]:
            adj[v].update(made[0])
            adj[v].discard(v)
    width, order = elimination_order(adj)
    if width > MAX_TABLE_VARS:
        raise ReferenceTooWide(f"elimination needs a table over {width} variables")
    for x in order:
        mine = [t for t in tables if x in t[0]]
        if not mine:
            return 0
        tables = [t for t in tables if x not in t[0]]
        rest = sorted({v for vs, _ in mine for v in vs} - {x})
        # multiply the x=0 and x=1 slices separately and XOR them, so no
        # table over x itself is ever built
        summed = _product(mine, x, 0, rest) ^ _product(mine, x, 1, rest)
        if rest:
            tables.append((tuple(rest), summed))
        elif not int(summed):
            return 0
    return 1


def cycle_parity(links) -> int:
    """Parity of a 2-CNF whose clauses form one cycle v1-v2-...-vk-v1.

    ``links`` lists the clauses in cycle order as pairs (p, q): p is a
    literal of v_i and q a literal of v_{i+1}.  The model count is
    trace(M_1 ... M_k) with M_i[a][b] = 1 when clause i holds under
    v_i=a, v_{i+1}=b; it is kept modulo 2.
    """
    prod = ((1, 0), (0, 1))
    for p, q in links:
        m = [[int(a == (p > 0) or b == (q > 0)) for b in (0, 1)] for a in (0, 1)]
        prod = tuple(
            tuple((prod[r][0] * m[0][c] + prod[r][1] * m[1][c]) & 1 for c in (0, 1))
            for r in (0, 1)
        )
    return (prod[0][0] + prod[1][1]) & 1

"""Bounded-occurrence solving through positive formulas.

Clause branching on a clause holding a mixed variable's positive literal
drops one clause on the keep side and at least two on the falsify side, so
every formula reduces to a tree of all-positive leaves.  A positive
formula's models are exactly the hitting sets of its clause system; passing
to the dual system turns those into set covers, whose count agrees with the
dual hitting-set count modulo 2.  The dual hitting sets are the models of
a positive formula again, one variable per clause, so each leaf is settled
by ``solve_length`` on its dual.
"""

from __future__ import annotations

from typing import Iterator

from .branching import clause_branch, settle_children, variable_branch_recipes
from .branching import variable_branch  # noqa: F401  (perfbench's tracer wraps docc's binding)
from .formula import Formula, flip_variable
from .length import solve_length
from .occ2 import Occ2Config
from .reducer import reduce_formula
from .telemetry import Telemetry


class NotPositive(ValueError):
    pass


def is_positive(phi: Formula) -> bool:
    return all(l > 0 for c in phi.clauses for l in c)


def flip_negative_variables(phi: Formula) -> tuple[Formula, list[int]]:
    """Flip every purely negative variable.  Returns the new formula and its
    mixed variables, ascending, from one scan of the occurrence index (flips
    leave mixed variables alone); it is positive when none is mixed."""
    occ = phi.occ
    mixed = []
    for v in sorted(occ):
        pos = sum(1 for _, lit in occ[v] if lit > 0)
        if pos == 0:
            phi = flip_variable(phi, v)
        elif pos < len(occ[v]):
            mixed.append(v)
    return phi, mixed


def reduce_to_positive(phi: Formula, telemetry: Telemetry | None = None) -> Iterator[Formula]:
    """Branch until only positive formulas remain, yielding each one as it
    is reached; the XOR of their parities is the input parity.  Only the
    DFS stack is held.  Per branch the clause count drops by at least 1
    (keep side) and 2 (falsify side), which is asserted.  Each child is
    reduced once by ``reduce_formula``, for that check, and pushed reduced.

    Reduction never raises m: every rule maps each clause to at most one
    clause, so it only adds to the clause drops.  Only R11 raises a degree:
    merging a into b leaves var(b) at most deg(a) + deg(b) - 4 occurrences.
    So d-occ input with d <= 4 keeps every degree, hence every dual clause
    length, at most d; above that the bound can fail, and each positive
    leaf's record carries its longest dual clause as ``max_degree``."""
    tel = telemetry if telemetry is not None else Telemetry()
    out = reduce_formula(phi)
    if out.settled:
        tel.leaf(0, "docc.verdict")
        return
    stack = [(out.formula, 0)]
    while stack:
        cur, depth = stack.pop()
        cur, mixed = flip_negative_variables(cur)
        if not mixed:
            longest = max(map(len, cur.occ.values()), default=0)  # dual clause
            tel.leaf(depth, "docc.positive-leaf", {"max_degree": longest})
            yield cur
            continue
        x = mixed[0]
        # clauses are stored sorted, so this is the least positive clause of x
        pivot = next(cur.clauses[cidx] for cidx, lit in cur.occ[x] if lit > 0)
        tel.node(depth, "docc.to-positive", {"pivot": list(pivot), "on": x})
        branch = clause_branch(cur, pivot)
        claims = [1, 2]

        # an empty child is not settled here: it is a positive leaf
        def reduce(child):
            out = reduce_formula(child)
            return out.verdict, out.formula

        def check(i, verdict, rest):
            if verdict is not None:
                return {"dm": claims[i]}, {"dm": cur.m}, True, ""
            dm = cur.m - rest.m
            return {"dm": claims[i]}, {"dm": dm}, dm >= claims[i], branch.labels[i]

        children = settle_children(
            branch, reduce, tel, depth, "docc.verdict", "docc.to-positive", check
        )
        stack.extend((rest, depth + 1) for verdict, rest in children if verdict is None)


def solve_positive_fib(phi: Formula, telemetry: Telemetry | None = None) -> int:
    """Variable branching on a maximum-degree variable of a positive formula;
    the branching vector (d, d-1, ..., 1) gives the d-th order Fibonacci
    constant as growth base.  A depth-first search over an explicit stack,
    so the depth is not bounded by the interpreter's recursion limit; the
    tree is visited in pre-order, children in branching order.  Only the
    children it searches are built: a falsified or clause-free child is read
    off its ``variable_branch_recipes`` recipe and pushed as its leaf kind."""
    if not is_positive(phi):
        raise NotPositive("solve_positive_fib needs a positive formula")
    tel = telemetry if telemetry is not None else Telemetry()
    # the stack holds leaf kinds and formulas with clauses, none of them empty
    parity = 0 if phi.clauses or phi.n else 1  # 2^n models without a clause
    root = "fib.falsified" if phi.has_empty_clause() else phi if phi.clauses else "fib.trivial"
    stack = [(root, 0)]
    while stack:
        cur, depth = stack.pop()
        if cur.__class__ is str:
            tel.leaf(depth, cur)
            continue
        occ = cur.occ
        if len(occ) < cur.n:
            tel.leaf(depth, "fib.free-variable")
            continue
        top = max(map(len, occ.values()))
        x = min(v for v, o in occ.items() if len(o) == top)
        tel.node(depth, "fib.branch", {"on": x, "degree": top})
        for vs, drop, added in reversed(variable_branch_recipes(cur, x)):
            if () in added:  # cur has no empty clause, so no kept one is
                child = "fib.falsified"
            elif len(drop) == cur.m and not added:
                child, parity = "fib.trivial", parity ^ (0 if vs else 1)
            else:
                child = Formula._derive(vs, cur, drop, added)
            stack.append((child, depth + 1))
    return parity


def dual_formula(phi: Formula) -> Formula:
    """Dual of a positive formula: one variable per clause (clause index
    plus one), and one positive clause per variable holding the clauses it
    appears in.  Its models are the dual hitting sets.  d-occ input means
    every dual clause has length at most d."""
    if not is_positive(phi):
        raise NotPositive("dual formula is defined for positive formulas")
    return Formula(
        range(1, phi.m + 1),
        [[cidx + 1 for cidx, _ in phi.occ.get(v, ())] for v in phi.variables],
    )


def solve_docc(
    phi: Formula, telemetry: Telemetry | None = None, config: Occ2Config | None = None
) -> int:
    """Reduce to positive leaves, then settle each leaf as it is reached
    through the dual chain: models = primal hitting sets = dual set covers
    = dual hitting sets (mod 2), the last being the models of the dual
    formula, counted by ``solve_length`` with ``config``."""
    tel = telemetry if telemetry is not None else Telemetry()
    parity = 0
    for leaf in reduce_to_positive(phi, tel):
        parity ^= solve_length(dual_formula(leaf), tel, config)
    return parity

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

from .branching import clause_branch, settle_children
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
    constant as growth base.  A depth-first search over an explicit stack, in
    pre-order, children in ``variable_branch`` order, on ints: the variables,
    renumbered densely in ascending order, own W-bit fields (the least id the
    highest), and a clause's int holds its variables' multiplicities.  Each
    child clause comes from its own parent clause, so no degree grows below
    the root, and with W one bit wider than the root's maximum degree needs,
    ``sum(clauses)`` holds all of a node's degrees."""
    if not is_positive(phi):
        raise NotPositive("solve_positive_fib needs a positive formula")
    tel = telemetry if telemetry is not None else Telemetry()
    ids = sorted(phi.variables, reverse=True)  # ids[f] owns field f
    top = max(map(len, phi.occ.values()), default=0)
    w = top.bit_length() + 1
    shift = {v: w * f for f, v in enumerate(ids)}
    low = ((1 << w * len(ids)) - 1) // ((1 << w) - 1)  # 1 in every field
    high = low << w - 1
    fill = high - low  # + fill sets the high bit of every field but 0

    def sort_key(c):
        # descending, clause_sort_key's order: more copies first, but flipping
        # the last variable's field and those below puts a prefix first
        h = (c + fill) & high
        return c ^ ((h & -h) << 1) - 1

    parity = 0
    # a node: its variables' high field bits, its clause ints, a bound on its
    # degrees (its parent's maximum) and its depth
    stack = [(high, {sum([1 << shift[v] for v in c]) for c in phi.clauses}, top, 0)]
    while stack:
        variables, clauses, t, depth = stack.pop()
        if not clauses or 0 in clauses:
            tel.leaf(depth, "fib.falsified" if clauses else "fib.trivial")
            parity ^= not (clauses or variables)  # 2^n models without a clause
            continue
        degrees = sum(clauses)
        if (degrees + fill) & high != variables:
            tel.leaf(depth, "fib.free-variable")
            continue
        while not (hits := (degrees + high - t * low) & high):  # fields >= t
            t -= 1
        hx = 1 << hits.bit_length() - 1  # the least id's high bit
        fx = (hx << 1) - (hx >> w - 1)  # x's field
        if tel.sink is None:  # the detail is only streamed
            tel.node(depth, "fib.branch")
        else:
            tel.node(depth, "fib.branch", {"on": ids[hx.bit_length() // w - 1], "degree": t})
        rest = [c for c in clauses if not c & fx]
        of_x = sorted([c for c in clauses if c & fx], key=sort_key, reverse=True)
        if len(of_x) < t:  # a clause with x twice has two sides
            of_x = [c for c in of_x for _ in range((c & fx) >> hx.bit_length() - w)]
        for i in reversed(range(len(of_x))):
            h = (of_x[i] + fill) & high
            keep = ~((h << 1) - (h >> w - 1))  # clears side i and x
            stack.append((variables & keep, {c & keep for c in rest + of_x[:i]}, t, depth + 1))
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

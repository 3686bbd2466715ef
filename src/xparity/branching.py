"""The three parity-preserving branching schemes.

Each scheme splits a formula into children whose parities XOR to the
parent's parity.  Children are returned unreduced: ``settle_children``
reduces them with each solver's own reduction, so the measure bookkeeping
can attribute the whole drop to branch-plus-reduction, the quantity the
analysis bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    Formula,
    _falsified,
    _split,
    assign_literal,
    canonical_clause,
    falsify_clause,
    remove_clause,
)


@dataclass
class BranchSet:
    children: list
    labels: list  # per-child description


def settle_children(branch: BranchSet, reduce, tel, depth: int, leaf, step=None, check=None):
    """Reduce the children of a node at ``depth`` in order, yielding
    ``(parity, rest)`` for each: ``reduce(child)`` returns the parity once
    the child is settled, else None, and what the solver goes on with.
    After the reduction's own records, the child files its ledger entry for
    ``step`` from ``check(i, parity, rest) = (claimed, observed, passed,
    note)``, then, if settled, a leaf of kind ``leaf`` (``leaf[parity]``
    for a pair).  A child is reduced only when the caller asks for it."""
    for i, child in enumerate(branch.children):
        parity, rest = reduce(child)
        if step is not None:
            claimed, observed, passed, note = check(i, parity, rest)
            tel.check(step, i, claimed, observed, passed, parity is not None, note)
        if parity is not None:
            tel.leaf(depth + 1, leaf if isinstance(leaf, str) else leaf[parity])
        yield parity, rest


def simple_branch(phi: Formula, x: int) -> BranchSet:
    """Children [phi[x=0], phi[x=1]]."""
    if x not in phi.variables:
        raise ValueError(f"variable {x} not in formula")
    return BranchSet(
        children=[assign_literal(phi, -x), assign_literal(phi, x)],
        labels=["x=0", "x=1"],
    )


def clause_branch(phi: Formula, clause) -> BranchSet:
    """Children [phi minus C, (phi minus C)[C=0]]."""
    c = canonical_clause(clause)
    without = remove_clause(phi, c)
    return BranchSet(
        children=[without, falsify_clause(without, c)],
        labels=["drop", "falsify"],
    )


def variable_branch(phi: Formula, x: int) -> BranchSet:
    """Branch over which clause of x is the first to have its side falsified.

    With x in clauses (l1 v C1), ..., (ld v Cd) in clause order, the i-th
    child is phi[C1=1, ..., C_{i-1}=1, Ci=0, li=1]: earlier sides are added
    back as clauses, the i-th side falsified, and x's literal in it
    satisfied.  The case with every side satisfied makes x a free variable,
    so it carries no parity and is dropped.  Each child is one derivation:
    the clauses meeting the falsified variables and the earlier sides are
    rewritten in one pass (a side the falsification leaves alone passes
    unchanged)."""
    occs = phi.occ.get(x, ())
    if not occs:
        raise ValueError(f"variable {x} does not occur")
    items = [(lit, tuple(l for l in phi.clauses[cidx] if l != lit)) for cidx, lit in occs]
    for _, side in items:
        s = set(side)
        if any(-l in s for l in s):
            raise ValueError("side clause contains complementary literals; reduce first")
    children = []
    for i, (lit, side) in enumerate(items):
        # a side is its clause minus every copy of lit, so canonical and
        # free of lit; with the check above, lits has no complementary pair
        lits = frozenset(side) | {-lit}
        vs = {abs(l) for l in lits}
        idxs, touched = _split(phi, vs)
        touched += [s for _, s in items[:i]]
        children.append(Formula._derive(phi.variables - vs, phi, idxs, _falsified(touched, lits)))
    return BranchSet(
        children=children,
        labels=[f"first falsified side {i}" for i in range(len(children))],
    )

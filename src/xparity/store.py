"""The store the reduction rules R1-R7 rewrite in place (see ``reducer``)."""

from __future__ import annotations

import itertools

from .formula import Formula, _falsified, clause_sort_key


class Store:
    """A formula under stable clause ids, rewritten in place by R1-R7.

    A clause of the formula loaded keeps its index, an added one takes the
    next id, a dropped one leaves None.  The store is a view of the loaded
    formula until its first change copies it; ``formula()`` builds the
    Formula it holds, once per change.  ``pending[r]`` holds the ids
    outside which the clause-local rule r is known inapplicable (None: all
    of them); ``zeros`` and ``ones`` the variables whose degree fell to 0
    or moved to 1, checked when read.
    """

    def __init__(self, phi: Formula, old=None):
        """A view of phi, with R2-R5 known inapplicable on the clauses it
        shares with ``old``, if given."""
        self.base = self.built = phi
        self.variables, self.clauses, self.keys, self.sets, self.occ = (
            phi.variables, phi.clauses, phi.keys, phi.sets, phi.occ
        )
        self.index = None  # clause -> id, made by the first change
        self.m, self.length, self.empty = phi.m, phi.length, phi.has_empty_clause()
        self.zeros = set(phi.variables.difference(phi.occ))
        self.ones = {v for v, occs in phi.occ.items() if len(occs) == 1}
        fresh = None
        if old is not None:
            old = set(old)
            fresh = [k for k, c in enumerate(phi.clauses) if c not in old]
        self.pending = {r: None if fresh is None else set(fresh) for r in ("R2", "R3", "R4", "R5")}

    @property
    def potential(self) -> tuple:
        return (len(self.variables), self.m, self.length)

    def formula(self) -> Formula:
        if self.built is None:
            base, clauses = self.base, self.clauses
            dropped = [k for k in range(base.m) if clauses[k] is None]
            added = [c for c in clauses[base.m :] if c is not None]
            self.built = Formula._derive(frozenset(self.variables), base, dropped, added)
        return self.built

    def drop(self, k: int):
        if self.index is None:  # the first change copies the view
            self.variables = set(self.variables)
            self.clauses, self.keys, self.sets = map(list, (self.clauses, self.keys, self.sets))
            self.occ = {v: occs.copy() for v, occs in self.occ.items()}
            self.index = dict(zip(self.clauses, itertools.count()))
        clause = self.clauses[k]
        self.clauses[k] = self.built = None
        del self.index[clause]
        self.m -= 1
        self.length -= len(clause)
        for lit in clause:  # a repeated literal has an entry per copy
            occs = self.occ[abs(lit)]
            occs.remove((k, lit))
            if len(occs) == 1:
                self.ones.add(abs(lit))
            elif not occs:
                del self.occ[abs(lit)]
                self.zeros.add(abs(lit))

    def add(self, clause: tuple):
        """Add a canonical clause unless it is present."""
        if clause in self.index:
            return
        k = len(self.clauses)
        self.clauses.append(clause)
        self.keys.append(clause_sort_key(clause))
        self.sets.append(frozenset(clause))
        self.index[clause] = k
        self.m += 1
        self.length += len(clause)
        self.empty = self.empty or not clause
        for lit in clause:
            occs = self.occ.setdefault(abs(lit), [])
            occs.append((k, lit))
            if len(occs) == 1:
                self.ones.add(abs(lit))
        for ids in self.pending.values():
            if ids is not None:
                ids.add(k)
        if not clause:  # it shares no variable, so only a full R4 scan reaches it
            self.pending["R4"] = None

    def falsify(self, lits: set):
        """Set every literal of lits to 0, as ``formula.falsify_clause``."""
        vs = {abs(l) for l in lits}
        touched = {k for v in vs for k, _ in self.occ.get(v, ())}
        clauses = [self.clauses[k] for k in touched]
        for k in touched:
            self.drop(k)
        self.variables -= vs
        for clause in _falsified(clauses, lits):
            self.add(clause)

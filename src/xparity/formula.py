"""CNF formulas with explicit variable sets and value semantics.

Literals are non-zero ints: ``v`` is the positive literal of variable ``v``
and ``-v`` its negation, so negation is just unary minus and is an
involution.  A clause is a canonically ordered tuple of literals; a formula
is a set of clauses over an explicit variable set that may contain variables
occurring in no clause (those carry parity meaning: a free variable doubles
the model count).

Every transform returns a fresh formula; nothing here mutates.  Each one
is built by ``Formula._derive`` from its parent: the clauses it keeps come
with the sort keys and literal sets the parent already holds, and only the
clauses it adds get new ones.  A build still costs O(L) for the
occurrence index, so the reducer, whose rules rewrite a few clauses per
firing, does not build one per firing: it rewrites a private store that
starts as a view of a formula's tuples and index (``store.Store``) and
builds once when its chain of firings stops.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable


Literal = int
Clause = tuple  # tuple of Literal in canonical order


def var_of(lit: Literal) -> int:
    return lit if lit > 0 else -lit


def _lit_key(lit: Literal) -> int:
    # variable id first, positive literal before negative: v -> 2v, -v -> 2v+1
    return 2 * lit if lit > 0 else 1 - 2 * lit


def _check_literals(lits: Iterable) -> None:
    """Refuse the first item that is not a non-zero int."""
    for lit in lits:
        if type(lit) is not int or lit == 0:  # bool is an int, but not a literal
            raise ValueError(f"bad literal {lit!r}")


def canonical_clause(literals: Iterable[Literal]) -> Clause:
    """Order literals canonically.  Duplicates are kept: removing them is
    the reducer's job, not the representation's."""
    lits = list(literals)
    _check_literals(lits)
    lits.sort(key=_lit_key)
    return tuple(lits)


def clause_sort_key(clause: Clause) -> tuple:
    """Flat int key: clauses compare literal by literal in ``_lit_key``
    order, a proper prefix first."""
    return tuple(map(_lit_key, clause))


class Formula:
    """Immutable CNF formula over an explicit variable set.

    The clause collection has set semantics: duplicate clauses collapse on
    construction.  Two tuples run parallel to ``clauses``: ``keys`` holds
    each clause's ``clause_sort_key`` and ``sets`` its literals as a
    frozenset; a derived formula shares them with its parent for every
    clause it keeps.  An occurrence index (variable -> list of (clause
    index, literal)) is built eagerly; it is the backbone of the reduction
    rules, whose store starts as a view of it.  The search of the
    variable-clause incidence graph that gives the clause components and
    R13's hinge (``reducer._incidence``) is filled in on first use, and so
    is the list of variables where R8-R11 can fire (``reducer._sites``).
    ``_base`` holds the clauses of the last fixpoint in its ancestry
    (``reduce_formula``).
    """

    __slots__ = ("variables", "clauses", "keys", "sets", "occ", "_incidence", "_sites", "_base")

    def __init__(self, variables: Iterable[int], clauses: Iterable[Iterable[Literal]]):
        clauses = list(map(tuple, clauses))
        _check_literals(chain.from_iterable(clauses))
        vs = frozenset(variables)
        for v in vs:
            if type(v) is not int or v < 1:  # as a literal, and positive
                raise ValueError(f"bad variable {v!r}")
        # a clause's key is its literals' _lit_key values in ascending
        # order, so deduplicating and sorting the keys orders the clauses,
        # and each key decodes back to its canonical clause: 2v -> v,
        # 2v+1 -> -v
        keys = sorted({tuple(sorted([2 * l if l > 0 else 1 - 2 * l for l in c])) for c in clauses})
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(
            self,
            "clauses",
            tuple([tuple([-(k >> 1) if k & 1 else k >> 1 for k in key]) for key in keys]),
        )
        object.__setattr__(self, "sets", tuple(map(frozenset, self.clauses)))
        object.__setattr__(self, "_base", None)
        built = Formula._derive(vs, self)
        stray = built.occ.keys() - vs
        if stray:
            lit = built.occ[min(stray)][0][1]
            raise ValueError(f"literal {lit} uses variable outside the variable set")
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(built, name))

    def __setattr__(self, *_):
        raise AttributeError("Formula is immutable")

    # -- basic counts ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def length(self) -> int:
        return sum(map(len, self.clauses))

    @property
    def m3(self) -> int:
        return sum(1 for c in self.clauses if len(c) == 3)

    def degree(self, v: int) -> int:
        return len(self.occ.get(v, ()))

    def polarity_counts(self, v: int) -> tuple[int, int]:
        """Return (i, j) for an (i, j)-variable: positive and negative
        occurrence counts."""
        pos = sum(1 for _, lit in self.occ.get(v, ()) if lit > 0)
        return pos, len(self.occ.get(v, ())) - pos

    def is_empty(self) -> bool:
        return not self.clauses and not self.variables

    def has_empty_clause(self) -> bool:
        """O(1): the empty clause sorts first under ``clause_sort_key``."""
        return bool(self.clauses) and not self.clauses[0]

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Formula)
            and self.variables == other.variables
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.clauses))

    def __repr__(self) -> str:
        cls = ", ".join("(" + " ".join(str(l) for l in c) + ")" for c in self.clauses)
        return f"Formula(vars={sorted(self.variables)}, clauses=[{cls}])"

    # -- internal fast path ------------------------------------------------

    @classmethod
    def _derive(cls, variables: frozenset, parent: "Formula", drop=(), added=()) -> "Formula":
        """Build from ``parent``'s clauses less those at the ascending
        indices ``drop``, plus the canonical clauses ``added``.

        Kept clauses bring their key and literal set along; each added
        clause gets its own, is placed by binary search on the keys and is
        dropped when already present (``clause_sort_key`` is injective).
        So a transform that rewrites ``a`` clauses costs O(L) for ``occ``
        plus one key and one frozenset per added clause, not a re-sort.
        """
        self = object.__new__(cls)
        clauses, keys, sets = [], [], []
        start = 0
        for stop in (*drop, len(parent.clauses)):
            if start < stop:
                clauses += parent.clauses[start:stop]
                keys += parent.keys[start:stop]
                sets += parent.sets[start:stop]
            start = stop + 1
        for clause in added:
            key = clause_sort_key(clause)
            i = bisect_left(keys, key)
            if i == len(keys) or keys[i] != key:
                clauses.insert(i, clause)
                keys.insert(i, key)
                sets.insert(i, frozenset(clause))
        occ: dict[int, list] = {}
        for idx, clause in enumerate(clauses):
            for lit in clause:
                occ.setdefault(lit if lit > 0 else -lit, []).append((idx, lit))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "clauses", tuple(clauses))
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "sets", tuple(sets))
        object.__setattr__(self, "occ", occ)
        object.__setattr__(self, "_incidence", None)
        object.__setattr__(self, "_sites", None)
        object.__setattr__(self, "_base", parent._base)
        return self


# -- transforms ------------------------------------------------------------


def _split(phi: Formula, vs) -> tuple[list, list]:
    """(the ascending indices of the clauses with a variable of vs, those
    clauses)."""
    occ = phi.occ
    idxs = sorted({idx for v in vs for idx, _ in occ.get(v, ())})
    return idxs, [phi.clauses[idx] for idx in idxs]


def assign_literal(phi: Formula, lit: Literal) -> Formula:
    """phi[lit=1]: drop satisfied clauses, delete falsified occurrences,
    remove the variable from the variable set."""
    v = var_of(lit)
    if v not in phi.variables:
        raise ValueError(f"variable {v} not in formula")
    nlit = -lit
    idxs, touched = _split(phi, (v,))
    added = [tuple(l for l in c if l != nlit) for c in touched if lit not in c]
    return Formula._derive(phi.variables - {v}, phi, idxs, added)


def _falsified(clauses, lits) -> list:
    """``clauses`` under every literal of the set ``lits`` set to 0: those
    holding a complement of one are satisfied and dropped, the rest lose
    their literals of ``lits``.  Canonical clauses stay canonical, and a
    clause with no variable of ``lits`` passes through unchanged."""
    negs = {-l for l in lits}
    return [tuple([l for l in c if l not in lits]) for c in clauses if negs.isdisjoint(c)]


def falsify_clause(phi: Formula, clause: Iterable[Literal]) -> Formula:
    """phi[C=0]: assign every literal of C to 0.

    C must not contain complementary literals (a tautology cannot be
    falsified); reduced formulas never feed one here.
    """
    lits = frozenset(canonical_clause(clause))
    if any(-lit in lits for lit in lits):
        raise ValueError("cannot falsify a clause with complementary literals")
    vs = {var_of(lit) for lit in lits}
    missing = sorted(vs - phi.variables)
    if missing:
        raise ValueError(f"variable {missing[0]} of the clause is not assignable")
    idxs, touched = _split(phi, vs)
    return Formula._derive(phi.variables - vs, phi, idxs, _falsified(touched, lits))


def remove_clause(phi: Formula, clause: Iterable[Literal]) -> Formula:
    """Drop one clause; the variable set is unchanged."""
    key = clause_sort_key(canonical_clause(clause))
    i = bisect_left(phi.keys, key)
    if i == phi.m or phi.keys[i] != key:
        raise ValueError("clause not present")
    return Formula._derive(phi.variables, phi, (i,))


def merge_variables(phi: Formula, x: int, lit: Literal) -> Formula:
    """Set x = lit: replace x by lit (and -x by -lit) everywhere and drop x
    from the variable set.  Duplicate literals and tautologies this creates
    are left for the reducer."""
    v = var_of(lit)
    if x == v:
        raise ValueError("cannot merge a variable with itself")
    if x not in phi.variables or v not in phi.variables:
        raise ValueError("both variables must be present")
    idxs, touched = _split(phi, (x,))
    added = [
        canonical_clause(lit if l == x else (-lit if l == -x else l) for l in c)
        for c in touched
    ]
    return Formula._derive(phi.variables - {x}, phi, idxs, added)


def flip_variable(phi: Formula, x: int) -> Formula:
    """Swap the polarities of x everywhere; a bijection on models."""
    if x not in phi.variables:
        raise ValueError(f"variable {x} not in formula")
    idxs, touched = _split(phi, (x,))
    added = [canonical_clause(-l if abs(l) == x else l for l in c) for c in touched]
    return Formula._derive(phi.variables, phi, idxs, added)


def remove_variable(phi: Formula, x: int) -> Formula:
    """Delete every occurrence of x and drop it from the variable set
    (twin elimination)."""
    if x not in phi.variables:
        raise ValueError(f"variable {x} not in formula")
    idxs, touched = _split(phi, (x,))
    added = [tuple(l for l in c if abs(l) != x) for c in touched]
    return Formula._derive(phi.variables - {x}, phi, idxs, added)

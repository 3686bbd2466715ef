"""CNF formulas with explicit variable sets and value semantics.

Literals are non-zero ints: ``v`` is the positive literal of variable ``v``
and ``-v`` its negation, so negation is just unary minus and is an
involution.  A clause is a canonically ordered tuple of literals; a formula
is a set of clauses over an explicit variable set that may contain variables
occurring in no clause (those carry parity meaning: a free variable doubles
the model count).

Every transform returns a fresh formula; nothing here mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


Literal = int
Clause = tuple  # tuple of Literal in canonical order


def neg(lit: Literal) -> Literal:
    return -lit


def var_of(lit: Literal) -> int:
    return lit if lit > 0 else -lit


def _lit_key(lit: Literal) -> int:
    # variable id first, positive literal before negative: v -> 2v, -v -> 2v+1
    return 2 * lit if lit > 0 else 1 - 2 * lit


def canonical_clause(literals: Iterable[Literal]) -> Clause:
    """Order literals canonically.  Duplicates are kept: removing them is
    the reducer's job, not the representation's."""
    lits = tuple(sorted(literals, key=_lit_key))
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise ValueError(f"bad literal {lit!r}")
    return lits


def clause_sort_key(clause: Clause) -> tuple:
    """Flat int key: clauses compare literal by literal in ``_lit_key``
    order, a proper prefix first."""
    return tuple(map(_lit_key, clause))


class Formula:
    """Immutable CNF formula over an explicit variable set.

    The clause collection has set semantics: duplicate clauses collapse on
    construction.  An occurrence index (variable -> list of (clause index,
    literal)) is built eagerly; it is the backbone of the reduction rules.
    """

    __slots__ = ("variables", "clauses", "occ", "_hash")

    def __init__(self, variables: Iterable[int], clauses: Iterable[Iterable[Literal]]):
        canon = [canonical_clause(c) for c in clauses]
        # dedupe, then sort for deterministic iteration and hashing
        canon = sorted(set(canon), key=clause_sort_key)
        vs = frozenset(variables)
        occ: dict[int, list] = {}
        for idx, clause in enumerate(canon):
            for lit in clause:
                v = var_of(lit)
                if v not in vs:
                    raise ValueError(f"literal {lit} uses variable outside the variable set")
                occ.setdefault(v, []).append((idx, lit))
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "clauses", tuple(canon))
        object.__setattr__(self, "occ", occ)
        object.__setattr__(self, "_hash", None)

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
        return sum(len(c) for c in self.clauses)

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

    def clauses_of(self, v: int) -> list[int]:
        return [idx for idx, _ in self.occ.get(v, ())]

    def is_empty(self) -> bool:
        return not self.clauses and not self.variables

    def has_empty_clause(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Formula)
            and self.variables == other.variables
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.variables, self.clauses))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        cls = ", ".join("(" + " ".join(str(l) for l in c) + ")" for c in self.clauses)
        return f"Formula(vars={sorted(self.variables)}, clauses=[{cls}])"

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    # -- internal fast path ------------------------------------------------

    @classmethod
    def _make(cls, variables: frozenset, clause_list: list) -> "Formula":
        """Build from clauses that are already canonical per clause."""
        self = object.__new__(cls)
        canon = sorted(set(clause_list), key=clause_sort_key)
        occ: dict[int, list] = {}
        for idx, clause in enumerate(canon):
            for lit in clause:
                occ.setdefault(var_of(lit), []).append((idx, lit))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "clauses", tuple(canon))
        object.__setattr__(self, "occ", occ)
        object.__setattr__(self, "_hash", None)
        return self


def empty_formula() -> Formula:
    return Formula((), ())


# -- transforms ------------------------------------------------------------


def assign_literal(phi: Formula, lit: Literal) -> Formula:
    """phi[lit=1]: drop satisfied clauses, delete falsified occurrences,
    remove the variable from the variable set."""
    v = var_of(lit)
    if v not in phi.variables:
        raise ValueError(f"variable {v} not in formula")
    nlit = -lit
    out = []
    for clause in phi.clauses:
        if lit in clause:
            continue
        if nlit in clause:
            clause = tuple(l for l in clause if l != nlit)
        out.append(clause)
    return Formula._make(phi.variables - {v}, out)


def falsify_clause(phi: Formula, clause: Iterable[Literal]) -> Formula:
    """phi[C=0]: assign every literal of C to 0, in order.

    C must not contain complementary literals (a tautology cannot be
    falsified); reduced formulas never feed one here.
    """
    lits = tuple(dict.fromkeys(canonical_clause(clause)))
    seen = set()
    for lit in lits:
        if -lit in seen:
            raise ValueError("cannot falsify a clause with complementary literals")
        seen.add(lit)
    for lit in lits:
        if var_of(lit) in phi.variables:
            phi = assign_literal(phi, -lit)
        else:
            raise ValueError(f"variable {var_of(lit)} of the clause is not assignable")
    return phi


def add_clause(phi: Formula, clause: Iterable[Literal]) -> Formula:
    """phi[C=1]: conjoin C.  Set semantics: adding a present clause is a
    no-op."""
    c = canonical_clause(clause)
    for lit in c:
        if var_of(lit) not in phi.variables:
            raise ValueError(f"variable {var_of(lit)} not in formula")
    if c in phi.clauses:
        return phi
    return Formula._make(phi.variables, list(phi.clauses) + [c])


def remove_clause(phi: Formula, clause: Iterable[Literal]) -> Formula:
    """Drop one clause; the variable set is unchanged."""
    c = canonical_clause(clause)
    if c not in phi.clauses:
        raise ValueError("clause not present")
    return Formula._make(phi.variables, [d for d in phi.clauses if d != c])


def merge_variables(phi: Formula, x: int, lit: Literal) -> Formula:
    """Set x = lit: replace x by lit (and -x by -lit) everywhere and drop x
    from the variable set.  Duplicate literals and tautologies this creates
    are left for the reducer."""
    v = var_of(lit)
    if x == v:
        raise ValueError("cannot merge a variable with itself")
    if x not in phi.variables or v not in phi.variables:
        raise ValueError("both variables must be present")
    out = []
    for clause in phi.clauses:
        if x in clause or -x in clause:
            clause = canonical_clause(lit if l == x else (-lit if l == -x else l) for l in clause)
        out.append(clause)
    return Formula._make(phi.variables - {x}, out)


def flip_variable(phi: Formula, x: int) -> Formula:
    """Swap the polarities of x everywhere; a bijection on models."""
    if x not in phi.variables:
        raise ValueError(f"variable {x} not in formula")
    out = []
    for clause in phi.clauses:
        if x in clause or -x in clause:
            clause = canonical_clause(-l if abs(l) == x else l for l in clause)
        out.append(clause)
    return Formula._make(phi.variables, out)


def remove_variable(phi: Formula, x: int) -> Formula:
    """Delete every occurrence of x and drop it from the variable set
    (twin elimination)."""
    if x not in phi.variables:
        raise ValueError(f"variable {x} not in formula")
    out = []
    for clause in phi.clauses:
        if x in clause or -x in clause:
            clause = tuple(l for l in clause if abs(l) != x)
        out.append(clause)
    return Formula._make(phi.variables - {x}, out)


# -- statistics ------------------------------------------------------------


@dataclass(frozen=True)
class FormulaStats:
    n: int
    m: int
    length: int
    m3: int
    degree_histogram: dict
    polarity: dict  # variable -> (positive count, negative count)


def stats(phi: Formula) -> FormulaStats:
    hist: dict[int, int] = {}
    polarity = {}
    for v in phi.variables:
        d = phi.degree(v)
        hist[d] = hist.get(d, 0) + 1
        polarity[v] = phi.polarity_counts(v)
    return FormulaStats(
        n=phi.n,
        m=phi.m,
        length=phi.length,
        m3=phi.m3,
        degree_histogram=hist,
        polarity=polarity,
    )

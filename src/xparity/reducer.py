"""The thirteen parity-preserving reduction rules and their fixpoint engine.

Rules either rewrite the formula (strictly decreasing the potential
(n, m, L) in lexicographic order) or settle the instance outright with an
even-parity verdict.  ``reduce_formula`` applies them in a fixed priority
order, restarting from the first rule after every change; any order is
correct, a fixed one keeps traces deterministic.

The restart is incremental.  A rule checked and found inapplicable stays
known inapplicable until a fresh clause appears (one the formula did not
have when the rule was checked), and the clause-local rules R2-R5 can
only fire on such a clause.  So after a firing they re-check only the
fresh clauses and pick the firing a full scan would.  A firing found on
such a scope keeps it: every clause outside the scope was there before
and is still inapplicable (an R4 firing only deletes a clause, an R5
firing only adds fresh ones), so the next pass checks the scope's
surviving clauses plus the fresh ones.  A formula derived from a
fixpoint starts scoped the same way: only the clauses that fixpoint lacks
(``Formula._base``) are fresh.  R1 looks at the first clause, where an
empty one sorts; R6-R13 depend on occurrence counts and connectivity and
always scan in full.

R2, R3, R4, R8, R10 and R11 read the literal sets the formula keeps
beside its clauses instead of building one per clause and check, and
every firing derives its result from the formula it fired on
(``Formula._derive``).  R12 and R13 read one search of the formula's
incidence graph, kept on the formula: its components and R13's hinge
with the side to settle.  So a pass that checks both searches once, a
solver that splits a formula the reducer returned reuses the search, and
only a component or side within the cap is derived as a subformula.

Rule summary (ids follow the priority order):
  R1  empty clause present            -> parity 0
  R2  duplicated literal in a clause  -> drop copies
  R3  tautological clause             -> drop clause
  R4  subsumed clause                 -> drop superset
  R5  unit clause                     -> assign it true
  R6  variable with no occurrence     -> parity 0 (free variable doubles)
  R7  variable with one occurrence    -> assign it true, falsify the rest
  R8  literal dominating a variable   -> assign the dominating literal false
  R9  twin literals                   -> drop one variable
  R10 complementary subsumption       -> strip the complementary literal
  R11 clauses (p q) and (-p -q)       -> merge p := -q
  R12 isolated small subformula       -> settle by brute force, remove
  R13 small subformula hinged on one  -> settle both hinge values by brute
      shared variable                    force, remove, fix the hinge
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter, neg

from .formula import (
    Formula,
    assign_literal,
    falsify_clause,
    merge_variables,
    remove_variable,
    var_of,
)
from .oracle import brute_parity

SUBFORMULA_VAR_CAP = 10  # threshold from the isolate/semi-isolate rules
SUBSET_ENUMERATION_LIMIT = 500_000  # connected subsets the property report may list

_clause_index = itemgetter(0)  # of an occurrence entry (clause index, literal)


class ReducerInvariantError(AssertionError):
    """The fixpoint engine observed something the rules promise impossible."""


@dataclass
class ReductionOutcome:
    formula: Formula | None
    verdict: int | None
    trace: list = field(default_factory=list)
    potential_log: list = field(default_factory=list)

    @property
    def settled(self) -> bool:
        return self.verdict is not None

    @property
    def parity(self) -> int | None:
        """The parity once known: 0 when settled, 1 when nothing is left,
        None while a non-empty formula remains."""
        if self.verdict is not None:
            return self.verdict
        return 1 if self.formula.is_empty() else None


# -- individual rules --------------------------------------------------------
# Each returns None (not applicable), ("verdict", detail) or
# ("changed", formula, detail).


def _scoped(phi: Formula, scope):
    """(index, clause) pairs of the scope, all clauses when it is None."""
    if scope is None:
        return enumerate(phi.clauses)
    return ((k, phi.clauses[k]) for k in scope)


def _r1(phi: Formula):
    if phi.has_empty_clause():
        return ("verdict", "empty clause")
    return None


def _r2(phi: Formula, scope=None):
    for k, clause in _scoped(phi, scope):
        if len(phi.sets[k]) != len(clause):
            cleaned = tuple(dict.fromkeys(clause))
            out = Formula._derive(phi.variables, phi, (k,), (cleaned,))
            return ("changed", out, f"dedup {clause}")
    return None


def _r3(phi: Formula, scope=None):
    for k, clause in _scoped(phi, scope):
        s = phi.sets[k]
        if not s.isdisjoint(map(neg, s)):
            out = Formula._derive(phi.variables, phi, (k,))
            return ("changed", out, f"tautology {clause}")
    return None


def _first_superset(phi: Formula, i: int):
    # A superset of clause i occurs in the occurrence list of each variable
    # of clause i, so scanning the shortest such list (ascending clause
    # index) finds the smallest j.
    sets = phi.sets
    s = sets[i]
    scan = min(map(phi.occ.__getitem__, map(abs, s)), key=len) if s else enumerate(sets)
    for j, _ in scan:
        if s < sets[j]:
            return j
    return None


def _r4(phi: Formula, scope=None):
    """The least pair (i, j) in index order with clause i a proper subset
    of clause j, over the pairs with i or j in the scope; drop clause j.
    In the production order R1 has ruled out an empty clause before a
    scope is given; a rule order that runs R4 first scans in full."""
    sets = phi.sets
    if scope is None:
        # a clause of the greatest length has no proper superset, so a full
        # scan skips those
        top = max(map(len, sets), default=0)
        candidates = itertools.compress(itertools.count(), map(top.__gt__, map(len, sets)))
    else:
        candidates = scope
    pairs = []
    for i in candidates:
        j = _first_superset(phi, i)
        if j is not None:
            pairs.append((i, j))
            break
    if scope is not None:
        # a (non-empty) subset of clause j shares a variable with it
        for j in scope:
            s = sets[j]
            subsets = [i for l in s for i, _ in phi.occ[var_of(l)] if sets[i] < s]
            if subsets:
                pairs.append((min(subsets), j))
    if not pairs:
        return None
    i, j = min(pairs)
    return (
        "changed",
        Formula._derive(phi.variables, phi, (j,)),
        f"{phi.clauses[i]} subsumes {phi.clauses[j]}",
    )


def _r5(phi: Formula, scope=None):
    for _, clause in _scoped(phi, scope):
        if len(clause) == 1:
            lit = clause[0]
            return ("changed", assign_literal(phi, lit), f"unit {lit}")
    return None


def _r6(phi: Formula):
    free = phi.variables.difference(phi.occ)
    if free:
        return ("verdict", f"0-variable {min(free)}")
    return None


def _r7(phi: Formula):
    ones = [v for v, occs in phi.occ.items() if len(occs) == 1]
    if ones:
        v = min(ones)
        cidx, lit = phi.occ[v][0]
        clause = phi.clauses[cidx]
        out = falsify_clause(phi, [-lit] + [l for l in clause if l != lit])
        return ("changed", out, f"1-variable {v}: {lit}=1, rest of {clause} false")
    return None


def _r8(phi: Formula):
    sets = phi.sets
    for v in sorted(phi.occ):
        common = None
        for cidx, _ in phi.occ[v]:
            common = sets[cidx] if common is None else common & sets[cidx]
        # a literal besides v and -v
        if len(common) > (v in common) + (-v in common):
            lit = min(common - {v, -v}, key=lambda l: (abs(l), l < 0))
            return ("changed", assign_literal(phi, -lit), f"{lit} dominates {v}: {lit}=0")
    return None


def _r9(phi: Formula):
    """Twins a, b: the clauses holding a are those holding b, once per copy,
    and so for -a and -b.  So only variables with equal clause-index lists
    can be twins, and only the first clause of such a list is scanned."""
    occ = phi.occ
    seen = {}  # clause-index list -> the first variable with it
    starts = set()  # the first clause of each list two variables share
    for v, occs in occ.items():
        key = tuple(map(_clause_index, occs))
        if seen.setdefault(key, v) != v:
            starts.add(key[0])
    for k in sorted(starts):
        clause = phi.clauses[k]
        firsts = [l for l in clause if occ[var_of(l)][0][0] == k]
        for a in firsts:
            for b in firsts:
                if var_of(a) >= var_of(b):
                    continue
                # the occurrences of each as (clause index, holds -a or -b),
                # in one canonical order
                twin_a = sorted(2 * cidx + (l != a) for cidx, l in occ[var_of(a)])
                twin_b = sorted(2 * cidx + (l != b) for cidx, l in occ[var_of(b)])
                if twin_a == twin_b:
                    # twins: drop the higher-numbered variable
                    return (
                        "changed",
                        remove_variable(phi, var_of(b)),
                        f"twins {a},{b}: drop {var_of(b)}",
                    )
    return None


def _r10(phi: Formula):
    """The first clause holding lit (v before -v, least v first) whose other
    literals all lie in a clause holding -lit strips -lit from that clause."""
    clauses, sets = phi.clauses, phi.sets
    for v in sorted(phi.occ):
        occs = phi.occ[v]
        for lit in (v, -v):
            for ai, la in occs:
                # a tautology holding lit also holds -lit, which no clause
                # less -lit holds
                if la != lit or -lit in sets[ai]:
                    continue
                for bi, lb in occs:
                    if lb == lit or bi == ai or len(sets[ai]) > len(sets[bi]):
                        continue
                    other = sets[bi]
                    for x in clauses[ai]:
                        if x != lit and x not in other:
                            break
                    else:
                        rewritten = tuple(l for l in clauses[bi] if l != -lit)
                        return (
                            "changed",
                            Formula._derive(phi.variables, phi, (bi,), (rewritten,)),
                            f"{clauses[ai]} resolves {-lit} out of {clauses[bi]}",
                        )
    return None


def _r11(phi: Formula):
    # a canonical (b a) with var(b) < var(a) has the complement (-b -a)
    two = set()
    for clause in phi.clauses:
        if len(clause) == 2:
            b, a = clause
            if b == a or b == -a:
                continue  # duplicated variable, earlier rules handle it
            other = (-b, -a)
            if other in two:
                target = -b if a > 0 else b
                merged = merge_variables(phi, var_of(a), target)
                tautologies = [k for k, s in enumerate(merged.sets) if any(-l in s for l in s)]
                return (
                    "changed",
                    Formula._derive(merged.variables, merged, tautologies),
                    f"{clause} vs {other}: set var {var_of(a)} := literal {target}",
                )
            two.add(clause)
    return None


def clause_components(phi: Formula) -> tuple:
    """Connected components of the clause-sharing graph, as ascending
    tuples of clause indices in order of their smallest index."""
    return _incidence(phi)[0]


def _incidence(phi: Formula) -> tuple:
    """(components, their variable counts, hinge) from one iterative
    articulation-point DFS (Hopcroft-Tarjan) over the variable-clause
    incidence graph, kept on the formula so that R12, R13 and the solvers
    share one search.  Each DFS tree, rooted at its smallest clause, gives
    a component.

    hinge is R13's: None, or (x, side) with x the smallest cut variable
    that separates a side of at most SUBFORMULA_VAR_CAP variables, x
    included, and side the ascending clause indices of the first small side
    in order of smallest clause.  A child subtree of x with low >= disc(x)
    is a separated side; the rest of x's component, which holds the root,
    is one more and comes first.
    """
    if phi._incidence is not None:
        return phi._incidence
    m, clauses, occ = phi.m, phi.clauses, phi.occ
    variables = list(occ)
    # vertices: clause i is i, variable variables[k] is m + k.  A vertex's
    # neighbours are read off its clause's literals or its occurrence
    # entries; a repeated one is a repeated edge and changes nothing below.
    vertex = {}
    for k, v in enumerate(variables, m):
        vertex[v] = vertex[-v] = k
    lit_vertex = vertex.__getitem__
    size = m + len(variables)
    disc = [0] * size  # preorder position plus one; 0 = unvisited
    low = [0] * size
    end = [0] * size  # the subtree of u is order[disc[u] - 1 : end[u]]
    nvars = [0] * size  # variables in the DFS subtree
    order = []
    seps = {}  # cut variable -> its separated child subtrees
    cuts = []  # the keys of seps, in order of discovery
    components = []
    counts = []
    best = None  # (x, its vertex, its component, variables in the rest)
    for root in range(m):
        if disc[root]:
            continue
        first_cut = len(cuts)
        order.append(root)
        disc[root] = low[root] = len(order)
        stack = [(root, map(lit_vertex, clauses[root]))]
        while stack:
            u, it = stack[-1]
            for w in it:
                if not disc[w]:
                    order.append(w)
                    disc[w] = low[w] = len(order)
                    if w >= m:
                        nvars[w] = 1
                        stack.append((w, map(_clause_index, occ[variables[w - m]])))
                    else:
                        stack.append((w, map(lit_vertex, clauses[w])))
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                end[u] = len(order)
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    nvars[p] += nvars[u]
                    if low[u] >= disc[p] and p >= m:
                        if p not in seps:
                            cuts.append(p)
                        seps.setdefault(p, []).append(u)
        comp = tuple(sorted(v for v in order[disc[root] - 1 :] if v < m))
        components.append(comp)
        counts.append(nvars[root])
        for w in cuts[first_cut:]:
            x = variables[w - m]
            if best is None or x < best[0]:
                sizes = [nvars[c] for c in seps[w]]
                rest = nvars[root] - sum(sizes)
                if rest <= SUBFORMULA_VAR_CAP or min(sizes) < SUBFORMULA_VAR_CAP:
                    best = (x, w, comp, rest)
    hinge = None
    if best is not None:
        x, w, comp, rest = best
        subtrees = [order[disc[c] - 1 : end[c]] for c in seps[w]]
        if rest <= SUBFORMULA_VAR_CAP:
            inside = {v for tree in subtrees for v in tree}
            side = tuple(i for i in comp if i not in inside)
        else:
            # the sides are disjoint: the least sorted one has the least clause
            side = min(
                tuple(sorted(v for v in tree if v < m))
                for c, tree in zip(seps[w], subtrees)
                if nvars[c] < SUBFORMULA_VAR_CAP
            )
        hinge = (x, side)
    found = (tuple(components), tuple(counts), hinge)
    object.__setattr__(phi, "_incidence", found)
    return found


def subformula(phi: Formula, clause_idxs) -> Formula:
    """The clauses at the given indices over exactly their own variables."""
    keep = set(clause_idxs)
    vs = frozenset(var_of(l) for i in keep for l in phi.clauses[i])
    return Formula._derive(vs, phi, [i for i in range(phi.m) if i not in keep])


def _r12(phi: Formula):
    comps, counts, _ = _incidence(phi)
    if len(comps) < 2:
        return None
    clauses = phi.clauses
    for comp, count in zip(comps, counts):
        # only a component within the cap is worth deriving
        if count <= SUBFORMULA_VAR_CAP:
            vs = {var_of(l) for i in comp for l in clauses[i]}
            if brute_parity(subformula(phi, comp)) == 0:
                return ("verdict", f"isolated subformula {list(comp)} has even parity")
            return (
                "changed",
                Formula._derive(phi.variables - vs, phi, comp),
                f"isolated subformula {list(comp)}, parity 1, removed",
            )
    return None


def _r13(phi: Formula):
    hinge = _incidence(phi)[2]
    if hinge is None:
        return None
    x, side = hinge
    comp = list(side)
    sub = subformula(phi, side)
    if sub.n > SUBFORMULA_VAR_CAP:
        raise ReducerInvariantError(f"hinge {x} has side {comp} of {sub.n} variables")
    p1 = brute_parity(assign_literal(sub, x))
    p0 = brute_parity(assign_literal(sub, -x))
    if p0 == 0 and p1 == 0:
        return ("verdict", f"hinged subformula {comp} even for both values of {x}")
    rest = remove_hinged_side(phi, side, x, p0, p1)
    if p0 == p1:
        detail = f"hinged subformula {comp}: both parities odd, {x} kept"
    else:
        detail = f"hinged subformula {comp}: forced {x}={p1}"
    return ("changed", rest, detail)


def remove_hinged_side(phi: Formula, idxs, hinge: int, p0: int, p1: int) -> Formula:
    """Drop the clauses at ``idxs`` and their variables except ``hinge``;
    p0 and p1 are the parities of those clauses with the hinge false and
    true, not both even.  When they differ the odd value is forced; when
    both are odd the hinge stays unassigned."""
    side = {var_of(l) for i in idxs for l in phi.clauses[i]} - {hinge}
    rest = Formula._derive(phi.variables - side, phi, sorted(idxs))
    if p0 != p1:
        rest = assign_literal(rest, hinge if p1 else -hinge)
    return rest


_RULES = (
    ("R1", _r1),
    ("R2", _r2),
    ("R3", _r3),
    ("R4", _r4),
    ("R5", _r5),
    ("R6", _r6),
    ("R7", _r7),
    ("R8", _r8),
    ("R9", _r9),
    ("R10", _r10),
    ("R11", _r11),
    ("R12", _r12),
    ("R13", _r13),
)

_RULE_BY_ID = dict(_RULES)

# rules that take a scope of clause indices; any other rule, including one
# swapped into _RULES, always scans the whole formula
_CLAUSE_LOCAL = frozenset((_r2, _r3, _r4, _r5))


def apply_rule(phi: Formula, rule_id: str):
    """Apply a single rule once.  Returns None, ("verdict", detail) or
    ("changed", formula, detail)."""
    return _RULE_BY_ID[rule_id](phi)


def reduce_formula(phi: Formula) -> ReductionOutcome:
    """Exhaustively apply the rules: the R(phi) of the analysis.

    Parity is preserved (or the verdict 0 is correct), and every step
    strictly decreases (n, m, L) lexicographically, which is asserted.
    The trace lists (rule id, detail) for every firing.

    R2-R5 run on a scope of clauses outside which they are known
    inapplicable (see the module docstring).  After a firing of a rule
    checked in full, the rules before it check only the fresh clauses.
    After a firing inside the scope, the scope carries over: its surviving
    clauses plus the fresh ones.  A phi derived from a fixpoint starts on
    the clauses that fixpoint lacks, and a returned fixpoint records its
    clauses in ``_base`` for the formulas derived from it.
    """
    trace = []
    potential = [(phi.n, phi.m, phi.length)]
    # rules at positions below ``known`` are known inapplicable outside the
    # clause indices ``scope``
    known, scope = 0, ()
    if phi._base is not None:
        old = set(phi._base)
        known, scope = len(_RULES), [k for k, c in enumerate(phi.clauses) if c not in old]
    while True:
        for r, (rule_id, fn) in enumerate(_RULES):
            scoped = r < known and fn in _CLAUSE_LOCAL
            res = fn(phi, scope) if scoped else fn(phi)
            if res is None:
                continue
            if res[0] == "verdict":
                trace.append((rule_id, res[1]))
                return ReductionOutcome(None, 0, trace, potential)
            _, new_phi, detail = res
            new_pot = (new_phi.n, new_phi.m, new_phi.length)
            if not new_pot < potential[-1]:
                raise ReducerInvariantError(
                    f"{rule_id} did not decrease the potential: "
                    f"{potential[-1]} -> {new_pot}"
                )
            trace.append((rule_id, detail))
            potential.append(new_pot)
            old = set(phi.clauses)
            if scoped:
                # the rules below known stay inapplicable outside the
                # scope, so its surviving clauses stay in it
                old.difference_update(phi.clauses[k] for k in scope)
            else:
                known = r
            scope = [k for k, c in enumerate(new_phi.clauses) if c not in old]
            phi = new_phi
            break
        else:
            object.__setattr__(phi, "_base", phi.clauses)
            return ReductionOutcome(phi, None, trace, potential)


def is_fixpoint(phi: Formula) -> bool:
    return all(fn(phi) is None for _, fn in _RULES)


# -- reduced-formula property report ----------------------------------------


@dataclass
class PropertyReport:
    """Pass/fail for the five structural properties of reduced formulas,
    with a concrete witness for each failure."""

    results: dict
    witnesses: dict

    @property
    def all_pass(self) -> bool:
        return all(self.results.values())


def _connected_subsets_within_cap(phi: Formula):
    """All connected, non-empty, proper clause subsets with at most
    SUBFORMULA_VAR_CAP variables.  Variable count grows monotonically with
    the subset, so pruning at the cap is exact."""
    m = phi.m
    adj: list[set] = [set() for _ in range(m)]
    for occs in phi.occ.values():
        idxs = [cidx for cidx, _ in occs]
        for i in idxs:
            for j in idxs:
                if i != j:
                    adj[i].add(j)
    varsets = [frozenset(var_of(l) for l in c) for c in phi.clauses]
    out = []
    seen = set()
    for start in range(m):
        base = frozenset((start,))
        if len(varsets[start]) > SUBFORMULA_VAR_CAP:
            continue
        stack = [(base, varsets[start])]
        seen.add(base)
        while stack:
            subset, vs = stack.pop()
            out.append((subset, vs))
            if len(out) > SUBSET_ENUMERATION_LIMIT:
                raise ReducerInvariantError("subformula enumeration exploded")
            for c in subset:
                for nb in adj[c]:
                    # fix the minimum element to avoid revisits across starts
                    if nb <= start or nb in subset:
                        continue
                    nxt = subset | {nb}
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    nvs = vs | varsets[nb]
                    if len(nvs) <= SUBFORMULA_VAR_CAP:
                        stack.append((nxt, nvs))
    return [(s, v) for s, v in out if len(s) < m]


def check_reduced_properties(phi: Formula) -> PropertyReport:
    """Each failed property's witness is the first one found."""
    clauses, m = phi.clauses, phi.m
    varsets = [frozenset(var_of(l) for l in c) for c in clauses]
    two_vars = {v for v in phi.variables if phi.degree(v) == 2}
    twos = [i for i, c in enumerate(clauses) if len(c) == 2]
    found = {
        "p1_all_variables_2plus": (
            (v, phi.degree(v)) for v in sorted(phi.variables) if phi.degree(v) < 2
        ),
        "p2_all_clauses_2plus": (c for c in clauses if len(c) < 2),
        "p3_clause_pair_one_common_2var": (
            (clauses[i], clauses[j], sorted(shared))
            for i, j in itertools.combinations(range(m), 2)
            if len(shared := varsets[i] & varsets[j] & two_vars) > 1
        ),
        "p4_2clause_pair_one_common_var": (
            (clauses[i], clauses[j], sorted(shared))
            for i, j in itertools.combinations(twos, 2)
            if len(shared := varsets[i] & varsets[j]) > 1
        ),
        "p5_small_subformula_interface": (
            (sorted(subset), sorted(shared))
            for subset, vs in _connected_subsets_within_cap(phi)
            if len(shared := {v for v in vs if any(i not in subset for i, _ in phi.occ[v])}) < 2
        ),
    }
    witnesses = {}
    for name, search in found.items():
        witness = next(search, None)
        if witness is not None:
            witnesses[name] = witness
    return PropertyReport({name: name not in witnesses for name in found}, witnesses)

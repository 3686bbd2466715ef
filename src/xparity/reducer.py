"""The thirteen parity-preserving reduction rules and their fixpoint engine.

Rules either rewrite the formula (strictly decreasing the potential
(n, m, L) in lexicographic order) or settle the instance outright with an
even-parity verdict.  ``reduce_formula`` applies them in a fixed priority
order (``_RULES``), restarting from the first rule after every change; any
order is correct, a fixed one keeps traces deterministic.

R1-R7 rewrite a store (``store.Store``) instead of deriving a formula per
firing: the clauses under stable ids, a view of the input until the first
change copies it, so a firing costs what it touches.  One ``Formula`` is
built when R1-R7 stop firing; R8-R13 are checked on it, and a formula one
of them derives is loaded as the next store.  The input is never mutated.

Each store rule picks the firing a full scan would.  R2-R5 keep pending
ids outside which they are known inapplicable: a check leaves pending only
the clauses it fires on, a firing adds the ids it adds, and dropping a
clause makes no rule applicable.  Each picks the least by key, R4 the
least (subset, superset) pair with a pending member.  R6 and R7 take the
least of the variables whose degree fell to 0 or moved to 1.  A formula
derived from a fixpoint starts with only the clauses that fixpoint lacks
(``Formula._base``) pending, and so does a store loaded after an R8-R13
firing, with the clauses of the formula it fired on.  R1 reads a flag.

R8, R10 and R11 read the literal sets the formula keeps beside its
clauses.  R8-R11 look only at the variables where they can fire, listed
by one pass kept on the formula (``_sites``): in a reduced 2-occurrence
formula, none.  R12 and R13 read one search of the formula's incidence
graph, kept on the formula: its components and R13's hinge with the side
to settle.  So a pass that checks both searches once, a solver that
splits a formula the reducer returned reuses the search, and a component
or side within the cap is counted from its clauses, over its own
variables (``oracle.count_models``), with no subformula built.

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
    merge_variables,
    remove_variable,
    var_of,
)
from .oracle import count_models
from .store import Store

SUBFORMULA_VAR_CAP = 10  # threshold from the isolate/semi-isolate rules

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
# Each takes the store and returns None (not applicable), ("verdict",
# detail) or ("changed", result, detail): R1-R7 rewrite the store and return
# it, R8-R13 return a new Formula.


def _pending(st: Store, rule_id: str):
    """(id, clause, literal set) of the ids pending for rule_id, dropped
    ones (clause None) included."""
    ids = st.pending[rule_id]
    if ids is None:
        return zip(itertools.count(), st.clauses, st.sets)
    return ((k, st.clauses[k], st.sets[k]) for k in ids)


def _least(st: Store, rule_id: str, hits: set):
    """Keep the ids a clause-local rule fires on as its pending ids (it is
    inapplicable on the rest) and pick the least by key."""
    st.pending[rule_id] = hits
    return min(hits, key=st.keys.__getitem__) if hits else None


def _r1(st: Store):
    return ("verdict", "empty clause") if st.empty else None


def _r2(st: Store):
    k = _least(st, "R2", {k for k, c, s in _pending(st, "R2") if c and len(s) < len(c)})
    if k is None:
        return None
    clause = st.clauses[k]
    st.drop(k)
    st.add(tuple(dict.fromkeys(clause)))
    return ("changed", st, f"dedup {clause}")


def _r3(st: Store):
    hits = {k for k, c, s in _pending(st, "R3") if c and not s.isdisjoint(map(neg, s))}
    k = _least(st, "R3", hits)
    if k is None:
        return None
    clause = st.clauses[k]
    st.drop(k)
    return ("changed", st, f"tautology {clause}")


def _first_superset(st: Store, i: int):
    # A superset of clause i occurs in the occurrence list of each variable
    # of clause i, so scanning the shortest such list finds the least one.
    sets, keys = st.sets, st.keys
    s = sets[i]
    if s:
        scan = min(map(st.occ.__getitem__, map(abs, s)), key=len)
    else:
        scan = [(k, c) for k, c in enumerate(st.clauses) if c is not None]
    best = None
    for j, _ in scan:
        if s < sets[j] and (best is None or keys[j] < keys[best]):
            best = j
    return best


def _r4(st: Store):
    """The least pair (key i, key j) with clause i a proper subset of clause
    j, over the pairs with i or j pending; drop clause j.  A subset or a
    superset of a pending clause shares a variable with it, so its
    occurrence lists hold every such pair; an empty clause shares none, so
    R4 scans in full while the store holds one."""
    clauses, sets, keys, occ = st.clauses, st.sets, st.keys, st.occ
    ids = None if st.empty else st.pending["R4"]
    best = None
    if ids is None:
        # a clause of the greatest length has no proper superset (the set of
        # a dropped clause still counts: at worst a wasted check)
        top = max(map(len, sets), default=0)
        for i in itertools.compress(itertools.count(), map(top.__gt__, map(len, sets))):
            j = None if clauses[i] is None else _first_superset(st, i)
            if j is not None:
                pair = (keys[i], keys[j], i, j)
                if best is None or pair < best:
                    best = pair
    else:
        for p in ids:
            if clauses[p] is None:
                continue
            s = sets[p]
            for l in s:
                for q, _ in occ[abs(l)]:
                    t = sets[q]
                    if t < s:
                        pair = (keys[q], keys[p], q, p)
                    elif s < t:
                        pair = (keys[p], keys[q], p, q)
                    else:
                        continue
                    if best is None or pair < best:
                        best = pair
    if best is None:
        st.pending["R4"] = set()
        return None
    *_, i, j = best
    detail = f"{clauses[i]} subsumes {clauses[j]}"
    st.drop(j)
    return ("changed", st, detail)


def _r5(st: Store):
    k = _least(st, "R5", {k for k, c, _ in _pending(st, "R5") if c and len(c) == 1})
    if k is None:
        return None
    lit = st.clauses[k][0]
    st.falsify({-lit})
    return ("changed", st, f"unit {lit}")


def _r6(st: Store):
    st.zeros = {v for v in st.zeros if v in st.variables and v not in st.occ}
    return ("verdict", f"0-variable {min(st.zeros)}") if st.zeros else None


def _r7(st: Store):
    occ = st.occ
    st.ones = {v for v in st.ones if len(occ.get(v, ())) == 1}
    if not st.ones:
        return None
    v = min(st.ones)
    k, lit = occ[v][0]
    clause = st.clauses[k]
    lits = {-lit, *(l for l in clause if l != lit)}
    if not lits.isdisjoint(map(neg, lits)):
        raise ValueError("cannot falsify a clause with complementary literals")
    st.falsify(lits)
    return ("changed", st, f"1-variable {v}: {lit}=1, rest of {clause} false")


def _sites(phi: Formula) -> dict:
    """The variables where R8-R11 can fire, ascending, as the keys of a
    dict (R11 tests membership), kept on the formula.  Every variable that
    occurs is one, but for a variable v of degree 2 whose two distinct
    clauses are not units and share no other variable: no rule can fire at
    v, since R8 at v needs a literal in both clauses, R9 a twin in both,
    R10 a clause holding lit whose other literals lie in the clause holding
    -lit, and R11's (p q) and (-p -q) share both variables.  So a
    2-occurrence formula with no unit and no variable held twice lists none
    exactly when no two clauses share two variables (P3 of a reduced
    formula).  One pass over the sorted variables, reading the first
    clause of each of degree 2."""
    sites = phi._sites
    if sites is None:
        clauses, sets, occ = phi.clauses, phi.sets, phi.occ
        sites = {}
        for v in sorted(occ):
            oc = occ[v]
            if len(oc) == 2:
                i, j = oc[0][0], oc[1][0]
                if i != j and len(clauses[i]) > 1 and len(clauses[j]) > 1:
                    other = sets[j]
                    for l in clauses[i]:
                        if (l in other or -l in other) and l != v and l != -v:
                            break
                    else:
                        continue
            sites[v] = None
        object.__setattr__(phi, "_sites", sites)
    return sites


def _r8(phi: Formula):
    sets, occ = phi.sets, phi.occ
    for v in _sites(phi):
        common = None
        for cidx, _ in occ[v]:
            common = sets[cidx] if common is None else common & sets[cidx]
        # a literal besides v and -v
        if len(common) > (v in common) + (-v in common):
            lit = min(common - {v, -v}, key=lambda l: (abs(l), l < 0))
            return ("changed", assign_literal(phi, -lit), f"{lit} dominates {v}: {lit}=0")
    return None


def _r9(phi: Formula):
    """Twins a, b: the clauses holding a are those holding b, once per copy,
    and so for -a and -b.  So only variables with equal clause-index lists
    can be twins, both listed by ``_sites``, and only the first clause of
    such a list is scanned."""
    occ = phi.occ
    seen = {}  # clause-index list -> the first variable with it
    starts = set()  # the first clause of each list two variables share
    for v in _sites(phi):
        key = tuple(map(_clause_index, occ[v]))
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
    clauses, sets, occ = phi.clauses, phi.sets, phi.occ
    for v in _sites(phi):
        occs = occ[v]
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
    # a canonical (b a) with var(b) < var(a) has the complement (-b -a);
    # the two share a's variable and b's, so only a listed a can pair
    sites = _sites(phi)
    if not sites:
        return None
    two = set()
    for clause in phi.clauses:
        if len(clause) == 2:
            b, a = clause
            if b == a or b == -a:
                continue  # duplicated variable, earlier rules handle it
            if abs(a) not in sites:
                continue
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
    a component.  A variable in exactly two distinct clauses is searched as
    an edge between them, and it is a cut variable exactly when that edge
    is a bridge; every other variable is a vertex.

    hinge is R13's: None, or (x, side) with x the smallest cut variable
    that separates a side of at most SUBFORMULA_VAR_CAP variables, x
    included, and side the ascending clause indices of the first small side
    in order of smallest clause.  A child subtree of x with low >= disc(x)
    is a separated side, and so is the subtree below a bridge x; the rest
    of x's component, which holds the root, is one more and comes first.
    """
    if phi._incidence is not None:
        return phi._incidence
    m, clauses, occ = phi.m, phi.clauses, phi.occ
    # vertices: clause i is i, variable variables[k] is m + k.  A vertex's
    # neighbours are read off its clause's literals or its occurrence
    # entries; a repeated one is a repeated edge and changes nothing below.
    # A literal of an edge variable x maps to ~x instead, and its far end
    # seen from clause u is ends[x] - u.
    link, ends, variables = {}, {}, []
    for v, oc in occ.items():
        if len(oc) == 2 and oc[0][0] != oc[1][0]:
            link[v] = link[-v] = ~v
            ends[v] = oc[0][0] + oc[1][0]
        else:
            link[v] = link[-v] = m + len(variables)
            variables.append(v)
    link_of = link.__getitem__
    size = m + len(variables)
    disc = [0] * size  # preorder position plus one; 0 = unvisited
    low = [0] * size
    end = [0] * size  # the subtree of u is order[disc[u] - 1 : end[u]]
    # variables in the DFS subtree: a vertex variable counts at itself, an
    # edge variable at the upper end of its tree edge or the lower end of a
    # back edge, so a separated subtree counts exactly its own
    nvars = [0] * size
    order = []
    seps = {}  # cut variable -> its separated child subtrees
    cuts = []  # the keys of seps, in order of discovery
    components = []
    counts = []
    best = None  # (x, its component, variables in the rest)
    for root in range(m):
        if disc[root]:
            continue
        first_cut = len(cuts)
        order.append(root)
        disc[root] = low[root] = len(order)
        # (vertex, its unscanned neighbours, ~x for the edge variable x it
        # was entered by, else 0)
        stack = [(root, map(link_of, clauses[root]), 0)]
        while stack:
            u, it, via = stack[-1]
            for w in it:
                if w < 0:
                    if w == via:
                        continue  # the tree edge itself
                    edge, w = w, ends[~w] - u
                    if not disc[w]:
                        nvars[u] += 1
                        order.append(w)
                        disc[w] = low[w] = len(order)
                        stack.append((w, map(link_of, clauses[w]), edge))
                        break
                    if disc[w] < disc[u]:
                        nvars[u] += 1
                elif not disc[w]:
                    order.append(w)
                    disc[w] = low[w] = len(order)
                    if w >= m:
                        nvars[w] = 1
                        stack.append((w, map(_clause_index, occ[variables[w - m]]), 0))
                    else:
                        stack.append((w, map(link_of, clauses[w]), 0))
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
                    if via:
                        x = ~via if low[u] > disc[p] else 0
                    else:
                        x = variables[p - m] if p >= m and low[u] >= disc[p] else 0
                    if x:
                        if x not in seps:
                            cuts.append(x)
                        seps.setdefault(x, []).append(u)
        comp = tuple(sorted(v for v in order[disc[root] - 1 :] if v < m))
        components.append(comp)
        counts.append(nvars[root])
        for x in cuts[first_cut:]:
            if best is None or x < best[0]:
                sizes = [nvars[c] for c in seps[x]]
                rest = nvars[root] - sum(sizes)
                if rest <= SUBFORMULA_VAR_CAP or min(sizes) < SUBFORMULA_VAR_CAP:
                    best = (x, comp, rest)
    hinge = None
    if best is not None:
        x, comp, rest = best
        subtrees = [order[disc[c] - 1 : end[c]] for c in seps[x]]
        if rest <= SUBFORMULA_VAR_CAP:
            inside = {v for tree in subtrees for v in tree}
            side = tuple(i for i in comp if i not in inside)
        else:
            # the sides are disjoint: the least sorted one has the least clause
            side = min(
                tuple(sorted(v for v in tree if v < m))
                for c, tree in zip(seps[x], subtrees)
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
        # only a component within the cap is worth counting
        if count <= SUBFORMULA_VAR_CAP:
            side = [clauses[i] for i in comp]
            if count_models({var_of(l) for c in side for l in c}, side) & 1 == 0:
                return ("verdict", f"isolated subformula {list(comp)} has even parity")
            return (
                "changed",
                remove_hinged_side(phi, comp, None, 1, 1),
                f"isolated subformula {list(comp)}, parity 1, removed",
            )
    return None


def _r13(phi: Formula):
    """Count the hinge's side over its own variables, with and without the
    unit (x): p1 is the parity with x true, p0 the rest."""
    hinge = _incidence(phi)[2]
    if hinge is None:
        return None
    x, side = hinge
    comp = list(side)
    clauses = [phi.clauses[i] for i in side]
    vs = {var_of(l) for c in clauses for l in c}
    if len(vs) > SUBFORMULA_VAR_CAP:
        raise ReducerInvariantError(f"hinge {x} has side {comp} of {len(vs)} variables")
    p1 = count_models(vs, [*clauses, (x,)]) & 1
    p0 = (count_models(vs, clauses) & 1) ^ p1
    if p0 == 0 and p1 == 0:
        return ("verdict", f"hinged subformula {comp} even for both values of {x}")
    rest = remove_hinged_side(phi, side, x, p0, p1)
    if p0 == p1:
        detail = f"hinged subformula {comp}: both parities odd, {x} kept"
    else:
        detail = f"hinged subformula {comp}: forced {x}={p1}"
    return ("changed", rest, detail)


def remove_hinged_side(phi: Formula, idxs, hinge: int | None, p0: int, p1: int) -> Formula:
    """Drop the clauses at ``idxs`` and their variables except ``hinge``
    (None for a side that shares none, R12's component); p0 and p1 are the
    parities of those clauses with the hinge false and true, not both even.
    When they differ the odd value is forced; when both are odd the hinge
    stays unassigned."""
    side = {var_of(l) for i in idxs for l in phi.clauses[i]} - {hinge}
    rest = Formula._derive(phi.variables - side, phi, sorted(idxs))
    if p0 != p1:
        rest = assign_literal(rest, hinge if p1 else -hinge)
    return rest


def _on_formula(rule):
    """A rule of the Formula path, checked on the formula the store holds."""
    return lambda st: rule(st.formula())


_RULES = (
    ("R1", _r1),
    ("R2", _r2),
    ("R3", _r3),
    ("R4", _r4),
    ("R5", _r5),
    ("R6", _r6),
    ("R7", _r7),
    ("R8", _on_formula(_r8)),
    ("R9", _on_formula(_r9)),
    ("R10", _on_formula(_r10)),
    ("R11", _on_formula(_r11)),
    ("R12", _on_formula(_r12)),
    ("R13", _on_formula(_r13)),
)

_RULE_BY_ID = dict(_RULES)


def apply_rule(phi: Formula, rule_id: str):
    """Apply a single rule once, with nothing known about phi.  Returns
    None, ("verdict", detail) or ("changed", formula, detail)."""
    st = Store(phi)
    res = _RULE_BY_ID[rule_id](st)
    if res is not None and res[1] is st:
        return ("changed", st.formula(), res[2])
    return res


def reduce_formula(phi: Formula) -> ReductionOutcome:
    """Exhaustively apply the rules: the R(phi) of the analysis.

    Parity is preserved (or the verdict 0 is correct), and every step
    strictly decreases (n, m, L) lexicographically, which is asserted.
    The trace lists (rule id, detail) for every firing.

    R1-R7 rewrite a store (see the module docstring); R8-R13 are checked
    on the formula it holds, built once R1-R7 stop firing, and a formula
    one of them derives is loaded as the next store.  A phi derived from a
    fixpoint starts with R2-R5 pending on the clauses that fixpoint lacks,
    and a returned fixpoint records its clauses in ``_base`` for the
    formulas derived from it.
    """
    st = Store(phi, phi._base)
    trace = []
    potential = [st.potential]
    while True:
        for rule_id, fn in _RULES:
            res = fn(st)
            if res is None:
                continue
            if res[0] == "verdict":
                trace.append((rule_id, res[1]))
                return ReductionOutcome(None, 0, trace, potential)
            _, out, detail = res
            if out is not st:
                # R2-R5 were known inapplicable on the whole formula the
                # rule fired on, unless a rule order that checks R8-R13
                # earlier left some pending: those start over in full
                unknown = [r for r, ids in st.pending.items() if ids is None or ids]
                st = Store(out, st.built.clauses)
                st.pending.update(dict.fromkeys(unknown))
            pot = st.potential
            if not pot < potential[-1]:
                raise ReducerInvariantError(
                    f"{rule_id} did not decrease the potential: {potential[-1]} -> {pot}"
                )
            trace.append((rule_id, detail))
            potential.append(pot)
            break
        else:
            phi = st.formula()
            object.__setattr__(phi, "_base", phi.clauses)
            return ReductionOutcome(phi, None, trace, potential)


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


def _small_interfaces(phi: Formula):
    """P5's witnesses: each (clauses, shared variables) of a connected,
    proper clause set with at most SUBFORMULA_VAR_CAP variables that shares
    fewer than two of them with the other clauses.  Such a set sharing only
    x, or nothing (then for any x), is a union of components of the clause
    graph in which x links nothing, each one itself such a set; so one
    component search per variable x that occurs finds one exactly when any
    exists (where none occurs, there is at most one clause)."""
    clauses, occ, m = phi.clauses, phi.occ, phi.m
    for x in sorted(occ):
        seen = [False] * m
        for root in range(m):
            if seen[root]:
                continue
            seen[root] = True
            comp, stack, vs = [root], [root], set()
            while stack:
                for lit in clauses[stack.pop()]:
                    v = var_of(lit)
                    if v in vs:
                        continue
                    vs.add(v)
                    if v == x:
                        continue
                    for i, _ in occ[v]:
                        if not seen[i]:
                            seen[i] = True
                            comp.append(i)
                            stack.append(i)
            if len(comp) < m and len(vs) <= SUBFORMULA_VAR_CAP:
                inside = set(comp)
                shared = [v for v in sorted(vs) if any(i not in inside for i, _ in occ[v])]
                yield sorted(comp), shared


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
        "p5_small_subformula_interface": _small_interfaces(phi),
    }
    witnesses = {}
    for name, search in found.items():
        witness = next(search, None)
        if witness is not None:
            witnesses[name] = witness
    return PropertyReport({name: name not in witnesses for name in found}, witnesses)

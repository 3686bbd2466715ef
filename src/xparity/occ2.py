"""Solver for parity of 2-occurrence CNF.

Pipeline: reduce; clause-branch away 4+-clauses (with clause/variable drop
assertions per branch); then, on the remaining {2,3}-CNF, run the
bisection-guided divide and conquer over the smoothed clause multigraph.
Pure 2-CNF parts are polynomial and are peeled off along the way.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .branching import clause_branch, settle_children
from .factors import epsilon_prime
from .formula import Formula, assign_literal, clause_sort_key, var_of
from .oracle import brute_parity
from .reducer import (
    SUBFORMULA_VAR_CAP,
    ReducerInvariantError,
    ReductionOutcome,
    clause_components,
    reduce_formula,
    remove_hinged_side,
    subformula,
)
from .telemetry import Telemetry

EPS = 1e-9  # the epsilon of the (1/6 + eps) cut bound
EXHAUSTIVE_BISECT_BELOW = 13  # bisect exhaustively up to this many vertices
KL_RESTARTS = 6  # seeded Kernighan-Lin restarts above that size


class ContractViolation(ValueError):
    """Input outside the solver's contract (e.g. a 3+-occurrence variable)."""


@dataclass(frozen=True)
class MultiEdge:
    u: tuple  # 3-clause (canonical tuple)
    v: tuple
    label: tuple  # ("var", x) for a shared variable, ("chain", clauses...) for a 2-clause path

    def is_loop(self) -> bool:
        return self.u == self.v

    def sort_key(self):
        ku, kv = clause_sort_key(self.u), clause_sort_key(self.v)
        if kv < ku:
            ku, kv = kv, ku
        return (ku, kv, self.label)


@dataclass
class ClauseMultigraph:
    """The smoothed dual graph: vertices are the 3-clauses, edges are direct
    variable sharings or chains of 2-clauses.  Components made only of
    2-clauses do not appear here."""

    vertices: frozenset
    edges: list

    @property
    def self_loops(self) -> list:
        return [e for e in self.edges if e.is_loop()]

    def degree(self, v) -> int:
        return sum((e.u == v) + (e.v == v) for e in self.edges)


def check_occ2(phi: Formula):
    for v in phi.variables:
        if phi.degree(v) > 2:
            raise ContractViolation(f"variable {v} occurs {phi.degree(v)} times; need <= 2")


def _other_occurrence(phi: Formula, v: int, cidx: int):
    occs = phi.occ[v]
    for oc, lit in occs:
        if oc != cidx:
            return oc, lit
    return None


def _walk(phi: Formula, start_idx: int, v: int):
    """Follow variable v out of a 3-clause through any chain of 2-clauses;
    returns (end clause index, end variable, chain clause indices)."""
    chain = []
    cur_var = v
    nxt = _other_occurrence(phi, cur_var, start_idx)
    while True:
        cidx, _ = nxt
        clause = phi.clauses[cidx]
        if len(clause) != 2:
            return cidx, cur_var, chain
        chain.append(cidx)
        (exit_var,) = [var_of(l) for l in clause if var_of(l) != cur_var]
        cur_var = exit_var
        nxt = _other_occurrence(phi, cur_var, cidx)


def build_multigraph(phi: Formula) -> ClauseMultigraph:
    """Requires every variable to have degree exactly 2 and clause lengths in
    {2, 3} (the shape reduction guarantees on 2-occ input)."""
    three = [i for i, c in enumerate(phi.clauses) if len(c) == 3]
    for i, c in enumerate(phi.clauses):
        if len(c) not in (2, 3):
            raise ContractViolation(f"clause {c} has length {len(c)}")
    for v in phi.variables:
        if phi.degree(v) != 2:
            raise ContractViolation(f"variable {v} has degree {phi.degree(v)}; want exactly 2")
    edges = []
    seen_slots = set()
    for cidx in three:
        for v in sorted({var_of(l) for l in phi.clauses[cidx]}):
            if (cidx, v) in seen_slots:
                continue
            end_idx, end_var, chain = _walk(phi, cidx, v)
            if len(phi.clauses[end_idx]) != 3:
                raise ReducerInvariantError("chain ended in a non-3-clause")
            seen_slots.add((cidx, v))
            seen_slots.add((end_idx, end_var))
            label = (
                ("var", v)
                if not chain
                else ("chain",) + tuple(phi.clauses[i] for i in chain)
            )
            edges.append(MultiEdge(phi.clauses[cidx], phi.clauses[end_idx], label))
    edges.sort(key=MultiEdge.sort_key)
    return ClauseMultigraph(frozenset(phi.clauses[i] for i in three), edges)


# -- polynomial 2-CNF ----------------------------------------------------------


def _check_2cnf(phi: Formula):
    for c in phi.clauses:
        if len(c) > 2:
            raise ContractViolation(f"clause {c} too long for the 2-CNF solver")


def solve_2cnf(phi: Formula) -> int:
    """Parity of a 2-CNF 2-occ formula in polynomial time: reduction consumes
    path components; each cycle left at the fixpoint is settled by one walk
    round it (``_break_cycle``)."""
    _check_2cnf(phi)
    check_occ2(phi)
    out = reduce_formula(phi)
    if out.parity is not None:
        return out.parity
    psi = out.formula
    for comp in clause_components(psi):
        if _break_cycle(subformula(psi, comp)) == 0:
            return 0
    return 1


def _break_cycle(sub: Formula) -> int:
    """Parity of a 2-CNF formula whose clauses form one cycle, in one walk
    round it.  Clause i joins its entry variable v_i to its exit variable
    v_{i+1}, so the model count is trace(M_0 ... M_{k-1}) over the 2x2
    transfer matrices M_i[x][y] = 1 unless v_i=x, v_{i+1}=y falsify clause
    i; the walk keeps the product modulo 2."""
    _check_2cnf(sub)
    for v in sub.variables:
        if sub.degree(v) != 2:
            raise ReducerInvariantError(
                f"not a cycle: variable {v} occurs {sub.degree(v)} times, not twice"
            )
    if not sub.clauses:
        raise ReducerInvariantError("not a cycle: no clauses")
    clauses = sub.clauses
    head = var_of(clauses[0][0])
    prod = ((1, 0), (0, 1))
    cidx, p, steps = 0, clauses[0][0], 0
    while True:
        clause = clauses[cidx]
        if len(clause) != 2 or var_of(clause[0]) == var_of(clause[1]):
            raise ReducerInvariantError(
                f"not a cycle: clause {clause} does not continue the walk"
            )
        q = clause[1] if clause[0] == p else clause[0]
        # M is all ones but at (fp, fq), the values falsifying p and q, so
        # a row of the product times M is row[0] ^ row[1], less row[fp] in
        # column fq
        fp, fq = int(p < 0), int(q < 0)
        prod = tuple(
            tuple(row[0] ^ row[1] ^ (row[fp] if col == fq else 0) for col in (0, 1))
            for row in prod
        )
        steps += 1
        cidx, p = _other_occurrence(sub, var_of(q), cidx)
        if cidx == 0:
            break
    if steps != sub.m or var_of(p) != head:
        raise ReducerInvariantError(
            f"not a cycle: the walk closed after {steps} of {sub.m} clauses, "
            f"through variable {var_of(p)} (started at {head})"
        )
    return prod[0][0] ^ prod[1][1]


# -- self-loop elimination -------------------------------------------------------


def eliminate_self_loops(phi: Formula) -> tuple[ReductionOutcome, ClauseMultigraph | None]:
    """Settle every loop subformula of a formula at the reducer's fixpoint,
    with the 2-CNF solver standing in for brute force (the hinged
    small-subformula rule, scaled past the 10-variable cap).  A loop is a
    self-loop edge of the multigraph: its 3-clause, whose chain returns to
    it, and the chain's 2-clauses; the hinge is the 3-clause's third
    variable.  Returns (outcome, g): the outcome is the verdict 0 or the
    reduced loop-free formula, empty when the parity is 1, and g is that
    formula's multigraph, or None once settled."""
    out = ReductionOutcome(phi, None)
    while out.parity is None:
        phi = out.formula
        g = build_multigraph(phi)
        if not g.self_loops:
            return out, g
        e = g.self_loops[0]
        loop = {e.u, *e.label[1:]}
        idxs = [i for i, c in enumerate(phi.clauses) if c in loop]
        (hinge,) = {var_of(l) for l in e.u} - {var_of(l) for c in e.label[1:] for l in c}
        sub = subformula(phi, idxs)
        p1 = solve_2cnf(assign_literal(sub, hinge))
        p0 = solve_2cnf(assign_literal(sub, -hinge))
        if p0 == 0 and p1 == 0:
            return ReductionOutcome(None, 0), None
        # the reducer settles any degeneracy an unassigned hinge leaves
        out = reduce_formula(remove_hinged_side(phi, idxs, sub, hinge, p0, p1))
    return out, None


# -- bisection ------------------------------------------------------------------


@dataclass
class Partition:
    a: frozenset
    b: frozenset
    cut: list

    @property
    def balance(self) -> int:
        return abs(len(self.a) - len(self.b))


def crossing_edges(graph: ClauseMultigraph, a, b) -> list:
    return [
        e
        for e in graph.edges
        if (e.u in a and e.v in b) or (e.u in b and e.v in a)
    ]


def _cut_size(edges, in_a: dict) -> int:
    return sum(1 for e in edges if in_a[e.u] != in_a[e.v])


def bisect_multigraph(graph: ClauseMultigraph, seed: int = 0) -> Partition:
    """Balanced partition of the multigraph vertices with a small cut:
    exhaustive on small graphs, Kernighan-Lin style local search with seeded
    restarts above.  Deterministic for a fixed seed; the cut size carries no
    correctness weight, only running time."""
    verts = sorted(graph.vertices, key=clause_sort_key)
    nv = len(verts)
    if nv < 2:
        raise ValueError("need at least two vertices to bisect")
    edges = [e for e in graph.edges if not e.is_loop()]

    def finish(a_set):
        a = frozenset(a_set)
        b = frozenset(v for v in verts if v not in a)
        in_a = {v: (v in a) for v in verts}
        return Partition(a, b, [e for e in edges if in_a[e.u] != in_a[e.v]])

    if nv <= EXHAUSTIVE_BISECT_BELOW:
        sizes = {(nv + 1) // 2, nv // 2}
        best = None
        others = verts[1:]
        for size in sorted(sizes):
            for rest in itertools.combinations(others, size - 1):
                a = frozenset((verts[0],) + rest)
                in_a = {v: (v in a) for v in verts}
                cut = _cut_size(edges, in_a)
                key = (cut, tuple(sorted(map(clause_sort_key, a))))
                if best is None or key < best[0]:
                    best = (key, a)
        return finish(best[1])

    # Kernighan-Lin on vertex indices: swapping i in A with j in B lowers
    # the cut by d[i] + d[j] - 2*w[i][j], where d is external minus internal
    # edge count and w counts the edges between i and j.  Each pass takes
    # the first pair of greatest positive gain in (A order, B order).
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[e.u], index[e.v]) for e in edges]
    w = [[0] * nv for _ in range(nv)]
    for u, v in pairs:
        w[u][v] += 1
        w[v][u] += 1
    rng = random.Random(seed)
    best = None
    for _ in range(KL_RESTARTS):
        order = list(range(nv))
        rng.shuffle(order)
        in_a = [False] * nv
        for i in order[: (nv + 1) // 2]:
            in_a[i] = True
        cut = sum(1 for u, v in pairs if in_a[u] != in_a[v])
        while True:
            d = [0] * nv
            for u, v in pairs:
                s = 1 if in_a[u] != in_a[v] else -1
                d[u] += s
                d[v] += s
            a_side = [i for i in range(nv) if in_a[i]]
            b_side = [j for j in range(nv) if not in_a[j]]
            best_gain, best_pair = 0, None
            for i in a_side:
                wi = w[i]
                row = [d[j] - 2 * wi[j] for j in b_side]
                top = max(row)
                if d[i] + top > best_gain:
                    best_gain = d[i] + top
                    best_pair = (i, b_side[row.index(top)])
            if best_pair is None:
                break
            i, j = best_pair
            in_a[i], in_a[j] = False, True
            cut -= best_gain
        a = frozenset(v for v, side in zip(verts, in_a) if side)
        key = (cut, tuple(sorted(map(clause_sort_key, a))))
        if best is None or key < best[0]:
            best = (key, a)
    return finish(best[1])


# -- Algorithm Bisection-Solve ---------------------------------------------------


@dataclass
class Occ2Config:
    n_eps: int = 16
    seed: int = 0

    @property
    def eps_prime(self) -> float:
        return epsilon_prime(self.n_eps, EPS)


def rho_measure(a, b, s_count: int, eps_prime: float) -> float:
    return max(len(a), len(b)) + (3.0 - eps_prime) * s_count


def _prepare(psi: Formula, tel: Telemetry, depth: int):
    """Settle the self-loops of a non-empty formula at the reducer's
    fixpoint, then peel off its pure 2-CNF components.  Returns
    (parity, None) once that settles it, else (None, (core, g)), where core
    has psi's parity and g is its multigraph: the peeled components hold no
    3-clause, so they add nothing to it."""
    out, g = eliminate_self_loops(psi)
    if out.parity is not None:
        return out.parity, None
    psi = out.formula
    cores = []
    for comp in clause_components(psi):
        sub = subformula(psi, comp)
        if sub.m3 == 0:
            tel.leaf(depth, "occ2.2cnf-peel")
            if _break_cycle(sub) == 0:
                return 0, None
        else:
            cores.append(comp)
    if not cores:
        return 1, None
    return None, (subformula(psi, [i for comp in cores for i in comp]), g)


def _reduced(child: Formula, parent: Formula):
    """``settle_children``'s reduce for a branch child of ``parent``."""
    out = reduce_formula(child, parent=parent)
    return out.parity, out.formula


def _base_solve(psi: Formula, tel: Telemetry, depth: int) -> int:
    """Constant-region solver for a formula at the reducer's fixpoint:
    iterative clause branching on 3-clauses, then one walk round each
    2-CNF cycle (the fixpoint leaves no 2-CNF paths)."""
    if psi.m3 == 0:
        tel.leaf(depth, "occ2.base-2cnf")
        return int(all(_break_cycle(subformula(psi, comp)) for comp in clause_components(psi)))
    comps = clause_components(psi)
    if len(comps) > 1:
        parity = 1
        for comp in comps:
            parity &= _base_solve(subformula(psi, comp), tel, depth)
            if parity == 0:
                return 0
        return parity
    pivot = min((c for c in psi.clauses if len(c) == 3), key=clause_sort_key)
    tel.node(depth, "occ2.base-branch", {"pivot": list(pivot)})
    branch = clause_branch(psi, pivot)
    leaf = ("occ2.verdict", "occ2.empty")
    parity = 0
    for p, rest in settle_children(branch, lambda c: _reduced(c, psi), tel, depth, leaf):
        parity ^= _base_solve(rest, tel, depth + 1) if p is None else p
    return parity


def bisection_solve(
    phi: Formula,
    g: ClauseMultigraph,
    a: frozenset,
    b: frozenset,
    tel: Telemetry,
    depth: int,
    cfg: Occ2Config,
    pick_from_b: bool = False,
    last_side: str | None = None,
) -> int:
    """The bisection-guided solver: maintains a disjoint partition (a, b) of
    the 3-clauses and branches on endpoints of partition-crossing edges of
    g, phi's multigraph, alternating sides level by level.  phi must be at
    the reducer's fixpoint: its branch children are reduced from there."""
    if not a and b:
        # relabel the sides; last_side names the parent's side, so it
        # follows the relabelling and the alternation check stays valid
        a, b = b, a
        pick_from_b = not pick_from_b
        last_side = {"A": "B", "B": "A"}.get(last_side)
    if phi.m3 <= cfg.n_eps:
        return _base_solve(phi, tel, depth)
    if g.self_loops:
        raise ReducerInvariantError("self-loops survived elimination")

    if not b:
        part = bisect_multigraph(g, cfg.seed)
        if part.balance > 1:
            raise ReducerInvariantError("bisection is unbalanced")
        rho_before = rho_measure(a, b, 0, cfg.eps_prime)  # b is empty: no edge crosses
        rho_after = rho_measure(part.a, part.b, len(part.cut), cfg.eps_prime)
        fraction = len(part.cut) / len(g.vertices)
        # the analysis bounds the measure only for cuts within 1/6 + eps
        checked = fraction <= 1.0 / 6.0 + EPS
        tel.event(
            {
                "kind": "rebisect",
                "depth": depth,
                "vertices": len(g.vertices),
                "cut": len(part.cut),
                "fraction": round(fraction, 6),
                "rho_before": round(rho_before, 6),
                "rho_after": round(rho_after, 6),
                "checked": checked,
            }
        )
        if checked and rho_after > rho_before + 1e-9:
            raise ReducerInvariantError(
                f"rebisection increased the measure: {rho_before} -> {rho_after}"
            )
        # both sides are non-empty, so a re-call would pass the checks above
        a, b = part.a, part.b

    s = crossing_edges(g, a, b)
    if not s:
        parity = 1
        tel.event({"kind": "divide", "depth": depth, "sides": [len(a), len(b)]})
        for comp in clause_components(phi):
            sub = subformula(phi, comp)
            threes = frozenset(c for c in sub.clauses if len(c) == 3)
            if not (threes <= a or threes <= b):
                raise ReducerInvariantError("component straddles the partition without cut edges")
            # no edge leaves a component, so its edges are those at its 3-clauses
            g_sub = ClauseMultigraph(threes, [e for e in g.edges if e.u in threes])
            parity &= bisection_solve(
                sub, g_sub, threes, frozenset(), tel, depth, cfg, pick_from_b, last_side
            )
            if parity == 0:
                return 0
        return parity

    edge = min(s, key=MultiEdge.sort_key)
    side_set, side_name = (b, "B") if pick_from_b else (a, "A")
    pivot = edge.u if edge.u in side_set else edge.v
    if pivot not in side_set:
        raise ReducerInvariantError("crossing edge misses the designated side")
    if last_side is not None and side_name == last_side:
        raise ReducerInvariantError("branch sides failed to alternate")
    tel.node(
        depth,
        "occ2.bisect-branch",
        {"side": side_name, "parent_side": last_side, "pivot": list(pivot),
         "sizes": [len(a), len(b), len(s)]},
    )
    rho_parent = rho_measure(a, b, len(s), cfg.eps_prime)
    claimed = {"case": "dS>=2 or (dS=1, dSide>=3, dOther>=1)"}

    def reduce(child):
        # a surviving child's core, with its sides, multigraph and cut
        out = reduce_formula(child, parent=phi)
        if out.parity is not None:
            return out.parity, None
        parity, prepared = _prepare(out.formula, tel, depth + 1)
        if prepared is None:
            return parity, None
        core, g_i = prepared
        a_i, b_i = a & g_i.vertices, b & g_i.vertices
        return None, (core, g_i, a_i, b_i, crossing_edges(g_i, a_i, b_i))

    def check(i, parity, rest):
        if rest is None:
            observed = {"dA": len(a), "dB": len(b), "dS": len(s)}
            return claimed, observed, True, f"side {side_name}; child settled outright"
        _, _, a_i, b_i, s_i = rest
        d_a, d_b, d_s = len(a) - len(a_i), len(b) - len(b_i), len(s) - len(s_i)
        d_side, d_other = (d_b, d_a) if pick_from_b else (d_a, d_b)
        rho_drop = round(rho_parent - rho_measure(a_i, b_i, len(s_i), cfg.eps_prime), 6)
        observed = {"dA": d_a, "dB": d_b, "dS": d_s, "rho_drop": rho_drop}
        passed = d_s >= 2 or (d_s == 1 and d_side >= 3 and d_other >= 1)
        return claimed, observed, passed, f"side {side_name}"

    children = settle_children(
        clause_branch(phi, pivot), reduce, tel, depth, "occ2.resolved", "occ2.bisect-branch", check
    )
    parity = 0
    for p, rest in children:  # each subtree is searched before the next child is reduced
        if p is None:
            core, g_i, a_i, b_i, _ = rest
            p = bisection_solve(
                core, g_i, a_i, b_i, tel, depth + 1, cfg, not pick_from_b, side_name
            )
        parity ^= p
    return parity


# -- 4+-clause elimination and the driver ------------------------------------------


def _branch_4plus(psi: Formula, tel: Telemetry, depth: int, cfg: Occ2Config) -> int:
    longest = max(len(c) for c in psi.clauses)
    pivot = min((c for c in psi.clauses if len(c) == longest), key=clause_sort_key)
    pvars = {var_of(l) for l in pivot}
    neighbor_idx = sorted(
        {
            cidx
            for v in pvars
            for cidx, _ in psi.occ[v]
            if psi.clauses[cidx] != pivot
        }
    )
    neighbors = [psi.clauses[i] for i in neighbor_idx]
    nb_all_vars = pvars | {var_of(l) for c in neighbors for l in c}
    ext2 = {
        var_of(l)
        for c in neighbors
        if len(c) == 2
        for l in c
        if var_of(l) not in pvars
    }
    n2 = sum(1 for c in neighbors if len(c) == 2)

    tel.node(depth, "occ2.4plus", {"pivot": list(pivot)})
    claims = [
        {"dm": len(pivot) + 1, "dn": len(nb_all_vars)},
        {"dm": 1, "dn": len(pivot) + len(ext2)},
    ]

    def check(i, parity, rest):
        dm, dn = (psi.m, psi.n) if parity is not None else (psi.m - rest.m, psi.n - rest.n)
        passed = dm >= claims[i]["dm"] and dn >= claims[i]["dn"]
        note = "drop branch" if i == 0 else "falsify branch"
        return claims[i], {"dm": dm, "dn": dn, "n2_neighbors": n2}, passed, note

    children = list(settle_children(
        clause_branch(psi, pivot), lambda c: _reduced(c, psi), tel, depth,
        "occ2.resolved", "occ2.4plus", check,
    ))
    if all(p is None for p, _ in children):
        dns = [psi.n - rest.n for _, rest in children]
        dn_sum, dn_min = sum(dns), min(dns)
        tel.check(
            "occ2.4plus-pair",
            0,
            claimed={"dn_sum": 13, "dn_min": 4},
            observed={"dn_sum": dn_sum, "dn_min": dn_min},
            passed=dn_sum >= 13 and dn_min >= 4,
        )
    parity = 0
    for p, rest in children:
        parity ^= _solve_reduced(rest, tel, depth + 1, cfg) if p is None else p
    return parity


def _solve_reduced(psi: Formula, tel: Telemetry, depth: int, cfg: Occ2Config) -> int:
    if psi.n <= SUBFORMULA_VAR_CAP:
        # whole formulas at the isolate-rule cap are settled outright: the
        # branching drop guarantees presume a larger ambient formula
        tel.leaf(depth, "occ2.small-brute")
        return brute_parity(psi)
    if any(len(c) >= 4 for c in psi.clauses):
        return _branch_4plus(psi, tel, depth, cfg)
    parity, prepared = _prepare(psi, tel, depth)
    if prepared is None:
        tel.leaf(depth, "occ2.settled")
        return parity
    core, g = prepared
    return bisection_solve(core, g, g.vertices, frozenset(), tel, depth, cfg)


def solve_occ2(
    phi: Formula, telemetry: Telemetry | None = None, config: Occ2Config | None = None
) -> int:
    """Parity of a CNF formula in which every variable occurs at most twice."""
    check_occ2(phi)
    tel = telemetry if telemetry is not None else Telemetry()
    cfg = config if config is not None else Occ2Config()
    out = reduce_formula(phi)
    if out.parity is not None:
        tel.leaf(0, "occ2.empty" if out.parity else "occ2.verdict")
        return out.parity
    return _solve_reduced(out.formula, tel, 0, cfg)

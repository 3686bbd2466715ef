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
from typing import NamedTuple

from .branching import clause_branch, settle_children
from .factors import EPS, epsilon_prime
from .formula import Formula, clause_sort_key, var_of
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

# bisect exhaustively up to this many vertices, this many included.  The
# vertices are the 3-clauses and bisection_solve bisects only above n_eps of
# them, so the default n_eps = 16 never reaches it; n_eps <= 12 does.
EXHAUSTIVE_BISECT_BELOW = 13
KL_RESTARTS = 6  # seeded Kernighan-Lin restarts above that size


class ContractViolation(ValueError):
    """Input outside the solver's contract (e.g. a 3+-occurrence variable)."""


class MultiEdge(NamedTuple):
    u: tuple  # 3-clause (canonical tuple)
    v: tuple
    label: int  # the variable by which the edge leaves u

    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass
class ClauseMultigraph:
    """The smoothed dual graph: vertices are the 3-clauses, edges are direct
    variable sharings or chains of 2-clauses.  The edges are kept in order
    of their endpoints' clause indices, the lesser first, which is the order
    of their clause sort keys; parallel edges share both endpoints and their
    orientation, so nothing reads their order.  Components made only of
    2-clauses do not appear here."""

    vertices: frozenset
    edges: list

    @property
    def self_loops(self) -> list:
        return [e for e in self.edges if e.is_loop()]


def check_occ2(phi: Formula):
    # one pass over the occurrence list lengths; the loop only names the
    # offender
    if max(map(len, phi.occ.values()), default=0) > 2:
        for v in phi.variables:
            if phi.degree(v) > 2:
                raise ContractViolation(f"variable {v} occurs {phi.degree(v)} times; need <= 2")


def _walk(phi: Formula, cidx: int, v: int):
    """The one walk along 2-clauses: leave clause cidx through variable v,
    follow 2-clauses until entering a clause of another length or cidx
    again, and return (end clause index, the variable entered by, the
    chain's clause indices, T), with T = (a, b, c, d) the GF(2) product
    [[a, b], [c, d]] of the chain's transfer matrices: T[x][y] is the
    parity of the chain's models with v = x and the end variable y."""
    occ, clauses = phi.occ, phi.clauses
    start, chain = cidx, []
    a, b, c, d = 1, 0, 0, 1
    while True:
        first, second = occ[v]
        if first[0] == second[0]:
            raise ContractViolation(f"variable {v} occurs twice in clause {clauses[first[0]]}")
        cidx, p = second if first[0] == cidx else first
        clause = clauses[cidx]
        if cidx == start or len(clause) != 2:
            return cidx, v, chain, (a, b, c, d)
        chain.append(cidx)
        x, q = clause
        if q == p:
            q = x
        # M is all ones but at (fp, fq), the values falsifying p and q, so
        # a row of the product times M is row[0] ^ row[1], less row[fp] in
        # column fq; e and f are row[fp] of the two rows
        e = b if p < 0 else a
        f = d if p < 0 else c
        a = b = a ^ b
        c = d = c ^ d
        if q < 0:
            b, d = b ^ e, d ^ f
        else:
            a, c = a ^ e, c ^ f
        v = q if q > 0 else -q


def _closed(t: tuple, x: int, y: int) -> int:
    """Parity of the models of a chain with product t that satisfy the
    clause (x or y) on its end variables: the sum of t's entries less t at
    the values falsifying x and y."""
    a, b, c, d = t
    row = (c, d) if x < 0 else (a, b)
    return a ^ b ^ c ^ d ^ row[y < 0]


def build_multigraph(phi: Formula) -> ClauseMultigraph:
    """Requires every variable to have degree exactly 2 and clause lengths in
    {2, 3} (the shape reduction guarantees on 2-occ input)."""
    clauses, occ = phi.clauses, phi.occ
    three = [i for i, c in enumerate(clauses) if len(c) == 3]
    # one pass over the lengths each; the loops only name the offender
    if not set(map(len, clauses)) <= {2, 3}:
        for c in clauses:
            if len(c) not in (2, 3):
                raise ContractViolation(f"clause {c} has length {len(c)}")
    # the variables that occur are the keys of occ, so all have degree 2
    # when there are n keys, each with two occurrences
    if len(occ) != phi.n or not set(map(len, occ.values())) <= {2}:
        for v in phi.variables:
            if phi.degree(v) != 2:
                raise ContractViolation(f"variable {v} has degree {phi.degree(v)}; want exactly 2")
    # (u's index, v's index, label) with u the lesser: a direct sharing is
    # read off occ from its lesser end, a chain walked from the first of its
    # two slots (clause index, variable), and its far slot skipped later
    found, far_slots = [], set()
    for cidx in three:
        for lit in clauses[cidx]:
            v = lit if lit > 0 else -lit
            first, second = occ[v]
            if first[0] == second[0]:
                raise ContractViolation(f"variable {v} occurs twice in clause {clauses[cidx]}")
            other = second[0] if first[0] == cidx else first[0]
            if len(clauses[other]) == 3:
                if other > cidx:
                    found.append((cidx, other, v))
            elif (cidx, v) not in far_slots:
                end_idx, end_var, _, _ = _walk(phi, cidx, v)
                if len(clauses[end_idx]) != 3:
                    raise ReducerInvariantError("chain ended in a non-3-clause")
                far_slots.add((end_idx, end_var))
                found.append((cidx, end_idx, v))
    # a clause's literals ascend by variable, so ties sort in discovery order
    found.sort()
    edges = [MultiEdge(clauses[u], clauses[w], v) for u, w, v in found]
    return ClauseMultigraph(frozenset(clauses[i] for i in three), edges)


# -- polynomial 2-CNF ----------------------------------------------------------


def _check_2cnf(clauses):
    for c in clauses:
        if len(c) > 2:
            raise ContractViolation(f"clause {c} too long for the 2-CNF solver")


def solve_2cnf(phi: Formula, telemetry: Telemetry | None = None) -> int:
    """Parity of a 2-CNF 2-occ formula in polynomial time, by ``solve_occ2``:
    its reduction consumes path components and its peel settles each cycle
    left at the fixpoint by one walk round it (``_break_cycle``)."""
    _check_2cnf(phi.clauses)
    return solve_occ2(phi, telemetry)


def _break_cycle(phi: Formula, comp) -> int:
    """Parity of phi's clauses at the indices comp, a component whose
    2-clauses form one cycle: the walk from its first clause (p or q) out
    through q returns T over the rest of the cycle, which (p or q) closes."""
    clauses, occ = phi.clauses, phi.occ
    _check_2cnf(clauses[i] for i in comp)
    for v in {abs(lit) for i in comp for lit in clauses[i]}:
        if len(occ[v]) != 2:
            raise ReducerInvariantError(
                f"not a cycle: variable {v} occurs {len(occ[v])} times, not twice"
            )
    if not comp:
        raise ReducerInvariantError("not a cycle: no clauses")
    end = start = comp[0]
    clause = clauses[start]
    if len(clause) == 2 and abs(clause[0]) != abs(clause[1]):
        p, q = clause
        end, v, chain, t = _walk(phi, start, abs(q))
        if end == start:
            if len(chain) + 1 != len(comp) or v != abs(p):
                raise ReducerInvariantError(
                    f"not a cycle: the walk closed after {len(chain) + 1} of {len(comp)} "
                    f"clauses, through variable {v} (started at {abs(p)})"
                )
            return _closed(t, q, p)
    raise ReducerInvariantError(f"not a cycle: clause {clauses[end]} does not continue the walk")


# -- self-loop elimination -------------------------------------------------------


def eliminate_self_loops(phi: Formula) -> tuple[ReductionOutcome, ClauseMultigraph | None]:
    """Settle every loop of a formula at the reducer's fixpoint (R13's
    hinged subformula, past its 10-variable cap).  A loop is a self-loop
    edge of the multigraph: a 3-clause (h or x or y) whose chain of
    2-clauses leaves through x and returns through y; h's variable is the
    hinge.  One walk round the chain gives its T, and the loop's parity is
    T's entry sum when h holds, ``_closed`` when it does not.  Returns
    (outcome, g): the verdict 0 or the reduced loop-free formula, empty
    when the parity is 1, and g, that formula's multigraph or None."""
    out = ReductionOutcome(phi, None)
    while out.parity is None:
        phi = out.formula
        g = build_multigraph(phi)
        if not g.self_loops:
            return out, g
        e = g.self_loops[0]
        cidx, v = phi.clauses.index(e.u), e.label
        lits = {var_of(l): l for l in e.u}
        _, w, chain, t = _walk(phi, cidx, v)
        x, y = lits.pop(v), lits.pop(w)
        ((hinge, h),) = lits.items()
        held, closed = sum(t) & 1, _closed(t, x, y)
        p1, p0 = (held, closed) if h > 0 else (closed, held)
        if p0 == 0 and p1 == 0:
            return ReductionOutcome(None, 0), None
        # the reducer settles any degeneracy an unassigned hinge leaves
        out = reduce_formula(remove_hinged_side(phi, [cidx, *chain], hinge, p0, p1))
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
    correctness weight, only running time.  Among equal cuts the side A
    with the least ascending vertex indices wins; the vertices are in
    clause order, so that is the least tuple of clause sort keys."""
    verts = sorted(graph.vertices, key=clause_sort_key)
    nv = len(verts)
    if nv < 2:
        raise ValueError("need at least two vertices to bisect")
    edges = [e for e in graph.edges if not e.is_loop()]

    def finish(a_idx):
        a = frozenset(verts[i] for i in a_idx)
        b = frozenset(v for v in verts if v not in a)
        return Partition(a, b, crossing_edges(graph, a, b))

    if nv <= EXHAUSTIVE_BISECT_BELOW:
        best = None
        for size in sorted({(nv + 1) // 2, nv // 2}):
            for rest in itertools.combinations(range(1, nv), size - 1):
                a = (0, *rest)
                in_a = {v: i in a for i, v in enumerate(verts)}
                key = (_cut_size(edges, in_a), a)
                if best is None or key < best:
                    best = key
        return finish(best[1])

    # Kernighan-Lin on vertex indices: swapping i in A with j in B lowers
    # the cut by d[i] + d[j] - 2*w(i, j), where d is external minus internal
    # edge count and w counts the edges between i and j.  Each pass takes
    # the first pair of greatest positive gain in (A order, B order).  With
    # B ordered by (-d, index), i's best partner among its non-neighbours is
    # the first of them there; its neighbours in B are checked one by one.
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[e.u], index[e.v]) for e in edges]
    nbrs = [{} for _ in range(nv)]  # neighbour -> w
    for u, v in pairs:
        nbrs[u][v] = nbrs[u].get(v, 0) + 1
        nbrs[v][u] = nbrs[v].get(u, 0) + 1
    rng = random.Random(seed)
    best = None
    for _ in range(KL_RESTARTS):
        order = list(range(nv))
        rng.shuffle(order)
        in_a = [False] * nv
        for i in order[: (nv + 1) // 2]:
            in_a[i] = True
        cut = sum(1 for u, v in pairs if in_a[u] != in_a[v])
        d = [0] * nv
        for u, v in pairs:
            s = 1 if in_a[u] != in_a[v] else -1
            d[u] += s
            d[v] += s
        while True:
            a_side = [i for i in range(nv) if in_a[i]]
            # sorted is stable, also reversed: equal d stay in index order
            b_order = sorted((j for j in range(nv) if not in_a[j]), key=d.__getitem__, reverse=True)
            d_max = d[b_order[0]]
            best_gain, best_pair = 0, None
            for i in a_side:
                if d[i] + d_max <= best_gain:
                    continue  # not even B's greatest d beats the best gain
                nb = nbrs[i]
                for j in b_order:
                    if j not in nb:
                        break
                # j is the first non-neighbour, or the last of B if none is
                top, pick = d[j] - 2 * nb.get(j, 0), j
                for k, c in nb.items():
                    if not in_a[k]:
                        g = d[k] - 2 * c
                        if g > top or g == top and k < pick:
                            top, pick = g, k
                if d[i] + top > best_gain:
                    best_gain, best_pair = d[i] + top, (i, pick)
            if best_pair is None:
                break
            i, j = best_pair
            in_a[i], in_a[j] = False, True
            cut -= best_gain
            # the edges between i and j stay cut; every other edge at i or
            # j flips, and so does its term in d at both ends
            w_ij = nbrs[i].get(j, 0)
            d[i], d[j] = 2 * w_ij - d[i], 2 * w_ij - d[j]
            for x in best_pair:
                for k, c in nbrs[x].items():
                    if k != i and k != j:
                        d[k] += 2 * c if in_a[k] != in_a[x] else -2 * c
        key = (cut, tuple(i for i in range(nv) if in_a[i]))
        if best is None or key < best:
            best = key
    return finish(best[1])


# -- Algorithm Bisection-Solve ---------------------------------------------------


@dataclass
class Occ2Config:
    n_eps: int = 16
    seed: int = 0

    @property
    def eps_prime(self) -> float:
        return epsilon_prime(self.n_eps)


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
    comps = clause_components(psi)
    cores = []
    for comp in comps:
        if any(len(psi.clauses[i]) == 3 for i in comp):
            cores.append(comp)
        else:
            tel.leaf(depth, "occ2.2cnf-peel")
            if _break_cycle(psi, comp) == 0:
                return 0, None
    if not cores:
        return 1, None
    if len(cores) == len(comps):
        return None, (psi, g)
    return None, (subformula(psi, [i for comp in cores for i in comp]), g)


def _reduced(child: Formula):
    """``settle_children``'s reduce for a branch child."""
    out = reduce_formula(child)
    return out.parity, out.formula


def _base_solve(psi: Formula, tel: Telemetry, depth: int) -> int:
    """Constant-region solver for a formula at the reducer's fixpoint:
    iterative clause branching on 3-clauses, then one walk round each
    2-CNF cycle (the fixpoint leaves no 2-CNF paths)."""
    if psi.m3 == 0:
        tel.leaf(depth, "occ2.base-2cnf")
        return int(all(_break_cycle(psi, comp) for comp in clause_components(psi)))
    comps = clause_components(psi)
    if len(comps) > 1:
        parity = 1
        for comp in comps:
            parity &= _base_solve(subformula(psi, comp), tel, depth)
            if parity == 0:
                return 0
        return parity
    pivot = next(c for c in psi.clauses if len(c) == 3)  # the least 3-clause
    tel.node(depth, "occ2.base-branch", {"pivot": list(pivot)})
    branch = clause_branch(psi, pivot)
    leaf = ("occ2.verdict", "occ2.empty")
    parity = 0
    for p, rest in settle_children(branch, _reduced, tel, depth, leaf):
        parity ^= _base_solve(rest, tel, depth + 1) if p is None else p
    return parity


def bisection_solve(
    phi: Formula,
    g: ClauseMultigraph,
    a: frozenset,
    b: frozenset,
    s: list,
    tel: Telemetry,
    depth: int,
    cfg: Occ2Config,
    last_side: str | None = None,
) -> int:
    """The bisection-guided solver: maintains a disjoint partition (a, b) of
    the 3-clauses and branches on endpoints of s, the edges of g (phi's
    multigraph) that cross it, in g's order, on the side last_side (the
    parent's) does not name, A at the root; phi is at the reducer's
    fixpoint."""
    if not a and b:
        # relabel the sides; last_side names the parent's side, so it
        # follows the relabelling
        a, b = b, a
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
        a, b, s = part.a, part.b, part.cut
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
                sub, g_sub, threes, frozenset(), [], tel, depth, cfg, last_side
            )
            if parity == 0:
                return 0
        return parity

    edge = s[0]  # the least crossing edge: s keeps g's edge order
    from_b = last_side == "A"
    side_set, side_name = (b, "B") if from_b else (a, "A")
    pivot = edge.u if edge.u in side_set else edge.v
    if pivot not in side_set:
        raise ReducerInvariantError("crossing edge misses the designated side")
    tel.node(
        depth,
        "occ2.bisect-branch",
        {"side": side_name, "parent_side": last_side, "pivot": list(pivot),
         "sizes": [len(a), len(b), len(s)]},
    )
    rho_parent = rho_measure(a, b, len(s), cfg.eps_prime)
    claimed = {"case": "dS>=2 or (dS=1, dSide>=3, dOther>=1)"}

    def reduce(child):
        # a surviving child's core, multigraph, sides and cut: its bisection_solve arguments
        out = reduce_formula(child)
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
        d_side, d_other = (d_b, d_a) if from_b else (d_a, d_b)
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
            p = bisection_solve(*rest, tel, depth + 1, cfg, side_name)
        parity ^= p
    return parity


# -- 4+-clause elimination and the driver ------------------------------------------


def _branch_4plus(psi: Formula, tel: Telemetry, depth: int, cfg: Occ2Config) -> int:
    pivot = max(psi.clauses, key=len)  # max keeps the first: the least longest clause
    pvars = {var_of(l) for l in pivot}
    neighbors = {psi.clauses[cidx] for v in pvars for cidx, _ in psi.occ[v]} - {pivot}
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
        clause_branch(psi, pivot), _reduced, tel, depth,
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
    return bisection_solve(core, g, g.vertices, frozenset(), [], tel, depth, cfg)


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

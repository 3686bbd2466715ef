"""The reducer against definitions that share no code with it.

The occurrence-list R4 and the articulation-point R13 are checked against
their naive definitions: all-pairs subsumption, and one clause-component
pass per variable, by a search of its own; the components, variable
counts and hinge of the incidence search they read are checked against
the same passes, on formulas where most variables are searched as edges.
R8-R11 are checked against their earlier versions, which built a set,
list or tuple for each occurrence and clause they looked at, and the
variables they look at against every place a full scan finds them
firing.  R1-R3 and R5-R7, which rewrite the reducer's store, are checked
against their definitions on ``Formula``s, written with the transforms of
``formula.py``.

Every formula is checked twice: the single rule application must return
exactly what the definition returns, and the whole fixpoint must give the
same result, trace and potentials as a reference loop on ``Formula``s that
rescans every rule in full after each firing, with no store, no pending
clauses and no scoped start.  A reduction started from a parent's fixpoint
is also checked against one started afresh.
"""

import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from xparity import reducer
from xparity.branching import clause_branch, simple_branch, variable_branch
from xparity.formula import (
    Formula,
    assign_literal,
    falsify_clause,
    flip_variable,
    merge_variables,
    remove_variable,
    var_of,
)
from xparity.generators import gen_edge_cover_formula, gen_random_docc, gen_rule_trigger
from xparity.oracle import SimpleGraph, brute_parity
from xparity.reducer import (
    SUBFORMULA_VAR_CAP,
    apply_rule,
    reduce_formula,
    subformula,
)
from xparity.store import Store

P3 = "p3_clause_pair_one_common_2var"


# -- the naive rules ---------------------------------------------------------


def naive_r4(phi: Formula):
    sets = [frozenset(c) for c in phi.clauses]
    m = len(sets)
    for i in range(m):
        for j in range(m):
            if i != j and sets[i] < sets[j]:
                out = [c for k, c in enumerate(phi.clauses) if k != j]
                return (
                    "changed",
                    Formula(phi.variables, out),
                    f"{phi.clauses[i]} subsumes {phi.clauses[j]}",
                )
    return None


def components_without(phi: Formula, x: int) -> list:
    """The clause components of phi when clauses sharing only x do not
    count as adjacent: ascending index lists, by smallest index."""
    comps, seen = [], set()
    for start in range(phi.m):
        if start in seen:
            continue
        seen.add(start)
        comp, todo = [], [start]
        while todo:
            i = todo.pop()
            comp.append(i)
            vs = {abs(l) for l in phi.clauses[i]} - {x}
            for j in range(phi.m):
                if j not in seen and vs & {abs(l) for l in phi.clauses[j]}:
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


def naive_r13(phi: Formula):
    for x in sorted(phi.variables):
        occs = phi.occ.get(x, ())
        if len(occs) < 2:
            continue
        x_clauses = {cidx for cidx, _ in occs}
        x_comps = [c for c in components_without(phi, x) if x_clauses & set(c)]
        if len(x_comps) < 2:
            continue
        for comp in x_comps:
            sub = subformula(phi, comp)
            if sub.n > SUBFORMULA_VAR_CAP:
                continue
            p1 = brute_parity(assign_literal(sub, x))
            p0 = brute_parity(assign_literal(sub, -x))
            if p0 == 0 and p1 == 0:
                return ("verdict", f"hinged subformula {comp} even for both values of {x}")
            keep = [c for i, c in enumerate(phi.clauses) if i not in set(comp)]
            rest = Formula(phi.variables - (sub.variables - {x}), keep)
            if p0 == 1 and p1 == 0:
                rest = assign_literal(rest, -x)
                detail = f"hinged subformula {comp}: forced {x}=0"
            elif p0 == 0 and p1 == 1:
                rest = assign_literal(rest, x)
                detail = f"hinged subformula {comp}: forced {x}=1"
            else:
                detail = f"hinged subformula {comp}: both parities odd, {x} kept"
            return ("changed", rest, detail)
    return None


def _holding(phi: Formula, lit: int) -> list:
    """Ascending indices of the clauses holding lit, once per copy."""
    return [cidx for cidx, l in phi.occ.get(var_of(lit), ()) if l == lit]


def naive_r8(phi: Formula):
    for v in sorted(phi.variables):
        occs = phi.occ.get(v, ())
        if not occs:
            continue
        common = frozenset.intersection(*(phi.sets[cidx] for cidx, _ in occs)) - {v, -v}
        if common:
            lit = min(common, key=lambda l: (abs(l), l < 0))
            return ("changed", assign_literal(phi, -lit), f"{lit} dominates {v}: {lit}=0")
    return None


def naive_r9(phi: Formula):
    occ = phi.occ
    for k, clause in enumerate(phi.clauses):
        # twins share every clause, so clause k is the first of both
        firsts = [l for l in clause if occ[var_of(l)][0][0] == k]
        for a in firsts:
            for b in firsts:
                if var_of(a) >= var_of(b):
                    continue
                if _holding(phi, a) == _holding(phi, b) and _holding(phi, -a) == _holding(phi, -b):
                    # twins: drop the higher-numbered variable
                    return (
                        "changed",
                        remove_variable(phi, var_of(b)),
                        f"twins {a},{b}: drop {var_of(b)}",
                    )
    return None


def naive_r10(phi: Formula):
    clauses, sets = phi.clauses, phi.sets
    for v in sorted(phi.occ):
        occs = phi.occ[v]
        first = occs[0][1]
        if all(lit == first for _, lit in occs):
            continue
        # (index, literals besides lit) of each clause holding lit, once
        # per copy, ascending
        rests = {v: [], -v: []}
        for cidx, lit in occs:
            rests[lit].append((cidx, sets[cidx] - {lit}))
        for lit in (v, -v):
            for ai, rest in rests[lit]:
                for bi, other in rests[-lit]:
                    if bi != ai and rest <= other:
                        rewritten = tuple(l for l in clauses[bi] if l != -lit)
                        return (
                            "changed",
                            Formula._derive(phi.variables, phi, (bi,), (rewritten,)),
                            f"{clauses[ai]} resolves {-lit} out of {clauses[bi]}",
                        )
    return None


def naive_r11(phi: Formula):
    two = {}
    for clause, lits in zip(phi.clauses, phi.sets):
        if len(clause) == 2:
            key = frozenset(var_of(l) for l in clause)
            if len(key) != 2:
                continue  # duplicated variable, earlier rules handle it
            for other in two.get(key, ()):
                if lits == {-l for l in other}:
                    a, b = sorted(clause, key=lambda l: -abs(l))  # a has larger var
                    target = -b if a > 0 else b
                    merged = merge_variables(phi, var_of(a), target)
                    tautologies = [
                        k for k, s in enumerate(merged.sets) if any(-l in s for l in s)
                    ]
                    return (
                        "changed",
                        Formula._derive(merged.variables, merged, tautologies),
                        f"{clause} vs {other}: set var {var_of(a)} := literal {target}",
                    )
            two.setdefault(key, []).append(clause)
    return None


NAIVE = {
    "R4": naive_r4,
    "R8": naive_r8,
    "R9": naive_r9,
    "R10": naive_r10,
    "R11": naive_r11,
    "R13": naive_r13,
}


# -- the store rules by definition -------------------------------------------


def defined_r1(phi: Formula):
    return ("verdict", "empty clause") if () in phi.clauses else None


def without(phi: Formula, k: int, *added) -> Formula:
    return Formula(phi.variables, [*phi.clauses[:k], *phi.clauses[k + 1 :], *added])


def defined_r2(phi: Formula):
    for k, clause in enumerate(phi.clauses):
        if len(set(clause)) < len(clause):
            return ("changed", without(phi, k, dict.fromkeys(clause)), f"dedup {clause}")
    return None


def defined_r3(phi: Formula):
    for k, clause in enumerate(phi.clauses):
        if any(-l in clause for l in clause):
            return ("changed", without(phi, k), f"tautology {clause}")
    return None


def defined_r5(phi: Formula):
    for clause in phi.clauses:
        if len(clause) == 1:
            return ("changed", assign_literal(phi, clause[0]), f"unit {clause[0]}")
    return None


def defined_r6(phi: Formula):
    free = [v for v in sorted(phi.variables) if phi.degree(v) == 0]
    return ("verdict", f"0-variable {free[0]}") if free else None


def defined_r7(phi: Formula):
    for v in sorted(phi.variables):
        if phi.degree(v) == 1:
            cidx, lit = phi.occ[v][0]
            clause = phi.clauses[cidx]
            out = falsify_clause(phi, [-lit] + [l for l in clause if l != lit])
            return ("changed", out, f"1-variable {v}: {lit}=1, rest of {clause} false")
    return None


DEFINED = {
    "R1": defined_r1,
    "R2": defined_r2,
    "R3": defined_r3,
    "R5": defined_r5,
    "R6": defined_r6,
    "R7": defined_r7,
}

# every rule in priority order; R12 is the reducer's own, on Formulas
REFERENCE = [
    (rid, NAIVE.get(rid) or DEFINED.get(rid) or functools.partial(apply_rule, rule_id=rid))
    for rid in (f"R{i}" for i in range(1, 14))
]


def reference_reduce(phi: Formula, rules=REFERENCE):
    """The fixpoint by definition: after every firing, every rule scans
    the whole formula again, from the first of ``rules``."""
    trace, potential = [], [(phi.n, phi.m, phi.length)]
    while True:
        for rid, rule in rules:
            res = rule(phi)
            if res is None:
                continue
            trace.append((rid, res[-1]))
            if res[0] == "verdict":
                return None, 0, trace, potential
            phi = res[1]
            potential.append((phi.n, phi.m, phi.length))
            break
        else:
            return phi, None, trace, potential


def outcome(out):
    return out.formula, out.verdict, out.trace, out.potential_log


def refused(rule, *args):
    """The rule's result, or the ValueError it raised (R7 on a tautology)."""
    try:
        return rule(*args)
    except ValueError as exc:
        return ("refused", str(exc))


def check_against_naive(phi: Formula, fired: dict | None = None):
    for rid, naive in NAIVE.items():
        got = apply_rule(phi, rid)
        assert got == naive(phi), (rid, phi)
        if fired is not None and got is not None:
            fired[rid] += 1
    for rid, defined in DEFINED.items():
        assert refused(apply_rule, phi, rid) == refused(defined, phi), (rid, phi)
    fast = check_scoped_fixpoint(phi)
    if fired is not None:
        for rid, _ in fast.trace:
            if rid in fired:
                fired[rid] += 1


def is_fixpoint(phi: Formula) -> bool:
    """No rule fires on phi, with nothing known about it."""
    st = Store(phi)
    return all(fn(st) is None for _, fn in reducer._RULES)


def check_scoped_fixpoint(phi: Formula):
    out = reduce_formula(phi)
    assert outcome(out) == reference_reduce(phi), phi
    if not out.settled:
        assert is_fixpoint(out.formula), phi
    return out


# -- formula sources ---------------------------------------------------------


@st.composite
def raw_formulas(draw, max_n=7, max_m=9, max_len=4):
    """Unrestricted clause lists: empty clauses, repeated literals and
    tautologies included, as apply_rule also sees them outside the
    fixpoint."""
    n = draw(st.integers(1, max_n))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, max_size=max_len), max_size=max_m))
    return Formula(range(1, n + 1), clauses)


@st.composite
def cascades(draw, pool=None, max_n=14):
    """A chain of 2-clauses (-l1 l2), (-l2 l3), ... over signed variables
    (drawn from ``pool``, or from 1..n), started by the unit (l1) for a
    long R5 cascade, or open at both ends for R7 to eat from its degree-1
    ends.  Beside it: a few raw short clauses, among them more units, and
    copies of raw clauses, each widened by a chain literal.  A firing that
    falsifies two such literals at once, or strips a repeated literal,
    turns two clauses into one; equal-length clauses compete for each pick
    by key."""
    names = pool if pool is not None else range(1, draw(st.integers(4, max_n)) + 1)
    chosen = draw(st.permutations(names))[:max_n]
    lits = [v * draw(st.sampled_from((1, -1))) for v in chosen]
    k = draw(st.integers(2, len(lits)))
    clauses = [[-lits[i], lits[i + 1]] for i in range(k - 1)]
    if draw(st.booleans()):
        clauses.append([lits[0]])
    lit = st.sampled_from(lits).flatmap(lambda l: st.sampled_from((l, -l)))
    for base in draw(st.lists(st.lists(lit, min_size=1, max_size=3), max_size=6)):
        widened = draw(st.lists(st.sampled_from(lits[:k]).map(lambda l: -l), max_size=3))
        clauses += [base + [x] for x in widened] if widened else [base]
    return Formula(chosen, clauses)


def block_tree(rng: random.Random, blocks: int) -> Formula:
    """Random blocks of clauses glued at single variables, so the incidence
    graph has many cut variables with sides on both sides of the cap."""
    clauses = []
    nvars = 0
    for _ in range(blocks):
        size = rng.randint(1, 12)
        fresh = list(range(nvars + 1, nvars + size + 1))
        nvars += size
        pool = fresh + ([rng.randint(1, nvars - size)] if nvars > size else [])
        for _ in range(rng.randint(1, len(pool) + 2)):
            vs = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            clauses.append([rng.choice([v, -v]) for v in vs])
        for v in fresh:  # every fresh variable occurs at least once
            clauses.append([rng.choice([v, -v]), rng.choice(pool)])
    return Formula(range(1, nvars + 1), clauses)


def signed_cycles(rng: random.Random, lengths) -> Formula:
    clauses = []
    first = 1
    for length in lengths:
        vs = list(range(first, first + length))
        for k, v in enumerate(vs):
            w = vs[(k + 1) % length]
            clauses.append([rng.choice([v, -v]), rng.choice([w, -w])])
        first += length
    return Formula(range(1, first), clauses)


def cubic_graph(rng: random.Random, n: int) -> SimpleGraph:
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == len(stubs) // 2 and all(u != v for u, v in edges):
            return SimpleGraph(range(1, n + 1), edges)


# -- tests -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(raw_formulas())
def test_fast_rules_match_naive_on_raw_formulas(phi):
    check_against_naive(phi)


def test_r9_finds_twins_that_share_a_tautology():
    # the tautology holds both literals of each twin, so the twins' clause
    # lists agree while their occurrence entries list the signs in another
    # order; random raw formulas reach this too rarely to rely on
    cases = [
        (Formula([1, 2], [[1, -1, 2, -2], [1, -2]]), "twins 1,-2: drop 2"),
        (Formula([1, 2], [[1, -1, 2, -2], [-1, 2]]), "twins 1,-2: drop 2"),
        (Formula([1, 2], [[1, -1, 2, -2], [1, 2]]), "twins 1,2: drop 2"),
        (Formula(range(1, 5), [[2, -2, 4, -4], [2, -4]]), "twins 2,-4: drop 4"),
    ]
    for phi, detail in cases:
        got = apply_rule(phi, "R9")
        assert got == naive_r9(phi) and got[2] == detail, phi
        check_against_naive(phi)


def union_find_components(phi: Formula) -> tuple:
    """Clauses joined whenever they share a variable, by union-find."""
    parent = list(range(phi.m))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    holder = {}
    for i, clause in enumerate(phi.clauses):
        for lit in clause:
            parent[find(i)] = find(holder.setdefault(abs(lit), i))
    comps = {}
    for i in range(phi.m):
        comps.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(c) for c in comps.values()))


@settings(max_examples=60, deadline=None)
@given(raw_formulas(max_n=12, max_m=14))
def test_clause_components_match_union_find_on_raw_formulas(phi):
    assert reducer.clause_components(phi) == union_find_components(phi), phi


def test_fast_rules_match_naive_on_rule_triggers():
    fired = dict.fromkeys(NAIVE, 0)
    for rule in ("R4", "R8", "R9", "R10", "R11", "R12", "R13"):
        for seed in range(25):
            check_against_naive(gen_rule_trigger(rule, seed), fired)
    assert min(fired.values()) >= 25, fired


def test_fast_rules_match_naive_on_random_docc():
    fired = dict.fromkeys(NAIVE, 0)
    rng = random.Random(5)
    for seed in range(40):
        phi = gen_random_docc(rng.randint(8, 24), rng.choice([2, 3]), 1, 4, seed=seed)
        check_against_naive(phi, fired)
    assert fired["R4"] > 0 and fired["R13"] > 0, fired


def test_fast_rules_match_naive_on_block_trees():
    fired = dict.fromkeys(NAIVE, 0)
    for seed in range(60):
        check_against_naive(block_tree(random.Random(seed), 2 + seed % 6), fired)
    assert fired["R13"] >= 60, fired


def test_fast_rules_match_naive_on_benchmark_shapes():
    rng = random.Random(11)
    for _ in range(4):
        lengths = [rng.randint(3, 24) for _ in range(rng.randint(1, 4))]
        check_against_naive(signed_cycles(rng, lengths))
    for n in (8, 10, 12, 16):
        check_against_naive(gen_edge_cover_formula(cubic_graph(rng, n)))


def two_cycles_at(small: int, big: int, small_first: bool) -> Formula:
    """Two clause cycles through variable 1 with ``small`` and ``big`` other
    variables: variable 1 is the only cut vertex.  Clause 0, where the DFS
    starts, lies on whichever cycle uses the lower variable ids."""

    def cycle(first, k):
        vs = [1] + list(range(first, first + k))
        return [[vs[i], vs[(i + 1) % len(vs)]] for i in range(len(vs))]

    sizes = (small, big) if small_first else (big, small)
    clauses = cycle(2, sizes[0]) + cycle(2 + sizes[0], sizes[1])
    return Formula(range(1, 2 + small + big), clauses)


def test_r13_side_cap_boundary():
    # a side with x and 9 more variables is at the cap, with 10 it is not;
    # the small side is the DFS root's side or a child subtree of x
    for small_first in (True, False):
        for small, fires in ((SUBFORMULA_VAR_CAP - 1, True), (SUBFORMULA_VAR_CAP, False)):
            phi = two_cycles_at(small, 12, small_first)
            got = apply_rule(phi, "R13")
            assert got == naive_r13(phi)
            assert (got is not None) == fires, (small, small_first)
            check_against_naive(phi)


def cycle(vs) -> list:
    """2-clauses joining each literal of vs to the next, round to the first."""
    return [[vs[i], vs[(i + 1) % len(vs)]] for i in range(len(vs))]


def test_r13_settles_the_first_small_side():
    # variable 1 is the only cut variable in each case; R13 settles the
    # small side holding the least clause
    cases = [
        # the rest of the component, which holds clause 0, and the child
        # side are both small: the rest comes first
        (
            Formula(range(1, 10), cycle([1, 2, 3, 4]) + cycle([1, 5, 6, 7, 8, 9])),
            "hinged subformula [0, 1, 4, 5]: forced 1=1",
        ),
        # the rest has 12 variables; of the two small sides, the one of 7
        # variables holds the lesser clause (1 -13)
        (
            Formula(
                range(1, 22),
                cycle(range(1, 13))
                + cycle([1, -13, 14, 15, 16, 17, -18])
                + cycle([-1, 19, -20, 21]),
            ),
            "hinged subformula [2, 3, 16, 17, 18, 19, 20]: forced 1=1",
        ),
        # a side of one clause
        (
            Formula(range(1, 15), cycle(range(1, 13)) + [[-1, -13, 14]]),
            "hinged subformula [2]: forced 1=1",
        ),
    ]
    for phi, detail in cases:
        got = apply_rule(phi, "R13")
        assert got == naive_r13(phi) and got[2] == detail, phi
        check_against_naive(phi)


# -- the incidence search, degree-2 variables as edges --------------------------


def _variable_count(phi: Formula, idxs) -> int:
    return len({abs(l) for i in idxs for l in phi.clauses[i]})


def defined_incidence(phi: Formula) -> tuple:
    """(components, variable counts, hinge) by definition: union-find
    components, and the hinge as the least variable x whose removal leaves
    two or more clause components holding x, one of them with at most
    SUBFORMULA_VAR_CAP variables, x included; its side is the first such
    component by smallest clause."""
    comps = union_find_components(phi)
    counts = tuple(_variable_count(phi, comp) for comp in comps)
    for x in sorted(phi.variables):
        x_clauses = {cidx for cidx, _ in phi.occ.get(x, ())}
        sides = [c for c in components_without(phi, x) if x_clauses & set(c)]
        small = [c for c in sides if _variable_count(phi, c) <= SUBFORMULA_VAR_CAP]
        if len(sides) >= 2 and small:
            return comps, counts, (x, tuple(small[0]))
    return comps, counts, None


def check_incidence(phi: Formula):
    assert reducer._incidence(phi) == defined_incidence(phi), phi
    assert apply_rule(phi, "R13") == naive_r13(phi), phi


@st.composite
def low_degree_formulas(draw, max_degree=2, max_n=24):
    """Each variable in up to ``max_degree`` slots, the slots shuffled into
    clauses of one to four: with degree 2, most variables are edges of the
    incidence search, and chains of short clauses make bridges with sides
    of every size."""
    n = draw(st.integers(1, max_n))
    degrees = draw(st.lists(st.integers(1, max_degree), min_size=n, max_size=n))
    slots = draw(st.permutations([v for v, k in enumerate(degrees, 1) for _ in range(k)]))
    clauses = []
    while slots:
        k = draw(st.integers(1, 4))
        clauses.append([v * draw(st.sampled_from((1, -1))) for v in slots[:k]])
        slots = slots[k:]
    return Formula(range(1, n + 1), clauses)


@settings(max_examples=200, deadline=None)
@given(low_degree_formulas())
def test_incidence_matches_the_definition_on_two_occurrence_formulas(phi):
    check_incidence(phi)


@settings(max_examples=100, deadline=None)
@given(low_degree_formulas(max_degree=3))
def test_incidence_matches_the_definition_on_mixed_degrees(phi):
    check_incidence(phi)


def bridged_cycles(small: int, big: int, small_first: bool) -> Formula:
    """Two cycles of 2-clauses joined by variable 1, which is in one clause
    of each and so is searched as an edge, a bridge: the sides hold
    ``small`` and ``big`` variables, 1 included.  Clause 0 holds literal 1;
    it lies on the small side when small_first."""
    vs = list(range(2, small + big))
    sides = [cycle(vs[: small - 1]), cycle(vs[small - 1 :])]
    sides[0][0].append(1 if small_first else -1)
    sides[1][0].append(-1 if small_first else 1)
    return Formula(range(1, small + big), sides[0] + sides[1])


def test_incidence_degree_two_bridges_at_the_cap():
    # sides of 9 and 10 variables, the bridge included, are within the cap;
    # 11 is not, and no other variable is a cut
    for small_first in (True, False):
        for small in (9, 10, 11):
            phi = bridged_cycles(small, 14, small_first)
            assert phi.degree(1) == 2
            check_incidence(phi)
            hinge = reducer._incidence(phi)[2]
            if small <= SUBFORMULA_VAR_CAP:
                assert hinge[0] == 1 and _variable_count(phi, hinge[1]) == small
            else:
                assert hinge is None
            check_against_naive(phi)


def test_incidence_parallel_degree_two_variables_are_no_cut():
    # 1 and 2 are both held by the same two clauses, one on each of two
    # cycles: removing either leaves the other, so neither is a cut
    small, big = cycle([3, 4, 5, 6]), cycle(list(range(7, 17)))
    small[0] += [1, 2]
    big[0] += [-1, -2]
    phi = Formula(range(1, 17), small + big)
    assert [{i for i, _ in phi.occ[v]} for v in (1, 2)] == [{0, 1}] * 2
    check_incidence(phi)
    assert reducer._incidence(phi)[2] is None
    check_against_naive(phi)
    # three variables shared by the same two clauses and nothing else
    check_incidence(Formula([1, 2, 3], [[1, 2, 3], [-1, -2, -3]]))


def test_incidence_variable_held_twice_by_one_clause_stays_a_vertex():
    # 1 occurs twice, both times in clause 0, so it is no edge; clause 0
    # hangs off a cycle of 12 more variables by the bridge 2, and the side
    # it makes holds 1 and 2
    for twice in ([1, -1], [1, 1]):
        big = cycle(list(range(3, 15)))
        big[0].append(-2)
        phi = Formula(range(1, 15), [twice + [2]] + big)
        assert phi.degree(1) == 2 == phi.degree(2)
        check_incidence(phi)
        assert reducer._incidence(phi)[1:] == ((14,), (2, (0,)))
        check_against_naive(phi)


def test_incidence_mixes_degree_two_and_degree_three_cuts():
    # the degree-4 cut variable ``vertex`` is on two cycles, and the
    # degree-2 bridge ``bridge`` hangs three clauses off the larger one:
    # both separate a small side, and the lesser variable is the hinge,
    # whichever its degree
    for bridge, vertex in ((2, 1), (1, 2)):
        big = cycle([-vertex] + list(range(6, 18)))
        big[2].append(bridge)
        clauses = cycle([vertex, 3, 4, 5]) + big
        clauses += [[-bridge, 21, 22], [-21, -22, 23], [-23, 21]]
        phi = Formula(list(range(1, 18)) + [21, 22, 23], clauses)
        assert (phi.degree(bridge), phi.degree(vertex)) == (2, 4)
        check_incidence(phi)
        assert reducer._incidence(phi)[2][0] == 1
        check_against_naive(phi)
    for seed in range(40):
        check_incidence(block_tree(random.Random(seed), 2 + seed % 6))


# -- where R8-R11 can fire ---------------------------------------------------


def firing_sites(phi: Formula) -> set:
    """Every variable where a full scan finds R8, R9, R10 or R11 applicable:
    the dominated variable, both twins, the variable of the stripped
    literal and both variables of a (p q), (-p -q) pair."""
    sets, occ, found = phi.sets, phi.occ, set()
    for v, occs in occ.items():
        if frozenset.intersection(*(sets[c] for c, _ in occs)) - {v, -v}:
            found.add(v)
        for ai, la in occs:
            for bi, lb in occs:
                if lb == -la and bi != ai and sets[ai] - {la} <= sets[bi] - {lb}:
                    found.add(v)
    holding = {l: _holding(phi, l) for v in occ for l in (v, -v)}
    for a, b in itertools.combinations(sorted(occ), 2):
        for lb in (b, -b):
            if holding[a] == holding[lb] and holding[-a] == holding[-lb]:
                found |= {a, b}
    twos = {s for c, s in zip(phi.clauses, sets) if len(c) == 2 and len({*map(var_of, c)}) == 2}
    for s in twos:
        if frozenset(-l for l in s) in twos:
            found |= {*map(var_of, s)}
    return found


def check_sites(phi: Formula):
    listed = reducer._sites(phi)
    assert list(listed) == sorted(listed), phi
    assert firing_sites(phi) <= listed.keys(), phi
    for rid in ("R8", "R9", "R10", "R11"):
        assert apply_rule(phi, rid) == NAIVE[rid](phi), (rid, phi)


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_formulas(), low_degree_formulas(), low_degree_formulas(max_degree=3)))
def test_sites_hold_every_firing_site(phi):
    check_sites(phi)


def test_sites_on_targeted_cases():
    cases = [
        # 1 dominates 2 while one clause holds 1 twice
        (Formula([1, 2], [[1, 1, -2], [1, 2]]), {1, 2}, "R8"),
        # 2, of degree 2, shares both its clauses with 1, of degree 3
        (Formula(range(1, 6), [[1, 2, 3], [1, -2, 4], [-1, 5], [3, -4, -5]]), {1, 2}, "R8"),
        # the parallel degree-2 variables 1 and 2 are twins; 3 and 4 are
        # in no other clause together
        (Formula(range(1, 5), [[1, 2, 3], [-1, -2, 4], [-3, -4]]), {1, 2}, "R9"),
        (Formula(range(1, 5), [[1, 2, 3], [1, 2, 4], [-3, -4]]), {1, 2}, "R9"),
        (Formula(range(1, 5), [[1, 2], [-1, -2], [1, 3, 4], [-3, -4]]), {1, 2, 3, 4}, "R11"),
        # 1 is in a unit
        (Formula(range(1, 4), [[1], [-1, 2], [-2, 3], [2, -3]]), {1, 2, 3}, "R10"),
        # one clause holds 1 twice, and 2 is in a unit
        (Formula(range(1, 3), [[1, -1, 2], [-2]]), {1, 2}, "R8"),
        # 1 has degree 1
        (Formula(range(1, 4), [[1, 2, 3], [-2, -3]]), {1, 2, 3}, "R8"),
    ]
    for phi, listed, rid in cases:
        assert reducer._sites(phi).keys() == listed, phi
        assert apply_rule(phi, rid) is not None, (rid, phi)
        check_sites(phi)
        check_against_naive(phi)


def plain_two_occurrence(phi: Formula) -> bool:
    """Every variable in two clauses, every clause of two or more distinct
    variables: no unit, no variable held twice."""
    return all(len(occs) == 2 for occs in phi.occ.values()) and all(
        len({*map(var_of, c)}) == len(c) > 1 for c in phi.clauses
    )


def test_reduced_two_occurrence_formulas_list_nothing():
    # on a plain 2-occurrence formula _sites lists none exactly when P3
    # holds, two clauses sharing at most one 2-variable, and a reduced one
    # meets P3: R8-R11 have nothing to scan there.  The unreduced inputs,
    # some of which fail P3, check the other direction
    rng = random.Random(29)
    phis = [gen_edge_cover_formula(cubic_graph(rng, nv)) for nv in (14, 20, 32, 50, 80)]
    for _ in range(20):
        phis.append(signed_cycles(rng, [rng.randint(3, 40) for _ in range(rng.randint(1, 6))]))
    phis += [gen_random_docc(rng.randint(8, 40), 2, 2, 4, seed=s) for s in range(60)]
    seen = {True: 0, False: 0}
    for phi in phis:
        out = reduce_formula(phi)
        checked = [phi] if plain_two_occurrence(phi) else []
        if out.parity is None:
            assert plain_two_occurrence(out.formula), out.formula
            assert reducer.check_reduced_properties(out.formula).results[P3], out.formula
            checked.append(out.formula)
        for psi in checked:
            p3 = reducer.check_reduced_properties(psi).results[P3]
            assert (not reducer._sites(psi)) == p3, psi
            seen[p3] += 1
    assert seen[True] >= 50 and seen[False] >= 20, seen


# -- pending clauses ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(raw_formulas())
def test_scoped_fixpoint_on_raw_formulas(phi):
    check_scoped_fixpoint(phi)


def family_formulas() -> list:
    phis = [
        gen_rule_trigger(rule, seed)
        for rule in ("R4", "R10", "R12", "R13")
        for seed in range(25)
    ]
    rng = random.Random(5)
    phis += [
        gen_random_docc(rng.randint(8, 24), rng.choice([2, 3]), 1, 4, seed=seed)
        for seed in range(40)
    ]
    phis += [block_tree(random.Random(seed), 2 + seed % 6) for seed in range(60)]
    rng = random.Random(11)
    phis += [
        signed_cycles(rng, [rng.randint(3, 24) for _ in range(rng.randint(1, 4))])
        for _ in range(4)
    ]
    phis += [gen_edge_cover_formula(cubic_graph(rng, n)) for n in (8, 10, 12, 16)]
    return phis


def test_scoped_fixpoint_on_generator_families():
    for phi in family_formulas():
        check_scoped_fixpoint(phi)


def test_scoped_rules_on_targeted_cases():
    # unit 1 turns (-1 2) into the fresh subset (2) of the old (2 -4)
    out = check_scoped_fixpoint(Formula(range(1, 7), [[1], [-1, 2], [2, -4]]))
    assert out.trace[:2] == [("R5", "unit 1"), ("R4", "(2,) subsumes (2, -4)")]

    # the merge 5 := 2 turns (3 -4 -5) into the fresh superset (-2 3 -4) of
    # (-2 3), which unit -1 left behind one firing earlier
    phi = Formula(
        range(1, 6),
        [[1, 2, -5], [1, -2, 3], [-1], [-1, -2, 5], [2, -3, -4], [-2, 5], [3, -4, -5]],
    )
    out = check_scoped_fixpoint(phi)
    assert [rid for rid, _ in out.trace[:4]] == ["R4", "R5", "R11", "R4"]
    assert out.trace[3][1] == "(-2, 3) subsumes (-2, 3, -4)"

    # the merge 3 := -2 makes (-1 2 -4), a fresh superset of two old
    # clauses; the least one subsumes it
    phi = Formula(range(1, 5), [[-1, 2], [-1, -3, -4], [2, 3], [2, -4], [-2, -3]])
    out = check_scoped_fixpoint(phi)
    assert out.trace[:2] == [
        ("R11", "(-2, -3) vs (2, 3): set var 3 := literal -2"),
        ("R4", "(-1, 2) subsumes (-1, 2, -4)"),
    ]

    # R7 leaves two fresh clauses, (7) and its superset (-3 7); of the two
    # pairs the least drops the old (3 -6 7) first
    phi = Formula(range(1, 8), [[1, -3, 7], [1, -4, 5], [2], [3, -6, 7], [-4, 7]])
    out = check_scoped_fixpoint(phi)
    assert out.trace[1:4] == [
        ("R7", "1-variable 5: 5=1, rest of (1, -4, 5) false"),
        ("R4", "(7,) subsumes (3, -6, 7)"),
        ("R4", "(7,) subsumes (-3, 7)"),
    ]

    # a unit chain empties a clause: R1 finds it among the fresh clauses
    out = check_scoped_fixpoint(Formula([1, 2], [[1], [-1, 2], [-1, -2]]))
    assert out.trace == [("R5", "unit 1"), ("R5", "unit 2"), ("R1", "empty clause")]

    # a merge that duplicates a literal; inside the fixpoint R10 strips such
    # a clause before R11 can merge, so R2 is checked on the merge directly
    phi = Formula(range(1, 8), [[2, 7], [-2, -7], [1, -2, 7], [1, 3]])
    child = merge_variables(phi, 7, -2)
    parent = set(phi.clauses)
    fresh = {k for k, c in enumerate(child.clauses) if c not in parent}
    store = Store(child, phi.clauses)
    assert store.pending["R2"] == fresh
    kind, _, detail = reducer._r2(store)
    assert (kind, store.formula(), detail) == apply_rule(child, "R2")
    assert detail == "dedup (1, -2, -2)"
    check_scoped_fixpoint(child)


@settings(max_examples=300, deadline=None)
@given(cascades())
def test_cascades_match_the_reference(phi):
    check_against_naive(phi)


@settings(max_examples=200, deadline=None)
@given(raw_formulas(max_n=4, max_m=14, max_len=2))
def test_ties_between_short_clauses_match_the_reference(phi):
    # few variables and many clauses of one or two literals: several units
    # and subsumption pairs of equal length at once
    check_against_naive(phi)


def test_a_firing_that_makes_two_clauses_one():
    # R7 on 5 falsifies 1 and 2 at once: (3 4 1) and (3 4 2) both become
    # (3 4), kept once
    phi = Formula(range(1, 6), [[1, 3, 4], [2, 3, 4], [1, 2, 5]])
    out = check_scoped_fixpoint(phi)
    assert out.trace[0] == ("R7", "1-variable 5: 5=1, rest of (1, 2, 5) false")
    assert out.potential_log[:2] == [(5, 3, 9), (2, 1, 2)]
    # R2 strips (1 1 2) to a clause already present
    out = check_scoped_fixpoint(Formula(range(1, 4), [[1, 1, 2], [1, 2], [-1, 3], [-2, -3]]))
    assert out.trace[0] == ("R2", "dedup (1, 1, 2)")
    assert out.potential_log[:2] == [(3, 4, 9), (3, 3, 6)]


def pending_r4(monkeypatch) -> list:
    """Record the ids R4 has pending at each check, None for a full scan."""
    seen = []

    def r4(store):
        ids = store.pending["R4"]
        seen.append(None if ids is None else set(ids))
        return reducer._r4(store)

    rules = tuple((rid, r4 if fn is reducer._r4 else fn) for rid, fn in reducer._RULES)
    monkeypatch.setattr(reducer, "_RULES", rules)
    return seen


def test_scoped_r4_firing_keeps_its_scope(monkeypatch):
    # unit 1 leaves the fresh (2), which subsumes (2 3) and then (2 -4):
    # both R4 firings are found on the pending clauses, so only the first
    # pass, which knows nothing yet, runs R4 on the whole formula
    scopes = pending_r4(monkeypatch)
    phi = Formula(range(1, 6), [[1], [-1, 2], [2, 3], [2, -4], [3, 5], [-3, -5], [4, 5]])
    out = reduce_formula(phi)
    assert out.trace[:3] == [
        ("R5", "unit 1"),
        ("R4", "(2,) subsumes (2, 3)"),
        ("R4", "(2,) subsumes (2, -4)"),
    ]
    assert scopes[0] is None and None not in scopes[1:], scopes


def test_r4_finds_an_empty_clause_added_after_its_full_scan(monkeypatch):
    # unit 1 falsifies (-1) to (), which shares no variable: no pending
    # scan reaches it, so adding it makes R4 scan in full again
    phi = Formula([1, 2, 3], [[1], [-1], [2, 3]])
    store = Store(phi)
    assert reducer._r4(store) is None and store.pending["R4"] == set()
    assert reducer._r5(store)[2] == "unit 1"
    assert reducer._r4(store)[2] == "() subsumes (2, 3)"
    # in an order that checks R4 before R1, the engine sees it as well
    order = ["R4", *(f"R{i}" for i in range(1, 14) if i != 4)]
    rules, reference = dict(reducer._RULES), dict(REFERENCE)
    monkeypatch.setattr(reducer, "_RULES", tuple((rid, rules[rid]) for rid in order))
    want = reference_reduce(phi, [(rid, reference[rid]) for rid in order])
    assert want[2] == [("R5", "unit 1"), ("R4", "() subsumes (2, 3)"), ("R1", "empty clause")]
    assert outcome(reduce_formula(phi)) == want


def test_r4_finds_an_empty_clause_a_store_loads(monkeypatch):
    # falsifying a fixpoint's clause leaves () among the child's fresh
    # clauses, where no occurrence list reaches it: R4 ahead of R1 must
    # still see it first, as on a constructed copy
    order = ["R4", *(f"R{i}" for i in range(1, 14) if i != 4)]
    rules = dict(reducer._RULES)
    children = []
    for seed in range(60):
        out = reduce_formula(gen_random_docc(16, 3, 2, 4, seed=seed))
        if not out.settled and out.formula.m:
            child = falsify_clause(out.formula, out.formula.clauses[0])
            if child.m > 1:
                children.append(child)
    assert len(children) > 40
    monkeypatch.setattr(reducer, "_RULES", tuple((rid, rules[rid]) for rid in order))
    for child in children:
        rule, detail = reduce_formula(child).trace[0]
        assert rule == "R4" and detail.startswith("() subsumes"), child
        check_scoped_start(child)


# -- reduction from a parent's fixpoint --------------------------------------


def branch_children(phi: Formula) -> list:
    """Every child of simple, clause and variable branching on phi."""
    kids = []
    for v in sorted(phi.occ):
        kids += simple_branch(phi, v).children + variable_branch(phi, v).children
    for clause in phi.clauses:
        kids += clause_branch(phi, clause).children
    return kids


def check_scoped_start(child: Formula):
    """child descends from a fixpoint, so its reduction starts scoped; a
    constructed copy has no fixpoint behind it and starts in full.  Both
    give the same outcome."""
    fresh = Formula(child.variables, child.clauses)
    assert child._base is not None and fresh._base is None
    assert outcome(reduce_formula(child)) == outcome(reduce_formula(fresh)), child


def check_parent_start(psi: Formula) -> int:
    """psi is at the fixpoint.  Each branch child of psi, each flip of psi
    and each branch child of a flip, as the solvers reduce them, gives
    the outcome of a reduction started in full."""
    children = branch_children(psi)
    flips = [flip_variable(psi, v) for v in sorted(psi.occ)]
    children += flips
    if flips:
        children += branch_children(flips[0])
    for child in children:
        check_scoped_start(child)
    return len(children)


@functools.cache
def family_fixpoints() -> list:
    outs = [reduce_formula(phi) for phi in family_formulas()]
    return [out.formula for out in outs if not out.settled and out.formula.m]


def test_parent_start_on_generator_families():
    checked = sum(check_parent_start(psi) for psi in family_fixpoints())
    assert checked >= 1000, checked


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parent_start_on_raw_grafts(data):
    # raw formulas never survive reduction whole, so they are grafted onto
    # a formula at the fixpoint instead: the child keeps some of the
    # parent's clauses and gains raw ones, empty clauses, repeated literals
    # and tautologies included
    psi = data.draw(st.sampled_from(family_fixpoints()))
    keep = data.draw(st.lists(st.booleans(), min_size=psi.m, max_size=psi.m))
    raw = data.draw(raw_formulas(max_n=max(psi.variables) + 2))
    drop = [k for k, kept in enumerate(keep) if not kept]
    check_scoped_start(Formula._derive(psi.variables | raw.variables, psi, drop, raw.clauses))


def test_children_of_a_fixpoint_start_scoped(monkeypatch):
    # the first R4 check of a reduction runs in full (nothing pending is
    # known) unless the formula descends from a fixpoint the reducer returned
    scopes = pending_r4(monkeypatch)

    def first_r4_scope(child):
        del scopes[:]
        out = reduce_formula(child)
        assert not out.settled and scopes, child
        return scopes[0]

    phi = Formula(range(1, 7), [[1, 2, 3], [-1, 4, 5], [-2, -4, 6], [3, -5, -6],
                                [-3, 4, 6], [1, -5, 6], [2, 5, -6], [-1, -2, -3]])
    assert first_r4_scope(simple_branch(phi, 1).children[0]) is None
    psi = reduce_formula(phi).formula
    assert psi.clauses == phi.clauses and psi._base == psi.clauses
    assert first_r4_scope(simple_branch(psi, 1).children[0]) is not None
    assert first_r4_scope(simple_branch(flip_variable(psi, 1), 1).children[0]) is not None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parent_start_on_cascade_grafts(data):
    # a cascade over a fixpoint's own variables, grafted onto it, runs its
    # chain through clauses the fixpoint knows inapplicable
    psi = data.draw(st.sampled_from(family_fixpoints()))
    keep = data.draw(st.lists(st.booleans(), min_size=psi.m, max_size=psi.m))
    cascade = data.draw(cascades(pool=sorted(psi.variables)))
    drop = [k for k, kept in enumerate(keep) if not kept]
    child = Formula._derive(psi.variables, psi, drop, cascade.clauses)
    check_scoped_start(child)
    check_scoped_fixpoint(child)

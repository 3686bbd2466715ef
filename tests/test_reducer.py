import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_reducer_oracle import cycle, is_fixpoint, raw_formulas, two_cycles_at

from xparity.formula import Formula
from xparity.generators import gen_rule_trigger
from xparity.oracle import brute_parity
from xparity.reducer import (
    SUBFORMULA_VAR_CAP,
    apply_rule,
    check_reduced_properties,
    reduce_formula,
)


def F(nvars, *clauses):
    return Formula(range(1, nvars + 1), clauses)


def random_formula(rng, max_n=8, max_m=8, max_len=3, allow_dups=False, occurring_only=False):
    n = rng.randint(1, max_n)
    clauses = []
    for _ in range(rng.randint(0, max_m)):
        k = rng.randint(1, min(max_len, n))
        if allow_dups:
            vs = [rng.randint(1, n) for _ in range(k)]
        else:
            vs = rng.sample(range(1, n + 1), k)
        clauses.append([rng.choice([v, -v]) for v in vs])
    if occurring_only:
        used = {abs(l) for c in clauses for l in c}
        return Formula(used, clauses)
    return Formula(range(1, n + 1), clauses)


# -- single rules ------------------------------------------------------------


def test_r1_empty_clause_verdict():
    assert apply_rule(Formula([1], [[], [1]]), "R1")[0] == "verdict"
    assert apply_rule(F(1, [1]), "R1") is None


def test_r2_duplicate_literals():
    phi = Formula([1, 2], [[1, 1, 2]])
    kind, out, _ = apply_rule(phi, "R2")
    assert kind == "changed" and out.clauses == ((1, 2),)


def test_r3_tautology():
    phi = Formula([1, 2], [[1, -1, 2], [2]])
    kind, out, _ = apply_rule(phi, "R3")
    assert kind == "changed" and out.clauses == ((2,),)


def test_r4_subsumption():
    phi = Formula([1, 2, 3], [[1, 2], [1, 2, 3]])
    kind, out, _ = apply_rule(phi, "R4")
    assert kind == "changed" and out.clauses == ((1, 2),)


def test_full_r4_scan_skips_the_longest_clauses(monkeypatch):
    from xparity import reducer

    calls = []
    first_superset = reducer._first_superset
    monkeypatch.setattr(
        reducer, "_first_superset", lambda phi, i: calls.append(i) or first_superset(phi, i)
    )
    # every clause has one length, so none can have a proper superset
    assert apply_rule(F(4, [1, 2, 3], [-1, 2, 4], [1, -3, -4], [2, 3, -4]), "R4") is None
    assert calls == []
    # the only subsumption: a subset one literal shorter than the longest
    phi = F(4, [-1, 3, 4], [1, 2], [2, -3, -4], [1, 2, 3])
    kind, out, detail = apply_rule(phi, "R4")
    assert kind == "changed" and detail == "(1, 2) subsumes (1, 2, 3)"
    assert out.clauses == ((1, 2), (-1, 3, 4), (2, -3, -4))
    assert calls == [0]


def test_incidence_counts_each_components_variables():
    from xparity import reducer

    rng = random.Random(5)
    for _ in range(300):
        phi = random_formula(rng, max_n=9, max_m=9)
        comps, counts, _ = reducer._incidence(phi)
        assert counts == tuple(len({abs(l) for i in c for l in phi.clauses[i]}) for c in comps)


def test_r5_unit_clause():
    phi = Formula([1, 2], [[1], [-1, 2]])
    kind, out, _ = apply_rule(phi, "R5")
    assert kind == "changed" and out.clauses == ((2,),)


def test_r6_zero_variable_verdict():
    phi = Formula([1, 2], [[1]])
    assert apply_rule(phi, "R6")[0] == "verdict"
    assert apply_rule(F(1, [1]), "R6") is None


def test_r7_one_variable():
    # x=1 satisfies (x y); y=0 shrinks (y z) to (z)
    phi = Formula([1, 2, 3], [[1, 2], [2, 3]])
    kind, out, _ = apply_rule(phi, "R7")
    assert kind == "changed"
    assert out.clauses == ((3,),) and out.variables == {3}
    # oracle: original has 5 models over 3 variables
    from xparity.oracle import brute_count

    assert brute_count(phi) == 5
    assert brute_parity(phi) == brute_parity(out) == 1


def test_r8_domination():
    # literal 2 appears in every clause containing variable 1, so 2
    # dominates 1 and gets assigned 0
    phi = Formula([1, 2, 3], [[1, 2], [-1, 2, 3], [3, -2]])
    kind, out, _ = apply_rule(phi, "R8")
    assert kind == "changed"
    assert brute_parity(out) == brute_parity(phi)
    assert 2 not in out.variables


def test_r9_twins():
    # a and b always occur together with equal polarity
    phi = Formula([1, 2, 3, 4], [[1, 2, 3], [-1, -2, 4]])
    kind, out, _ = apply_rule(phi, "R9")
    assert kind == "changed"
    assert out.variables == {1, 3, 4}
    assert brute_parity(out) == brute_parity(phi)


def test_r10_complementary_subsumption():
    phi = Formula([1, 2, 3], [[1, 2], [-1, 2, 3]])
    kind, out, _ = apply_rule(phi, "R10")
    assert kind == "changed"
    assert out.clauses == ((1, 2), (2, 3))
    assert brute_parity(out) == brute_parity(phi)


def test_r11_complementary_2clauses():
    phi = Formula([1, 2, 3, 4], [[1, 2], [-1, -2], [1, 3], [2, 4]])
    kind, out, _ = apply_rule(phi, "R11")
    assert kind == "changed"
    assert out.n == 3
    assert brute_parity(out) == brute_parity(phi)


def test_r12_isolated_component():
    # two disjoint parts; the small one has odd parity and is dropped
    phi = Formula([1, 2, 3, 4], [[1, 2], [3, 4]])
    kind, out, _ = apply_rule(phi, "R12")
    assert kind == "changed"
    assert out.m == 1 and out.n == 2
    # even-parity isolated part settles the whole formula
    phi = Formula([1, 2, 3], [[1], [-1], [2, 3]])
    res = apply_rule(phi, "R12")
    assert res[0] == "verdict"


def test_r12_derives_nothing_when_every_component_is_above_the_cap(monkeypatch):
    # two signed cycles of 11 and 12 variables: R12 counts their variables
    # from the clauses and builds no subformula for either
    from test_reducer_oracle import signed_cycles

    phi = signed_cycles(random.Random(12), [11, 12])
    derivations = []
    derive = Formula._derive.__func__
    monkeypatch.setattr(
        Formula,
        "_derive",
        classmethod(lambda cls, *a, **kw: derivations.append(1) or derive(cls, *a, **kw)),
    )
    assert apply_rule(phi, "R12") is None
    assert derivations == []


def test_r12_and_r13_derive_one_formula_per_firing(monkeypatch):
    # both count their side from the clauses and derive only what is left,
    # plus one formula when R13 forces its hinge
    rng = random.Random(0)
    cases = [(r, gen_rule_trigger(r, seed)) for r in ("R12", "R13") for seed in range(12)]
    cases += [("R13", random_formula(rng, max_n=6, max_m=6)) for _ in range(300)]
    derivations = []
    derive = Formula._derive.__func__
    monkeypatch.setattr(
        Formula,
        "_derive",
        classmethod(lambda cls, *a, **kw: derivations.append(1) or derive(cls, *a, **kw)),
    )
    seen = set()
    for rule_id, phi in cases:
        derivations.clear()
        res = apply_rule(phi, rule_id)
        if res is None or res[0] == "verdict":
            assert derivations == [], (rule_id, phi)
            continue
        forced = "forced" in res[2]
        assert len(derivations) == 1 + forced, (rule_id, phi, res[2])
        seen.add((rule_id, forced))
    assert seen == {("R12", False), ("R13", False), ("R13", True)}


def test_r13_semi_isolated():
    # clauses {1,2},{1,3} hinge on variable 1 against {1,4},{1,5}
    phi = Formula(
        [1, 2, 3, 4, 5],
        [[1, 2], [1, 3], [-1, 4], [-1, 5]],
    )
    res = apply_rule(phi, "R13")
    assert res is not None
    assert res[0] == "changed"
    assert brute_parity(res[1]) == brute_parity(phi)


def test_r13_forced_assignment_case():
    # phi1 = {(x y),(x -y)}: x=1 -> parity 1 (y free? no: both satisfied,
    # y remains free -> 2 models -> parity 0); x=0 -> (y),( -y) -> 0 models.
    # Build so that p0=0, p1=1 to force x=1.
    # phi1 = {(x y), (y x?)...}: use (x or y) with x=1 giving y free is even;
    # simpler: phi1 = {(x), ...} is unit - avoid. Use oracle to discover a
    # forcing split instead of hand-picking.
    rng = random.Random(0)
    forced_seen = False
    for _ in range(300):
        phi = random_formula(rng, max_n=6, max_m=6)
        res = apply_rule(phi, "R13")
        if res is None:
            continue
        if res[0] == "changed":
            assert brute_parity(res[1]) == brute_parity(phi)
            forced_seen = True
        else:
            assert brute_parity(phi) == 0
    assert forced_seen


# -- fixpoint engine ----------------------------------------------------------


def test_reduce_unit_chain():
    out = reduce_formula(F(1, [1]))
    assert not out.settled
    assert out.formula.is_empty()
    assert [r for r, _ in out.trace] == ["R5"]


def test_reduce_duplicate_then_chain():
    phi = Formula([1, 2], [[1, 2, 2]])
    out = reduce_formula(phi)
    # R2 dedups, later rules finish; parity must match the oracle
    assert (0 if out.settled else brute_parity(out.formula)) == brute_parity(phi) or (
        out.settled and brute_parity(phi) == 0
    )
    assert out.trace[0][0] == "R2"


def test_reduce_preserves_parity_fuzz():
    from xparity.generators import gen_random_docc, gen_rule_trigger

    rng = random.Random(42)
    inputs = [random_formula(rng, allow_dups=rng.random() < 0.3) for _ in range(400)]
    inputs += [gen_rule_trigger(f"R{i}", seed) for i in range(1, 14) for seed in range(5)]
    inputs += [gen_random_docc(rng.randint(6, 16), rng.randint(2, 4), 1, 3, seed=s) for s in range(100)]
    seen = set()
    for phi in inputs:
        out = reduce_formula(phi)
        want = brute_parity(phi)
        if out.settled:
            assert want == 0
        else:
            assert brute_parity(out.formula) == want
        remains = out.formula is not None and not out.formula.is_empty()
        assert (out.parity is None) == remains
        if out.parity is not None:
            assert out.parity == want
        seen.add(out.parity)
    assert seen == {0, 1, None}


def test_reduce_fixpoint_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        phi = random_formula(rng)
        out = reduce_formula(phi)
        if not out.settled:
            assert is_fixpoint(out.formula)
            again = reduce_formula(out.formula)
            assert again.formula == out.formula
            assert len(again.trace) == 0


def test_potential_log_strictly_decreases():
    rng = random.Random(8)
    for _ in range(200):
        phi = random_formula(rng)
        out = reduce_formula(phi)
        log = out.potential_log
        for a, b in zip(log, log[1:]):
            assert b < a  # lexicographic strict decrease


def planted_merges(rng, n, d):
    """Random clauses with every degree at most d, about a third of them
    in complementary 2-clause pairs (p q), (-p -q) for R11 to merge."""
    budget = dict.fromkeys(range(1, n + 1), d)
    clauses = []
    while True:
        live = [v for v, b in budget.items() if b]
        pairable = [v for v in live if budget[v] >= 2]
        if len(live) < 2:
            return Formula(range(1, n + 1), clauses)
        if len(pairable) >= 2 and rng.random() < 0.3:
            p, q = rng.sample(pairable, 2)
            lits = [rng.choice([p, -p]), rng.choice([q, -q])]
            clauses += [lits, [-l for l in lits]]
            budget[p] -= 2
            budget[q] -= 2
            continue
        vs = rng.sample(live, min(len(live), rng.randint(2, 4)))
        clauses.append([rng.choice([v, -v]) for v in vs])
        for v in vs:
            budget[v] -= 1


def disjoint_union(a, b):
    shift = max(a.variables, default=0)
    moved = [[l + shift if l > 0 else l - shift for l in c] for c in b.clauses]
    return Formula(a.variables | {v + shift for v in b.variables}, list(a.clauses) + moved)


def test_no_firing_raises_the_clause_count():
    # every rule maps each clause to at most one clause and adds none
    from xparity.generators import gen_random_docc, gen_rule_trigger

    rng = random.Random(11)
    inputs = [gen_rule_trigger(f"R{i}", seed) for i in range(1, 14) for seed in range(40)]
    inputs += [random_formula(rng, allow_dups=True) for _ in range(1000)]
    inputs += [gen_random_docc(rng.randint(6, 24), rng.randint(2, 5), 1, 4, seed=s) for s in range(300)]
    inputs += [planted_merges(rng, rng.randint(6, 24), rng.randint(2, 5)) for _ in range(300)]
    # disjoint pairs, so R12 can remove an odd component
    inputs += [disjoint_union(a, b) for a, b in zip(inputs[::2], inputs[1::2])]
    fired = set()
    for phi in inputs:
        out = reduce_formula(phi)
        log = out.potential_log
        for (rule_id, _), before, after in zip(out.trace, log, log[1:]):
            assert after[1] <= before[1], (rule_id, phi)
            fired.add(rule_id)
    assert fired == {f"R{i}" for i in range(1, 14)} - {"R1", "R6"}  # these only settle


def test_reduction_keeps_degrees_at_most_four():
    # only R11 raises a degree: merging a into b leaves var(b) at most
    # deg(a) + deg(b) - 4 occurrences, which stays <= d for d <= 4
    def max_degree(phi):
        return max(map(len, phi.occ.values()), default=0)

    merges = 0
    for seed in range(600):
        rng = random.Random(seed)
        phi = planted_merges(rng, rng.randint(6, 30), rng.choice([2, 3, 4]))
        out = reduce_formula(phi)
        merges += sum(rule_id == "R11" for rule_id, _ in out.trace)
        if not out.settled:
            assert max_degree(out.formula) <= max_degree(phi), seed
    assert merges >= 100


def test_rule_order_independence_of_parity():
    # random rule priority permutations must not change the parity contract
    from xparity import reducer as red

    rng = random.Random(9)
    base_rules = list(red._RULES)
    try:
        for _ in range(60):
            phi = random_formula(rng, max_n=7, max_m=7)
            want = brute_parity(phi)
            perm = base_rules[:]
            rng.shuffle(perm)
            red._RULES = tuple(perm)
            out = reduce_formula(phi)
            got = 0 if out.settled else brute_parity(out.formula)
            assert got == want
    finally:
        red._RULES = tuple(base_rules)


def test_reduced_properties_on_fixpoints():
    from xparity.generators import gen_random_docc

    rng = random.Random(10)
    checked = 0
    for seed in range(150):
        if seed % 2:
            phi = gen_random_docc(14, 2, 2, 3, seed=seed)
        else:
            phi = random_formula(rng, max_n=16, max_m=24, occurring_only=True)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        report = check_reduced_properties(out.formula)
        assert report.all_pass, (out.formula, report.results, report.witnesses)
        checked += 1
    assert checked >= 30


P5 = "p5_small_subformula_interface"


def small_interface(phi: Formula, subset) -> list | None:
    """The variables the clause set at ``subset`` shares with the other
    clauses, if it is a P5 violation by definition: non-empty, proper,
    connected, with at most SUBFORMULA_VAR_CAP variables and fewer than
    two of them shared."""
    varsets = [{abs(l) for l in c} for c in phi.clauses]
    inside = set(subset)
    vs = set().union(*(varsets[i] for i in inside))
    outside = set().union(*(varsets[i] for i in range(phi.m) if i not in inside))
    if not inside or len(inside) == phi.m or len(vs) > SUBFORMULA_VAR_CAP:
        return None
    reached, todo = set(), [min(inside)]
    while todo:
        i = todo.pop()
        reached.add(i)
        todo.extend(j for j in inside - reached if varsets[i] & varsets[j])
    shared = sorted(vs & outside)
    return shared if reached == inside and len(shared) < 2 else None


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_formulas(), raw_formulas(max_n=14, max_m=10)))
def test_p5_matches_its_definition_over_every_clause_subset(phi):
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(phi.m), k) for k in range(1, phi.m)
    )
    violated = any(small_interface(phi, s) is not None for s in subsets)
    report = check_reduced_properties(phi)
    assert report.results[P5] == (not violated), phi
    if violated:
        subset, shared = report.witnesses[P5]
        assert small_interface(phi, subset) == shared, (phi, subset, shared)


def test_p5_at_the_cap():
    # a cycle of 2-clauses beside another, or joined to it at variable 1: a
    # side of 10 variables, 1 included, is a violation and one of 11 is not
    cap = SUBFORMULA_VAR_CAP
    for k in (cap, cap + 1):
        clauses = cycle(range(1, k + 1)) + cycle(range(k + 1, 2 * k + 3))
        apart = Formula(range(1, 2 * k + 3), clauses)
        joined = two_cycles_at(k - 1, 12, True)
        for phi, shared in ((apart, []), (joined, [1])):
            report = check_reduced_properties(phi)
            assert report.results[P5] == (k > cap)
            if k == cap:
                subset, got = report.witnesses[P5]
                assert got == shared
                assert {abs(l) for i in subset for l in phi.clauses[i]} == set(range(1, k + 1))


def test_p5_holds_on_a_fixpoint_of_a_hundred_variables():
    from xparity.generators import gen_random_docc

    out = reduce_formula(gen_random_docc(100, 6, 2, 3, seed=5))
    assert out.parity is None and out.formula.n == 99 and out.formula.m == 235
    report = check_reduced_properties(out.formula)
    assert report.all_pass, report.witnesses


def test_reduced_properties_witnesses():
    # (x y),(~x y): R10 applies, so property report must fail with a witness
    phi = Formula([1, 2], [[1, 2], [-1, 2]])
    report = check_reduced_properties(phi)
    assert not report.all_pass
    assert report.witnesses


def test_r12_r13_never_fire_above_cap():
    # two components, each with 11 variables: R12 must not fire
    c1 = [[i, i + 1] for i in range(1, 11)]
    c2 = [[i, i + 1] for i in range(12, 22)]
    phi = Formula(range(1, 23), c1 + c2)
    assert apply_rule(phi, "R12") is None


def test_verdict_rules_sources():
    rng = random.Random(11)
    allowed = {"R1", "R6", "R12", "R13"}
    for _ in range(300):
        phi = random_formula(rng, allow_dups=True)
        out = reduce_formula(phi)
        if out.settled:
            assert out.trace[-1][0] in allowed


def test_r13_forces_the_even_hinge_value():
    # hinged part {(x or a)}: even parity when x=1 (a turns free), odd when
    # x=0, so the rule must assign x=0 in the remainder
    phi = Formula([1, 2, 3, 4], [[1, 2], [-1, 3], [3, 4], [4, -1]])
    res = apply_rule(phi, "R13")
    assert res is not None and res[0] == "changed"
    got = res[1]
    assert 1 not in got.variables  # the hinge was assigned
    assert 2 not in got.variables  # the hinged part was removed
    assert got == Formula([3, 4], [[3, 4]])
    assert brute_parity(got) == brute_parity(phi)


def test_a_pass_checking_r12_and_r13_searches_its_formula_once(monkeypatch):
    # R12 and R13 read the components and the hinge off one search of the
    # incidence graph, kept on the formula: a formula at the fixpoint is
    # searched once, and a reduction in which R13 fires searches each
    # formula it checks once
    from test_reducer_oracle import signed_cycles

    from xparity import reducer
    from xparity.generators import gen_rule_trigger

    searched = []
    search = reducer._incidence
    monkeypatch.setattr(
        reducer,
        "_incidence",
        lambda phi: (phi._incidence is None and searched.append(phi)) or search(phi),
    )
    phi = signed_cycles(random.Random(3), [12, 16])
    out = reduce_formula(phi)
    assert out.trace == [] and searched == [phi]
    fired = 0
    for seed in range(20):
        searched.clear()
        out = reduce_formula(gen_rule_trigger("R13", seed))
        fired += sum(rid == "R13" for rid, _ in out.trace)
        assert len({id(psi) for psi in searched}) == len(searched)
    assert fired >= 20, fired


def test_a_firing_that_keeps_the_formula_raises(monkeypatch):
    # a rule that reports "changed" but returns its input leaves (n, m, L)
    # where it was, so the reducer must refuse it rather than loop
    import pytest

    from xparity import reducer as red

    def stall(phi):
        return ("changed", phi, "nothing")

    monkeypatch.setattr(red, "_RULES", (("R0", stall),) + red._RULES)
    with pytest.raises(red.ReducerInvariantError, match="did not decrease the potential"):
        reduce_formula(F(3, [1, 2], [-1, 3]))

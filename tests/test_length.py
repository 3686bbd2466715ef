import gc
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from xparity.formula import Formula
from xparity.generators import gen_random_docc
from xparity.length import (
    classify_step,
    compute_ext,
    marginal_weight,
    measure_mu,
    solve_length,
    weight,
)
from xparity.oracle import brute_parity
from xparity.reducer import reduce_formula
from xparity.telemetry import Telemetry
from xparity.verify import circulant_triples, positive_3regular


def test_weights():
    assert weight(1) == 0
    assert weight(2) == Fraction(3, 2)
    assert weight(3) == 3
    assert weight(7) == 7
    assert marginal_weight(2) == marginal_weight(3) == Fraction(3, 2)
    assert marginal_weight(4) == marginal_weight(9) == 1


def test_measure_examples():
    # four 3-variables only
    phi = circulant_triples(12)
    sub = Formula(phi.variables, phi.clauses)
    assert all(sub.degree(v) == 3 for v in sub.variables)
    assert measure_mu(sub) == 3 * 12
    # all 2-variables: mu = 1.5 n
    two = gen_random_docc(6, 2, 2, 3, seed=1)
    mu = measure_mu(two)
    n2 = sum(1 for v in two.variables if two.degree(v) == 2)
    assert mu == Fraction(3, 2) * n2 + sum(
        weight(two.degree(v)) for v in two.variables if two.degree(v) != 2
    )
    assert measure_mu(two) <= two.length
    # the half-unit sum is the weight sum, exactly
    for seed in range(60):
        phi = gen_random_docc(8 + seed % 20, 2 + seed % 5, 1, 4, seed=seed)
        assert measure_mu(phi) == sum((weight(phi.degree(v)) for v in phi.variables), Fraction(0))


def test_mu_never_exceeds_length_and_reduction_monotone():
    rng = random.Random(5)
    for seed in range(200):
        phi = gen_random_docc(rng.randint(3, 14), rng.randint(2, 6), 1, 5, seed=seed)
        assert measure_mu(phi) <= phi.length
        out = reduce_formula(phi)
        if out.formula is not None:
            assert measure_mu(out.formula) <= measure_mu(phi)


def test_classify_order_and_pivots():
    # a 5-variable forces step 1
    phi = Formula(
        range(1, 12),
        [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [1, 8, 9], [-1, 10, 11],
         [2, 4], [3, 5], [6, 8], [7, 9], [10, 11]],
    )
    out = reduce_formula(phi)
    if out.parity is None and max(
        out.formula.degree(v) for v in out.formula.variables
    ) >= 4:
        step = classify_step(out.formula)
        assert step.kind == "step1"
    # all 2-variables goes straight to the occ2 handoff
    two = reduce_formula(gen_random_docc(14, 2, 2, 3, seed=3))
    if two.parity is None:
        assert classify_step(two.formula).kind == "step6"


def test_classify_step2_pivot():
    # 4-clause containing a 3-variable, no 4+-variables
    clauses = [
        [1, 2, 3, 4],
        [1, 5, 6],
        [-1, 7, 8],
        [2, 9], [3, 10], [4, 11],
        [5, 9], [6, 10], [7, 11], [8, 12], [12, 13], [13, 2],
    ]
    phi = Formula(range(1, 14), clauses)
    out = reduce_formula(phi)
    if out.parity is None:
        step = classify_step(out.formula)
        if any(len(c) >= 4 for c in out.formula.clauses):
            assert step.kind in ("step1", "step2")


def test_compute_ext_proper_on_circulant():
    phi = circulant_triples(13)
    st = compute_ext(phi, 1)
    assert st.proper
    assert not st.ext_x


def test_compute_ext_requires_length_three():
    phi = Formula([1, 2, 3, 4], [[1, 2], [1, 3], [1, 4], [2, 3, 4]])
    with pytest.raises(ValueError):
        compute_ext(phi, 1)


def test_nonproper_formulas_have_external_witness():
    # structural dichotomy: above the small-formula cap, a reduced
    # all-positive 3-CNF with a non-proper 3-variable has some variable with
    # external neighbors
    found_nonproper = 0
    for seed in range(300):
        phi = positive_3regular(12 + seed % 6, seed)
        if phi is None:
            continue
        out = reduce_formula(phi)
        if out.parity is not None or out.formula.n <= 10:
            continue
        psi = out.formula
        threes = [v for v in psi.variables if psi.degree(v) == 3]
        if not threes or any(psi.degree(v) > 3 for v in psi.variables):
            continue
        if any(
            len(psi.clauses[cidx]) != 3 for v in threes for cidx, _ in psi.occ[v]
        ):
            continue
        if any(0 in psi.polarity_counts(v) is False for v in threes):
            continue
        if any(psi.polarity_counts(v)[1] > 0 for v in threes):
            continue
        structures = {v: compute_ext(psi, v) for v in threes}
        if all(st.proper for st in structures.values()):
            continue
        found_nonproper += 1
        assert any(st.ext_x for st in structures.values()), (seed, psi)
    assert found_nonproper > 10


def test_solve_length_oracle_fuzz():
    for seed in range(800):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        d = rng.randint(2, 6)
        phi = gen_random_docc(n, d, 1, 5, seed=seed)
        tel = Telemetry(strict=True)
        assert solve_length(phi, tel) == brute_parity(phi), seed


def test_solve_length_matches_occ2_on_2occ():
    from xparity.occ2 import solve_occ2

    for seed in range(300):
        phi = gen_random_docc(6 + seed % 11, 2, 2, 4, seed=seed)
        assert solve_length(phi) == solve_occ2(phi), seed


def test_step5_shapes_ledger_clean():
    for seed in range(100):
        phi = positive_3regular(11 + seed % 8, seed)
        if phi is None:
            continue
        tel = Telemetry(strict=True)
        assert solve_length(phi, tel) == brute_parity(phi)
        assert all(slot["failed"] == 0 for slot in tel.ledger_summary().values())
    for n in range(11, 20):
        tel = Telemetry(strict=True)
        phi = circulant_triples(n)
        assert solve_length(phi, tel) == brute_parity(phi)
        assert all(slot["failed"] == 0 for slot in tel.ledger_summary().values())


def retained_by_solve(phi: Formula) -> tuple[int, int]:
    """(tree nodes, bytes still allocated once the solve returned and its
    garbage is collected, with the Telemetry alive and no sink)."""
    solve_length(phi)  # fills the oracle's bounded pattern cache first
    tel = Telemetry()
    gc.collect()
    tracemalloc.start()
    try:
        solve_length(phi, tel)
        gc.collect()
        return tel.nodes, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_telemetry_does_not_grow_with_the_tree():
    # the ledger keeps per-step tallies and streams its entries, so a tree
    # 14 times larger leaves nothing more behind
    small_nodes, small = retained_by_solve(circulant_triples(28))
    big_nodes, big = retained_by_solve(circulant_triples(44))
    assert big_nodes >= 10 * small_nodes, (small_nodes, big_nodes)
    assert big - small < 16 * 1024, (small, big)


def test_step_ledger_claims_match_table():
    # the per-step claimed vectors appear in ledger entries and are honored
    seen = {}
    for seed in range(400):
        rng = random.Random(1000 + seed)
        phi = gen_random_docc(rng.randint(11, 17), rng.randint(3, 6), 2, 4, seed=seed)
        sink = io.StringIO()
        solve_length(phi, Telemetry(sink, strict=True))
        for line in sink.getvalue().splitlines():
            e = json.loads(line)
            if e["kind"] != "ledger":
                continue
            if e["step"].startswith("len.step") and "drop" in e["claimed"]:
                seen.setdefault(e["step"], 0)
                seen[e["step"]] += 1
                if not e["resolved"]:
                    # a Fraction streams as [numerator, denominator]
                    observed, claimed = (
                        Fraction(*v) if isinstance(v, list) else v
                        for v in (e["observed"]["drop"], e["claimed"]["drop"])
                    )
                    assert observed >= claimed
    assert any(k.startswith("len.step") for k in seen)


def test_xor_identity_nodewise_debug():
    # at every branching node the parent parity equals the XOR of children
    from xparity.length import _branch_for

    rng = random.Random(7)
    checked = 0
    for seed in range(300):
        phi = gen_random_docc(rng.randint(11, 14), rng.randint(3, 5), 2, 4, seed=seed)
        out = reduce_formula(phi)
        if out.parity is not None or out.formula.n <= 10:
            continue
        step = classify_step(out.formula)
        if step.kind == "step6":
            continue
        branch = _branch_for(step)
        want = brute_parity(step.formula)
        got = 0
        for child in branch.children:
            got ^= brute_parity(child)
        assert got == want, seed
        checked += 1
    assert checked > 20


def _reached_steps(monkeypatch, formulas) -> list:
    """Every step ``solve_length`` classifies while solving the formulas."""
    from xparity import length

    steps = []

    def recording(phi):
        step = classify_step(phi)
        steps.append(step)
        return step

    monkeypatch.setattr(length, "classify_step", recording)
    for phi in formulas:
        solve_length(phi, Telemetry(strict=True))
    return steps


def test_step_carries_one_claim_per_child(monkeypatch):
    from xparity.length import _branch_for

    rng = random.Random(11)
    formulas = [
        gen_random_docc(rng.randint(11, 17), rng.randint(3, 6), 2, 4, seed=seed)
        for seed in range(150)
    ]
    formulas += [gen_random_docc(18 + seed % 12, 3, 3, 3, seed=seed) for seed in range(60)]
    formulas += [positive_3regular(11 + seed % 8, seed) for seed in range(60)]
    formulas += [circulant_triples(n) for n in range(20, 26)]
    kinds = set()
    for step in _reached_steps(monkeypatch, [phi for phi in formulas if phi is not None]):
        if step.kind == "step6":
            continue
        assert len(step.claims) == len(_branch_for(step).children), step.kind
        psi, x = step.formula, step.pivot
        # step 3.2's joint claim needs a positive side of two or more literals
        wide_side = any(len(psi.clauses[c]) > 2 for c, lit in psi.occ[x] if lit > 0)
        want_joint = step.kind in ("step1", "step4") or (step.kind == "step3_2" and wide_side)
        assert (step.joint is not None) == want_joint, step.kind
        kinds.add((step.kind, want_joint))
    assert {kind for kind, _ in kinds} == {
        "step1", "step2", "step3_1", "step3_2", "step4", "step5_1", "step5_2"
    }
    assert {("step3_2", False), ("step3_2", True)} <= kinds


def test_each_reduction_is_measured_at_most_twice(monkeypatch):
    # mu is taken before and after each reduction and handed down from
    # there; neither the branch node nor the drop measures again
    from xparity import length

    calls = {"measure": 0, "reduce": 0}

    def counted(name, fn):
        def wrapper(phi, **kw):
            calls[name] += 1
            return fn(phi, **kw)

        return wrapper

    monkeypatch.setattr(length, "measure_mu", counted("measure", measure_mu))
    monkeypatch.setattr(length, "reduce_formula", counted("reduce", reduce_formula))
    shapes = [circulant_triples(24), gen_random_docc(24, 4, 3, 3, seed=3),
              gen_random_docc(42, 3, 3, 3, seed=3)]
    for phi in shapes:
        calls.update(measure=0, reduce=0)
        tel = Telemetry(strict=True)
        solve_length(phi, tel)
        assert tel.nodes > 0
        assert calls["measure"] <= 2 * calls["reduce"], calls

"""The reducer on the calls the solvers make, where its rule chains are
long: every ``reduce_formula`` call that ``solve_occ2`` and
``solve_length`` make on a few fixed seeded instances, against the
reference loop of ``test_reducer_oracle`` and, where it leaves a formula,
the five properties of a reduced one; and the number of formulas one call
builds.
"""

import random

import pytest
from test_reducer_oracle import cubic_graph, outcome, reference_reduce

from xparity import length, occ2, reducer
from xparity.formula import Formula
from xparity.generators import gen_edge_cover_formula
from xparity.telemetry import Telemetry

FORMULA_RULES = ("R8", "R9", "R10", "R11", "R12", "R13")


def regular_formula(rng: random.Random, n: int, d: int, k: int) -> Formula:
    """Signed k-clauses of distinct variables, every variable of 1..n in
    exactly d of them."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        clauses = [stubs[i : i + k] for i in range(0, len(stubs), k)]
        if all(len(set(c)) == k for c in clauses):
            return Formula(range(1, n + 1), [[rng.choice((v, -v)) for v in c] for c in clauses])


def solver_calls(monkeypatch, solve, phi) -> list:
    """(input, outcome) of every reduce_formula call solve makes on phi."""
    calls = []
    original = reducer.reduce_formula

    def recording(psi):
        out = original(psi)
        calls.append((psi, out))
        return out

    for module in (occ2, length):
        monkeypatch.setattr(module, "reduce_formula", recording)
    solve(phi, Telemetry())
    return calls


# (solver, seed, instance from a seeded rng): edge covers of cubic graphs
# and signed regular formulas of the benchmark's length shapes (n, d, k)
TRAFFIC = [
    *(
        (occ2.solve_occ2, seed, lambda rng, n=n: gen_edge_cover_formula(cubic_graph(rng, n)))
        for seed, n in enumerate((40, 44, 48, 50))
    ),
    *(
        (length.solve_length, seed, lambda rng, shape=shape: regular_formula(rng, *shape))
        for seed, shape in enumerate(((24, 4, 3), (30, 4, 4), (42, 3, 3), (36, 3, 3)) * 2)
    ),
]


@pytest.mark.parametrize("solve, seed, make", TRAFFIC)
def test_solver_reductions_match_the_reference(monkeypatch, solve, seed, make):
    calls = solver_calls(monkeypatch, solve, make(random.Random(seed)))
    fired = {rid for _, out in calls for rid, _ in out.trace}
    assert {"R4", "R5", "R7"} <= fired, fired
    for psi, out in calls:
        assert outcome(out) == reference_reduce(psi), psi
        if not out.settled:
            assert reducer.check_reduced_properties(out.formula).all_pass, out.formula


@pytest.mark.parametrize("solve, seed, make", [TRAFFIC[0], TRAFFIC[4]])
def test_a_reduction_builds_one_formula_per_formula_rule_firing(monkeypatch, solve, seed, make):
    # R1-R7 rewrite the store, which builds one Formula when they stop
    # firing; only an R8-R13 firing, which derives its own result, makes
    # the store build again
    built = [0]
    inside = [False]  # within an R8-R13 rule, whose own derivations are not counted
    derive = Formula._derive.__func__

    def counting(cls, *args, **kwargs):
        built[0] += not inside[0]
        return derive(cls, *args, **kwargs)

    def uncounted(rule):
        def run(phi):
            inside[0] = True
            try:
                return rule(phi)
            finally:
                inside[0] = False

        return reducer._on_formula(run)

    rules = [
        (rid, uncounted(getattr(reducer, f"_r{rid[1:]}")) if rid in FORMULA_RULES else fn)
        for rid, fn in reducer._RULES
    ]
    monkeypatch.setattr(reducer, "_RULES", tuple(rules))
    monkeypatch.setattr(Formula, "_derive", classmethod(counting))

    calls = []
    original = reducer.reduce_formula

    def counted(psi):
        built[0] = 0
        out = original(psi)
        calls.append((built[0], sum(rid in FORMULA_RULES for rid, _ in out.trace), len(out.trace)))
        return out

    for module in (occ2, length):
        monkeypatch.setattr(module, "reduce_formula", counted)
    solve(make(random.Random(seed)), Telemetry())
    for made, formula_firings, _ in calls:
        assert made <= 1 + formula_firings, calls
    # the chains are long: a build per firing would be over three times as many
    assert sum(firings for *_, firings in calls) > 3 * sum(made for made, *_ in calls), calls

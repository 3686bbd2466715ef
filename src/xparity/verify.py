"""The acceptance property suites.

Each criterion function returns (ok, detail); ``run_all`` prints one
pass/fail line per criterion.  The full-scale counts match the stated
contract; quick mode scales them down for smoke runs and is never used by
the test gate.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque

from .branching import clause_branch, variable_branch
from .cli import _run_solver
from .dimacs import parse_dimacs, write_dimacs
from .docc import reduce_to_positive
from .factors import tau
from .formula import Formula
from .generators import (
    gen_4plus_survivor,
    gen_edge_cover_formula,
    gen_random_docc,
    gen_rule_trigger,
    random_graph,
)
from .length import solve_length
from .occ2 import Occ2Config, solve_occ2
from .oracle import (
    SetSystem,
    SimpleGraph,
    brute_parity,
    count_edge_covers,
    count_hitting_sets,
    count_set_covers,
    count_vertex_covers,
    inclusion_exclusion_edge_covers,
)
from .reducer import apply_rule, check_reduced_properties, reduce_formula
from .telemetry import Telemetry


def _scale(full: int, quick: bool) -> int:
    return max(full // 20, 25) if quick else full


# -- instance families ---------------------------------------------------------------


def family_general(seed: int) -> Formula:
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    d = rng.randint(2, 6)
    return gen_random_docc(n, d, 1, 5, seed=seed, polarity="mixed")


def family_occ2(seed: int) -> Formula:
    rng = random.Random(seed)
    n = rng.randint(4, 16)
    return gen_random_docc(n, 2, 2, rng.choice([3, 3, 4, 5, 6]), seed=seed)


def family_positive(seed: int) -> Formula:
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    d = rng.randint(2, 4)
    return gen_random_docc(n, d, 1, 4, seed=seed, polarity="positive")


def family_2cnf(seed: int) -> Formula:
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    return gen_random_docc(n, 2, 1, 2, seed=seed)


def positive_3regular(n: int, seed: int) -> Formula | None:
    rng = random.Random(seed)
    for _ in range(100):
        slots = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(slots)
        clauses = [slots[i : i + 3] for i in range(0, len(slots), 3)]
        if all(len(set(c)) == 3 for c in clauses):
            return Formula(range(1, n + 1), clauses)
    return None


def circulant_triples(n: int) -> Formula:
    return Formula(
        range(1, n + 1),
        [[i + 1, (i + 1) % n + 1, (i + 3) % n + 1] for i in range(n)],
    )


FAMILIES = {
    "general": (family_general, ("length", "docc")),
    "occ2": (family_occ2, ("occ2", "length", "docc")),
    "positive": (family_positive, ("positive-fib", "docc", "length")),
    "2cnf": (family_2cnf, ("2cnf", "occ2", "length", "docc")),
}


# -- criteria ---------------------------------------------------------------------------


def criterion_1_oracle_equivalence(quick: bool = False):
    per_family = _scale(10_000, quick)
    mismatches = 0
    total_checks = 0
    reduce_verdicts = 0
    for fam_idx, (name, (gen, paths)) in enumerate(FAMILIES.items()):
        for i in range(per_family):
            seed = fam_idx * 1_000_000 + i
            phi = gen(seed)
            want = brute_parity(phi)
            out = reduce_formula(phi)
            if out.settled:
                reduce_verdicts += 1
                total_checks += 1
                if want != 0:
                    mismatches += 1
            for path in paths:
                got = _run_solver(path, phi, Telemetry(strict=True), 0)
                total_checks += 1
                if got != want:
                    mismatches += 1
    ok = mismatches == 0
    return ok, (
        f"{total_checks} solver/oracle comparisons over {per_family} instances x "
        f"{len(FAMILIES)} families ({reduce_verdicts} settled by reduction alone); "
        f"{mismatches} mismatches"
    )


def criterion_2_rule_soundness(quick: bool = False):
    per_rule = _scale(1_000, quick)
    rules = [f"R{i}" for i in range(1, 14)]
    fired = {r: 0 for r in rules}
    bad = 0

    def check(phi, rule):
        nonlocal bad
        res = apply_rule(phi, rule)
        if res is None:
            return False
        want = brute_parity(phi)
        if res[0] == "verdict":
            if want != 0:
                bad += 1
        else:
            if brute_parity(res[1]) != want:
                bad += 1
        fired[rule] += 1
        return True

    # random phase: fire every applicable rule on fuzzed formulas
    for seed in range(_scale(1_500, quick)):
        rng = random.Random(90_000_000 + seed)
        n = rng.randint(2, 9)
        clauses = [
            [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
            for _ in range(rng.randint(1, 8))
        ]
        if rng.random() < 0.3 and clauses:
            clauses[0] = clauses[0] + clauses[0][:1]  # duplicate literal fodder
        phi = Formula(range(1, n + 1), clauses)
        for rule in rules:
            if fired[rule] < per_rule:
                check(phi, rule)
    # targeted phase tops up every rule, covering the rare ones by construction
    for rule in rules:
        seed = 0
        while fired[rule] < per_rule:
            phi = gen_rule_trigger(rule, seed)
            if not check(phi, rule):
                raise AssertionError(f"trigger for {rule} did not fire")
            seed += 1
    ok = bad == 0 and all(fired[r] >= per_rule for r in rules)
    return ok, f"firings per rule >= {per_rule}, parity mismatches: {bad}"


def criterion_3_reduced_properties(quick: bool = False):
    per_family = _scale(2_500, quick)
    checked = 0
    failures = 0
    for fam_idx, (name, (gen, _)) in enumerate(FAMILIES.items()):
        for i in range(per_family):
            seed = 10_000_000 + fam_idx * 1_000_000 + i
            out = reduce_formula(gen(seed))
            if out.parity is not None:
                continue
            checked += 1
            report = check_reduced_properties(out.formula)
            if not report.all_pass:
                failures += 1
    ok = failures == 0 and checked > 0
    return ok, f"{checked} reduced outputs checked against all five properties; {failures} failures"


def _children(branching, phi: Formula, on):
    """The children of one branching, None when it refuses the pivot."""
    try:
        return branching(phi, on).children
    except ValueError:
        return None


def criterion_4_branching_identities(quick: bool = False):
    want_pairs = _scale(5_000, quick)
    rng = random.Random(424242)
    variable_ok = clause_ok = 0
    bad = 0
    while variable_ok < want_pairs or clause_ok < want_pairs:
        n = rng.randint(2, 10)
        clauses = [
            [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
            for _ in range(rng.randint(1, 7))
        ]
        phi = Formula(range(1, n + 1), clauses)
        want = brute_parity(phi)
        if clause_ok < want_pairs and phi.clauses:
            children = _children(clause_branch, phi, phi.clauses[rng.randrange(phi.m)])
            if children is not None:
                clause_ok += 1
                bad += sum(map(brute_parity, children)) % 2 != want
        if variable_ok < want_pairs:
            occupied = [v for v in phi.variables if phi.degree(v) > 0]
            if occupied:
                x = rng.choice(occupied)
                children = _children(variable_branch, phi, x)
                if children is not None:
                    variable_ok += 1
                    bad += sum(map(brute_parity, children)) % 2 != want
                    bad += len(children) != phi.degree(x)
    ok = bad == 0
    return ok, (
        f"variable-branching pairs: {variable_ok}, clause-branching pairs: {clause_ok}, "
        f"identity failures: {bad}"
    )


def criterion_5_measure_ledgers(quick: bool = False):
    tel = Telemetry(strict=False)  # collect everything, then demand zero failures
    runs = 0

    def run(fn, phi):
        nonlocal runs
        fn(phi, tel)
        runs += 1

    # occ2: oracle-scale, forced bisection machinery, and larger instances
    for seed in range(_scale(2_000, quick)):
        rng = random.Random(20_000_000 + seed)
        phi = gen_random_docc(rng.randint(6, 16), 2, 2, rng.choice([3, 4, 5]), seed=seed)
        run(lambda p, t: solve_occ2(p, t), phi)
    tiny_cfg = Occ2Config(n_eps=2)
    for seed in range(_scale(1_000, quick)):
        phi = gen_random_docc(8 + seed % 12, 2, 2, 3, seed=seed)
        run(lambda p, t: solve_occ2(p, t, tiny_cfg), phi)
    for seed in range(_scale(300, quick)):
        phi = gen_random_docc(40 + (seed % 5) * 8, 2, 2, 3, seed=3_000_000 + seed)
        run(lambda p, t: solve_occ2(p, t), phi)
    # longer clauses on bigger 2-occ instances, plus the engineered family
    # that keeps both 4+-branch children alive for the paired drop bound
    for seed in range(_scale(400, quick)):
        phi = gen_random_docc(30 + (seed % 6) * 6, 2, 2, 6, seed=4_000_000 + seed)
        run(lambda p, t: solve_occ2(p, t), phi)
    for seed in range(_scale(200, quick)):
        run(lambda p, t: solve_occ2(p, t), gen_4plus_survivor(seed))
    # length solver: general mixes plus the structured step-5 shapes
    for seed in range(_scale(2_000, quick)):
        rng = random.Random(21_000_000 + seed)
        phi = gen_random_docc(rng.randint(6, 14), rng.randint(2, 6), 1, 5, seed=seed)
        run(lambda p, t: solve_length(p, t), phi)
    # big enough to survive the small-formula base case with high degrees and
    # mixed 3-variables, covering steps 1 and 3
    for seed in range(_scale(800, quick)):
        rng = random.Random(23_000_000 + seed)
        phi = gen_random_docc(rng.randint(12, 18), rng.randint(3, 6), 2, 4, seed=seed)
        run(lambda p, t: solve_length(p, t), phi)
    for seed in range(_scale(800, quick)):
        phi = gen_random_docc(14 + seed % 5, 3, 2, 3, seed=24_000_000 + seed)
        run(lambda p, t: solve_length(p, t), phi)
    for seed in range(_scale(500, quick)):
        phi = positive_3regular(11 + seed % 8, seed)
        if phi is not None:
            run(lambda p, t: solve_length(p, t), phi)
    for n in range(11, 20):
        run(lambda p, t: solve_length(p, t), circulant_triples(n))
    # docc clause-drop ledger
    for seed in range(_scale(1_000, quick)):
        rng = random.Random(22_000_000 + seed)
        phi = gen_random_docc(rng.randint(4, 12), rng.randint(2, 4), 1, 4, seed=seed)
        run(lambda p, t: deque(reduce_to_positive(p, t), maxlen=0), phi)
    # the parity rules settle most of those; these larger ones keep branching
    for seed in range(_scale(40, quick)):
        rng = random.Random(25_000_000 + seed)
        phi = gen_random_docc(rng.randint(24, 40), rng.randint(3, 5), 2, 4, seed=25_000_000 + seed)
        run(lambda p, t: deque(reduce_to_positive(p, t), maxlen=0), phi)

    summary = tel.ledger_summary()
    want_steps = {
        "occ2.4plus",
        "occ2.4plus-pair",
        "occ2.bisect-branch",
        "len.step1",
        "len.step2",
        "len.step3_1",
        "len.step3_2",
        "len.step4",
        "len.step5_1",
        "len.step5_2",
        "len.reduce-mu",
        "docc.to-positive",
    }
    missing = sorted(want_steps - set(summary))
    violations = sum(slot["failed"] for slot in summary.values())
    ok = violations == 0 and not missing
    lines = ", ".join(
        f"{step}:{slot['entries']}" for step, slot in sorted(summary.items())
    )
    detail = f"{runs} runs; entries {lines}; violations: {violations}"
    if missing:
        detail += f"; MISSING coverage: {missing}"
    return ok, detail


GROWTH_TARGETS = {
    "occ2_3cnf_m3": 1.1487,
    "occ2_m": 1.3248,
    "occ2_n": 1.1193,
    "length_L": 1.1052,
}

TABLE_FACTORS = [
    ((12, 4), 1.1003),
    ((7.5, 7.5), 1.0969),
    ((6, 9), 1.0983),
    ((10.5, 4.5), 1.1031),
    ((13.5, 3), 1.1052),
    ((15, 12, 9), 1.0983),
]


def criterion_6_growth_curves(quick: bool = False):
    limits = {"C": 1_000.0}
    worst: dict[str, float] = {k: 0.0 for k in GROWTH_TARGETS}
    counts = {k: 0 for k in GROWTH_TARGETS}
    spans = {k: 0 for k in GROWTH_TARGETS}

    def record(curve, leaves, measure):
        if measure <= 0:
            return
        c_req = leaves / (GROWTH_TARGETS[curve] ** measure)
        worst[curve] = max(worst[curve], c_req)
        counts[curve] += 1
        spans[curve] = max(spans[curve], measure)

    budget = _scale(400, quick)
    # 3-CNF 2-occ, m3 up to 50
    for seed in range(budget):
        phi = gen_random_docc(40 + (seed % 10) * 11, 2, 2, 3, seed=40_000_000 + seed)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        psi = out.formula
        if psi.m3 > 50 or any(len(c) > 3 for c in psi.clauses):
            continue
        tel = Telemetry(strict=True)
        solve_occ2(psi, tel)
        record("occ2_3cnf_m3", tel.leaves, psi.m3)
        if counts["occ2_3cnf_m3"] >= _scale(120, quick) and spans["occ2_3cnf_m3"] >= (20 if quick else 45):
            break
    # general 2-occ, n up to 60
    for seed in range(budget):
        phi = gen_random_docc(20 + (seed % 9) * 5, 2, 2, 6, seed=41_000_000 + seed)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        psi = out.formula
        if psi.n > 60:
            continue
        tel = Telemetry(strict=True)
        solve_occ2(psi, tel)
        record("occ2_m", tel.leaves, psi.m)
        record("occ2_n", tel.leaves, psi.n)
        if counts["occ2_n"] >= _scale(120, quick):
            break
    # general CNF, L up to 120
    for seed in range(budget):
        rng = random.Random(42_000_000 + seed)
        phi = gen_random_docc(rng.randint(12, 30), rng.randint(3, 6), 1, 5, seed=seed)
        out = reduce_formula(phi)
        if out.parity is not None:
            continue
        psi = out.formula
        if psi.length > 120:
            continue
        tel = Telemetry(strict=True)
        solve_length(psi, tel)
        record("length_L", tel.leaves, psi.length)
        if counts["length_L"] >= _scale(120, quick):
            break

    factor_bad = []
    for vector, reported in TABLE_FACTORS:
        root = tau(*vector)
        # reported values are 4-decimal upper bounds on the roots
        if not (reported - 1.2e-4 < root < reported + 1e-9):
            factor_bad.append((vector, reported, root))

    ok = (
        all(worst[c] <= limits["C"] for c in GROWTH_TARGETS)
        and all(counts[c] > 0 for c in GROWTH_TARGETS)
        and not factor_bad
    )
    detail = "; ".join(
        f"{c}: C={worst[c]:.3f} over {counts[c]} instances (max measure {spans[c]})"
        for c in GROWTH_TARGETS
    )
    detail += f"; table factors reproduced: {len(TABLE_FACTORS) - len(factor_bad)}/{len(TABLE_FACTORS)}"
    if factor_bad:
        detail += f" bad={factor_bad}"
    return ok, detail


def _all_graphs_upto(max_n: int):
    for nv in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield nv, edges


def _connected(nv, edges) -> bool:
    """Whether the graph on vertices 1..nv is connected; past one vertex,
    that leaves no vertex isolated."""
    adj = {v: set() for v in range(1, nv + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    stack, seen = [1], {1}
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def _cover_counts_agree(g: SimpleGraph) -> bool:
    """#vc == #ec (mod 2), with the inclusion-exclusion evaluation standing
    in for direct edge-subset enumeration past 20 edges, where it has been
    cross-validated."""
    vc = count_vertex_covers(g)
    ec_ie = inclusion_exclusion_edge_covers(g)
    if len(g.edges) <= 20 and count_edge_covers(g) != ec_ie:
        return False
    return vc % 2 == ec_ie % 2


def criterion_7_parity_identities(quick: bool = False):
    bad = 0
    exhaustive = 0
    # exhaustive over all labeled connected graphs with <= 6 vertices; beyond
    # that labeled enumeration explodes, so 7..12 is covered by sampling
    for nv, edges in _all_graphs_upto(4 if quick else 6):
        if not _connected(nv, edges):
            continue
        g = SimpleGraph(range(1, nv + 1), edges)
        if not _cover_counts_agree(g):
            bad += 1
        exhaustive += 1
    sampled = 0
    for seed in range(_scale(1_000, quick)):
        rng = random.Random(50_000_000 + seed)
        g = random_graph(rng.randint(2, 12), rng.uniform(0.2, 0.7), seed)
        if any(g.degree(v) == 0 for v in g.vertices):
            continue
        if not _cover_counts_agree(g):
            bad += 1
        sampled += 1
    systems = 0
    for seed in range(_scale(1_000, quick)):
        rng = random.Random(51_000_000 + seed)
        nu = rng.randint(1, 12)
        universe = list(range(nu))
        family = [
            frozenset(rng.sample(universe, rng.randint(1, nu)))
            for _ in range(rng.randint(1, 8))
        ]
        if set().union(*family) != set(universe):
            continue  # an uncovered element is outside the identity's preconditions
        s = SetSystem(universe, family)
        if count_hitting_sets(s) % 2 != count_set_covers(s) % 2:
            bad += 1
        systems += 1
    floor = _scale(600, quick) // 2
    ok = bad == 0 and exhaustive > 0 and sampled >= floor and systems >= floor
    return ok, (
        f"cover identities: {exhaustive} exhaustive graphs, {sampled} sampled graphs, "
        f"{systems} set systems; failures: {bad}"
    )


def criterion_8_edge_cover_pipeline(quick: bool = False):
    want = _scale(500, quick)
    done = 0
    bad = 0
    seed = 0
    while done < want:
        rng = random.Random(60_000_000 + seed)
        seed += 1
        g = random_graph(rng.randint(2, 10), rng.uniform(0.25, 0.8), seed)
        if any(g.degree(v) == 0 for v in g.vertices):
            continue
        phi = gen_edge_cover_formula(g)
        got = solve_occ2(phi, Telemetry(strict=True))
        if got != count_vertex_covers(g) % 2 or got != inclusion_exclusion_edge_covers(g) % 2:
            bad += 1
        done += 1
    ok = bad == 0
    return ok, f"{done} graphs through encode-and-solve; mismatches: {bad}"


def criterion_9_determinism(quick: bool = False):
    rounds = _scale(1_000, quick)
    bad = 0
    for seed in range(rounds):
        rng = random.Random(70_000_000 + seed)
        phi = gen_random_docc(rng.randint(1, 12), rng.randint(2, 5), 1, 4, seed=seed)
        if parse_dimacs(write_dimacs(phi)) != phi:
            bad += 1
    # byte-identical reports under a fixed seed
    import os
    import tempfile

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus")
        os.mkdir(corpus)
        for i in range(6):
            phi = gen_random_docc(10 + i, 2 + i % 3, 1, 4, seed=i)
            with open(os.path.join(corpus, f"i{i}.cnf"), "w") as fh:
                fh.write(write_dimacs(phi))
        reports = []
        for _ in range(2):
            out = os.path.join(tmp, "report.jsonl")
            code = cli_main(["bench", "--corpus", corpus, "--output", out, "--seed", "7"])
            assert code == 0
            with open(out, "rb") as fh:
                reports.append(fh.read())
        deterministic = reports[0] == reports[1]
    ok = bad == 0 and deterministic
    return ok, (
        f"{rounds} DIMACS round trips ({bad} failures); "
        f"bench reports byte-identical: {deterministic}"
    )


CRITERIA = [
    ("1 oracle equivalence", criterion_1_oracle_equivalence),
    ("2 reduction soundness", criterion_2_rule_soundness),
    ("3 reduced-formula properties", criterion_3_reduced_properties),
    ("4 branching identities", criterion_4_branching_identities),
    ("5 measure ledgers", criterion_5_measure_ledgers),
    ("6 growth curves", criterion_6_growth_curves),
    ("7 parity identities", criterion_7_parity_identities),
    ("8 edge-cover pipeline", criterion_8_edge_cover_pipeline),
    ("9 determinism and format", criterion_9_determinism),
]


def run_all(quick: bool = False):
    results = []
    total0 = time.time()
    for name, fn in CRITERIA:
        t0 = time.time()
        ok, detail = fn(quick=quick)
        elapsed = time.time() - t0
        results.append((name, ok, detail))
        status = "PASS" if ok else "FAIL"
        print(f"criterion {name}: {status} ({elapsed:.1f}s) -- {detail}")
    print(f"total: {time.time() - total0:.1f}s")
    return results

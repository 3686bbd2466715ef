"""Time-to-verdict benchmark for xparity.

    python3 perfbench/run.py --limit-s 5 --workload occ2-cubic --seed 1 \
        --seconds 25 --trace 0

Builds a seeded pool of instances for the workload, renders each as DIMACS,
then solves the pool in a closed loop (one client, one thread, sequential)
until ``--seconds`` have passed and the pool has been solved at least once.
Each solve parses the DIMACS text and runs the solver the CLI's ``auto``
mode picks (``occ2`` for 2-occurrence input, ``length`` otherwise), or
``solve_positive_fib`` on docc-fib.  After the clock stops, every verdict is
checked against an independent reference (perfbench/refcount.py).

A shared host changes speed by up to a factor of two within seconds, so a
fixed pure-Python task (``calibrate``) is timed between attempts, and every
time the run reports is scaled to the speed at which that task takes
``CAL_REF_S``: the times read as on the tuning box at its median speed.  The
unscaled median is printed too.

With ``--trace 1`` the pool is solved once untraced and once with spans
around every layer's public functions (perfbench/tracing.py); per-layer
counts and self times come from the traced pass and the gap between the two
passes is the tracing overhead.

The last line of output is one JSON object with the metrics BENCHMARK.json
names: its end-to-end metrics with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 1 when any verdict is wrong or unverified.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import importlib
from dataclasses import dataclass

from refcount import ReferenceTooWide, cnf_parity, cycle_parity
from tracing import CUT_BOUND, STEP_KINDS, RULE_IDS, Tracer, layer_table
from workloads import WORKLOADS, make_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Instances per pool, sized so one pass takes about 17 s on a 2-core x86-64
# box: the run solves the whole pool, then goes round part of it again.
# Many small instances rather than a few large ones, so that a run's medians
# depend little on which instances its seed drew.
POOL_SIZE = {"occ2-cubic": 40, "length-regular": 160, "occ2-2cnf-cycles": 84, "docc-fib": 112}
SETUP_REPEATS = 5
# What ``calibrate`` takes on the 2-vCPU x86-64 box the benchmark was tuned
# on, at its median speed; times are reported as if measured at that speed.
CAL_REF_S = 0.016
XPARITY_MODULES = ("branching", "dimacs", "docc", "formula", "length", "occ2", "oracle",
                   "reducer", "telemetry")


@dataclass
class Attempt:
    index: int  # position in the pool
    seconds: float  # parse plus solve
    parity: int | None
    error: str | None
    nodes: int
    leaves: int
    ledger: int
    scale: float = 1.0  # CAL_REF_S over the calibration time around it

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def load_xparity() -> dict:
    """Import xparity afresh from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xparity", "__init__.py")):
        raise SystemExit(f"perfbench: no xparity sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "xparity" or n.startswith("xparity.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"xparity.{name}") for name in XPARITY_MODULES}
    if not os.path.abspath(mods["formula"].__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported xparity from {mods['formula'].__file__}")
    return mods


def solve(xp: dict, solver: str, text: str, tel) -> int:
    phi = xp["dimacs"].parse_dimacs(text)
    if solver == "positive-fib":
        return xp["docc"].solve_positive_fib(phi, telemetry=tel)
    if max((phi.degree(v) for v in phi.variables), default=0) <= 2:  # the CLI's auto rule
        return xp["occ2"].solve_occ2(phi, tel)
    return xp["length"].solve_length(phi, tel)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task that uses the objects the
    solvers use (frozensets of literals, occurrence dicts, sorting).  It
    shares the host's speed changes with the solvers but none of their
    code.  The cyclic garbage collector is off meanwhile: a collection
    walks the whole heap, whose size is not the host's speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for r in range(60):
            clauses = [frozenset((i * 7 + j * 13 + r) % 97 - 48 or 1 for j in range(3)) for i in range(120)]
            occ = {}
            for c in clauses:
                for lit in c:
                    occ.setdefault(abs(lit), []).append(c)
            sorted(occ, key=lambda v: (len(occ[v]), v))
            sum(1 for c in clauses if any(-lit in c for lit in c))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrated(run):
    """Time ``run()`` between two calibrations; returns (its result, its
    seconds, CAL_REF_S over the mean of the two calibration times)."""
    before = calibrate()
    t0 = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - t0
    return result, seconds, 2 * CAL_REF_S / (before + calibrate())


def attempt(xp: dict, pool, texts, index: int) -> Attempt:
    tel = xp["telemetry"].Telemetry()
    parity, error = None, None
    t0 = time.perf_counter()
    try:
        parity = solve(xp, pool[index].solver, texts[index], tel)
    except Exception as exc:  # a crash is a measured outcome, not a benchmark error
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return Attempt(index, elapsed, parity, error, tel.nodes, tel.leaves, len(tel.ledger))


def set_up(workload: str, seed: int):
    """Import xparity, build the pool and render it as DIMACS."""
    xp = load_xparity()
    pool = [make_instance(workload, seed, i) for i in range(POOL_SIZE[workload])]
    return xp, pool, [inst.dimacs() for inst in pool]


def closed_loop(xp: dict, pool, texts, seconds: float) -> list[Attempt]:
    """One pass over the pool, continued round-robin until ``seconds``
    (measured from the first solve) have passed.  Each attempt is scaled by
    the calibrations just before and after it."""
    attempts = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        a = attempt(xp, pool, texts, len(attempts) % len(pool))
        after = calibrate()
        a.scale = 2 * CAL_REF_S / (before + after)
        attempts.append(a)
        before = after
        if len(attempts) >= len(pool) and time.perf_counter() >= deadline:
            return attempts


def traced_pass(xp: dict, pool, texts, tracer: Tracer):
    """Each instance solved once untraced and once traced, back to back and
    in alternating order, so that drift in machine speed cancels out of the
    overhead.  Returns (untraced attempts, traced attempts)."""
    untraced, traced = [], []
    for i in range(len(pool)):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                try:
                    traced.append(attempt(xp, pool, texts, i))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(attempt(xp, pool, texts, i))
    return untraced, traced


def reference(inst) -> int:
    if inst.cycles:
        return int(all(cycle_parity(c) for c in inst.cycles))
    return cnf_parity(inst.nvars, inst.clauses)


def check_verdicts(pool, attempts) -> list[str]:
    """Outcome per attempt: "correct", "wrong", "unverified" or "failed".
    Prints every wrong verdict, unverifiable instance and failure (by
    exception type and message, with the instance seed)."""
    refs = {}
    for i, inst in enumerate(pool):
        try:
            refs[i] = reference(inst)
        except ReferenceTooWide as exc:
            print(f"unverified: {inst.seed}: {exc}")
    outcomes, reported = [], set()
    for a in attempts:
        seed = pool[a.index].seed
        if a.error is not None:
            outcomes.append("failed")
            if seed not in reported:
                print(f"failure: {seed}: {a.error}")
        elif a.index not in refs:
            outcomes.append("unverified")
        elif a.parity != refs[a.index]:
            outcomes.append("wrong")
            if seed not in reported:
                print(f"wrong verdict: {seed}: got {a.parity}, reference {refs[a.index]}")
        else:
            outcomes.append("correct")
        reported.add(seed)
    return outcomes


def tail(values):
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least ten samples above it, or the maximum when there are ten
    samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def growth(xp: dict, pool, texts, attempts) -> dict:
    """Median over the pool of leaves**(1/measure), per measure of the
    input formula (the fits against 1.1487^m3, 1.3248^m, 1.1193^n and
    1.1052^L)."""
    fits = {"m3": [], "m": [], "n": [], "L": []}
    for a in attempts[: len(pool)]:
        phi = xp["dimacs"].parse_dimacs(texts[a.index])
        for key, measure in (("m3", phi.m3), ("m", phi.m), ("n", phi.n), ("L", phi.length)):
            if measure > 0 and a.leaves > 0:
                fits[key].append(a.leaves ** (1.0 / measure))
    return {key: statistics.median(v) if v else 0.0 for key, v in fits.items()}


def end_to_end(attempts, outcomes, pool, setup_s: float, rss_mb: float, limit_s: float) -> dict:
    """Time metrics weigh every pool instance once, by the median of its
    scaled attempt times: the part of the pool a run solves twice then does
    not shift the mix of instances (the four length-regular shapes differ in
    cost)."""
    first = attempts[: len(pool)]
    runs = [[] for _ in pool]
    for a, outcome in zip(attempts, outcomes):
        # a failed attempt counts as missing the limit
        runs[a.index].append((a.scaled if a.error is None else max(a.scaled, limit_s), outcome))
    seconds = [statistics.median(t for t, _ in r) for r in runs]
    correct = [all(o == "correct" for _, o in r) for r in runs]
    tree_nodes = sum(a.nodes + a.leaves for a in first)
    tail_s, pct, samples = tail(seconds)
    raw = [statistics.median(a.seconds for a in attempts if a.index == i) for i in range(len(pool))]
    print(f"verdict_ms.tail is the p{pct:.2f} of {samples} instances")
    print(f"unscaled verdict_ms.p50: {1000 * statistics.median(raw)} ms"
          f"  (median scale {statistics.median(a.scale for a in attempts):.4f})")
    return {
        "setup_s": (setup_s, "s"),
        "verdict_ms.p50": (1000 * statistics.median(seconds), "ms"),
        "verdict_ms.tail": (1000 * tail_s, "ms"),
        "verdicts_per_s": (sum(correct) / sum(seconds), "1/s"),
        "nodes_per_s": (tree_nodes / sum(seconds), "1/s"),
        "tree_nodes": (tree_nodes, "count"),
        "tree_leaves": (sum(a.leaves for a in first), "count"),
        "decided_share": (sum(1 for c, s in zip(correct, seconds) if c and s <= limit_s) / len(pool), "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, traced, untraced, grow: dict) -> dict:
    """Per-layer metrics of the traced pass.  Self time is given in seconds
    and as a share of the traced wall time; the shares of all spans plus
    trace.unattributed sum to 1."""
    traced_s = sum(a.seconds for a in traced)
    untraced_s = sum(a.seconds for a in untraced)
    self_s = {label: ns / 1e9 for label, ns in zip(tracer.names, tracer.self_ns)}
    for group in ("occ2", "length", "branching", "formula", "telemetry"):
        self_s[group] = sum(v for n, v in self_s.items() if n.startswith(group + "."))
    self_s["trace.unattributed"] = traced_s - sum(tracer.self_ns) / 1e9
    out = {}
    for label, calls in zip(tracer.names, tracer.calls):
        out[f"{label}.calls"] = (calls, "count")
    for label, seconds in self_s.items():
        out[f"{label}.self_s"] = (seconds, "s")
        out[f"{label}.self_share"] = (seconds / traced_s, "share")
    stats = tracer.stats
    reducer_calls = tracer.call_count("reducer")
    out["reducer.firings"] = (sum(stats.firings.values()), "count")
    for rule_id in RULE_IDS:
        out[f"reducer.firings.{rule_id}"] = (stats.firings[rule_id], "count")
    out["reducer.in_length.mean"] = (stats.reducer_in_length / max(reducer_calls, 1), "literals")
    out["reducer.settled_share"] = (stats.reducer_settled / max(reducer_calls, 1), "share")
    cuts = stats.cut_fractions
    out["occ2.bisect.cut_fraction.p50"] = (statistics.median(cuts) if cuts else 0.0, "share")
    out["occ2.bisect.cut_fraction.max"] = (max(cuts, default=0.0), "share")
    out["occ2.bisect.above_bound"] = (sum(1 for c in cuts if c > CUT_BOUND + 1e-9), "count")
    for kind in STEP_KINDS:
        out[f"length.steps.{kind}"] = (stats.steps[kind], "count")
    branch_calls = sum(
        tracer.call_count(f"branching.{s}") for s in ("clause_branch", "simple_branch", "variable_branch")
    )
    out["branching.children.mean"] = (stats.children / max(branch_calls, 1), "children")
    out["telemetry.ledger_entries"] = (sum(a.ledger for a in traced), "count")
    for key, value in grow.items():
        out[f"tree.growth.{key}"] = (value, "base")
    out["trace.traced_wall_s"] = (traced_s, "s")
    out["trace.untraced_wall_s"] = (untraced_s, "s")
    out["trace.overhead_share"] = (traced_s / untraced_s - 1, "share")
    return out


def declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def select(metrics: dict, wanted: list) -> dict:
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"perfbench: {spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--limit-s", type=float, required=True,
                    help="per-instance time limit behind decided_share")
    args = ap.parse_args(argv)
    wanted = declared("per_layer" if args.trace else "end_to_end")

    setups = []
    for _ in range(SETUP_REPEATS):
        (xp, pool, texts), seconds, scale = calibrated(lambda: set_up(args.workload, args.seed))
        setups.append(seconds * scale)
    setup_s = statistics.median(setups)
    attempt(xp, pool, texts, 0)  # warm-up, outside every measurement

    if args.trace:
        tracer = Tracer(layer_table(xp))
        untraced, traced = traced_pass(xp, pool, texts, tracer)
        attempts = untraced + traced
    else:
        attempts = closed_loop(xp, pool, texts, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the reference runs

    outcomes = check_verdicts(pool, attempts)
    failed, wrong, unverified = (outcomes.count(o) for o in ("failed", "wrong", "unverified"))

    if args.trace:
        metrics = per_layer(tracer, traced, untraced, growth(xp, pool, texts, untraced))
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.bin"))
    else:
        metrics = end_to_end(attempts, outcomes, pool, setup_s, rss_mb, args.limit_s)
    print(f"attempts: {len(attempts)}  pool: {len(pool)}  failed_share: {failed / len(attempts):.6f}"
          f"  wrong_verdicts: {wrong}  unverified: {unverified}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value} {unit}")
    ok = wrong == 0 and unverified == 0
    print(json.dumps({"correct": ok, "attempted": len(attempts), "failed": failed,
                      "metrics": select(metrics, wanted)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

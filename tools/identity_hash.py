"""Identity hashes of the solvers' observable behaviour.

    python3 tools/identity_hash.py

Solves fixed instance groups with the xparity sources of this checkout and
prints one sha256 per group, then one over all groups.  Each instance
contributes its parity (or the exception it raised), its node and leaf
counts, ``len(tel.ledger)``, its JSON-lines telemetry stream and the trace
of every ``reduce_formula`` call it made (rule id plus detail), so two
checkouts that print the same hashes took the same search trees, filed the
same records and fired the same rules in the same order.

Groups:
  pool/<workload>   the seed-3 pool of each benchmark workload
                    (perfbench/workloads.py), solved as perfbench/run.py does;
  length-circulant  solve_length on circulant_triples(n), n = 20..59;
  docc-random       solve_docc on gen_random_docc(30, 3, 2, 4, seed=s),
                    s = 0..29;
  occ2-cubic-eps2   solve_occ2 with n_eps = 2 on the seed-3 occ2-cubic pool.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (perfbench/run.py: pool sizes, xparity import, auto dispatch)
from workloads import WORKLOADS, make_instance  # noqa: E402

SEED = 3
SOLVER_MODULES = ("docc", "length", "occ2")  # every solver module that calls reduce_formula


def traced(xp: dict):
    """Bind a recording ``reduce_formula`` in each solver module; returns the
    list it appends each call's trace to."""
    traces = []
    original = xp["reducer"].reduce_formula

    def reduce_formula(*args, **kwargs):
        out = original(*args, **kwargs)
        traces.append([[rule, str(detail)] for rule, detail in out.trace])
        return out

    for name in SOLVER_MODULES:
        xp[name].reduce_formula = reduce_formula
    return traces


def record(xp: dict, traces: list, solve) -> bytes:
    """One instance's observable behaviour as canonical JSON bytes."""
    sink = io.StringIO()
    tel = xp["telemetry"].Telemetry(sink)
    del traces[:]
    try:
        parity = solve(tel)
    except Exception as exc:  # a crash is part of the behaviour hashed
        parity = f"{type(exc).__name__}: {exc}"
    return json.dumps(
        [parity, tel.nodes, tel.leaves, len(tel.ledger), sink.getvalue(), traces],
        separators=(",", ":"),
    ).encode()


def groups(xp: dict):
    """(name, list of solve(tel) callables) for every group."""
    pools = {w: [make_instance(w, SEED, i) for i in range(run.POOL_SIZE[w])] for w in WORKLOADS}
    for w in WORKLOADS:
        yield f"pool/{w}", [
            (lambda tel, inst=inst: run.solve(xp, inst.solver, inst.dimacs(), tel))
            for inst in pools[w]
        ]
    verify, generators = xp["verify"], xp["generators"]
    yield "length-circulant", [
        (lambda tel, n=n: xp["length"].solve_length(verify.circulant_triples(n), tel))
        for n in range(20, 60)
    ]
    yield "docc-random", [
        (lambda tel, s=s: xp["docc"].solve_docc(
            generators.gen_random_docc(30, 3, 2, 4, seed=s), telemetry=tel))
        for s in range(30)
    ]
    occ2 = xp["occ2"]
    cfg = occ2.Occ2Config(n_eps=2)
    yield "occ2-cubic-eps2", [
        (lambda tel, inst=inst: occ2.solve_occ2(
            xp["dimacs"].parse_dimacs(inst.dimacs()), tel, cfg))
        for inst in pools["occ2-cubic"]
    ]


def main() -> int:
    xp = run.load_xparity()
    for name in ("generators", "verify"):
        xp[name] = importlib.import_module(f"xparity.{name}")
    traces = traced(xp)
    overall = hashlib.sha256()
    for name, solves in groups(xp):
        h = hashlib.sha256()
        for solve in solves:
            h.update(hashlib.sha256(record(xp, traces, solve)).digest())
        overall.update(h.digest())
        print(f"{name}: {h.hexdigest()}  ({len(solves)} instances)", flush=True)
    print(f"overall: {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

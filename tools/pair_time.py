"""Time two checkouts of xparity against each other in one process.

    python3 tools/pair_time.py BEFORE AFTER --workload length-regular \
        --seed 11 --rounds 10

BEFORE and AFTER are checkout directories (a ``git clone`` or ``git
archive`` of each commit).  Both ``xparity`` packages are imported into
this process, each as perfbench/run.py's ``load_xparity`` imports one, and
the benchmark pool of the workload is built once (perfbench/workloads.py of
this checkout).  Each round solves every pool instance with both, back to
back, as perfbench/run.py does (``run.attempt``: parse plus solve), and
alternates which checkout goes first from one instance to the next and from
one round to the next.  Parities must agree.  Each round prints the two
total times and their ratio AFTER / BEFORE; the last line is the median
ratio over the rounds.

The host's speed drifts within seconds, and a separate-process run takes
that drift whole.  Back-to-back solves share it: on a shared 2-core x86-64
host, five rounds of the length-regular pool (seed 11) took 3.19 to 3.64 s
per checkout, while their ratios stayed within 0.978 to 1.000.  This
sizes a change before the benchmark's paired runs; it does not replace
them, since the benchmark times separate processes, calibrated, with their
own start-up.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (perfbench/run.py: pool sizes, xparity import, timed attempts)
from workloads import WORKLOADS, make_instance  # noqa: E402


def load(checkout: str) -> dict:
    """The xparity modules of ``checkout``, imported afresh; modules
    imported earlier from another checkout stay usable."""
    root, run.ROOT = run.ROOT, os.path.abspath(checkout)
    try:
        return run.load_xparity()
    finally:
        run.ROOT = root


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)

    sides = [load(args.before), load(args.after)]
    pool = [make_instance(args.workload, args.seed, i) for i in range(run.POOL_SIZE[args.workload])]
    texts = [inst.dimacs() for inst in pool]
    for xp in sides:
        run.attempt(xp, pool, texts, 0)  # warm-up
    ratios = []
    for r in range(args.rounds):
        totals = [0.0, 0.0]
        for i in range(len(pool)):
            first = (r + i) % 2
            got = {}
            for side in (first, 1 - first):
                a = run.attempt(sides[side], pool, texts, i)
                if a.error is not None:
                    raise SystemExit(f"pair_time: {pool[i].seed}: {a.error}")
                got[side] = a.parity
                totals[side] += a.seconds
            if got[0] != got[1]:
                raise SystemExit(f"pair_time: {pool[i].seed}: parities {got[0]} and {got[1]}")
        ratios.append(totals[1] / totals[0])
        print(f"round {r}: before {totals[0]:.3f} s  after {totals[1]:.3f} s  ratio {ratios[-1]:.4f}",
              flush=True)
    print(f"median ratio {statistics.median(ratios):.4f}  (min {min(ratios):.4f}, max {max(ratios):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded instance generators for the four benchmark workloads.

Every instance is drawn from ``random.Random(f"{workload}/{seed}/{index}")``,
so one (workload, seed) pair always yields the same pool.  Generators build
plain clause lists; nothing here imports xparity, so the reference parities
never depend on the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from refcount import cycle_parity

WORKLOADS = ("occ2-cubic", "length-regular", "occ2-2cnf-cycles", "docc-fib")

OCC2_CUBIC_VERTICES = 50
# Cycle lengths of every occ2-2cnf-cycles instance (240 variables), all past
# the 10-variable cap of reduction rules R12/R13; only their order and signs
# are drawn, so instances cost about the same and a run's figures do not
# hang on how many long cycles its seed happened to draw.
CYCLE_LENGTHS = (20, 30, 40, 50, 60, 40)
DOCC_FIB_VARS = 24


@dataclass
class Instance:
    seed: str  # the per-instance generator seed, reported with failures
    nvars: int
    clauses: list
    solver: str  # "auto" (occ2 or length, as the CLI picks) or "positive-fib"
    cycles: list = field(default_factory=list)  # occ2-2cnf-cycles only

    def dimacs(self) -> str:
        lines = [f"p cnf {self.nvars} {len(self.clauses)}"]
        lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        return "\n".join(lines) + "\n"


def _repair(rng: random.Random, slots: list, k: int, bad) -> list:
    """Configuration model with repair: cut ``slots`` into groups of k and,
    while ``bad(groups)`` names a group, swap one of its slots with a random
    slot.  Cheaper and steadier than redrawing everything on a conflict."""
    rng.shuffle(slots)
    while True:
        groups = [slots[i : i + k] for i in range(0, len(slots), k)]
        wrong = bad(groups)
        if not wrong:
            return groups
        for g in wrong:
            p, q = g * k + rng.randrange(k), rng.randrange(len(slots))
            slots[p], slots[q] = slots[q], slots[p]


def _repeats(groups) -> list:
    return [i for i, g in enumerate(groups) if len(set(g)) < len(g)]


def _loops_or_doubles(groups) -> list:
    seen, wrong = set(), []
    for i, (u, v) in enumerate(groups):
        edge = (min(u, v), max(u, v))
        if u == v or edge in seen:
            wrong.append(i)
        seen.add(edge)
    return wrong


def cubic_graph(rng: random.Random, nv: int) -> list:
    """Random simple cubic graph on 0..nv-1: three copies of each vertex,
    shuffled and paired off in order, loops and double edges repaired."""
    pairs = _repair(rng, [v for v in range(nv) for _ in range(3)], 2, _loops_or_doubles)
    return sorted((min(u, v), max(u, v)) for u, v in pairs)


def edge_cover_clauses(nv: int, edges: list) -> list:
    """One positive variable per edge, one clause per vertex."""
    incident = [[] for _ in range(nv)]
    for i, (u, v) in enumerate(edges, start=1):
        incident[u].append(i)
        incident[v].append(i)
    return incident


def regular_clauses(rng: random.Random, n: int, d: int, k: int, signed: bool) -> list:
    """n*d/k clauses of k distinct variables in which every variable of
    1..n occurs exactly d times; signs are random when ``signed``."""
    if (n * d) % k:
        raise ValueError(f"n*d = {n * d} is not a multiple of k = {k}")
    clauses = _repair(rng, [v for v in range(1, n + 1) for _ in range(d)], k, _repeats)
    if signed:
        clauses = [[v if rng.random() < 0.5 else -v for v in c] for c in clauses]
    return clauses


def signed_cycle(rng: random.Random, first: int, k: int, parity: int) -> list:
    """A cycle over first..first+k-1 as its clause links (p, q), p a literal
    of v_i and q one of v_{i+1}, with random signs redrawn until the cycle
    has the given parity."""
    vs = list(range(first, first + k))
    while True:
        links = [
            (rng.choice((1, -1)) * vs[i], rng.choice((1, -1)) * vs[(i + 1) % k])
            for i in range(k)
        ]
        if cycle_parity(links) == parity:
            return links


def _occ2_cubic(rng: random.Random):
    edges = cubic_graph(rng, OCC2_CUBIC_VERTICES)
    return len(edges), edge_cover_clauses(OCC2_CUBIC_VERTICES, edges), "auto", []


# (n, d, k, signed): one shape per length step family, taken in turn
LENGTH_SHAPES = (
    (24, 4, 3, True),  # a 4-variable everywhere: step 1
    (30, 4, 4, True),  # 4-clauses on 3-variables after step 1: step 2
    (42, 3, 3, True),  # mixed 3-variables: steps 3.1 / 3.2
    (36, 3, 3, False),  # pure 3-variables: steps 4 / 5
)


def _length_regular(rng: random.Random, index: int):
    n, d, k, signed = LENGTH_SHAPES[index % len(LENGTH_SHAPES)]
    return n, regular_clauses(rng, n, d, k, signed), "auto", []


def _occ2_2cnf_cycles(rng: random.Random, index: int):
    # A random signed cycle is odd about one time in three, so a union of
    # several would almost always be even and a solver answering 0 would
    # pass.  Every cycle is drawn odd, and every second instance then gets
    # an even last cycle: verdicts split evenly and the solver must reach
    # the end.  (An even cycle early in the formula lets the reducer settle
    # sooner, which would make the cost hang on where it was drawn.)
    lengths = list(CYCLE_LENGTHS)
    rng.shuffle(lengths)
    cycles, first = [], 1
    for i, k in enumerate(lengths):
        even_last = index % 2 == 1 and i == len(lengths) - 1
        cycles.append(signed_cycle(rng, first, k, parity=0 if even_last else 1))
        first += k
    clauses = [list(link) for cycle in cycles for link in cycle]
    return first - 1, clauses, "auto", cycles


def _docc_fib(rng: random.Random):
    n = DOCC_FIB_VARS
    return n, regular_clauses(rng, n, 3, 3, signed=False), "positive-fib", []


def make_instance(workload: str, seed: int, index: int) -> Instance:
    inst_seed = f"{workload}/{seed}/{index}"
    rng = random.Random(inst_seed)
    if workload == "occ2-cubic":
        made = _occ2_cubic(rng)
    elif workload == "length-regular":
        made = _length_regular(rng, index)
    elif workload == "occ2-2cnf-cycles":
        made = _occ2_2cnf_cycles(rng, index)
    elif workload == "docc-fib":
        made = _docc_fib(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    nvars, clauses, solver, cycles = made
    return Instance(inst_seed, nvars, clauses, solver, cycles)

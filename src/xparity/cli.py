"""Command line driver: solve, gen, bench, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .docc import solve_docc, solve_positive_fib
from .formula import Formula
from .generators import GenerationError, gen_edge_cover_formula, gen_random_docc, random_graph
from .length import solve_length
from .occ2 import ContractViolation, Occ2Config, solve_2cnf, solve_occ2
from .oracle import CapExceeded, SimpleGraph, brute_parity
from .reducer import ReducerInvariantError, reduce_formula
from .telemetry import LedgerViolation, Telemetry

REPORT_SCHEMA = 1
_SOLVERS = ("auto", "occ2", "length", "docc", "positive-fib", "2cnf", "brute")


@dataclass
class RunReport:
    schema: int
    instance: str
    solver: str
    parity: int
    n: int
    m: int
    length: int
    nodes: int
    leaves: int
    max_depth: int
    ledger: dict
    seed: int
    growth: dict
    wall_time_ms: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _growth_fits(phi: Formula, leaves: int) -> dict:
    out = {}
    for name, measure in (("n", phi.n), ("m", phi.m), ("L", phi.length), ("m3", phi.m3)):
        if measure > 0 and leaves > 0:
            out[name] = round(leaves ** (1.0 / measure), 6)
    return out


def _pick_solver(name: str, phi: Formula):
    if name == "auto":
        max_deg = max((phi.degree(v) for v in phi.variables), default=0)
        return "occ2" if max_deg <= 2 else "length"
    return name


def _run_solver(name: str, phi: Formula, tel: Telemetry, seed: int) -> int:
    if name == "occ2":
        return solve_occ2(phi, tel, Occ2Config(seed=seed))
    if name == "length":
        return solve_length(phi, tel, Occ2Config(seed=seed))
    if name == "docc":
        return solve_docc(phi, tel, Occ2Config(seed=seed))
    if name == "positive-fib":
        return solve_positive_fib(phi, telemetry=tel)
    if name == "2cnf":
        return solve_2cnf(phi, tel)
    if name == "brute":
        return brute_parity(phi)
    raise ValueError(f"unknown solver {name}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def cmd_solve(args) -> int:
    text = _read_input(args.input)
    phi = parse_dimacs(text)
    sink = open(args.telemetry, "w") if args.telemetry else None
    try:
        tel = Telemetry(sink=sink, strict=True)
        solver = _pick_solver(args.solver, phi)
        t0 = time.perf_counter()
        parity = _run_solver(solver, phi, tel, args.seed)
        elapsed = (time.perf_counter() - t0) * 1000
    except (ReducerInvariantError, LedgerViolation) as exc:
        if not args.telemetry:
            raise
        repro = args.telemetry + ".cnf"
        with open(repro, "w") as fh:
            fh.write(write_dimacs(phi))
        raise type(exc)(f"{exc} (input written to {repro})") from exc
    finally:
        if sink:
            sink.close()
    print(f"parity: {parity}")
    print(
        f"solver: {solver}  n: {phi.n}  m: {phi.m}  L: {phi.length}  "
        f"nodes: {tel.nodes}  leaves: {tel.leaves}  depth: {tel.max_depth}"
    )
    if args.explain and solver in ("positive-fib", "brute"):
        print(f"explain: solver {solver} runs no reduction")
    elif args.explain:
        # the other solvers all start with this same reduction of the input
        out = reduce_formula(phi)
        for rule, detail in out.trace:
            print(f"explain: {rule}: {detail}")
        if out.settled:
            print("explain: settled with parity 0 during reduction")
    if args.oracle_check:
        try:
            want = brute_parity(phi)
        except CapExceeded as exc:
            print(f"oracle: skipped ({exc})")
        else:
            if want == parity:
                print("oracle: agree")
            else:
                print(f"oracle: MISMATCH (oracle {want}, solver {parity})")
                return 1
    if args.timing:
        print(f"wall_ms: {elapsed:.3f}")
    if args.exit_parity:
        return 10 if parity == 1 else 20
    return 0


def _parse_graph(spec: str, seed: int) -> SimpleGraph:
    if spec == "k3":
        return SimpleGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    kind, _, rest = spec.partition(":")
    if kind == "path":
        n = int(rest)
        return SimpleGraph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if kind == "cycle":
        n = int(rest)
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
        return SimpleGraph(range(1, n + 1), edges)
    if kind == "random":
        n_s, _, p_s = rest.partition(",")
        return random_graph(int(n_s), float(p_s), seed)
    raise ValueError(f"unknown graph spec {spec!r}")


def cmd_gen(args) -> int:
    if args.family == "random":
        phi = gen_random_docc(
            args.n,
            args.d,
            args.min_len,
            args.max_len,
            m=args.m,
            seed=args.seed,
            polarity=args.polarity,
        )
    elif args.family == "edge-cover":
        graph = _parse_graph(args.graph, args.seed)
        phi = gen_edge_cover_formula(graph)
    else:
        raise ValueError(f"unknown family {args.family}")
    text = write_dimacs(phi)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    paths = sorted(
        os.path.join(args.corpus, f)
        for f in os.listdir(args.corpus)
        if f.endswith(".cnf")
    )
    out = open(args.output, "w") if args.output and args.output != "-" else sys.stdout
    try:
        for path in paths:
            phi = parse_dimacs(_read_input(path))
            tel = Telemetry(strict=True)
            solver = _pick_solver(args.solver, phi)
            t0 = time.perf_counter()
            parity = _run_solver(solver, phi, tel, args.seed)
            elapsed = (time.perf_counter() - t0) * 1000
            report = RunReport(
                schema=REPORT_SCHEMA,
                instance=os.path.basename(path),
                solver=solver,
                parity=parity,
                n=phi.n,
                m=phi.m,
                length=phi.length,
                nodes=tel.nodes,
                leaves=tel.leaves,
                max_depth=tel.max_depth,
                ledger=tel.ledger_summary(),
                seed=args.seed,
                growth=_growth_fits(phi, tel.leaves),
                wall_time_ms=round(elapsed, 3) if args.timing else None,
            )
            out.write(report.to_json() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(quick=args.quick)
    return 0 if all(ok for _, ok, _ in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xparity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one DIMACS instance")
    p.add_argument("--solver", default="auto", choices=_SOLVERS)
    p.add_argument("--input", required=True, help="DIMACS path or - for stdin")
    p.add_argument("--telemetry", help="write JSON-lines telemetry to this path")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--explain", action="store_true", help="print the reduction trace")
    p.add_argument("--exit-parity", action="store_true",
                   help="exit 10 when parity is odd, 20 when even")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gen", help="generate instances as DIMACS")
    p.add_argument("--family", default="random", choices=["random", "edge-cover"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--m", type=int)
    p.add_argument("--polarity", default="mixed", choices=["mixed", "positive"])
    p.add_argument("--graph", default="k3", help="k3 | path:N | cycle:N | random:N,P")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--output", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="solve a corpus directory, one report line each")
    p.add_argument("--corpus", required=True)
    p.add_argument("--solver", default="auto", choices=_SOLVERS)
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--output", default="-")
    p.add_argument("--timing", action="store_true",
                   help="include wall time (breaks byte-for-byte determinism)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the acceptance property suites")
    p.add_argument("--quick", action="store_true", help="scaled-down smoke variant")
    p.set_defaults(fn=cmd_verify)
    return parser


def _env_seed() -> int:
    raw = os.environ.get("XPARITY_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"XPARITY_SEED must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (DimacsError, GenerationError, ContractViolation, CapExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        # resource exhaustion on a too large input, not a broken invariant
        message = _one_line(exc) or "resources exhausted"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    except (ReducerInvariantError, LedgerViolation) as exc:
        print(f"error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 3


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())

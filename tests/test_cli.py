import io
import json
import random

import pytest

from test_occ2 import cubic_edge_cover
from xparity import cli
from xparity.cli import main
from xparity.dimacs import parse_dimacs, write_dimacs
from xparity.generators import gen_edge_cover_formula, gen_random_docc, random_graph
from xparity.occ2 import solve_occ2
from xparity.oracle import SimpleGraph, brute_parity
from xparity.reducer import ReducerInvariantError
from xparity.telemetry import LedgerViolation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, phi, name="f.cnf"):
    path = tmp_path / name
    path.write_text(write_dimacs(phi))
    return str(path)


def test_solve_prints_parity_and_stats(tmp_path, capsys):
    phi = gen_random_docc(10, 2, 2, 3, seed=7)
    path = write_instance(tmp_path, phi)
    code, out, _ = run(capsys, "solve", "--solver", "auto", "--input", path)
    assert code == 0
    assert out.startswith(f"parity: {brute_parity(phi)}")
    assert "solver: occ2" in out


def test_solve_oracle_check(tmp_path, capsys):
    phi = gen_random_docc(9, 3, 1, 4, seed=3)
    path = write_instance(tmp_path, phi)
    code, out, _ = run(capsys, "solve", "--input", path, "--oracle-check")
    assert code == 0
    assert "oracle: agree" in out


def test_solve_exit_parity_channel(tmp_path, capsys):
    odd = write_instance(tmp_path, parse_dimacs("p cnf 1 1\n1 0\n"), "odd.cnf")
    code, _, _ = run(capsys, "solve", "--input", odd, "--exit-parity")
    assert code == 10
    even = write_instance(tmp_path, parse_dimacs("p cnf 2 1\n1 0\n"), "even.cnf")
    code, _, _ = run(capsys, "solve", "--input", even, "--exit-parity")
    assert code == 20


def test_solve_every_solver_agrees(tmp_path, capsys):
    phi = gen_random_docc(10, 2, 1, 3, seed=11)
    path = write_instance(tmp_path, phi)
    want = f"parity: {brute_parity(phi)}"
    for solver in ("auto", "occ2", "length", "docc", "brute"):
        code, out, _ = run(capsys, "solve", "--solver", solver, "--input", path)
        assert code == 0 and out.startswith(want), solver


def test_solve_docc_beyond_oracle_scale(tmp_path, capsys):
    phi = cubic_edge_cover(random.Random(24), 24)
    path = write_instance(tmp_path, phi)
    code, out, _ = run(capsys, "solve", "--solver", "docc", "--input", path)
    assert code == 0
    assert out.startswith(f"parity: {solve_occ2(phi)}")


def test_solve_positive_fib_deep_tree(tmp_path, capsys):
    # 1,500 unit clauses: the search tree is a path 1,500 nodes deep
    n = 1500
    path = tmp_path / "units.cnf"
    path.write_text(f"p cnf {n} {n}\n" + "".join(f"{i} 0\n" for i in range(1, n + 1)))
    code, out, _ = run(capsys, "solve", "--solver", "positive-fib", "--input", str(path))
    assert code == 0
    assert out.startswith("parity: 1")


def test_solve_explain_lists_rules(tmp_path, capsys):
    path = write_instance(tmp_path, parse_dimacs("p cnf 2 2\n1 0\n1 2 0\n"))
    code, out, _ = run(capsys, "solve", "--input", path, "--explain")
    assert code == 0
    assert "explain: R" in out


def test_solve_explain_names_no_reduction_for_unreducing_solvers(tmp_path, capsys):
    # R7 would fire on this input, but these two solvers never reduce it
    path = write_instance(tmp_path, parse_dimacs("p cnf 3 1\n1 2 3 0\n"))
    for solver in ("positive-fib", "brute"):
        code, out, _ = run(capsys, "solve", "--solver", solver, "--input", path, "--explain")
        assert code == 0
        explain = [line for line in out.splitlines() if line.startswith("explain:")]
        assert explain == [f"explain: solver {solver} runs no reduction"]


def test_solve_telemetry_stream(tmp_path, capsys):
    phi = gen_random_docc(14, 3, 2, 4, seed=5)
    path = write_instance(tmp_path, phi)
    sink = tmp_path / "tel.jsonl"
    code, _, _ = run(capsys, "solve", "--input", path, "--telemetry", str(sink))
    assert code == 0
    lines = [json.loads(l) for l in sink.read_text().splitlines() if l]
    assert lines and all("kind" in r for r in lines)


def test_2cnf_solver_reports_what_occ2_reports(tmp_path, capsys):
    path = write_instance(tmp_path, parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n"))
    seen = {}
    for solver in ("2cnf", "occ2"):
        sink = tmp_path / f"{solver}.jsonl"
        code, out, _ = run(
            capsys, "solve", "--solver", solver, "--input", path, "--telemetry", str(sink)
        )
        assert code == 0
        seen[solver] = (out.replace(f"solver: {solver}", "solver: -"), sink.read_text())
    assert seen["2cnf"] == seen["occ2"]
    out, stream = seen["2cnf"]
    assert "leaves: 1" in out and stream


def test_2cnf_solver_refuses_a_long_clause(tmp_path, capsys):
    path = write_instance(tmp_path, parse_dimacs("p cnf 3 1\n1 2 3 0\n"))
    code, _, err = run(capsys, "solve", "--solver", "2cnf", "--input", path)
    assert code == 1
    assert err == "error: clause (1, 2, 3) too long for the 2-CNF solver\n"


def stub_criteria(monkeypatch, *oks) -> list:
    """Replace the acceptance criteria by stubs returning ``oks``; returns
    the quick flag of each call."""
    from xparity import verify

    calls = []

    def stub(ok):
        def criterion(quick=False):
            calls.append(quick)
            return ok, "stub"

        return criterion

    monkeypatch.setattr(verify, "CRITERIA", [(f"s{i}", stub(ok)) for i, ok in enumerate(oks)])
    return calls


def test_verify_fails_on_a_failing_criterion(capsys, monkeypatch):
    calls = stub_criteria(monkeypatch, True, False)
    code, out, _ = run(capsys, "verify")
    assert code == 2 and calls == [False, False]
    assert "criterion s0: PASS" in out and "criterion s1: FAIL" in out


def test_verify_passes_and_runs_quick(capsys, monkeypatch):
    calls = stub_criteria(monkeypatch, True, True)
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0 and calls == [True, True]
    assert "FAIL" not in out and out.splitlines()[-1].startswith("total:")


def test_gen_random_roundtrip(capsys):
    code, out, _ = run(capsys, "gen", "--family", "random", "--n", "10", "--d", "2", "--seed", "7")
    assert code == 0
    phi = parse_dimacs(out)
    assert phi == gen_random_docc(10, 2, 2, 3, seed=7)


def test_gen_edge_cover_k3(capsys):
    code, out, _ = run(capsys, "gen", "--family", "edge-cover", "--graph", "k3")
    assert code == 0
    phi = parse_dimacs(out)
    assert phi.n == 3 and phi.m == 3
    assert all(l > 0 for c in phi.clauses for l in c)


def test_bench_reports(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        phi = gen_random_docc(8 + i, 2, 2, 3, seed=i)
        (corpus / f"i{i}.cnf").write_text(write_dimacs(phi))
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "bench", "--corpus", str(corpus), "--output", str(out_path))
    assert code == 0
    reports = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(reports) == 3
    for r in reports:
        assert r["schema"] == 1
        assert r["parity"] in (0, 1)
        assert r["wall_time_ms"] is None  # timing off: byte determinism


def test_bench_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        (corpus / f"i{i}.cnf").write_text(write_dimacs(gen_random_docc(9 + i, 2, 2, 3, seed=i)))
    outs = []
    for run_idx in range(2):
        path = tmp_path / f"r{run_idx}.jsonl"
        assert main(["bench", "--corpus", str(corpus), "--output", str(path), "--seed", "3"]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--input", str(tmp_path / "missing.cnf"))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    code, _, err = run(capsys, "solve", "--input", str(bad))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "gen", "--family", "random", "--n", "2", "--d", "2", "--m", "9")
    assert code == 1 and "error:" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("XPARITY_SEED", "7")
    code, out, _ = run(capsys, "gen", "--family", "random", "--n", "10", "--d", "2")
    assert code == 0
    assert parse_dimacs(out) == gen_random_docc(10, 2, 2, 3, seed=7)


def test_env_seed_rejects_non_integer(capsys, monkeypatch):
    monkeypatch.setenv("XPARITY_SEED", "7x")
    code, out, err = run(capsys, "gen", "--family", "random", "--n", "10", "--d", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "XPARITY_SEED" in err


@pytest.mark.parametrize("error", [ReducerInvariantError, LedgerViolation])
def test_invariant_failure_exit_code_and_repro(tmp_path, capsys, monkeypatch, error):
    def failing_solver(*_):
        raise error("sides failed\nto alternate")

    monkeypatch.setattr(cli, "_run_solver", failing_solver)
    phi = parse_dimacs("p cnf 4 2\n1 -2 0\n3 0\n")
    path = write_instance(tmp_path, phi)
    code, _, err = run(capsys, "solve", "--input", path)
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"error: {error.__name__}: ")
    sink = tmp_path / "tel.jsonl"
    code, _, err = run(capsys, "solve", "--input", path, "--telemetry", str(sink))
    assert code == 3 and err.count("\n") == 1
    repro = tmp_path / "tel.jsonl.cnf"
    assert str(repro) in err
    assert parse_dimacs(repro.read_text()) == phi


def test_huge_header_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 1000000000 1\n1 2 0\n")
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 1 and not out
    assert err.startswith("error: header declares 1000000000 variables") and err.count("\n") == 1


@pytest.mark.parametrize("exhausted", [MemoryError, RecursionError])
def test_resource_exhaustion_is_one_error_line(tmp_path, capsys, monkeypatch, exhausted):
    path = write_instance(tmp_path, gen_random_docc(10, 2, 2, 3, seed=7))

    def parse(_):
        raise exhausted()

    monkeypatch.setattr(cli, "parse_dimacs", parse)
    code, out, err = run(capsys, "solve", "--input", path)
    assert code == 1 and not out
    assert err.startswith(f"error: {exhausted.__name__}: ") and err.count("\n") == 1


def test_seed_reaches_the_dual_solves_of_docc(tmp_path, capsys, monkeypatch):
    # solve_docc hands the CLI's Occ2Config to every solve_length on a dual
    from xparity import docc
    from xparity.occ2 import Occ2Config

    configs = []
    solve_length = docc.solve_length

    def recorder(phi, tel=None, config=None):
        configs.append(config)
        return solve_length(phi, tel, config)

    monkeypatch.setattr(docc, "solve_length", recorder)
    phi = gen_random_docc(16, 3, 2, 4, seed=0)
    path = write_instance(tmp_path, phi)
    code, out, _ = run(capsys, "solve", "--input", path, "--solver", "docc", "--seed", "7")
    assert code == 0 and out.startswith(f"parity: {brute_parity(phi)}\n"), out
    assert configs and all(c == Occ2Config(seed=7) for c in configs), configs


def test_solve_reads_stdin_and_reports_wall_time(capsys, monkeypatch):
    phi = gen_random_docc(10, 2, 2, 3, seed=7)
    monkeypatch.setattr("sys.stdin", io.StringIO(write_dimacs(phi)))
    code, out, _ = run(capsys, "solve", "--input", "-", "--timing")
    assert code == 0 and out.startswith(f"parity: {brute_parity(phi)}\n")
    (wall,) = [l for l in out.splitlines() if l.startswith("wall_ms: ")]
    assert float(wall.split()[1]) >= 0


def test_oracle_check_skips_past_the_cap(tmp_path, capsys):
    phi = cubic_edge_cover(random.Random(0), 20)
    assert phi.n == 30
    code, out, _ = run(capsys, "solve", "--input", write_instance(tmp_path, phi), "--oracle-check")
    assert code == 0 and out.startswith(f"parity: {solve_occ2(phi)}\n")
    assert "oracle: skipped (30 variables exceeds oracle cap 24)" in out


def test_oracle_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    phi = gen_random_docc(10, 2, 2, 3, seed=7)
    want = brute_parity(phi)
    monkeypatch.setattr(cli, "_run_solver", lambda *_: 1 - want)
    code, out, _ = run(capsys, "solve", "--input", write_instance(tmp_path, phi), "--oracle-check")
    assert code == 1
    assert f"oracle: MISMATCH (oracle {want}, solver {1 - want})" in out


def test_gen_writes_output_file(tmp_path, capsys):
    path = tmp_path / "out.cnf"
    code, out, _ = run(capsys, "gen", "--n", "10", "--seed", "7", "--output", str(path))
    assert code == 0 and out == ""
    assert parse_dimacs(path.read_text()) == gen_random_docc(10, 2, 2, 3, seed=7)


@pytest.mark.parametrize(
    "spec, graph",
    [
        ("path:4", SimpleGraph(range(1, 5), [(1, 2), (2, 3), (3, 4)])),
        ("cycle:5", SimpleGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])),
        ("random:8,0.5", random_graph(8, 0.5, 3)),
    ],
)
def test_gen_edge_cover_graph_specs(spec, graph, capsys):
    code, out, _ = run(capsys, "gen", "--family", "edge-cover", "--graph", spec, "--seed", "3")
    assert code == 0
    assert parse_dimacs(out) == gen_edge_cover_formula(graph)

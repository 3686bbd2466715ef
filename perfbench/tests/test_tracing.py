import sys

import xparity
from tracing import Tracer, layer_table
from xparity import Telemetry, dimacs, docc, length, occ2
from workloads import make_instance

import run


def _bindings():
    mods = {n: m for n, m in sys.modules.items() if n == "xparity" or n.startswith("xparity.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    snap.update({("Telemetry", k): v for k, v in vars(Telemetry).items()})
    return snap


def _modules():
    return {name: sys.modules[f"xparity.{name}"] for name in run.XPARITY_MODULES}


def test_wrappers_restore_every_binding():
    before = _bindings()
    tracer = Tracer(layer_table(_modules()))
    assert _bindings() == before
    tracer.install()
    assert occ2.reduce_formula is not before[("xparity.occ2", "reduce_formula")]
    assert docc.variable_branch is not before[("xparity.docc", "variable_branch")]
    assert xparity.parse_dimacs is not before[("xparity", "parse_dimacs")]
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_solve_counts_calls_and_splits_time():
    xp = _modules()
    inst = make_instance("length-regular", 0, 0)
    text = inst.dimacs()
    want = run.solve(xp, inst.solver, text, Telemetry())
    tracer = Tracer(layer_table(xp))
    tracer.install()
    try:
        got = run.attempt(xp, [inst], [text], 0)
    finally:
        tracer.uninstall()
    assert got.parity == want
    assert tracer.call_count("dimacs.parse") == 1
    assert tracer.call_count("length.solve_length") == 1
    assert tracer.call_count("reducer") > 0
    assert tracer.call_count("length.classify_step") == sum(tracer.stats.steps.values())
    assert sum(tracer.self_ns) <= got.seconds * 1e9
    assert len(tracer.start) == sum(tracer.calls) - tracer.call_count("trace.observe")


def test_spans_nest_under_their_callers():
    xp = _modules()
    inst = make_instance("occ2-2cnf-cycles", 0, 0)
    tracer = Tracer(layer_table(xp))
    tracer.install()
    try:
        run.attempt(xp, [inst], [inst.dimacs()], 0)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    roots = [n for n, p in zip(names, tracer.parent) if p == -1]
    assert roots == ["dimacs.parse", "occ2.solve_occ2"]
    for sid, parent in enumerate(tracer.parent):
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[sid] <= tracer.end[sid] <= tracer.end[parent]

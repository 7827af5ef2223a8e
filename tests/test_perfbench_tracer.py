"""perfbench must time what the sweep computes.

`perfbench/layers.py` patches module functions of `dcprox.cs` while it
traces a pass, and a traced pass must reproduce its untraced twin bit for
bit.  This checks that contract on one small instance of each ensemble.
`perfbench/workloads.py` restates the solver rules of `dcprox.bench`, and
its solves must match the sweep's bit for bit.
"""

import importlib
import pathlib

import numpy as np
import pytest

from dcprox import bench, cs, psg
from dcprox.problem import SolverParams

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    return layers


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def test_every_perfbench_module_imports(monkeypatch):
    # measure imports linop.SpectralNormError, which dcprox keeps only for it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for path in sorted(PERFBENCH.glob("*.py")):
        importlib.import_module(path.stem)


def build_and_solve(case):
    inst = cs.make_instance(case, 3, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    rep = psg.solve(spec, np.zeros(inst.d), SolverParams(max_iter=60))
    return spec.norm_A, inst.b, rep


#: case 2 is above oracles.SCREEN_MIN_ENTRIES: its solves take the column path
CASES = [
    (("gaussian", 30, 80, 4), "cs.gen_gaussian"),
    (("dct", 30, 80, 4), "cs.gen_dct"),
    (2, "cs.gen_gaussian"),
]


@pytest.mark.parametrize("case, span", CASES)
def test_patched_build_is_bit_identical(layers, case, span):
    norm_A, b, rep = build_and_solve(case)
    tracer = layers.Tracer()
    with tracer.patched():
        t_norm_A, t_b, t_rep = build_and_solve(case)
    assert span in [s["name"] for s in tracer.spans]
    assert t_norm_A == norm_A
    assert np.array_equal(t_b, b)
    assert np.array_equal(t_rep.x, rep.x)
    assert (t_rep.iterations, t_rep.status, t_rep.objective) == (
        rep.iterations, rep.status, rep.objective)
    assert t_rep.trace.objective == rep.trace.objective


@pytest.mark.parametrize("case", [case for case, _ in CASES])
def test_instrumented_solve_is_bit_identical(layers, case):
    # 150 iterations: case 2 takes its first column path at iteration 78
    inst = cs.make_instance(case, 3, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    params = SolverParams(max_iter=150)
    rep = psg.solve(spec, np.zeros(inst.d), params)
    span = {}
    t_rep = psg.solve(layers.Tracer().instrument(spec, span), np.zeros(inst.d), params)
    assert np.array_equal(t_rep.x, rep.x)
    assert (t_rep.iterations, t_rep.status, t_rep.objective) == (
        rep.iterations, rep.status, rep.objective)
    assert t_rep.trace.objective == rep.trace.objective
    # column products bypass map_A, so the traced A* misses those iterations
    calls = span["calls"]
    assert calls["linop.apply"][0] == 1 + t_rep.iterations
    screened = spec.l1l2.matrix is not None
    assert (calls["linop.adjoint"][0] < t_rep.iterations) == screened


def test_workload_rules_match_bench(workloads):
    assert workloads.SOLVERS == bench.SOLVERS
    assert workloads.LOSS_DEFAULTS == bench.LOSS_DEFAULTS


#: case 2 takes the screened column path, case 5 the matrix-free DCT
@pytest.mark.parametrize("case, loss_kind", [(2, "least-squares"), (5, "lorentzian")])
def test_workload_solve_matches_bench(workloads, case, loss_kind):
    inst = cs.make_instance(case, 0, bench.LOSS_DEFAULTS[loss_kind][0], loss_kind)
    spec = cs.build_cs_problem(inst)
    for solver in bench.SOLVERS:
        rep = workloads.solve(spec, solver, 200)
        ref = bench._solve_cell(spec, np.zeros(inst.d), solver, 200)
        assert np.array_equal(rep.x, ref.x), solver
        assert rep.iterations == ref.iterations, solver
        assert rep.trace.objective == ref.trace.objective, solver

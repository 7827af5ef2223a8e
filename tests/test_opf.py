import dataclasses
import importlib.resources
import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dcprox import bench, cs, opf
from dcprox.polyhedron import (
    InfeasiblePolyhedronError,
    PolyhedralSet,
    PolyhedronProjector,
)
from dcprox.problem import SolverParams, tau_upper_bound
from dcprox.psg import solve


@pytest.fixture(scope="module")
def net():
    return opf.load_network()


@pytest.fixture(scope="module")
def built(net):
    return opf.build_dcopf(net)


def test_load_network_reference_values(net):
    assert net.demand_p[0] == pytest.approx(7.91e-3)
    assert net.susceptance[0, 1] == pytest.approx(9.98e2)
    assert net.susceptance[1, 0] == net.susceptance[0, 1]
    assert net.total_demand == pytest.approx(0.03115)
    assert net.generator_buses == (11,)
    assert np.all(net.demand_p >= 0)
    # diagonal balances the neighbor sums
    off = net.susceptance - np.diag(np.diag(net.susceptance))
    assert np.allclose(np.diag(net.susceptance), -off.sum(axis=1))


def _copy_data(tmp_path):
    src = str(importlib.resources.files("dcprox") / "data")
    dst = tmp_path / "data"
    shutil.copytree(src, dst)
    return dst


def _edited_data(tmp_path, name, old, new):
    """A copy of the bundled data whose file name has old replaced by new."""
    d = _copy_data(tmp_path)
    text = (d / name).read_text()
    assert old in text
    (d / name).write_text(text.replace(old, new))
    return d


def test_load_network_reads_only_the_dc_files(tmp_path):
    src = importlib.resources.files("dcprox") / "data"
    d = tmp_path / "data"
    d.mkdir()
    for name in ("params.csv", "demand.csv", "susceptance.csv"):
        shutil.copy(str(src / name), d / name)
    net = opf.load_network(d)
    ref = opf.load_network()
    assert np.array_equal(net.demand_p, ref.demand_p)
    assert np.array_equal(net.susceptance, ref.susceptance)
    assert net.gamma == ref.gamma == 1.0


#: run in a process that finds only the copy: its data, one small solve, and
#: whether anything imported the package under its own name
COPY_RUN = """
import sys
import numpy as np
from {name} import cs, opf, psg
from {name}.problem import SolverParams
inst = cs.make_instance(("gaussian", 20, 50, 4), 0, 0.1, "least-squares")
rep = psg.solve(cs.build_cs_problem(inst), np.zeros(inst.d), SolverParams(max_iter=50))
print(opf.load_network().cost_a, rep.x.tobytes().hex(), "dcprox" in sys.modules)
"""


def test_package_copy_under_another_name_reads_its_own_data(tmp_path):
    # as a two-tree A/B loads a parent tree beside the working one
    copy = tmp_path / "dcprox_copy"
    shutil.copytree(pathlib.Path(opf.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    params = copy / "data" / "params.csv"
    params.write_text(params.read_text().replace("cost_a,0.246", "cost_a,0.5"))
    run = subprocess.run([sys.executable, "-c", COPY_RUN.format(name=copy.name)],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    inst = cs.make_instance(("gaussian", 20, 50, 4), 0, 0.1, "least-squares")
    rep = solve(cs.build_cs_problem(inst), np.zeros(inst.d), SolverParams(max_iter=50))
    assert run.stdout.split() == ["0.5", rep.x.tobytes().hex(), "False"]


def test_load_network_rejects_asymmetry(tmp_path):
    # b_{1,2} only, breaking symmetry
    d = _edited_data(tmp_path, "susceptance.csv", "\n1,-998,998,", "\n1,-998,123.0,")
    with pytest.raises(opf.NetworkLoadError, match="asymmetric"):
        opf.load_network(d)


def test_load_network_rejects_negative_demand(tmp_path):
    d = _edited_data(tmp_path, "demand.csv", "7.91e-03", "-7.91e-03")
    with pytest.raises(opf.NetworkLoadError, match="negative demand"):
        opf.load_network(d)


def test_load_network_rejects_missing_bus(tmp_path):
    d = _edited_data(tmp_path / "vector", "demand.csv", "\n14,2.64e-03\n", "\n")
    with pytest.raises(opf.NetworkLoadError, match="missing bus"):
        opf.load_network(d)
    last_row = "\n14," + "0," * 11 + "2040,0,-2040\n"
    d = _edited_data(tmp_path / "matrix", "susceptance.csv", last_row, "\n")
    with pytest.raises(opf.NetworkLoadError,
                       match="missing bus in .*susceptance.csv"):
        opf.load_network(d)
    # every row one column short, under a full header: the 14 x 13 matrix
    # raised a bare ValueError in the symmetry check
    d = _copy_data(tmp_path / "column")
    header, *rows = (d / "susceptance.csv").read_text().splitlines()
    rows = [row.rsplit(",", 1)[0] for row in rows]
    (d / "susceptance.csv").write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(opf.NetworkLoadError, match="missing bus in susceptance.csv"):
        opf.load_network(d)


@pytest.mark.parametrize("name, old, new, match", [
    ("params.csv", "p_g_max_pu,0.05", "p_g_max_pu,0", "capacities must be positive"),
    ("susceptance.csv", "1,-998,998", "1,-997,998", "diagonal must equal -row sum"),
    ("params.csv", "generator_buses,11", "generator_buses,0", "generator bus out of range"),
    # NaN tripped none of the range checks, so these loaded and built
    ("params.csv", "gamma,1", "gamma,nan", "non-finite gamma in params.csv"),
    ("demand.csv", "\n1,7.91e-03", "\n1,nan",
     "non-finite demand of bus 1 in demand.csv"),
    ("susceptance.csv", "\n3,0,497,-497,", "\n3,0,497,-inf,",
     "non-finite row of bus 3 in susceptance.csv"),
    # a repeated row or key silently replaced the first one, and a repeated
    # generator bus doubled the fixed cost
    ("demand.csv", "\n2,0\n", "\n2,0\n2,5e-3\n", "repeated key 2 in demand.csv"),
    ("susceptance.csv", "\n4,0,1110,", "\n03" + ",0" * 14 + "\n4,0,1110,",
     "repeated key 03 in susceptance.csv"),
    ("params.csv", "gamma,1", "gamma,1\ngamma,2", "repeated key gamma in params.csv"),
    ("params.csv", "generator_buses,11", "generator_buses,11;11",
     "generator_buses repeats 11 in params.csv"),
], ids=["cap", "row-sum", "generator-bus", "nan-gamma", "nan-demand",
        "inf-susceptance", "repeated-demand", "repeated-susceptance",
        "repeated-param", "repeated-generator-bus"])
def test_load_network_rejects_bad_values(tmp_path, name, old, new, match):
    with pytest.raises(opf.NetworkLoadError, match=match):
        opf.load_network(_edited_data(tmp_path, name, old, new))


def test_load_network_rejects_malformed_file(tmp_path):
    d = _copy_data(tmp_path)
    (d / "params.csv").write_text("key,value\ncost_a,not-a-number\n")
    with pytest.raises(opf.NetworkLoadError):
        opf.load_network(d)
    # a demand row without its value
    d = _edited_data(tmp_path / "short-row", "demand.csv", "2,0\n", "2\n")
    with pytest.raises(opf.NetworkLoadError, match="malformed network files"):
        opf.load_network(d)


def test_layout_is_a_bijection():
    lay = opf.DCOPFLayout()
    assert lay.dim == 239
    idx = (list(range(lay.ppv.start, lay.ppv.stop)) + [lay.pg]
           + list(range(lay.x_bin.start, lay.x_bin.stop))
           + list(range(lay.theta.start, lay.theta.stop))
           + list(range(lay.flow.start, lay.flow.stop)))
    assert sorted(idx) == list(range(239))

    rng = np.random.default_rng(0)
    x = rng.standard_normal(239)
    ppv, pg, xb, th, P = lay.unpack(x)
    assert np.array_equal(np.concatenate([ppv, [pg], xb, th, P.ravel()]), x)
    # P_ij is entry flow.start + 14 i + j, so P_11 is x[43] and P_14,14 x[238]
    for i, j in itertools.product(range(opf.N_BUS), repeat=2):
        assert P[i, j] == x[lay.flow.start + 14 * i + j]
    assert (P[0, 0], P[13, 13]) == (x[43], x[238])


def test_objective_pieces(built):
    spec, set_, lay = built
    zero = np.zeros(lay.dim)
    assert spec.value_h(zero) == pytest.approx(0.433)
    ones = zero.copy()
    ones[lay.x_bin] = 1.0
    assert spec.value_g(zero) == 0.0
    assert spec.value_g(ones) == 0.0
    half = zero.copy()
    half[lay.x_bin] = 0.5
    assert spec.value_g(half) == pytest.approx(-3.5)
    assert spec.lipschitz_ell == pytest.approx(0.492)
    # subgradient of g lives on the indicator block only
    grad = spec.subgrad_g(ones)
    assert np.all(grad[lay.x_bin] == 1.0)
    assert np.all(np.delete(grad, np.s_[lay.x_bin]) == 0.0)


def test_gradient_of_g_closed_form(built):
    spec, _, lay = built
    x = np.zeros(lay.dim)
    x[lay.x_bin] = 0.25
    grad = spec.subgrad_g(x)
    assert np.allclose(grad[lay.x_bin], 1.0 * (2 * 0.25 - 1.0))


def test_solve_from_nan_start_is_infeasible(built):
    # the residual of a NaN point is NaN, which no feasibility test passes
    spec, set_, lay = built
    x0 = np.full(lay.dim, np.nan)
    assert np.isnan(set_.residual(x0))
    with pytest.raises(ValueError, match="starting point is infeasible"):
        solve(spec, x0, SolverParams(max_iter=5))


def test_feasible_point_properties(built, net):
    _, set_, lay = built
    x = PolyhedronProjector(set_, tol=1e-9).feasible_point()
    assert set_.residual(x) <= 1e-8
    # penetration re-checked independently of the projection
    assert x[lay.ppv].sum() >= 0.5 * net.total_demand - 1e-8
    _, _, _, theta, flow = lay.unpack(x)
    assert theta[10] == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(flow + flow.T)) <= 1e-7
    assert np.max(np.abs(np.diag(flow))) <= 1e-9


def test_step_size_reference_value(built):
    spec, _, _ = built
    tau = tau_upper_bound(spec, SolverParams())
    # 1 / (2 delta + 0.492 * 1.2 + 0.02)
    assert tau == pytest.approx(1.0 / 0.6104, rel=1e-9)


def test_binary_relaxation_gap():
    lay = opf.DCOPFLayout()
    zero = np.zeros(lay.dim)

    def with_x(vals):
        x = zero.copy()
        x[lay.x_bin] = vals
        return x

    assert opf.binary_relaxation_gap(with_x(np.ones(14)), lay) == 0.0
    assert opf.binary_relaxation_gap(with_x(np.zeros(14)), lay) == 0.0
    half = np.zeros(14)
    half[0] = 0.5
    assert opf.binary_relaxation_gap(with_x(half), lay) == pytest.approx(0.25)
    mixed = np.zeros(14)
    mixed[0], mixed[1] = 0.9, 0.1
    assert opf.binary_relaxation_gap(with_x(mixed), lay) == pytest.approx(0.18)


def test_solver_reaches_good_binary_plan(built, net):
    spec, set_, lay = built
    x0 = PolyhedronProjector(set_, tol=1e-9).feasible_point()
    rep = solve(spec, x0, SolverParams(max_iter=1000, keep_iterates=False))
    assert rep.status == "converged"
    assert rep.objective <= 1.93
    assert opf.binary_relaxation_gap(rep.x, lay) <= 1e-6
    f0 = spec.objective(x0)
    assert rep.max_lyapunov_violation <= 1e-6 * (1 + abs(f0))
    report = opf.postprocess_solution(rep.x, net, lay, spec.objective(rep.x))
    assert not report.fractional
    assert len(report.placement) == 2
    assert report.penetration >= 0.5 - 1e-9
    assert report.cost_reduction > 0.5


def test_postprocess_empty_and_fractional(built, net):
    spec, _, lay = built
    x = np.zeros(lay.dim)
    report = opf.postprocess_solution(x, net, lay, spec.objective(x))
    assert report.placement == ()
    assert not report.fractional
    assert report.objective == pytest.approx(0.433)
    assert report.baseline_cost_units == opf.BASELINE_COST
    assert report.cost_reduction == pytest.approx(
        1 - 0.433 / opf.BASELINE_COST)
    x[lay.x_bin.start] = 0.4
    report = opf.postprocess_solution(x, net, lay, spec.objective(x))
    assert report.fractional
    assert "unrounded relaxation" in report.flags
    assert report.table().splitlines()[-1] == (
        "flags             : unrounded relaxation")


def test_plan_report_serialization(built, net):
    spec, _, lay = built
    x = np.zeros(lay.dim)
    report = opf.postprocess_solution(x, net, lay, spec.objective(x))
    data = json.loads(report.to_json())
    assert data["placement"] == []
    assert data["total_cost_dollars"] == pytest.approx(0.433 * 1_040_000)
    assert "objective" in report.table()


@pytest.fixture(scope="module")
def opf_run():
    return bench.run_opf(bench.OPFConfig(opf_starts=4, base_seed=2,
                                         solvers=("proposed",)))


def test_multi_start_monotonicity(opf_run):
    objs = [s.objective for s in opf_run.starts]
    best_so_far = np.minimum.accumulate(objs)
    assert all(b <= a + 1e-15 for a, b in zip(objs, best_so_far))
    stats = opf_run.stats["proposed"]
    assert stats["best_objective"] <= stats["mean_objective"]


def test_plan_objective_is_the_runs_best(built, opf_run):
    # the plan reports F(best_x) itself, not a second formula of it
    objective = opf_run.best_report.objective
    assert objective == built[0].objective(opf_run.best_x)
    assert objective == opf_run.stats["proposed"]["best_objective"]


def fix_indicators(set_, lay, buses):
    """Copy of set_ with the indicators of buses (1-based) fixed at 1 and
    all others at 0, through lo = hi."""
    lo, hi = set_.lo.copy(), set_.hi.copy()
    lo[lay.x_bin] = hi[lay.x_bin] = np.isin(np.arange(1, opf.N_BUS + 1), buses)
    return PolyhedralSet(set_.dim, set_.E, set_.e, set_.G, set_.g, lo, hi)


def solve_fixed(spec, fixed):
    """Solve of the convex model left when every indicator is fixed."""
    proj = PolyhedronProjector(fixed, tol=opf.PROJECTION_TOL)
    spec = dataclasses.replace(
        spec, prox_fC=lambda w, tau: proj.project(w),
        is_feasible=lambda x: fixed.residual(x) <= 1e-6)
    return solve(spec, proj.feasible_point(), SolverParams(max_iter=1000))


def test_every_pair_placement_is_a_global_optimum(built, net, opf_run):
    # Enumerates the binary model by its number k of PV units: the optimum
    # is a tie of all 91 pairs, so the placement clause of acceptance
    # criterion 4 asks for a tie-break, not for the optimum.
    spec, set_, lay = built
    best = opf_run.stats["proposed"]["best_objective"]
    # k <= 1: the 50% penetration needs 0.5 D / p_pv_max = 1.947 units
    assert 0.5 * net.total_demand / net.p_pv_max > 1
    for buses in [()] + [(b,) for b in range(1, opf.N_BUS + 1)]:
        with pytest.raises(InfeasiblePolyhedronError):
            PolyhedronProjector(fix_indicators(set_, lay, buses),
                                tol=opf.PROJECTION_TOL).feasible_point()
    # k >= 3: the balance gives sum P^PV = D - P^G <= D, so the objective is
    # at least k C_pv + n_gen c - 1 (a, b >= 0 and g = 0 on binaries)
    assert net.cost_a >= 0 and net.cost_b >= 0
    bound = (3 * net.pv_unit_cost + len(net.generator_buses) * net.cost_c
             - 1.0)
    assert bound > best
    # k = 2: every pair reaches the multi-start best
    objective = {
        pair: solve_fixed(spec, fix_indicators(set_, lay, pair)).objective
        for pair in itertools.combinations(range(1, opf.N_BUS + 1), 2)
    }
    assert len(objective) == 91
    assert max(abs(v - best) for v in objective.values()) <= 1e-9
    assert (7, 9) in objective and (3, 14) in objective
    assert opf_run.best_report.placement in objective


def test_run_opf_builds_one_model(net, monkeypatch):
    calls = []
    build = bench.opf.build_dcopf

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(bench.opf, "build_dcopf", counting_build)
    cfg = bench.OPFConfig(opf_starts=2, base_seed=0)
    res = bench.run_opf(cfg)
    assert len(calls) == 1
    assert len(res.starts) == 2 * len(bench.SOLVERS)


def test_build_dcopf_makes_one_projector(net, monkeypatch):
    made = []
    init = PolyhedronProjector.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolyhedronProjector, "__init__", counting_init)
    opf.build_dcopf(net)
    assert len(made) == 1


def test_run_opf_solves_each_start_once(monkeypatch):
    # every projection is the model's feasible point, a start or a step of
    # a solve, so no start is solved twice; the rate diagnostic reads the
    # longest proposed start, whose fit is finite at base seed 1
    calls = []
    project = PolyhedronProjector.project

    def counting_project(self, w):
        calls.append(w)
        return project(self, w)

    monkeypatch.setattr(PolyhedronProjector, "project", counting_project)
    res = bench.run_opf(bench.OPFConfig(opf_starts=30, base_seed=1))
    assert np.isfinite(res.rate_r2)
    assert len(calls) == 1 + 30 + sum(s.iterations for s in res.starts)

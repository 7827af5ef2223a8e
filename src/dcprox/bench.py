"""Benchmark sweeps, multi-start power-flow runs, and invariant checks."""

import concurrent.futures
import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, cs, opf, oracles, polyhedron, psg
from .problem import SolverParams, tau_upper_bound

SOLVERS = ("gppa", "pdcae", "proposed")

#: per-loss defaults: (gamma, max_iter)
LOSS_DEFAULTS = {"least-squares": (0.1, 3000), "lorentzian": (0.001, 4000)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: which cases, which solvers, how many seeds."""

    cases: tuple = (1, 2, 5, 6)
    loss_kind: str = "least-squares"
    solvers: tuple = SOLVERS
    gamma: float = None          # None = per-loss default
    n_seeds: int = 5
    base_seed: int = 0
    max_iter: int = None         # None = per-loss default
    stop_rel_tol: float = 1e-8
    lambda_bar: float = 0.1
    mu_bar: float = 0.01
    delta: float = 5e-25
    restart_period: int = 50
    workers: int = 1
    out_csv: str = None
    # multi-start power-flow settings
    opf_starts: int = 30
    opf_max_iter: int = 1000
    baseline_cost: float = 6.433
    round_tol: float = 1e-3
    out_json: str = None

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError("need at least one seed")
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown:
            raise ValueError("unimplemented solvers: %s" % sorted(unknown))

    def resolved(self):
        gamma, iters = LOSS_DEFAULTS[self.loss_kind]
        return replace(
            self,
            gamma=self.gamma if self.gamma is not None else gamma,
            max_iter=self.max_iter if self.max_iter is not None else iters,
        )


@dataclass
class RunRecord:
    """Outcome of one (case, seed, solver) cell."""

    case: object
    seed: int
    solver: str
    iterations: int = 0
    error: float = float("nan")
    objective: float = float("nan")
    cpu_time: float = float("nan")
    lyapunov_violation: float = float("nan")
    status: str = ""
    failure: str = ""


def _solve_cell(spec, x0, solver, cfg):
    base_tau = 1.0 / (spec.lipschitz_ell * spec.norm_A**2)
    if solver == "proposed":
        params = SolverParams(
            lambda_bar=cfg.lambda_bar, mu_bar=cfg.mu_bar, delta=cfg.delta,
            restart_period=cfg.restart_period, max_iter=cfg.max_iter,
            stop_rel_tol=cfg.stop_rel_tol, keep_iterates=False,
        )
        return psg.solve(spec, x0, params)
    params = baselines.BaselineParams(
        step_tau=0.8 * base_tau if solver == "gppa" else base_tau,
        max_iter=cfg.max_iter, stop_rel_tol=cfg.stop_rel_tol,
        extrapolation=solver == "pdcae", restart_period=cfg.restart_period,
        keep_iterates=False,
    )
    if solver == "gppa":
        return baselines.gppa_solve(spec, x0, params)
    return baselines.pdcae_solve(spec, x0, params)


def _run_instance(case, seed, cfg):
    records = []
    try:
        inst = cs.make_instance(case, seed, cfg.gamma, cfg.loss_kind)
        spec = cs.build_cs_problem(inst)
    except Exception as exc:
        return [
            RunRecord(case, seed, s, failure=repr(exc)) for s in cfg.solvers
        ]
    x0 = np.zeros(inst.d)
    for solver in cfg.solvers:
        rec = RunRecord(case, seed, solver)
        try:
            rep = _solve_cell(spec, x0, solver, cfg)
            rec.iterations = rep.iterations
            rec.error = cs.ground_truth_error(rep.x, inst.x_g)
            rec.objective = rep.objective
            rec.cpu_time = rep.wall_time
            rec.status = rep.status
            if solver == "proposed":
                rec.lyapunov_violation = rep.max_lyapunov_violation
        except Exception as exc:
            rec.failure = repr(exc)
        records.append(rec)
    return records


@dataclass
class SweepResult:
    rows: list                  # aggregated per (case, solver)
    runs: list                  # per (case, seed, solver) RunRecord


def run_cs_sweep(cfg):
    """Sweep solver x case over seeds; errors are recorded, not raised."""
    cfg = cfg.resolved()
    jobs = [(case, cfg.base_seed + k) for case in cfg.cases
            for k in range(cfg.n_seeds)]
    if cfg.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(cfg.workers) as pool:
            chunks = list(pool.map(lambda cs_: _run_instance(*cs_, cfg), jobs))
    else:
        chunks = [_run_instance(case, seed, cfg) for case, seed in jobs]
    runs = [rec for chunk in chunks for rec in chunk]

    rows = []
    for case in cfg.cases:
        for solver in cfg.solvers:
            cell = [r for r in runs if r.case == case and r.solver == solver]
            good = [r for r in cell if not r.failure]
            row = {
                "case": case,
                "solver": solver,
                "n_runs": len(cell),
                "n_errors": len(cell) - len(good),
            }
            for key in ("iterations", "error", "objective", "cpu_time"):
                row["mean_" + key] = (
                    float(np.mean([getattr(r, key) for r in good]))
                    if good else float("nan")
                )
            row["max_lyapunov_violation"] = (
                float(np.max([r.lyapunov_violation for r in good]))
                if solver == "proposed" and good else float("nan")
            )
            rows.append(row)
    if cfg.out_csv:
        write_results_csv(rows, cfg.out_csv)
    return SweepResult(rows=rows, runs=runs)


CSV_COLUMNS = (
    "case", "solver", "n_runs", "n_errors", "mean_iterations", "mean_error",
    "mean_objective", "mean_cpu_time (nondeterministic)",
    "max_lyapunov_violation",
)


def results_csv_text(rows):
    """Sweep rows as CSV text, byte-stable apart from the CPU-time column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["case"], row["solver"], row["n_runs"], row["n_errors"],
            "%.17g" % row["mean_iterations"], "%.17g" % row["mean_error"],
            "%.17g" % row["mean_objective"], "%.6f" % row["mean_cpu_time"],
            "%.17g" % row["max_lyapunov_violation"],
        ])
    return buf.getvalue()


def write_results_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write(results_csv_text(rows))


@dataclass
class OPFResult:
    best_report: object         # PlanReport of the best objective
    best_x: np.ndarray
    stats: dict                 # per solver: mean/best objective, iterations
    starts: list                # per (solver, start) dicts
    rate_r2: float              # tail log-linear fit of proposed step norms


def _random_start(set_, rng, projector):
    lo = np.where(np.isfinite(set_.lo), set_.lo, -1.0)
    hi = np.where(np.isfinite(set_.hi), set_.hi, 1.0)
    return projector.project(rng.uniform(lo, hi))


def run_opf(cfg, net=None, solvers=None):
    """Multi-start comparison on the placement model.

    Each start is drawn uniformly between the variable bounds and projected
    onto the feasible set, then every requested solver runs from it.
    """
    cfg = replace(cfg, loss_kind="least-squares").resolved()
    if net is None:
        net = opf.load_network()
    solvers = cfg.solvers if solvers is None else solvers
    spec, set_, lay = opf.build_dcopf(net)
    projector = opf.PolyhedronProjector(set_, tol=1e-9)
    rng = np.random.default_rng(cfg.base_seed)
    x0s = [_random_start(set_, rng, projector) for _ in range(cfg.opf_starts)]

    opf_cfg = replace(cfg, max_iter=cfg.opf_max_iter)
    starts = []
    best = {"objective": np.inf, "x": None, "trace": None}

    def run_one(solver, k, x0):
        spec_k, _, _ = opf.build_dcopf(net, check_feasible=False)
        rep = _solve_cell(spec_k, x0, solver, opf_cfg)
        return {
            "solver": solver, "start": k, "objective": rep.objective,
            "iterations": rep.iterations, "cpu_time": rep.wall_time,
            "x": rep.x, "trace": rep.trace,
            "lyapunov_violation": rep.max_lyapunov_violation,
        }

    jobs = [(solver, k, x0) for solver in solvers for k, x0 in enumerate(x0s)]
    if cfg.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(cfg.workers) as pool:
            results = list(pool.map(lambda j: run_one(*j), jobs))
    else:
        results = [run_one(*j) for j in jobs]

    rate_r2 = float("nan")
    for res in results:
        starts.append({k: res[k] for k in
                       ("solver", "start", "objective", "iterations",
                        "cpu_time", "lyapunov_violation")})
        if res["solver"] == "proposed" and res["objective"] < best["objective"]:
            best.update(objective=res["objective"], x=res["x"],
                        trace=res["trace"])

    stats = {}
    for solver in solvers:
        cell = [s for s in starts if s["solver"] == solver]
        stats[solver] = {
            "mean_objective": float(np.mean([s["objective"] for s in cell])),
            "best_objective": float(np.min([s["objective"] for s in cell])),
            "mean_iterations": float(np.mean([s["iterations"] for s in cell])),
            "mean_cpu_time": float(np.mean([s["cpu_time"] for s in cell])),
        }
    if "proposed" in solvers and x0s:
        # Dedicated diagnostic run with the stopping rule disabled, so the
        # tail fit sees the full step-norm history rather than 2-3 points.
        diag = psg.solve(spec, x0s[0], SolverParams(
            lambda_bar=cfg.lambda_bar, mu_bar=cfg.mu_bar, delta=cfg.delta,
            restart_period=cfg.restart_period, max_iter=60, stop_rel_tol=0.0,
            keep_iterates=False,
        ))
        _, rate_r2, _ = psg.tail_linear_fit(
            diag.trace.step_norms[1:], tail_fraction=1.0, floor=1e-12
        )
    report = None
    if best["x"] is not None:
        report = opf.postprocess_solution(
            best["x"], net, lay, round_tol=cfg.round_tol,
            baseline_cost=cfg.baseline_cost,
        )
    result = OPFResult(
        best_report=report, best_x=best["x"], stats=stats, starts=starts,
        rate_r2=rate_r2,
    )
    if cfg.out_json and report is not None:
        with open(cfg.out_json, "w") as fh:
            fh.write(report.to_json(indent=2))
    return result


def _check_solver_suite(rng):
    """Small end-to-end invariants of the solvers on one shared instance."""
    inst = cs.make_instance(("gaussian", 40, 120, 6), 7, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    x0 = np.zeros(inst.d)
    params = SolverParams(max_iter=300, keep_iterates=False)
    rep = psg.solve(spec, x0, params)
    yield ("psg Lyapunov decrease",
           rep.max_lyapunov_violation <= 1e-10 * (1 + abs(spec.objective(x0))),
           "violation %.3e" % rep.max_lyapunov_violation)
    tau = tau_upper_bound(spec, params)
    yield ("psg step bound positive", 0 < tau < 1, "tau %.4f" % tau)

    flat = SolverParams(lambda_bar=0.0, mu_bar=0.0, max_iter=100,
                        stop_rel_tol=0.0, keep_iterates=True)
    tau0 = tau_upper_bound(spec, flat)
    rep_a = psg.solve(spec, x0, flat)
    rep_b = baselines.gppa_solve(
        spec, x0,
        baselines.BaselineParams(step_tau=tau0, max_iter=100, stop_rel_tol=0.0),
    )
    diff = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(rep_a.trace.iterates, rep_b.trace.iterates)
    )
    yield ("zero-momentum equivalence", diff <= 1e-12, "max diff %.3e" % diff)

    err = cs.ground_truth_error(rep.x, inst.x_g)
    yield ("cs recovery sanity", err < 0.5, "rel err %.3e" % err)


def _check_oracles(rng):
    w = rng.standard_normal(50)
    st = cs.soft_threshold(w, 0.3)
    grid = np.linspace(-5, 5, 200001)
    k = int(rng.integers(50))
    brute = grid[np.argmin(0.3 * np.abs(grid) + 0.5 * (grid - w[k]) ** 2)]
    yield ("soft threshold vs grid", abs(st[k] - brute) <= 1e-4,
           "|diff| %.2e" % abs(st[k] - brute))
    z = rng.standard_normal(30)
    b = rng.standard_normal(30)
    for kind in ("least-squares", "lorentzian"):
        loss = oracles.Loss(kind, b)
        g = loss.grad(z)
        h = 1e-6
        fd = np.array([
            (loss.value(z + h * e) - loss.value(z - h * e)) / (2 * h)
            for e in np.eye(30)
        ])
        rel = np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g)))
        yield ("%s gradient fd" % kind, rel <= 1e-6, "rel err %.2e" % rel)


def _check_projection(rng):
    d = 6
    G = rng.standard_normal((8, d))
    g = rng.uniform(0.5, 1.5, 8)
    set_ = polyhedron.PolyhedralSet(d, G=G, g=g, lo=-np.ones(d), hi=np.ones(d))
    w = rng.standard_normal(d) * 3
    p1 = polyhedron.project(set_, w)
    p2 = polyhedron.project(set_, p1)
    yield ("projection idempotent", np.linalg.norm(p2 - p1) <= 1e-7,
           "moved %.2e" % np.linalg.norm(p2 - p1))
    v = rng.standard_normal(d) * 3
    q1 = polyhedron.project(set_, v)
    lhs = np.linalg.norm(p1 - q1)
    rhs = np.linalg.norm(w - v)
    yield ("projection nonexpansive", lhs <= rhs + 1e-7,
           "%.4f vs %.4f" % (lhs, rhs))


def _check_network(rng):
    try:
        net = opf.load_network()
    except opf.NetworkLoadError as exc:
        yield ("network load", False, repr(exc))
        return
    yield ("network load", True, "")
    yield ("demand bus 1", abs(net.demand_p[0] - 7.91e-3) < 1e-15,
           "%.3e" % net.demand_p[0])
    yield ("susceptance 1-2", net.susceptance[0, 1] == 9.98e2,
           "%.5g" % net.susceptance[0, 1])
    yield ("susceptance symmetric",
           net.susceptance[1, 0] == net.susceptance[0, 1], "")

    spec, set_, lay = opf.build_dcopf(net)
    zero = np.zeros(lay.dim)
    yield ("h at origin", abs(spec.value_h(zero) - 0.433) < 1e-12,
           "%.6f" % spec.value_h(zero))
    half = zero.copy()
    half[lay.x_bin] = 0.5
    yield ("g at half indicators", abs(spec.value_g(half) + 3.5) < 1e-12,
           "%.4f" % spec.value_g(half))
    x0 = polyhedron.feasible_point(set_, tol=1e-9)
    pen = x0[lay.ppv].sum() - 0.5 * net.total_demand
    yield ("feasible point penetration", pen >= -1e-8, "slack %.2e" % pen)
    _, _, _, theta, flow = lay.unpack(x0)
    anti = np.max(np.abs(flow + flow.T))
    yield ("flow antisymmetry", anti <= 1e-7, "max %.2e" % anti)
    gap = opf.binary_relaxation_gap(lay.pack(
        np.zeros(14), 0.0, np.array([0.9, 0.1] + [0.0] * 12),
        np.zeros(14), np.zeros((14, 14))), lay)
    yield ("relaxation gap arithmetic", abs(gap - 0.18) < 1e-12, "%.4f" % gap)
    ac = opf.load_ac_model(net)
    yield ("ac link count", len(ac.links) == 14, "%d" % len(ac.links))
    yield ("ac layout size", ac.dim == 100, "%d" % ac.dim)
    tally = ac.constraint_tally()
    ok = (tally.get("active-balance") == 14
          and tally.get("reactive-balance") == 14
          and tally.get("voltage-drop") == 14
          and tally.get("current-flow") == 14
          and tally.get("penetration") == 1
          and tally.get("pv-coupling") == 28
          and tally.get("source-pin") == 2)
    yield ("ac constraint tally", ok, str(tally))


def run_checks(extra_checks=None, verbose=True):
    """Cross-module invariant suite; returns the number of failures.

    extra_checks, if given, is an iterable of (name, passed, detail)
    triples appended to the matrix (used to surface injected failures).
    """
    rng = np.random.default_rng(0)
    results = []
    for suite in (_check_oracles, _check_solver_suite, _check_projection,
                  _check_network):
        try:
            results.extend(suite(rng))
        except Exception as exc:
            results.append((suite.__name__, False, repr(exc)))
    if extra_checks is not None:
        results.extend(extra_checks)
    failures = 0
    for name, ok, detail in results:
        if not ok:
            failures += 1
        if verbose:
            print("%-32s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
    if verbose:
        print("%d checks, %d failures" % (len(results), failures))
    return failures

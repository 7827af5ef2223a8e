"""Benchmark sweeps, multi-start power-flow runs, and invariant checks."""

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from . import baselines, cs, opf, oracles, polyhedron, psg
from .problem import SolverParams, check_count, check_number, tau_upper_bound

SOLVERS = ("gppa", "pdcae", "proposed")

#: (gamma, max_iter) of every sweep solve of a loss; the solvers run with
#: solver_params
LOSS_DEFAULTS = {"least-squares": (0.1, 3000), "lorentzian": (0.001, 4000)}
#: iteration cap of every OPF solve
OPF_MAX_ITER = 1000


def _check_members(key, values, known):
    """Reject an empty values, one with items that known lacks, or one that
    repeats an item."""
    if not values:
        raise ValueError("%s is empty: %r" % (key, values))
    unknown = [v for v in values if v not in known]
    if unknown:
        raise ValueError("unimplemented %s: %s (known: %s)"
                         % (key, unknown, sorted(known)))
    repeated = [v for k, v in enumerate(values) if v in values[:k]]
    if repeated:
        raise ValueError("%s repeats %r" % (key, repeated[0]))


@dataclass(frozen=True)
class SweepConfig:
    """One sparse-recovery sweep: which cases, loss, solvers and seeds."""

    cases: tuple = (1, 2, 5, 6)
    loss_kind: str = "least-squares"
    solvers: tuple = SOLVERS
    n_seeds: int = 5
    base_seed: int = 0
    out_csv: str = None

    def __post_init__(self):
        check_count("n_seeds", self.n_seeds)
        check_count("base_seed", self.base_seed, least=0)
        _check_members("cases", self.cases, cs.CASES)
        for case in self.cases:  # 1.0 and True are keys of cs.CASES too
            check_count("case id in cases", case)
        _check_members("loss_kind", (self.loss_kind,), LOSS_DEFAULTS)
        _check_members("solvers", self.solvers, SOLVERS)


@dataclass(frozen=True)
class OPFConfig:
    """One multi-start power-flow run: which solvers, seed and start count."""

    solvers: tuple = SOLVERS
    base_seed: int = 0
    opf_starts: int = 30
    out_json: str = None

    def __post_init__(self):
        check_count("opf_starts", self.opf_starts)
        check_count("base_seed", self.base_seed, least=0)
        _check_members("solvers", self.solvers, SOLVERS)
        if self.out_json and "proposed" not in self.solvers:
            raise ValueError("out_json needs 'proposed' in solvers")


@dataclass
class RunRecord:
    """Outcome of one solve: a (case, seed, solver) sweep cell, or start
    `start` of an OPF run, recorded with case "opf" and its base seed."""

    case: object
    seed: int
    solver: str
    start: int = 0
    iterations: int = 0
    error: float = float("nan")
    objective: float = float("nan")
    wall_time: float = float("nan")
    lyapunov_violation: float = float("nan")
    status: str = ""
    failure: str = ""


def solver_params(spec, solver, max_iter):
    """The parameters every sweep and OPF solve of solver runs with: the
    SolverParams defaults for "proposed", and for the baselines the step
    0.8/(ell ||A||^2) (GPPA) or 1/(ell ||A||^2) with momentum (pDCAe)."""
    if solver == "proposed":
        return SolverParams(max_iter=max_iter)
    lipschitz = spec.lipschitz_ell * spec.norm_A**2  # of grad (h o A)
    check_number("ell ||A||^2 of the baseline step", lipschitz, positive=True)
    base_tau = 1.0 / lipschitz
    return baselines.BaselineParams(
        step_tau=0.8 * base_tau if solver == "gppa" else base_tau,
        max_iter=max_iter, extrapolation=solver == "pdcae",
    )


def _solve_cell(spec, x0, solver, max_iter):
    solve = {"proposed": psg.solve, "gppa": baselines.gppa_solve,
             "pdcae": baselines.pdcae_solve}[solver]
    return solve(spec, x0, solver_params(spec, solver, max_iter))


def _failure(exc):
    cause = exc.__cause__
    return repr(exc) if cause is None else "%r from %r" % (exc, cause)


def _run(rec, spec, x0, max_iter, x_g=None):
    """Solve rec's cell from x0, fill rec (error only with x_g) and return
    the report; or store a raised exception in rec.failure, returning None."""
    try:
        rep = _solve_cell(spec, x0, rec.solver, max_iter)
        if x_g is not None:
            rec.error = cs.ground_truth_error(rep.x, x_g)
    except Exception as exc:
        rec.failure = _failure(exc)
        return None
    rec.iterations, rec.objective, rec.wall_time, rec.status = (
        rep.iterations, rep.objective, rep.wall_time, rep.status)
    rec.lyapunov_violation = rep.max_lyapunov_violation
    return rep


def _summary(records):
    """One solver's run and failure counts; over the runs that did not fail,
    the means, best objective and (proposed) worst Lyapunov violation."""
    good = [r for r in records if not r.failure]
    out = {"n_runs": len(records), "n_errors": len(records) - len(good)}
    nan = float("nan")
    for key in ("iterations", "error", "objective", "wall_time"):
        out["mean_" + key] = (
            float(np.mean([getattr(r, key) for r in good])) if good else nan)
    out["best_objective"] = (
        float(np.min([r.objective for r in good])) if good else nan)
    out["max_lyapunov_violation"] = (
        float(np.max([r.lyapunov_violation for r in good]))
        if good and good[0].solver == "proposed" else nan)
    return out


def _run_instance(case, seed, cfg):
    gamma, max_iter = LOSS_DEFAULTS[cfg.loss_kind]
    try:
        inst = cs.make_instance(case, seed, gamma, cfg.loss_kind)
        spec = cs.build_cs_problem(inst)
    except Exception as exc:
        return [RunRecord(case, seed, s, failure=_failure(exc))
                for s in cfg.solvers]
    records = [RunRecord(case, seed, s) for s in cfg.solvers]
    x0 = np.zeros(inst.d)
    for rec in records:
        _run(rec, spec, x0, max_iter, inst.x_g)
    return records


@dataclass
class SweepResult:
    rows: list                  # aggregated per (case, solver)
    runs: list                  # per (case, seed, solver) RunRecord


def run_cs_sweep(cfg):
    """Sweep solver x case over seeds; errors are recorded, not raised."""
    # opened before any solve, so that a bad path fails first
    with open(cfg.out_csv or os.devnull, "w", newline="") as fh:
        runs = [rec for case in cfg.cases for k in range(cfg.n_seeds)
                for rec in _run_instance(case, cfg.base_seed + k, cfg)]
        rows = [
            {"case": c, "solver": s,
             **_summary([r for r in runs if r.case == c and r.solver == s])}
            for c in cfg.cases for s in cfg.solvers
        ]
        fh.write(results_csv_text(rows))
    return SweepResult(rows=rows, runs=runs)


CSV_COLUMNS = (
    "case", "solver", "n_runs", "n_errors", "mean_iterations", "mean_error",
    "mean_objective", "mean_wall_time (nondeterministic)",
    "max_lyapunov_violation",
)


def results_csv_text(rows):
    """Sweep rows as CSV text, byte-stable apart from the wall-time column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["case"], row["solver"], row["n_runs"], row["n_errors"],
            "%.17g" % row["mean_iterations"], "%.17g" % row["mean_error"],
            "%.17g" % row["mean_objective"], "%.6f" % row["mean_wall_time"],
            "%.17g" % row["max_lyapunov_violation"],
        ])
    return buf.getvalue()


@dataclass
class OPFResult:
    best_report: object         # PlanReport of the best objective
    best_x: np.ndarray
    stats: dict                 # per solver: _summary of its starts
    starts: list                # per (solver, start) RunRecord
    rate_r2: float              # tail fit R^2 of the longest proposed start


def run_opf(cfg):
    """Multi-start comparison on the placement model.

    Each start is drawn uniformly in the variable box and projected onto
    the feasible set, then every solver of cfg.solvers runs from it.  All
    starts share one model and its projector.  A start whose projection or
    solve raises is recorded with its failure and left out of the stats
    and the plan.  rate_r2 is psg.tail_linear_fit's R^2 over the step norms
    of the proposed start with the most iterations (the first on a tie); it
    is NaN without one, or with fewer than 3 step norms above 1e-12.
    """
    # opened before any solve, so that a bad path fails first
    with open(cfg.out_json or os.devnull, "w") as fh:
        net = opf.load_network()
        spec, set_, lay = opf.build_dcopf(net)
        rng = np.random.default_rng(cfg.base_seed)
        x0s = []
        for _ in range(cfg.opf_starts):
            # Every variable has a finite box.  f is an indicator, so its
            # prox is the same projection for every tau.
            w = rng.uniform(set_.lo, set_.hi)
            try:
                x0s.append(spec.prox_fC(w, 1.0))
            except Exception as exc:
                x0s.append(_failure(exc))

        starts, stats = [], {}
        best_objective, best_x, steps = np.inf, None, []
        for solver in cfg.solvers:
            cell = [RunRecord("opf", cfg.base_seed, solver, start=k)
                    for k in range(cfg.opf_starts)]
            for rec, x0 in zip(cell, x0s):
                if isinstance(x0, str):
                    rec.failure = x0
                    continue
                rep = _run(rec, spec, x0, OPF_MAX_ITER)
                if solver == "proposed" and rep is not None:
                    if rep.objective < best_objective:
                        best_objective, best_x = rep.objective, rep.x
                    if rep.iterations > len(steps):    # one norm per step
                        steps = rep.trace.step_norms[1:]
            stats[solver] = _summary(cell)
            starts += cell

        _, rate_r2, _ = psg.tail_linear_fit(steps)
        report = None
        if best_x is not None:
            report = opf.postprocess_solution(best_x, net, lay, best_objective)
            fh.write(report.to_json(indent=2))
    return OPFResult(report, best_x, stats, starts, rate_r2)


def _check_solver_suite(rng):
    """Small end-to-end invariants of the solvers on one shared instance."""
    inst = cs.make_instance(("gaussian", 40, 120, 6), 7, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    x0 = np.zeros(inst.d)
    params = SolverParams(max_iter=300)
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
        baselines.BaselineParams(step_tau=tau0, max_iter=100, stop_rel_tol=0.0,
                                 keep_iterates=True),
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
    st = oracles.soft_threshold(w, 0.3)
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
    proj = polyhedron.PolyhedronProjector(
        polyhedron.PolyhedralSet(d, G=G, g=g, lo=-np.ones(d), hi=np.ones(d)))
    w = rng.standard_normal(d) * 3
    p1 = proj.project(w)
    p2 = proj.project(p1)
    yield ("projection idempotent", np.linalg.norm(p2 - p1) <= 1e-7,
           "moved %.2e" % np.linalg.norm(p2 - p1))
    v = rng.standard_normal(d) * 3
    q1 = proj.project(v)
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

    spec, _, lay = opf.build_dcopf(net)
    zero = np.zeros(lay.dim)
    yield ("h at origin", abs(spec.value_h(zero) - 0.433) < 1e-12,
           "%.6f" % spec.value_h(zero))
    half = zero.copy()
    half[lay.x_bin] = 0.5
    yield ("g at half indicators", abs(spec.value_g(half) + 3.5) < 1e-12,
           "%.4f" % spec.value_g(half))
    x0 = spec.prox_fC(zero, 1.0)
    pen = x0[lay.ppv].sum() - 0.5 * net.total_demand
    yield ("feasible point penetration", pen >= -1e-8, "slack %.2e" % pen)
    _, _, _, theta, flow = lay.unpack(x0)
    anti = np.max(np.abs(flow + flow.T))
    yield ("flow antisymmetry", anti <= 1e-7, "max %.2e" % anti)
    mixed = zero.copy()
    mixed[lay.x_bin.start:lay.x_bin.start + 2] = 0.9, 0.1
    gap = opf.binary_relaxation_gap(mixed, lay)
    yield ("relaxation gap arithmetic", abs(gap - 0.18) < 1e-12, "%.4f" % gap)


def run_checks():
    """Cross-module invariant suite; prints each check, returns the failures."""
    rng = np.random.default_rng(0)
    results = []
    for suite in (_check_oracles, _check_solver_suite, _check_projection,
                  _check_network):
        try:
            results.extend(suite(rng))
        except Exception as exc:
            results.append((suite.__name__, False, repr(exc)))
    for name, ok, detail in results:
        print("%-32s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
    failures = sum(not ok for _, ok, _ in results)
    print("%d checks, %d failures" % (len(results), failures))
    return failures

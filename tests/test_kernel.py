"""The shared iteration kernel against the loops it replaced, and its cost."""

import dataclasses

import numpy as np
import pytest

import legacy_solvers
from dcprox import cs
from dcprox.baselines import BaselineParams, gppa_solve, pdcae_solve
from dcprox.linop import LinearMap
from dcprox.problem import SolverParams
from dcprox.psg import solve

#: per-loss (gamma, max_iter) of the sweeps
LOSS_DEFAULTS = {"least-squares": (0.1, 3000), "lorentzian": (0.001, 4000)}


def sweep_params(spec, solver, max_iter, stop_rel_tol=1e-8, keep_iterates=True):
    """The step rules of bench._solve_cell, keeping every iterate by default."""
    if solver == "proposed":
        return SolverParams(max_iter=max_iter, stop_rel_tol=stop_rel_tol,
                            keep_iterates=keep_iterates)
    base_tau = 1.0 / (spec.lipschitz_ell * spec.norm_A**2)
    return BaselineParams(
        step_tau=0.8 * base_tau if solver == "gppa" else base_tau,
        max_iter=max_iter, stop_rel_tol=stop_rel_tol,
        extrapolation=solver == "pdcae", keep_iterates=keep_iterates,
    )


def run_new(spec, solver, params):
    x0 = np.zeros(spec.map_A.dim_in)
    fn = {"proposed": solve, "gppa": gppa_solve, "pdcae": pdcae_solve}[solver]
    return fn(spec, x0, params)


def run_legacy(spec, solver, params):
    x0 = np.zeros(spec.map_A.dim_in)
    if solver == "proposed":
        return legacy_solvers.psg_solve(spec, x0, params)
    return legacy_solvers.baseline_solve(spec, x0, params, solver == "pdcae")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("loss", ["least-squares", "lorentzian"])
@pytest.mark.parametrize("case", [1, 5])
def test_kernel_matches_legacy_loops(case, loss, seed):
    gamma, max_iter = LOSS_DEFAULTS[loss]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, loss))
    for solver in ("proposed", "gppa", "pdcae"):
        params = sweep_params(spec, solver, max_iter)
        new = run_new(spec, solver, params)
        status, iterations, trace, c, violation = run_legacy(spec, solver, params)
        assert (new.status, new.iterations) == (status, iterations)
        assert new.lyapunov_c == c
        assert (new.trace.lambdas, new.trace.mus, new.trace.taus) == (
            trace.lambdas, trace.mus, trace.taus)
        assert len(new.trace.iterates) == len(trace.iterates) == iterations + 1
        worst = max(float(np.max(np.abs(a - b)))
                    for a, b in zip(new.trace.iterates, trace.iterates))
        assert worst <= 1e-12, (solver, worst)
        if solver == "gppa":
            assert all(np.array_equal(a, b)
                       for a, b in zip(new.trace.iterates, trace.iterates))
            assert new.trace.objective == trace.objective
            assert new.max_lyapunov_violation == violation


@pytest.mark.parametrize("restart_period", [None, 7, 60])
@pytest.mark.parametrize("solver", ["proposed", "pdcae"])
def test_momentum_table_matches_per_iteration_schedule(solver, restart_period):
    # the table covers one restart period (7 wraps, 60 outlasts the run) or,
    # with no restart, every iteration
    inst = cs.make_instance(("gaussian", 40, 120, 6), 3, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    params = dataclasses.replace(sweep_params(spec, solver, 40, stop_rel_tol=0.0),
                                 restart_period=restart_period)
    new = run_new(spec, solver, params)
    _, iterations, trace, _, _ = run_legacy(spec, solver, params)
    assert new.iterations == iterations == 40
    assert (new.trace.lambdas, new.trace.mus, new.trace.taus) == (
        trace.lambdas, trace.mus, trace.taus)


class CountingMap(LinearMap):
    """A LinearMap that counts its apply and adjoint calls."""

    def __init__(self, map_):
        super().__init__(map_.apply, map_.adjoint, map_.dim_in, map_.dim_out)
        self.counts = {"apply": 0, "adjoint": 0}

    def apply(self, x):
        self.counts["apply"] += 1
        return super().apply(x)

    def adjoint(self, y):
        self.counts["adjoint"] += 1
        return super().adjoint(y)


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_one_apply_and_one_adjoint_per_iteration(solver):
    inst = cs.make_instance(("gaussian", 40, 120, 6), 3, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    spec = dataclasses.replace(spec, map_A=CountingMap(spec.map_A))
    rep = run_new(spec, solver, sweep_params(spec, solver, 50, stop_rel_tol=0.0))
    assert rep.iterations == 50
    assert spec.map_A.counts == {"apply": 1 + 50, "adjoint": 50}


@pytest.mark.parametrize("case", [7, 8])
def test_large_dct_cases_smoke(case):
    gamma, _ = LOSS_DEFAULTS["least-squares"]
    spec = cs.build_cs_problem(cs.make_instance(case, 0, gamma, "least-squares"))
    f0 = spec.objective(np.zeros(spec.map_A.dim_in))
    for solver in ("proposed", "gppa", "pdcae"):
        counted = dataclasses.replace(spec, map_A=CountingMap(spec.map_A))
        params = sweep_params(counted, solver, 30, stop_rel_tol=0.0)
        rep = run_new(counted, solver, params)
        assert rep.iterations == 30
        assert np.all(np.isfinite(rep.x))
        assert rep.objective <= f0
        assert counted.map_A.counts == {"apply": 1 + 30, "adjoint": 30}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("loss", ["least-squares", "lorentzian"])
@pytest.mark.parametrize("case", [5, 6])
def test_dct_map_solves_like_its_matrix(case, loss, seed):
    gamma, max_iter = LOSS_DEFAULTS[loss]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, loss))
    dense = dataclasses.replace(
        spec, map_A=LinearMap.from_matrix(spec.map_A.dense()))
    for solver in ("proposed", "gppa", "pdcae"):
        params = sweep_params(spec, solver, max_iter, keep_iterates=False)
        fft, mat = run_new(spec, solver, params), run_new(dense, solver, params)
        assert (fft.status, fft.iterations) == (mat.status, mat.iterations)
        assert abs(fft.objective - mat.objective) <= 1e-12 * abs(mat.objective)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", [1, 2])
def test_support_products_solve_like_full_products(case, seed):
    gamma, max_iter = LOSS_DEFAULTS["least-squares"]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, "least-squares"))
    A = spec.map_A.dense()
    full = dataclasses.replace(spec, map_A=LinearMap(
        lambda x: A @ x, lambda y: A.T @ y, A.shape[1], A.shape[0]))
    for solver in ("proposed", "gppa", "pdcae"):
        params = sweep_params(spec, solver, max_iter, keep_iterates=False)
        sup, mat = run_new(spec, solver, params), run_new(full, solver, params)
        assert (sup.status, sup.iterations) == (mat.status, mat.iterations)
        assert abs(sup.objective - mat.objective) <= 1e-12 * abs(mat.objective)


def prox_failing_at(spec, k, bad):
    """spec whose prox_fC returns a finite point except at call k (0-based),
    where entry 0 of its output is replaced by bad."""
    calls = [0]

    def prox_fC(w, tau):
        out = spec.prox_fC(w, tau)
        if calls[0] == k:
            out[0] = bad
        calls[0] += 1
        return out

    return dataclasses.replace(spec, prox_fC=prox_fC)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_non_finite_iterate_raises_at_its_iteration(solver, bad):
    inst = cs.make_instance(("gaussian", 40, 120, 6), 3, 0.1, "least-squares")
    spec = prox_failing_at(cs.build_cs_problem(inst), 7, bad)
    params = sweep_params(spec, solver, 50, stop_rel_tol=0.0)
    with pytest.raises(FloatingPointError, match="non-finite iterate at iteration 7$"):
        run_new(spec, solver, params)


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_finite_iterate_whose_step_overflows_does_not_raise(solver):
    inst = cs.make_instance(("gaussian", 40, 120, 6), 3, 0.1, "least-squares")
    spec = prox_failing_at(cs.build_cs_problem(inst), 7, 1e200)
    with np.errstate(over="ignore"):  # ||x_8 - x_7||^2 overflows, by design
        rep = run_new(spec, solver, sweep_params(spec, solver, 8, stop_rel_tol=0.0))
    assert rep.iterations == 8
    assert rep.trace.step_norms[-1] == np.inf
    assert np.isfinite(rep.x).all()


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_nan_objective_is_reported_as_nan_violation(solver):
    # x_8 has the finite entry 1e200: F(x_8) = finite + inf - inf = nan
    inst = cs.make_instance(("gaussian", 40, 120, 6), 3, 0.1, "least-squares")
    spec = prox_failing_at(cs.build_cs_problem(inst), 7, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = run_new(spec, solver, sweep_params(spec, solver, 8, stop_rel_tol=0.0))
    assert np.isnan(rep.objective)
    assert np.isnan(rep.max_lyapunov_violation)

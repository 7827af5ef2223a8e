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


def sweep_params(spec, solver, max_iter, stop_rel_tol=1e-8):
    """The step rules of bench._solve_cell, keeping every iterate."""
    if solver == "proposed":
        return SolverParams(max_iter=max_iter, stop_rel_tol=stop_rel_tol,
                            keep_iterates=True)
    base_tau = 1.0 / (spec.lipschitz_ell * spec.norm_A**2)
    return BaselineParams(
        step_tau=0.8 * base_tau if solver == "gppa" else base_tau,
        max_iter=max_iter, stop_rel_tol=stop_rel_tol,
        extrapolation=solver == "pdcae", keep_iterates=True,
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

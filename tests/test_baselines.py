import numpy as np
import pytest

from dcprox import cs
from dcprox.baselines import BaselineParams, gppa_solve, pdcae_solve
from dcprox.problem import SolverParams, tau_upper_bound
from dcprox.psg import solve as psg_solve


def make_problem(seed=0):
    inst = cs.make_instance(("gaussian", 40, 120, 6), seed, 0.1, "least-squares")
    return inst, cs.build_cs_problem(inst)


def test_params_validation():
    with pytest.raises(ValueError):
        BaselineParams(step_tau=0.0)
    with pytest.raises(ValueError):
        BaselineParams(step_tau=0.1, max_iter=0)
    with pytest.raises(ValueError):
        BaselineParams(step_tau=0.1, stop_rel_tol=-1.0)


def test_gppa_single_step_formula():
    inst, spec = make_problem()
    tau = 0.5 / (spec.lipschitz_ell * spec.norm_A**2)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(inst.d)
    rep = gppa_solve(spec, x0, BaselineParams(step_tau=tau, max_iter=1,
                                              stop_rel_tol=0.0))
    grad = inst.A.T @ spec.grad_h(inst.A @ x0)
    g = spec.subgrad_g(x0)
    want = cs.soft_threshold(x0 - tau * grad + tau * g, inst.gamma * tau)
    assert np.allclose(rep.x, want, atol=1e-14)


def test_gppa_converges_and_descends():
    inst, spec = make_problem()
    tau = 0.8 / (spec.lipschitz_ell * spec.norm_A**2)
    rep = gppa_solve(spec, np.zeros(inst.d),
                     BaselineParams(step_tau=tau, max_iter=3000))
    assert rep.status == "converged"
    assert rep.max_lyapunov_violation <= 1e-10


def test_pdcae_momentum_accelerates():
    inst, spec = make_problem()
    base = 1.0 / (spec.lipschitz_ell * spec.norm_A**2)
    plain = pdcae_solve(spec, np.zeros(inst.d),
                        BaselineParams(step_tau=base, max_iter=3000))
    fast = pdcae_solve(spec, np.zeros(inst.d),
                       BaselineParams(step_tau=base, max_iter=3000,
                                      extrapolation=True))
    assert fast.status == "converged"
    assert fast.iterations < plain.iterations


def test_pdcae_without_momentum_equals_gppa():
    inst, spec = make_problem()
    params = BaselineParams(step_tau=0.2, max_iter=40, stop_rel_tol=0.0)
    a = pdcae_solve(spec, np.zeros(inst.d), params)
    b = gppa_solve(spec, np.zeros(inst.d), params)
    assert np.array_equal(a.x, b.x)


def test_zero_momentum_psg_equals_gppa_trajectory():
    inst, spec = make_problem(seed=9)
    flat = SolverParams(lambda_bar=0.0, mu_bar=0.0, max_iter=100,
                        stop_rel_tol=0.0, keep_iterates=True)
    tau = tau_upper_bound(spec, flat)
    a = psg_solve(spec, np.zeros(inst.d), flat)
    b = gppa_solve(spec, np.zeros(inst.d),
                   BaselineParams(step_tau=tau, max_iter=100, stop_rel_tol=0.0))
    diffs = [np.max(np.abs(xa - xb))
             for xa, xb in zip(a.trace.iterates, b.trace.iterates)]
    assert max(diffs) <= 1e-12


def test_baseline_rejects_infeasible_start():
    inst, spec = make_problem()
    from dataclasses import replace

    guarded = replace(spec, is_feasible=lambda x: False)
    with pytest.raises(ValueError):
        gppa_solve(guarded, np.zeros(inst.d), BaselineParams(step_tau=0.1))


@pytest.mark.parametrize("keep, kept", [(None, True), (True, True), (False, False)])
def test_baselines_keep_iterates_as_asked(keep, kept):
    inst, spec = make_problem()
    params = BaselineParams(step_tau=0.2, max_iter=5, keep_iterates=keep)
    for fn in (gppa_solve, pdcae_solve):
        rep = fn(spec, np.zeros(inst.d), params)
        assert (rep.trace.iterates is not None) == kept

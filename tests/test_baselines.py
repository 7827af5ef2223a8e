import numpy as np
import pytest
from test_kernel import make_problem

from dcprox import oracles
from dcprox.baselines import BaselineParams, gppa_solve, pdcae_solve
from dcprox.problem import SolverParams
from dcprox.psg import solve as psg_solve


def test_gppa_single_step_formula():
    inst, spec = make_problem()
    tau = 0.5 / (spec.lipschitz_ell * spec.norm_A**2)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(inst.d)
    rep = gppa_solve(spec, x0, BaselineParams(step_tau=tau, max_iter=1,
                                              stop_rel_tol=0.0))
    A = inst.A.dense()
    grad = A.T @ spec.grad_h(A @ x0)
    g = spec.subgrad_g(x0)
    want = oracles.soft_threshold(x0 - tau * grad + tau * g, inst.gamma * tau)
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


@pytest.mark.parametrize("keep, kept", [(None, False), (True, True), (False, False)])
def test_baselines_keep_iterates_as_asked(keep, kept):
    # keep=None leaves the option unset, so the default applies.
    inst, spec = make_problem()
    opt = {} if keep is None else {"keep_iterates": keep}
    x0 = np.zeros(inst.d)
    reports = [fn(spec, x0, BaselineParams(step_tau=0.2, max_iter=5, **opt))
               for fn in (gppa_solve, pdcae_solve)]
    reports.append(psg_solve(spec, x0, SolverParams(max_iter=5, **opt)))
    for rep in reports:
        if kept:
            assert len(rep.trace.iterates) == rep.iterations + 1
        else:
            assert rep.trace.iterates is None

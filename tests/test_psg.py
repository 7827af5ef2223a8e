import numpy as np
import pytest

from dcprox import cs
from dcprox.problem import SolverParams, tau_upper_bound
from dcprox.psg import (
    ExtrapolationState,
    check_decrease,
    extrapolation_coeffs,
    lyapunov_c,
    solve,
    tail_linear_fit,
)

GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))


def make_problem(seed=0, m=40, d=120, s=6, gamma=0.1, loss="least-squares"):
    inst = cs.make_instance(("gaussian", m, d, s), seed, gamma, loss)
    return inst, cs.build_cs_problem(inst)


def test_momentum_schedule_first_values():
    st = ExtrapolationState()
    lam0, mu0, st = extrapolation_coeffs(st, 0.1, 0.01, 0.5, 50)
    assert lam0 == 0.0 and mu0 == 0.0
    lam1, mu1, st = extrapolation_coeffs(st, 0.1, 0.01, 0.5, 50)
    assert lam1 == 0.0 and mu1 == 0.0  # kappa_0 = 1 keeps the ratio zero
    # kappa_1 = (1 + sqrt(5)) / 2, kappa_2 = (1 + sqrt(1 + 4 kappa_1^2)) / 2
    kappa_2 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * GOLDEN**2))
    lam2, mu2, _ = extrapolation_coeffs(st, 0.1, 0.01, 0.5, 50)
    expect = (GOLDEN - 1.0) / kappa_2
    assert abs(lam2 - 0.1 * expect) < 1e-14
    assert abs(mu2 - 0.01 * 0.5 * expect) < 1e-14


def test_momentum_coefficients_bounded():
    st = ExtrapolationState()
    for _ in range(500):
        lam, mu, st = extrapolation_coeffs(st, 0.1, 0.01, 0.7, 50)
        assert 0.0 <= lam <= 0.1
        assert 0.0 <= mu <= 0.01 * 0.7


def test_restart_resets_schedule():
    st = ExtrapolationState()
    lams = []
    for _ in range(120):
        lam, _, st = extrapolation_coeffs(st, 1.0, 0.0, 1.0, 50)
        lams.append(lam)
    # After a reset the ratio collapses to zero again.
    assert lams[50] == 0.0 and lams[100] == 0.0
    assert lams[49] > 0.5 and lams[99] > 0.5


def test_no_restart_when_period_none():
    st = ExtrapolationState()
    lams = []
    for _ in range(200):
        lam, _, st = extrapolation_coeffs(st, 1.0, 0.0, 1.0, None)
        lams.append(lam)
    assert all(b >= a for a, b in zip(lams[1:], lams[2:]))


def test_extrapolation_rejects_bad_tau():
    with pytest.raises(ValueError):
        extrapolation_coeffs(ExtrapolationState(), 0.1, 0.01, 0.0)


def test_psg_step_zero_momentum_is_proximal_gradient():
    # At n = 0 the kappa schedule gives lambda = mu = 0, so the first update
    # is the proximal gradient step at tau_upper_bound.
    inst, spec = make_problem()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(inst.d)
    params = SolverParams(max_iter=1, stop_rel_tol=0.0)
    rep = solve(spec, x, params)
    assert rep.iterations == 1
    assert rep.trace.lambdas[1] == 0.0 and rep.trace.mus[1] == 0.0
    tau = tau_upper_bound(spec, params)
    assert rep.trace.taus[1] == tau
    g = spec.subgrad_g(x)
    A = inst.A.dense()
    grad = A.T @ spec.grad_h(A @ x)
    want = cs.soft_threshold(x - tau * grad + tau * g, inst.gamma * tau)
    assert np.allclose(rep.x, want, atol=1e-14)


def test_lyapunov_weight_value():
    _, spec = make_problem()
    params = SolverParams()
    c = lyapunov_c(spec, params)
    want = 0.5 * (spec.lipschitz_ell * spec.norm_A**2 * 0.1 + 0.01)
    assert abs(c - want) < 1e-15


def test_solve_descends_and_converges():
    inst, spec = make_problem()
    rep = solve(spec, np.zeros(inst.d), SolverParams(max_iter=2000))
    assert rep.status == "converged"
    assert rep.max_lyapunov_violation <= 1e-10 * (1 + abs(spec.objective(np.zeros(inst.d))))
    assert rep.objective < spec.objective(np.zeros(inst.d))
    # trace invariants
    assert len(rep.trace) == rep.iterations + 1
    assert check_decrease(rep.trace, rep.lyapunov_c, 5e-25) <= 1e-12


def test_solve_rejects_infeasible_start():
    inst, spec = make_problem()
    from dataclasses import replace

    guarded = replace(spec, is_feasible=lambda x: False)
    with pytest.raises(ValueError):
        solve(guarded, np.zeros(inst.d), SolverParams())


def test_solve_surfaces_nonfinite_iterates():
    inst, spec = make_problem()
    from dataclasses import replace

    broken = replace(spec, grad_h=lambda z: z * np.nan)
    with pytest.raises(FloatingPointError):
        solve(broken, np.zeros(inst.d), SolverParams(max_iter=5))


def test_solve_wraps_prox_failures():
    inst, spec = make_problem()
    from dataclasses import replace

    def bad_prox(w, tau):
        raise RuntimeError("boom")

    broken = replace(spec, prox_fC=bad_prox)
    with pytest.raises(RuntimeError, match="prox oracle failed at iteration"):
        solve(broken, np.zeros(inst.d), SolverParams(max_iter=5))


def test_check_decrease_flags_injected_increase():
    inst, spec = make_problem()
    rep = solve(spec, np.zeros(inst.d), SolverParams(max_iter=50,
                                                     stop_rel_tol=0.0))
    rep.trace.objective[10] += 1.0  # corrupt the history on purpose
    assert check_decrease(rep.trace, rep.lyapunov_c, 5e-25) > 0.5


def test_tail_linear_fit_geometric_sequence():
    vals = 3.0 * 0.8 ** np.arange(100)
    slope, r2, n = tail_linear_fit(vals, tail_fraction=0.5)
    assert abs(slope - np.log(0.8)) < 1e-10
    assert r2 > 0.999999
    assert n == 50


def test_tail_linear_fit_short_input():
    slope, r2, n = tail_linear_fit([1.0, 0.5])
    assert np.isnan(slope) and np.isnan(r2) and n < 3

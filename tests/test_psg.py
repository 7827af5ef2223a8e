from dataclasses import replace

import numpy as np
import pytest

from dcprox import cs
from dcprox.oracles import soft_threshold
from dcprox.problem import SolverParams, tau_upper_bound
from dcprox.psg import lyapunov_c, momentum_table, solve, tail_linear_fit
from test_kernel import both_loops, make_problem, run_new, sweep_params

GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))


def unrolled(table, iterations):
    """The entries iterations 0, 1, ... of psg.iterate read from a table."""
    return [table[n % len(table)] for n in range(iterations)]


def test_momentum_schedule_first_values():
    ratios = momentum_table(50, 3)
    assert ratios[0] == 0.0
    assert ratios[1] == 0.0  # kappa_0 = 1 keeps the ratio zero
    # kappa_1 = (1 + sqrt(5)) / 2, kappa_2 = (1 + sqrt(1 + 4 kappa_1^2)) / 2
    kappa_2 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * GOLDEN**2))
    assert abs(ratios[2] - (GOLDEN - 1.0) / kappa_2) < 1e-14


def test_momentum_coefficients_bounded():
    # solve scales the ratios by lambda_bar and mu_bar tau, so r < 1 bounds
    # lambda_n by lambda_bar and mu_n by mu_bar tau
    ratios = momentum_table(50, 500)
    assert len(ratios) == 50
    assert all(0.0 <= r < 1.0 for r in ratios)


def test_restart_resets_schedule():
    table = momentum_table(50, 120)
    assert len(table) == 50
    ratios = unrolled(table, 120)
    # After a reset the ratio collapses to zero again.
    assert ratios[50] == 0.0 and ratios[100] == 0.0
    assert ratios[49] > 0.5 and ratios[99] > 0.5


def test_no_restart_when_period_none():
    ratios = momentum_table(None, 200)
    assert len(ratios) == 200
    assert all(b >= a for a, b in zip(ratios[1:], ratios[2:]))


def test_psg_step_zero_momentum_is_proximal_gradient():
    # At n = 0 the kappa schedule gives lambda = mu = 0, so the first update
    # is the proximal gradient step at tau_upper_bound.
    inst, spec = make_problem()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(inst.d)
    params = SolverParams(max_iter=1, stop_rel_tol=0.0)
    rep = solve(spec, x, params)
    assert rep.iterations == 1
    tau = tau_upper_bound(spec, params)
    g = spec.subgrad_g(x)
    A = inst.A.dense()
    grad = A.T @ spec.grad_h(A @ x)
    want = soft_threshold(x - tau * grad + tau * g, inst.gamma * tau)
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
    assert len(rep.trace.objective) == rep.iterations + 1


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_solve_wraps_prox_failures(solver):
    # each oracle is called once per iteration, so its 4th call is in
    # iteration 3; the message names the oracle that raised
    inst, spec = make_problem()

    def fails_at_4th_call(good):
        calls = [0]

        def bad(*args):
            calls[0] += 1
            if calls[0] == 4:
                raise KeyError("boom")
            return good(*args)

        return bad

    params = sweep_params(spec, solver, 5, stop_rel_tol=0.0)
    for oracle in ("prox_fC", "grad_h", "subgrad_g"):
        bad = replace(spec, **{oracle: fails_at_4th_call(getattr(spec, oracle))})
        with pytest.raises(RuntimeError, match=r"^%s failed at iteration 3$" % oracle) as err:
            run_new(bad, solver, params)
        assert isinstance(err.value.__cause__, KeyError), oracle

    # the full A* product, and the column product of a screened problem
    # (case 2), fail alike in both loops
    screened = cs.build_cs_problem(cs.make_instance(2, 3, 0.1, "least-squares"))
    for problem, fail, params, at in (
            (spec, ("adjoint", 4), params, "3"),
            (screened, ("adjoint_columns", 1), sweep_params(screened, solver, 3000), r"\d+")):
        for bad in both_loops(problem, fail):
            with pytest.raises(RuntimeError,
                               match=r"^A\* product failed at iteration %s$" % at) as err:
                run_new(bad, solver, params)
            assert isinstance(err.value.__cause__, ArithmeticError), fail


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_lyapunov_monitor_flags_injected_increase(solver):
    # value_h is called once for F(x_0) and once per iteration, so its 11th
    # call inflates F(x_10) by 1.0 and the monitored decrease at iteration 10
    # by about as much
    _, spec = make_problem()
    calls = [0]

    def value_h(z):
        calls[0] += 1
        return spec.value_h(z) + (1.0 if calls[0] == 11 else 0.0)

    params = sweep_params(spec, solver, 50, stop_rel_tol=0.0, keep_iterates=False)
    rep = run_new(replace(spec, value_h=value_h), solver, params)
    assert rep.iterations == 50
    assert rep.max_lyapunov_violation > 0.5


def test_tail_linear_fit_geometric_sequence():
    vals = 3.0 * 0.8 ** np.arange(100)
    slope, r2, n = tail_linear_fit(vals)
    assert abs(slope - np.log(0.8)) < 1e-10
    assert r2 > 0.999999
    assert n == 100


def test_tail_linear_fit_short_input():
    slope, r2, n = tail_linear_fit([1.0, 0.5])
    assert np.isnan(slope) and np.isnan(r2) and n < 3

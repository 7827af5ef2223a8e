"""Extrapolated proximal subgradient solver with restart and monitoring."""

import time
from dataclasses import dataclass

import numpy as np

from .problem import IterateTrace, SolveReport, tau_upper_bound


@dataclass(frozen=True)
class ExtrapolationState:
    """Carries (kappa_{n-1}, kappa_n) of the FISTA-type schedule."""

    kappa_prev: float = 1.0
    kappa_curr: float = 1.0
    iter_since_restart: int = 0


def extrapolation_coeffs(state, lambda_bar, mu_bar, tau_n, restart_period=None):
    """Momentum coefficients for the current iteration, plus the next state.

    Returns lambda_n = lambda_bar (kappa_{n-1} - 1) / kappa_n and
    mu_n = mu_bar tau_n (kappa_{n-1} - 1) / kappa_n, then advances the
    golden-ratio-style recursion kappa_{n+1} = (1 + sqrt(1 + 4 kappa_n^2)) / 2.
    When restart_period iterations have elapsed the kappas reset to 1.
    """
    if tau_n <= 0:
        raise ValueError("tau_n must be positive")
    ratio = (state.kappa_prev - 1.0) / state.kappa_curr
    lam = lambda_bar * ratio
    mu = mu_bar * tau_n * ratio
    kappa_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * state.kappa_curr**2))
    count = state.iter_since_restart + 1
    if restart_period is not None and count >= restart_period:
        nxt = ExtrapolationState(1.0, 1.0, 0)
    else:
        nxt = ExtrapolationState(state.kappa_curr, kappa_next, count)
    return lam, mu, nxt


def psg_step(spec, x_n, x_prev, g_n, lam, mu, tau):
    """One proximal subgradient update with two-point extrapolation.

    Forms u_n = x_n + lam (x_n - x_prev), v_n = x_n + mu (x_n - x_prev) and
    returns prox_{tau (f + i_C)}(v_n - tau A* grad_h(A u_n) + tau g_n).
    """
    d = x_n - x_prev
    u = x_n + lam * d
    v = x_n + mu * d
    grad = spec.map_A.adjoint(spec.grad_h(spec.map_A.apply(u)))
    w = v - tau * grad + tau * g_n
    return spec.prox_fC(w, tau)


def lyapunov_c(spec, params):
    """The quadratic weight c = (ell ||A||^2 lambda_bar + mu_bar) / 2."""
    return 0.5 * (
        spec.lipschitz_ell * spec.norm_A**2 * params.lambda_bar + params.mu_bar
    )


def iterate(spec, x0, params, schedule, c=0.0, delta=0.0, wrap_errors=False):
    """The iteration loop of the proposed solver, GPPA and pDCAe.

    schedule(n, state) -> (tau, lam, mu, state) is the momentum policy; state
    starts at ExtrapolationState().  The gradient of h o A is taken at
    u_n = x_n + lam (x_n - x_{n-1}) and the prox at v_n = x_n + mu (x_n -
    x_{n-1}), or at u_n when mu is None (recorded as mu = 0).  A u_n comes
    from the cached A x_n and A x_{n-1}, and F(x_{n+1}) from the one fresh
    product A x_{n+1}.  c and delta set the monitored Lyapunov decrease;
    wrap_errors re-raises failures of the step as RuntimeError.
    """
    x = np.array(x0, dtype=float)
    if spec.is_feasible is not None and not spec.is_feasible(x):
        raise ValueError("starting point is infeasible")
    keep = params.keep_iterates if params.keep_iterates is not None else x.size <= 2048

    def objective(x, Ax):
        return spec.value_f(x) + spec.value_h(Ax) - spec.value_g(x)

    Ax = spec.map_A.apply(x)
    f0 = objective(x, Ax)
    trace = IterateTrace(iterates=[] if keep else None)
    trace.record(f0, 0.0, f0, 0.0, 0.0, 0.0, x)

    state = ExtrapolationState()
    x_prev, Ax_prev = x, Ax
    status = "max-iter"
    iterations = 0
    max_violation = 0.0
    t0 = time.perf_counter()
    for n in range(params.max_iter):
        tau, lam, mu, state = schedule(n, state)
        g_n = spec.subgrad_g(x)
        try:
            Au = Ax if lam == 0.0 else Ax + lam * (Ax - Ax_prev)
            grad = spec.map_A.adjoint(spec.grad_h(Au))
            mu_v = lam if mu is None else mu
            v = x if mu_v == 0.0 else x + mu_v * (x - x_prev)
            x_next = spec.prox_fC(v - tau * grad + tau * g_n, tau)
        except Exception as exc:
            if wrap_errors:
                raise RuntimeError("prox oracle failed at iteration %d" % n) from exc
            raise
        if not np.all(np.isfinite(x_next)):
            raise FloatingPointError("non-finite iterate at iteration %d" % n)

        step = float(np.linalg.norm(x_next - x))
        Ax_next = spec.map_A.apply(x_next)
        fval = objective(x_next, Ax_next)
        lyap = fval + c * step * step
        violation = lyap + delta * step * step - trace.lyapunov[-1]
        max_violation = max(max_violation, violation)
        trace.record(fval, step, lyap, lam, 0.0 if mu is None else mu, tau, x_next)

        xn_norm = float(np.linalg.norm(x))
        rel = step / xn_norm if xn_norm > 0 else step
        x_prev, x = x, x_next
        Ax_prev, Ax = Ax, Ax_next
        iterations = n + 1
        if n >= 1 and rel < params.stop_rel_tol:
            status = "converged"
            break

    return SolveReport(
        x=x,
        objective=trace.objective[-1],
        iterations=iterations,
        status=status,
        trace=trace,
        lyapunov_c=c,
        max_lyapunov_violation=max_violation,
        wall_time=time.perf_counter() - t0,
    )


def solve(spec, x0, params):
    """Run the extrapolated proximal subgradient algorithm from x0 in C.

    Stops when the relative step ||x_{n+1} - x_n|| / ||x_n|| drops below
    params.stop_rel_tol (tested from the second update on; absolute step
    norm is used whenever ||x_n|| = 0) or after params.max_iter updates.
    Each iteration costs one A product, one A* product, one prox_fC and
    one subgrad_g call; F(x0) costs one more A product.
    """
    tau_bar = tau_upper_bound(spec, params)

    def schedule(n, state):
        tau = tau_bar if params.tau_sequence is None else float(params.tau_sequence[n])
        if not (0.0 < tau <= tau_bar * (1.0 + 1e-12)):
            raise ValueError("tau_sequence value outside (0, tau_upper_bound]")
        lam, mu, state = extrapolation_coeffs(
            state, params.lambda_bar, params.mu_bar, tau, params.restart_period
        )
        assert 0.0 <= lam <= params.lambda_bar
        assert 0.0 <= mu <= params.mu_bar * tau
        return tau, lam, mu, state

    return iterate(spec, x0, params, schedule, c=lyapunov_c(spec, params),
                   delta=params.delta, wrap_errors=True)


def check_decrease(trace, c, delta, tol=0.0):
    """Max positive violation of the per-iteration Lyapunov decrease.

    Evaluates max_n [ F(x_{n+1}) + c s_{n+1}^2 + delta s_{n+1}^2
    - F(x_n) - c s_n^2 ]_+ over the recorded trace, where s_n is the step
    norm.  The inequality holds (violation <= tol) for exact-prox runs.
    """
    worst = 0.0
    for n in range(len(trace) - 1):
        f_n = trace.objective[n] + c * trace.step_norms[n] ** 2
        s = trace.step_norms[n + 1]
        f_next = trace.objective[n + 1] + (c + delta) * s * s
        worst = max(worst, f_next - f_n)
    return max(worst, 0.0)


def tail_linear_fit(values, tail_fraction=0.5, floor=1e-14):
    """Least-squares linear fit of log(values) over the trailing window.

    Returns (slope, r_squared, n_points).  Values at or below `floor` are
    dropped.  Used as an empirical linear-convergence diagnostic.
    """
    v = np.asarray(values, dtype=float)
    keep = v > floor
    v = v[keep]
    idx = np.nonzero(keep)[0]
    start = int(len(v) * (1.0 - tail_fraction))
    v = v[start:]
    idx = idx[start:]
    if len(v) < 3:
        return float("nan"), float("nan"), len(v)
    y = np.log(v)
    A = np.vstack([idx, np.ones_like(idx)]).T.astype(float)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2, len(v)

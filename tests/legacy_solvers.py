"""Frozen reference loops for the equivalence tests of the iteration kernel.

These are the two solver loops the package had before `psg.iterate` merged
them: the extrapolated solver and the GPPA / pDCAe baseline loop.  Each
iteration takes the gradient at a freshly formed extrapolation point and
re-evaluates the objective with a second `A` product.  Only the arithmetic
the tests exercise is kept (constant step, every iterate kept, no input
checks, no timing): they are the reference that `tests/test_kernel.py`
compares against, so do not change them.

The loops own their momentum schedule (`ExtrapolationState`,
`extrapolation_coeffs`: the kappa recursion advanced one iteration at a
time, as the package computed it before `psg.momentum_table` tabulated it)
and their trace, which records the lambda, mu and tau each iteration used.
So the schedule the kernel takes from `psg.momentum_table` is checked
against an independent copy.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from dcprox.problem import tau_upper_bound
from dcprox.psg import lyapunov_c


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
    kappa_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.kappa_curr**2))
    count = state.iter_since_restart + 1
    if restart_period is not None and count >= restart_period:
        nxt = ExtrapolationState(1.0, 1.0, 0)
    else:
        nxt = ExtrapolationState(state.kappa_curr, kappa_next, count)
    return lam, mu, nxt


@dataclass
class IterateTrace:
    """Per-iteration scalars, momenta and iterates of a reference run."""

    objective: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    lyapunov: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    mus: list = field(default_factory=list)
    taus: list = field(default_factory=list)
    iterates: Optional[list] = None

    def record(self, obj, step, lyap, lam, mu, tau, x=None):
        self.objective.append(float(obj))
        self.step_norms.append(float(step))
        self.lyapunov.append(float(lyap))
        self.lambdas.append(float(lam))
        self.mus.append(float(mu))
        self.taus.append(float(tau))
        if self.iterates is not None and x is not None:
            self.iterates.append(np.array(x, copy=True))


def psg_solve(spec, x0, params):
    """The extrapolated proximal subgradient loop, as it was."""
    x = np.array(x0, dtype=float)
    tau = tau_upper_bound(spec, params)
    c = lyapunov_c(spec, params)
    trace = IterateTrace(iterates=[])
    f0 = spec.objective(x)
    trace.record(f0, 0.0, f0, 0.0, 0.0, 0.0, x)

    state = ExtrapolationState()
    x_prev = x.copy()
    status = "max-iter"
    iterations = 0
    max_violation = 0.0
    for n in range(params.max_iter):
        lam, mu, state = extrapolation_coeffs(
            state, params.lambda_bar, params.mu_bar, tau, params.restart_period
        )
        g_n = spec.subgrad_g(x)
        d = x - x_prev
        u = x + lam * d
        v = x + mu * d
        grad = spec.map_A.adjoint(spec.grad_h(spec.map_A.apply(u)))
        x_next = spec.prox_fC(v - tau * grad + tau * g_n, tau)

        step = float(np.linalg.norm(x_next - x))
        fval = spec.objective(x_next)
        lyap = fval + c * step * step
        violation = lyap + params.delta * step * step - trace.lyapunov[-1]
        max_violation = max(max_violation, violation)
        trace.record(fval, step, lyap, lam, mu, tau, x_next)

        xn_norm = float(np.linalg.norm(x))
        rel = step / xn_norm if xn_norm > 0 else step
        x_prev, x = x, x_next
        iterations = n + 1
        if n >= 1 and rel < params.stop_rel_tol:
            status = "converged"
            break
    return status, iterations, trace, c, max_violation


def baseline_solve(spec, x0, params, momentum):
    """The GPPA (momentum False) / pDCAe (momentum True) loop, as it was."""
    x = np.array(x0, dtype=float)
    tau = params.step_tau
    trace = IterateTrace(iterates=[])
    f0 = spec.objective(x)
    trace.record(f0, 0.0, f0, 0.0, 0.0, 0.0, x)

    state = ExtrapolationState()
    x_prev = x.copy()
    status = "max-iter"
    iterations = 0
    worst = 0.0
    for n in range(params.max_iter):
        if momentum:
            theta, _, state = extrapolation_coeffs(
                state, 1.0, 0.0, tau, params.restart_period
            )
        else:
            theta = 0.0
        g_n = spec.subgrad_g(x)
        y = x + theta * (x - x_prev)
        grad = spec.map_A.adjoint(spec.grad_h(spec.map_A.apply(y)))
        x_next = spec.prox_fC(y - tau * grad + tau * g_n, tau)

        step = float(np.linalg.norm(x_next - x))
        fval = spec.objective(x_next)
        worst = max(worst, fval - trace.objective[-1])
        trace.record(fval, step, fval, theta, 0.0, tau, x_next)

        xn_norm = float(np.linalg.norm(x))
        rel = step / xn_norm if xn_norm > 0 else step
        x_prev, x = x, x_next
        iterations = n + 1
        if n >= 1 and rel < params.stop_rel_tol:
            status = "converged"
            break
    return status, iterations, trace, 0.0, worst

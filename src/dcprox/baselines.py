"""Baseline algorithms sharing the oracles of the extrapolated solver."""

from dataclasses import dataclass
from typing import Optional

from .psg import extrapolation_coeffs, iterate


@dataclass(frozen=True)
class BaselineParams:
    """Fixed step size and stopping rule for GPPA / pDCAe."""

    step_tau: float
    max_iter: int = 3000
    stop_rel_tol: float = 1e-8
    extrapolation: bool = False  # pDCAe momentum on/off
    restart_period: int = 50
    keep_iterates: Optional[bool] = None  # None: keep when d <= 2048

    def __post_init__(self):
        if self.step_tau <= 0:
            raise ValueError("step_tau must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.stop_rel_tol < 0:
            raise ValueError("stop_rel_tol must be nonnegative")


def gppa_solve(spec, x0, params):
    """Generalized proximal point algorithm: fixed-step, no extrapolation.

    x_{n+1} = prox_{tau (f + i_C)}(x_n - tau grad(h o A)(x_n) + tau g_n).
    """
    return iterate(spec, x0, params,
                   lambda n, state: (params.step_tau, 0.0, None, state))


def pdcae_solve(spec, x0, params):
    """Proximal difference-of-convex iteration with FISTA-type momentum.

    y_n = x_n + theta_n (x_n - x_{n-1}) with theta_n = (kappa_{n-1}-1)/kappa_n
    (reset every restart_period iterations);
    x_{n+1} = prox_{tau (f + i_C)}(y_n - tau grad(h o A)(y_n) + tau g_n),
    where g_n is taken at x_n.  Requires convex f, h o A, and g; this is a
    caller obligation, not checked here.  Without params.extrapolation,
    theta_n = 0 and this is GPPA.
    """
    if not params.extrapolation:
        return gppa_solve(spec, x0, params)

    def schedule(n, state):
        theta, _, state = extrapolation_coeffs(
            state, 1.0, 0.0, params.step_tau, params.restart_period
        )
        return params.step_tau, theta, None, state

    return iterate(spec, x0, params, schedule)

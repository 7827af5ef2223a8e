"""Baseline algorithms sharing the oracles of the extrapolated solver."""

from dataclasses import dataclass

from .problem import LoopParams, check_number
from .psg import iterate, momentum_table


@dataclass(frozen=True, kw_only=True)
class BaselineParams(LoopParams):
    """Fixed step size and momentum switch for GPPA / pDCAe."""

    step_tau: float
    extrapolation: bool = False  # pDCAe momentum on/off

    def __post_init__(self):
        super().__post_init__()
        check_number("step_tau", self.step_tau, positive=True)


def gppa_solve(spec, x0, params):
    """Generalized proximal point algorithm: fixed-step, no extrapolation.

    x_{n+1} = prox_{tau (f + i_C)}(x_n - tau grad(h o A)(x_n) + tau g_n).
    """
    return iterate(spec, x0, params, params.step_tau, [0.0], [0.0])


def pdcae_solve(spec, x0, params):
    """Proximal difference-of-convex iteration with FISTA-type momentum.

    y_n = x_n + theta_n (x_n - x_{n-1}) with theta_n = (kappa_{n-1}-1)/kappa_n,
    the ratios of psg.momentum_table (reset every restart_period iterations);
    x_{n+1} = prox_{tau (f + i_C)}(y_n - tau grad(h o A)(y_n) + tau g_n),
    where g_n is taken at x_n.  Requires convex f, h o A, and g; this is a
    caller obligation, not checked here.  Without params.extrapolation,
    theta_n = 0 and this is GPPA.
    """
    thetas = (momentum_table(params.restart_period, params.max_iter)
              if params.extrapolation else [0.0])
    return iterate(spec, x0, params, params.step_tau, thetas, thetas)

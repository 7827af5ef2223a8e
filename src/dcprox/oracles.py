"""Closed-form oracles for the sparse-recovery case studies."""

from dataclasses import dataclass

import numpy as np


def soft_threshold(w, t):
    """Componentwise sign(w_i) max(0, |w_i| - t): the prox of t ||.||_1."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def norm_subgradient(x):
    """One limiting subgradient of the Euclidean norm: 0 at the origin,
    x / ||x|| elsewhere."""
    n = np.linalg.norm(x)
    if n == 0.0:
        return np.zeros_like(x)
    return x / n


def _residual(z, b):
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if z.shape != b.shape:
        raise ValueError("dimension mismatch")
    return z - b


#: loss kind -> (value, gradient) as functions of the residual r = z - b
_LOSS_OF_RESIDUAL = {
    "least-squares": (lambda r: 0.5 * float(r @ r), lambda r: r),
    "lorentzian": (
        lambda r: float(np.sum(np.log1p(r * r))),
        lambda r: 2.0 * r / (1.0 + r * r),
    ),
}

LOSS_LIPSCHITZ = {"least-squares": 1.0, "lorentzian": 2.0}


@dataclass(frozen=True)
class Loss:
    """A loss phi applied to Az, with its target and gradient modulus.

    value and grad each evaluate only their own formula.  The least-squares
    loss 0.5 ||z - b||^2 has a 1-Lipschitz gradient; the Lorentzian loss
    sum_i log(1 + (z_i - b_i)^2) has the gradient 2 r / (1 + r^2), which is
    2-Lipschitz.
    """

    kind: str  # "least-squares" | "lorentzian"
    b: np.ndarray

    def __post_init__(self):
        if self.kind not in LOSS_LIPSCHITZ:
            raise ValueError("unknown loss kind %r" % (self.kind,))

    @property
    def lipschitz(self):
        return LOSS_LIPSCHITZ[self.kind]

    def value(self, z):
        return _LOSS_OF_RESIDUAL[self.kind][0](_residual(z, self.b))

    def grad(self, z):
        return _LOSS_OF_RESIDUAL[self.kind][1](_residual(z, self.b))

"""Closed-form oracles for the sparse-recovery case studies."""

import math
from dataclasses import dataclass

import numpy as np


def soft_threshold(w, t):
    """Componentwise sign(w_i) max(0, |w_i| - t): the prox of t ||.||_1."""
    if not t >= 0:  # also rejects NaN; one comparison, as this runs per iteration
        raise ValueError("threshold must be >= 0: %r" % (t,))
    return np.copysign(np.maximum(np.abs(w) - t, 0.0), w)


def norm_subgradient(x):
    """One limiting subgradient of the Euclidean norm: 0 at the origin,
    x / ||x|| elsewhere."""
    n = math.sqrt(x @ x)
    if n == 0.0:
        return np.zeros_like(x)
    return x / n


LOSS_LIPSCHITZ = {"least-squares": 1.0, "lorentzian": 2.0}

@dataclass(frozen=True)
class Loss:
    """A loss phi applied to Az, with its target and gradient modulus.

    value and grad each evaluate only their own formula, at a float array z
    of the shape of b.  The least-squares loss 0.5 ||z - b||^2 has a
    1-Lipschitz gradient; the Lorentzian loss sum_i log(1 + (z_i - b_i)^2)
    has the gradient 2 r / (1 + r^2), which is 2-Lipschitz.
    """

    kind: str  # "least-squares" | "lorentzian"
    b: np.ndarray

    def __post_init__(self):
        if self.kind not in LOSS_LIPSCHITZ:
            raise ValueError("unknown loss kind %r" % (self.kind,))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    @property
    def lipschitz(self):
        return LOSS_LIPSCHITZ[self.kind]

    def _residual(self, z):
        if z.shape != self.b.shape:
            raise ValueError("dimension mismatch")
        return z - self.b

    def value(self, z):
        r = self._residual(z)
        if self.kind == "least-squares":
            return 0.5 * float(r @ r)
        return float(np.log1p(r * r).sum())

    def grad(self, z):
        r = self._residual(z)
        if self.kind == "least-squares":
            return r
        return 2.0 * r / (1.0 + r * r)


@dataclass(frozen=True, eq=False)
class L1L2:
    """f = gamma ||.||_1, g = gamma ||.|| and h = loss on the map map_A.

    psg.iterate fuses the oracles of a ProblemSpec that holds all fields(),
    and psg.screening decides whether map_A's matrix screens the A* product:
    prox_fC(w, tau) zeroes every |w_i| <= gamma * tau.
    """

    gamma: float
    loss: Loss
    map_A: "LinearMap"  # dcprox.linop.LinearMap

    def prox_fC(self, w, tau):
        return soft_threshold(w, self.gamma * tau)

    def subgrad_g(self, x):
        return self.gamma * norm_subgradient(x)

    def value_f(self, x):
        return self.gamma * float(np.abs(x).sum())

    def value_g(self, x):
        return self.gamma * math.sqrt(x @ x)

    def adjoint_columns(self, y, cols):
        """(A^T y)[cols], reading only those columns of the matrix."""
        return self.map_A.matrix[:, cols].T @ y

    def fields(self):
        """The ProblemSpec fields this record makes."""
        return dict(prox_fC=self.prox_fC, grad_h=self.loss.grad, subgrad_g=self.subgrad_g,
                    value_f=self.value_f, value_h=self.loss.value, value_g=self.value_g,
                    map_A=self.map_A)

"""Linear-map abstraction and the certified spectral-norm bound.  SpectralNormError
is raised by nothing here; it is kept only for the import in perfbench/measure.py."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import blas
from .problem import check_count

#: x of length d counts as sparse when SPARSE_CUT * nnz(x) <= d
SPARSE_CUT = 8


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map together with its adjoint and dimensions.

    `apply` maps input vectors of length `dim_in` to output vectors of
    length `dim_out`; `adjoint` is the transpose map.  A map is a frozen
    record, safe to share across solver runs.  `matrix` is the stored
    column-major array of a map made by from_matrix, None otherwise.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dim_in: int
    dim_out: int
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        check_count("dim_in", self.dim_in)
        check_count("dim_out", self.dim_out)

    def dense(self):
        """The dim_out x dim_in matrix of the map.

        The stored array for a map made by from_matrix; otherwise the rows
        adjoint(e_i), one adjoint product per row.
        """
        if self.matrix is not None:
            return self.matrix
        return np.array([self.adjoint(e) for e in np.eye(self.dim_out)])

    @classmethod
    def from_matrix(cls, A):
        """Map of a dense matrix, stored column-major (copied if it is not).

        apply(x) multiplies only the columns of the nonzeros of x when at
        most d / SPARSE_CUT entries are nonzero (NaNs count as nonzero), so a
        sparse iterate costs its support; denser x take the full product.
        On 720 x 2560 (2-vCPU Xeon VM), gathering and multiplying 80 columns
        takes 40-50 us against ~400 us for the full product, 320 columns
        ~300 us; the support product differs from A @ x only in rounding.
        """
        A = np.asfortranarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("expected a 2-D array")
        d = A.shape[1]

        def apply(x):
            nz = x != 0
            if SPARSE_CUT * np.count_nonzero(nz) <= d:
                S = nz.nonzero()[0]
                return A[:, S] @ x[S]
            return A @ x

        return cls(apply, lambda y: A.T @ y, d, A.shape[0], A)

    @classmethod
    def identity(cls, dim):
        return cls(lambda x: x, lambda y: y, dim, dim)


def gram_spectrum(A):
    """Eigenvalues of A A^T and a certified bound on ||A|| for m x d A, m <= d.

    Returns (lam, bound): lam are the eigenvalues, ascending, of G = A A^T,
    and bound >= ||A||_2 is sqrt(lam[-1] + margin) with margin =
    (m + d) eps trace(G).  The margin covers both rounding steps, with
    eps = 2u for the unit roundoff u:
    each entry of the computed G errs by at most d u |a_i||a_j| (plus
    O(u^2)), so the computed G is within d u ||A||_F^2 = d u trace(G) of
    A A^T in 2-norm; and eigvalsh is backward stable, so lam[-1] is within
    p(m) u ||G|| of the top eigenvalue of the computed G, where p(m) is a
    modest multiple of m and ||G|| <= trace(G), which the remaining
    (2m + d) u trace(G) covers.  By Weyl's inequality
    lam[-1] + margin >= ||A||_2^2.  For the scaled Gaussian matrices of
    the sparse-recovery cases (d = 3.56 m) trace(G) is about d / 8 times
    ||G||, so the bound lies about 1e-10 relative above ||A||_2 on case 3.

    G is consumed: its trace is taken first, and blas.eigvalsh_inplace then
    solves in G's own memory, with the bytes of np.linalg.eigvalsh(G).  G
    is exactly symmetric, since numpy mirrors the triangle of the syrk
    that forms A A^T, so its transpose is the column-major G that LAPACK
    reads.
    """
    A = np.asarray(A, dtype=float)
    G = A @ A.T
    margin = sum(A.shape) * np.finfo(float).eps * np.trace(G)
    lam = blas.eigvalsh_inplace(G.T)
    return lam, float(np.sqrt(lam[-1] + margin))


class SpectralNormError(RuntimeError):
    """Raised by nothing in dcprox; kept only for the import in perfbench/measure.py,
    and deleted by ROADMAP item 1a-i together with that reader."""

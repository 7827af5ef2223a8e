"""Sparse-recovery instance generation and problem assembly."""

import contextlib
import csv
import json
import pathlib
from dataclasses import dataclass

import numpy as np

from . import blas
from .linop import LinearMap, gram_spectrum
from .oracles import L1L2, Loss
from .problem import ProblemSpec, check_count, check_number

#: called by nothing; perfbench's tracer gets and sets it (ROADMAP item 1a-i deletes both)
spectral_norm = None

#: case id -> (matrix kind, m, d, s)
CASES = {
    1: ("gaussian", 180, 640, 20),
    2: ("gaussian", 360, 1280, 40),
    3: ("gaussian", 720, 2560, 80),
    4: ("gaussian", 2880, 10240, 320),
    5: ("dct", 180, 640, 20),
    6: ("dct", 360, 1280, 40),
    7: ("dct", 720, 2560, 80),
    8: ("dct", 2880, 10240, 320),
}

#: m * d up to which the orthonormal ensemble's QR runs at one BLAS thread.
#: On a 2-vCPU Xeon VM, with Q byte-identical either way, one thread took
#: 6.0 against 12.2 ms at 115,200 (case 1) and 23-29 against 35-42 ms at
#: 460,800 (case 2); at 1,843,200 (case 3) it was 9% slower to 7% faster,
#: and at 29,491,200 (case 4) 9.5 against 6.5 s, with Q's bits moved
QR_ONE_THREAD_MAX_ENTRIES = 460_800


def _standard_normal_column_major(rng, m, d):
    """rng.standard_normal((m, d)), the same numbers, stored column-major.

    Rows are drawn in 64-row blocks through one row-major buffer and copied
    in, so no second m x d array (14.7 MB on case 3) is formed.
    """
    block = 64
    A = np.empty((m, d), order="F")
    buf = np.empty((min(block, m), d))
    for i in range(0, m, block):
        rows = buf[:min(block, m - i)]
        rng.standard_normal(out=rows)
        A[i:i + len(rows)] = rows
    return A


def gen_gaussian(m, d, seed, mode):
    """m x d Gaussian sensing matrix and an upper bound on its spectral norm.

    Returns (A, norm_A).  mode selects the conditioning of the ensemble:
      "scaled"       entries N(0, 1/m), the usual compressed-sensing scaling,
      "orthonormal"  rows orthonormalized (QR of the transpose), so that
                     A A^T = I to rounding and norm_A is 1.  The QR
                     runs at one BLAS thread when m * d is at most
                     QR_ONE_THREAD_MAX_ENTRIES, else at the caller's count.
    For "scaled" one eigendecomposition of A A^T verifies full row rank
    (lambda_min > 1e-12 lambda_max, else RuntimeError; a failure has
    probability ~ 0) and gives the certified norm_A of
    linop.gram_spectrum.  A is column-major, for the support-column
    products of LinearMap.from_matrix; it equals
    rng.standard_normal((m, d)) / sqrt(m) bit for bit.
    """
    if m > d:
        raise ValueError("need m <= d")
    if mode not in ("scaled", "orthonormal"):
        raise ValueError("unknown mode %r" % (mode,))
    rng = np.random.default_rng(seed)
    if mode == "orthonormal":
        # the row-major draw is what QR of its transpose reads fastest, and
        # Q comes out row-major, so Q^T is column-major
        R = rng.standard_normal((m, d)).T
        small = m * d <= QR_ONE_THREAD_MAX_ENTRIES
        with blas.one_thread() if small else contextlib.nullcontext():
            Q, _ = np.linalg.qr(R)
        return Q.T, 1.0
    A = _standard_normal_column_major(rng, m, d)
    A /= np.sqrt(m)
    lam, norm_A = gram_spectrum(A)
    if not lam[0] > 1e-12 * lam[-1]:
        raise RuntimeError("the Gaussian draw is not of full row rank")
    return A, norm_A


def gen_dct(m, d, seed):
    """m distinct rows, sampled uniformly, of the d x d orthonormal DCT-II.

    Returns a matrix-free LinearMap: apply(x) = dct(x)[rows] and
    adjoint(y) = idct(y zero-filled to length d), each one real FFT of
    length d by Makhoul's even/odd reordering (IEEE TASSP 1980), so a
    product costs O(d log d) and no m x d matrix is formed.  Rows are
    orthonormal, so A A^T = I and the spectral norm is exactly 1:
    make_instance gives it norm_A = 1.0.
    """
    if m > d:
        raise ValueError("need m <= d")
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(d, size=m, replace=False))
    # v = x[perm] holds the even entries of x, then the odd ones reversed, and
    # dct(x)[k] = c_k Re(exp(-i pi k / 2d) V_k) for V = fft(v), c_k the ortho
    # weight.  v is real, so V_k = conj(V_{d-k}): row k reads rfft bin
    # j = min(k, d - k), and rows above d/2 flip the sign of the imaginary part.
    perm = np.concatenate([np.arange(0, d, 2), np.arange(d - 1 - d % 2, 0, -2)])
    inv = np.argsort(perm)
    high = rows > d // 2
    j = np.where(high, d - rows, rows)
    c = np.where(rows == 0, np.sqrt(1.0 / d), np.sqrt(2.0 / d))
    phase = np.pi * rows / (2 * d)
    wr = c * np.cos(phase)
    wi = np.where(high, c, -c) * np.sin(phase)
    # irfft counts every bin but the zeroth and (even d) the d/2-th twice and
    # divides by d; undo both
    spread = np.where((j == 0) | (2 * j == d), float(d), 0.5 * d) * (wr - 1j * wi)

    def apply(x):
        z = np.fft.rfft(x[perm])[j]
        return wr * z.real - wi * z.imag

    def adjoint(y):
        z = np.zeros(d // 2 + 1, dtype=complex)
        # a low row and a high row may share a bin; add.at sums both
        np.add.at(z, j, spread * y)
        return np.fft.irfft(z, d)[inv]

    return LinearMap(apply, adjoint, d, m)


def gen_ground_truth(d, s, seed):
    """s-sparse vector: uniform random support, standard normal values."""
    if not 1 <= s <= d:
        raise ValueError("need 1 <= s <= d")
    rng = np.random.default_rng(seed)
    idx = rng.choice(d, size=s, replace=False)
    x = np.zeros(d)
    x[idx] = rng.standard_normal(s)
    return x


def ground_truth_error(x, x_g):
    """Relative recovery error ||x - x_g|| / ||x_g||."""
    scale = np.linalg.norm(x_g)
    if scale == 0:
        raise ValueError("ground truth must be nonzero")
    return float(np.linalg.norm(x - x_g) / scale)


@dataclass(frozen=True)
class CSInstance:
    """One sensing map, target, and ground truth with its regularizer.

    norm_A is an upper bound on the spectral norm of A, set where A is made
    (1.0 for maps with orthonormal rows, linop.gram_spectrum otherwise).
    """

    A: LinearMap
    norm_A: float
    b: np.ndarray
    x_g: np.ndarray
    gamma: float
    loss_kind: str
    seed: int
    matrix_kind: str
    s: int

    @property
    def m(self):
        return self.A.dim_out

    @property
    def d(self):
        return self.A.dim_in


def make_instance(case, seed, gamma, loss_kind):
    """Instance for one benchmark case (Table of test cases) and seed.

    The target is the noiseless measurement b = A x_g.  Gaussian cases use
    the 1/sqrt(m)-scaled ensemble for the least-squares loss and the
    row-orthonormal ensemble for the Lorentzian loss.  case is a key of
    CASES or a (kind, m, d, s) tuple, seed an integer >= 0, gamma finite and
    > 0 and loss_kind a key of oracles.LOSS_LIPSCHITZ; anything else raises
    ValueError.
    """
    if isinstance(case, tuple):
        if len(case) != 4:
            raise ValueError("case must be a (kind, m, d, s) tuple: %r" % (case,))
        kind, m, d, s = case
        for name, value in (("m", m), ("d", d), ("s", s)):
            check_count(name, value)
        if s > d:  # gen_ground_truth's own check, before any draw
            raise ValueError("need 1 <= s <= d")
    else:
        check_count("case", case)
        if case not in CASES:
            raise ValueError("unknown case id %r (known: %s)" % (case, sorted(CASES)))
        kind, m, d, s = CASES[case]
    check_count("seed", seed, least=0)
    check_number("gamma", gamma, positive=True)
    Loss(loss_kind, ())  # Loss's own check of the kind, before any draw
    mat_seed, gt_seed = (int(v) for v in np.random.SeedSequence(seed).generate_state(2))
    if kind == "gaussian":
        mode = "scaled" if loss_kind == "least-squares" else "orthonormal"
        matrix, norm_A = gen_gaussian(m, d, mat_seed, mode=mode)
        A = LinearMap.from_matrix(matrix)
    elif kind == "dct":
        A, norm_A = gen_dct(m, d, mat_seed), 1.0
    else:
        raise ValueError("unknown matrix kind %r" % (kind,))
    x_g = gen_ground_truth(d, s, gt_seed)
    return CSInstance(
        A=A, norm_A=norm_A, b=A.apply(x_g), x_g=x_g, gamma=float(gamma),
        loss_kind=loss_kind, seed=int(seed), matrix_kind=kind, s=int(s),
    )


def build_cs_problem(inst):
    """ProblemSpec with f = gamma ||.||_1, h = loss, g = gamma ||.||.

    Its oracles and map_A are the fields() of its oracles.L1L2 record.
    norm_A is the instance's bound; no norm is estimated here.
    """
    check_number("gamma", inst.gamma, positive=True)
    loss = Loss(inst.loss_kind, inst.b)
    rec = L1L2(inst.gamma, loss, inst.A)
    return ProblemSpec(**rec.fields(), lipschitz_ell=loss.lipschitz,
                       norm_A=inst.norm_A, l1l2=rec)


def save_instance(inst, out_dir):
    """Write the instance as a CSV bundle (matrix, b, x_g, metadata)."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "matrix.csv", inst.A.dense(), delimiter=",", fmt="%.17g")
    np.savetxt(out / "b.csv", inst.b, delimiter=",", fmt="%.17g")
    np.savetxt(out / "ground_truth.csv", inst.x_g, delimiter=",", fmt="%.17g")
    meta = {
        "gamma": inst.gamma, "loss_kind": inst.loss_kind, "seed": inst.seed,
        "matrix_kind": inst.matrix_kind, "s": inst.s, "m": inst.m, "d": inst.d,
    }
    with open(out / "meta.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for k, v in meta.items():
            writer.writerow([k, json.dumps(v)])


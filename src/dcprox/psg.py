"""Extrapolated proximal subgradient solver with restart and monitoring."""

import math
import time

import numpy as np

from .linop import SPARSE_CUT
from .problem import IterateTrace, SolveReport, tau_upper_bound


def lyapunov_c(spec, params):
    """The quadratic weight c = (ell ||A||^2 lambda_bar + mu_bar) / 2."""
    return 0.5 * (
        spec.lipschitz_ell * spec.norm_A**2 * params.lambda_bar + params.mu_bar
    )


def momentum_table(restart_period, max_iter):
    """Ratios r_n = (kappa_{n-1} - 1) / kappa_n of the FISTA-type schedule.

    kappa_{-1} = kappa_0 = 1 and kappa_{n+1} = (1 + sqrt(1 + 4 kappa_n^2)) / 2,
    so 0 <= r_n < 1.  The kappas reset to 1 every restart_period iterations
    (a period >= max_iter never resets), so the table holds the first
    min(restart_period, max_iter) ratios; iteration n uses entry n % len(table).
    The proposed solver takes lambda_bar r_n and mu_bar tau r_n, pDCAe theta_n = r_n.
    """
    kappa_prev = kappa = 1.0
    ratios = []
    for _ in range(min(restart_period, max_iter)):
        ratios.append((kappa_prev - 1.0) / kappa)
        kappa_prev, kappa = kappa, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * kappa**2))
    return ratios


EPS = np.finfo(float).eps

#: m * d from which an L1L2 record screens A* with its map's matrix.  On the
#: fused loop, screening costs 15-19% per iteration on least-squares case 1
#: (115,200), 5-8% on Lorentzian case 1, and saves 11-13% on case 2 (460,800)
SCREEN_MIN_ENTRIES = 250_000


def screening(rec):
    """rec if it screens: an L1L2 record whose map holds a matrix of at least
    SCREEN_MIN_ENTRIES entries, whose columns adjoint_columns reads; else None."""
    A = None if rec is None else rec.map_A.matrix
    return rec if A is not None and A.size >= SCREEN_MIN_ENTRIES else None


def screen_columns(ref, screen, norm_A, tau, psi, v, g_n):
    """Prox input and the coordinates whose A* entries must be computed.

    ref = (psi_r, G_r, Q) holds the last full product G_r = fl(A^T psi_r)
    and Q = ||psi_r||.  Returns (w~, K): w~ = fl(v - tau G_r + tau g_n), and
    K the coordinates not certified below t = fl(gamma tau).  Returns
    (None, None) when more than d / SPARSE_CUT coordinates are kept, as all
    are when the bound is not finite; the caller then takes the full
    product.  A NaN in w~ keeps its coordinate.  Every i outside K is
    zeroed by the prox both at w~_i and at the w_i of the full product, so
    skipping it changes no zero pattern.

    Certificate.  Let u = eps/2, e = (m + 8) eps, N = norm_A (1 + sqrt(m)
    m d eps), G = fl(A^T psi) the full product, P = ||psi|| and
    D = ||psi - psi_r||.
    - A dot product of length m errs by at most gamma_m |a_i|^T |y| <=
      e ||a_i|| ||y|| in any summation order (Higham, Accuracy and
      Stability, Sec. 3.1), and ||a_i|| <= ||A|| <= N, so
      |G_i - (G_r)_i| <= N (D + e (P + Q)) and |G_i| <= (1 + e) N P.
    - norm_A bounds ||A||, except for the row-orthonormal ensemble, whose
      norm_A is exactly 1.0 while ||A||_2 - 1 measures 1.6e-15 and 2.4e-15
      on cases 2 and 3; the factor of N covers the orthogonality error of
      its Householder QR (Higham, Thm 19.4).
    - The two products by tau, the subtraction and the sum that form
      w_i = v_i - tau G_i + tau g_i move it by at most
      eps (|v_i| + 2 tau |G_i| + tau |g_i|) to first order; w~_i alike.
    - The computed D, P and Q lie within e relative of the exact norms, and
      V = ||v|| and ||g_n|| within d u, which the factor 8 below covers.
    Summing, with the computed norms,
      |w_i - w~_i| <= R = tau N ((1 + e) D + 2 e (P + Q))
                          + 8 eps (V + tau ||g_n||).
    i is skipped when fl(|w~_i| + r) < t, with r = (1 + e) R + 2 eps t:
    the (1 + e) covers the rounding of R and the 2 eps t that of the sum,
    so |w~_i| + R < t, and both |w~_i| and |w_i| lie below t.
    """
    psi_r, G_r, Q = ref
    m, d = screen.map_A.dim_out, screen.map_A.dim_in
    e = (m + 8) * EPS
    N = norm_A * (1.0 + math.sqrt(m) * m * d * EPS)
    t = screen.gamma * tau
    dpsi = psi - psi_r
    P = math.sqrt(psi @ psi)
    R = (tau * N * ((1.0 + e) * math.sqrt(dpsi @ dpsi) + 2.0 * e * (P + Q))
         + 8.0 * EPS * (math.sqrt(v @ v) + tau * math.sqrt(g_n @ g_n)))
    r = (1.0 + e) * R + 2.0 * EPS * t
    w = v - tau * G_r + tau * g_n
    cols = np.flatnonzero(~(np.abs(w) + r < t))
    if SPARSE_CUT * len(cols) > d:
        return None, None
    return w, cols


def prox_input(spec, screen, ref, tau, psi, v, g_n, x, w, tmp):
    """(w, ref): the prox input w = v - tau A* psi + tau g_n, from
    screen_columns while it can screen (a screen, a reference and a sparse
    x); else from the full product, in the buffer w, which with a screen
    becomes the reference."""
    if screen is not None and ref is not None and SPARSE_CUT * np.count_nonzero(x) <= len(x):
        ws, cols = screen_columns(ref, screen, spec.norm_A, tau, psi, v, g_n)
        if cols is not None:
            ws[cols] = v[cols] - tau * screen.adjoint_columns(psi, cols) + tau * g_n[cols]
            return ws, ref
    grad = spec.map_A.adjoint(psi)
    np.subtract(v, np.multiply(grad, tau, out=w), out=w)
    w += np.multiply(g_n, tau, out=tmp)
    if screen is not None:
        ref = (psi.copy(), grad, math.sqrt(psi @ psi))
    return w, ref


def iterate(spec, x0, params, tau, lams, mus, c=0.0, delta=0.0):
    """The iteration loop of the proposed solver, GPPA and pDCAe.

    params is a problem.LoopParams.  Iteration n steps with tau and the
    momenta lam = lams[k] and mu = mus[k], k = n % len(lams) (a
    momentum_table period; mus is as long as lams).  The gradient of h o A
    is taken at u_n = x_n + lam (x_n - x_{n-1}) and the prox at
    v_n = x_n + mu (x_n - x_{n-1}).  A u_n comes from the cached A x_n and
    A x_{n-1}, and F(x_{n+1}) from the one fresh product A x_{n+1}.  The
    loop keeps only F(x_n), s_n = ||x_n - x_{n-1}|| and (with
    keep_iterates) x_n; after it, the report derives the Lyapunov values
    F(x_n) + c s_n^2 and their largest violation of a decrease by
    delta s_n^2 (NaN if any is NaN).  A failure of the step at iteration n
    is re-raised, chained, as RuntimeError("<oracle> failed at iteration n"),
    naming subgrad_g, grad_h, the A* product (full or on columns) or prox_fC.

    A spec whose oracles and map_A are the fields() of its l1l2 record runs
    _l1l2_loop, any other _loop; they compute the same numbers bit for bit.
    When the record screens (screening: its map holds a large matrix), the
    full A* product is kept as a reference, and while x_n is sparse
    (linop.SPARSE_CUT) prox_input may replace the next one by a product on
    the columns the prox does not provably zero; each iteration makes one
    full or one column-subset A* product either way.
    """
    x = np.array(x0, dtype=float)
    d = spec.map_A.dim_in
    if x.shape != (d,):
        raise ValueError("x0 has shape %s, not (%d,)" % (x.shape, d))
    if spec.is_feasible is not None and not spec.is_feasible(x):
        raise ValueError("starting point is infeasible")

    Ax = spec.map_A.apply(x)
    f0 = float(spec.objective(x, Ax))
    trace = IterateTrace([f0], [0.0], None, [x.copy()] if params.keep_iterates else None)
    rec = spec.l1l2
    fused = rec is not None and all(
        getattr(spec, name) == made for name, made in rec.fields().items())
    loop = _l1l2_loop if fused else _loop
    t0 = time.perf_counter()
    x, status = loop(spec, x, Ax, trace, params, tau, lams, mus)
    wall_time = time.perf_counter() - t0

    objective, step_norms = trace.objective, trace.step_norms
    trace.lyapunov = [f0] + [f + c * s * s for f, s in zip(objective[1:], step_norms[1:])]
    L, S = np.array(trace.lyapunov), np.array(step_norms)
    with np.errstate(invalid="ignore", over="ignore"):  # silent, like Python floats
        violation = L[1:] + delta * S[1:] * S[1:] - L[:-1]
    return SolveReport(
        x=x,
        objective=objective[-1],
        iterations=len(step_norms) - 1,
        status=status,
        trace=trace,
        max_lyapunov_violation=float(np.max(violation, initial=0.0)),
        wall_time=wall_time,
    )


def _loop(spec, x, Ax, trace, params, tau, lams, mus):
    """iterate's loop on any spec, calling each oracle once per iteration;
    it appends to trace and returns the last x and the status."""
    objective, step_norms, iterates = trace.objective, trace.step_norms, trace.iterates
    period = len(lams)
    screen = screening(spec.l1l2)
    ref = None
    x_prev, Ax_prev = x, Ax
    for n in range(params.max_iter):
        k = n % period
        lam, mu = lams[k], mus[k]
        try:
            oracle = "subgrad_g"
            g_n = spec.subgrad_g(x)
            oracle = "grad_h"
            Au = Ax if lam == 0.0 else Ax + lam * (Ax - Ax_prev)
            psi = spec.grad_h(Au)
            oracle = "A* product"
            v = x if mu == 0.0 else x + mu * (x - x_prev)
            w, ref = prox_input(spec, screen, ref, tau, psi, v, g_n, x,
                                np.empty_like(x), np.empty_like(x))
            oracle = "prox_fC"
            x_next = spec.prox_fC(w, tau)
        except Exception as exc:
            raise RuntimeError("%s failed at iteration %d" % (oracle, n)) from exc
        dx = x_next - x
        step = math.sqrt(dx @ dx)
        # a non-finite entry of x_next makes the step non-finite, so only then
        # scan x_next: a finite x_next whose step overflows passes
        if not math.isfinite(step) and not np.isfinite(x_next).all():
            raise FloatingPointError("non-finite iterate at iteration %d" % n)
        Ax_next = spec.map_A.apply(x_next)
        objective.append(float(spec.objective(x_next, Ax_next)))
        step_norms.append(step)
        if iterates is not None:
            iterates.append(x_next.copy())

        xn_norm = math.sqrt(x @ x)
        rel = step / xn_norm if xn_norm > 0 else step
        x_prev, x = x, x_next
        Ax_prev, Ax = Ax, Ax_next
        if n >= 1 and rel < params.stop_rel_tol:
            return x, "converged"
    return x, "max-iter"


def _l1l2_loop(spec, x, Ax, trace, params, tau, lams, mus):
    """_loop's numbers, bit for bit, on an L1-L2 spec, from fewer operations:
    ||x_{n+1}|| once, for F(x_{n+1}), the next subgradient and stop test;
    r = A x_{n+1} - b and r^2 once, for F and, at lam = 0, the next psi;
    F's |x_{n+1}| from the prox.  Vectors go to buffers made before the
    loop (x_{n-1}, x_n, x_{n+1} rotate through three); F(x_{n+1}) is summed
    in the iteration that forms x_{n+1}, in value_f's and value_h's order."""
    rec = spec.l1l2
    gamma, b, lorentzian = rec.gamma, rec.loss.b, rec.loss.kind == "lorentzian"
    screen = screening(rec)
    d, period, t = len(x), len(lams), gamma * tau
    objective, step_norms, iterates = trace.objective, trace.step_norms, trace.iterates
    a, g, v, w, dx, spare = (np.empty(d) for _ in range(6))
    r, u, rr = np.subtract(Ax, b), np.empty(len(b)), np.empty(len(b))
    r2 = np.multiply(r, r)  # r^2 of the last F
    x_prev, Ax_prev, nx, ref = x.copy(), Ax, math.sqrt(x @ x), None
    for n in range(params.max_iter):
        lam, mu = lams[n % period], mus[n % period]
        if nx == 0.0:
            g.fill(0.0)
        else:
            np.multiply(np.divide(x, nx, out=g), gamma, out=g)
        res, sq = r, r2  # at lam = 0, A u = A x: the residual of F(x_n)
        if lam != 0.0:
            res = np.subtract(Ax, Ax_prev, out=u)
            res *= lam
            res += Ax
            res -= b
            sq = np.multiply(res, res, out=rr) if lorentzian else None
        psi = res
        if lorentzian:  # 2 r / (1 + r^2)
            psi = np.divide(np.multiply(res, 2.0, out=u), np.add(sq, 1.0, out=rr), out=u)
        vn = x
        if mu != 0.0:
            vn = np.subtract(x, x_prev, out=v)
            vn *= mu
            vn += x
        try:
            wn, ref = prox_input(spec, screen, ref, tau, psi, vn, g, x, w, dx)
        except Exception as exc:
            raise RuntimeError("A* product failed at iteration %d" % n) from exc
        np.abs(wn, out=a)
        a -= t
        np.maximum(a, 0.0, out=a)
        x_next = np.copysign(a, wn, out=spare)
        np.subtract(x_next, x, out=dx)
        step = math.sqrt(dx @ dx)
        if not math.isfinite(step) and not np.isfinite(x_next).all():
            raise FloatingPointError("non-finite iterate at iteration %d" % n)
        Ax_next = rec.map_A.apply(x_next)
        np.subtract(Ax_next, b, out=r)
        if lorentzian:
            h = float(np.log1p(np.multiply(r, r, out=r2), out=rr).sum())
        else:
            h = 0.5 * float(r @ r)
        nx_next = math.sqrt(x_next @ x_next)
        objective.append(gamma * float(a.sum()) + h - gamma * nx_next)
        step_norms.append(step)
        if iterates is not None:
            iterates.append(x_next.copy())

        rel = step / nx if nx > 0 else step
        x_prev, x, spare = x, x_next, x_prev
        Ax_prev, Ax, nx = Ax, Ax_next, nx_next
        if n >= 1 and rel < params.stop_rel_tol:
            return x, "converged"
    return x, "max-iter"


def solve(spec, x0, params):
    """Run the extrapolated proximal subgradient algorithm from x0 in C.

    Stops when the relative step ||x_{n+1} - x_n|| / ||x_n|| drops below
    params.stop_rel_tol (tested from the second update on; absolute step
    norm is used whenever ||x_n|| = 0) or after params.max_iter updates.
    Each iteration costs one A product and one A* product; F(x0) costs
    one more A product.  On a spec of cs.build_cs_problem the rest of the
    step is iterate's fused L1-L2 loop, on any other spec one prox_fC and
    one subgrad_g call and F's oracles.  The momenta are lambda_bar r_n
    and mu_bar tau_bar r_n, r_n the ratios of momentum_table.
    """
    tau_bar = tau_upper_bound(spec, params)
    ratios = momentum_table(params.restart_period, params.max_iter)
    assert all(0.0 <= r < 1.0 for r in ratios)
    return iterate(spec, x0, params, tau_bar,
                   [params.lambda_bar * r for r in ratios],
                   [params.mu_bar * tau_bar * r for r in ratios],
                   c=lyapunov_c(spec, params), delta=params.delta)


def tail_linear_fit(values):
    """Least-squares linear fit of log(values) against their indices.

    Returns (slope, r_squared, n_points).  Values at or below 1e-12 are
    dropped.  Used as an empirical linear-convergence diagnostic.
    """
    v = np.asarray(values, dtype=float)
    keep = v > 1e-12
    v = v[keep]
    idx = np.nonzero(keep)[0]
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

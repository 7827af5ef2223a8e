"""Euclidean projection onto a polyhedron with certified residuals.

The projector first eliminates the equality constraints through an
orthonormal null-space basis Z, so the equalities hold to machine
precision by construction.  An inequality or box row whose restriction to
the null space is numerically zero is one the equalities already settle
(for instance the box of a coordinate they fix): it is checked once, at
construction, and dropped, and a violated one makes the set empty.  The
remaining rows, scaled to unit norm, leave the least-distance problem

    min 1/2 ||y - w'||^2   s.t.   R y <= r

in the reduced coordinates.  It is solved by the dual active-set method of
Goldfarb and Idnani (Math. Programming 27, 1983), a finite method that
starts from the unconstrained minimizer y = w' and adds violated rows one
at a time.  The result is certified against the original constraint system
before it is returned.
"""

import numpy as np

from .problem import check_count, check_number


class ProjectionError(RuntimeError):
    def __init__(self, message, residual, best_x=None):
        super().__init__(message)
        self.residual = residual
        self.best_x = best_x


class InfeasiblePolyhedronError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class PolyhedralSet:
    """Linear equalities, inequalities, and box bounds on R^d."""

    def __init__(self, dim, E=None, e=None, G=None, g=None, lo=None, hi=None):
        check_count("dim", dim)
        self.dim = dim
        self.E = np.zeros((0, dim)) if E is None else np.atleast_2d(np.asarray(E, float))
        self.e = np.zeros(0) if e is None else np.atleast_1d(np.asarray(e, float))
        self.G = np.zeros((0, dim)) if G is None else np.atleast_2d(np.asarray(G, float))
        self.g = np.zeros(0) if g is None else np.atleast_1d(np.asarray(g, float))
        self.lo = np.full(dim, -np.inf) if lo is None else np.asarray(lo, float).copy()
        self.hi = np.full(dim, np.inf) if hi is None else np.asarray(hi, float).copy()
        if self.E.shape != (len(self.e), dim) or self.G.shape != (len(self.g), dim):
            raise ValueError("inconsistent constraint dimensions")
        for name in ("E", "e", "G", "g"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s has a non-finite entry" % name)
        if self.lo.shape != (dim,) or self.hi.shape != (dim,):
            raise ValueError("box bounds must have length dim")
        if not np.all(self.lo <= self.hi):
            raise ValueError("lo must be <= hi componentwise")
        self._E_scale = np.maximum(np.linalg.norm(self.E, axis=1), 1e-300)
        self._G_scale = np.maximum(np.linalg.norm(self.G, axis=1), 1e-300)

    def residual(self, x):
        """Max constraint violation at x (row-normalized linear rows), NaN
        when x has a NaN or an infinite coordinate at an unbounded side."""
        return float(np.max(np.concatenate([
            [0.0], np.abs(self.E @ x - self.e) / self._E_scale,
            (self.G @ x - self.g) / self._G_scale, self.lo - x, x - self.hi])))


class PolyhedronProjector:
    """Reusable projector onto one PolyhedralSet.

    Stateless after construction, so instances are safe to share across
    solver runs.  The active-set steps of one projection are capped at ten
    times the number of reduced rows plus the reduced dimension.
    """

    def __init__(self, set_, tol=1e-8):
        check_number("tol", tol, positive=True)
        self.set, self.tol = set_, float(tol)
        self._reduce()

    def _reduce(self):
        """Split off the equality constraints via an orthonormal basis.

        Afterwards x = x_p + Z y with E x = e exact, and the projection is
        the reduced problem  min ||y - Z^T (w - x_p)||  s.t.  R y <= r,
        where R stacks the general inequalities and the finite box rows
        that the equalities leave free, each scaled to unit norm.
        """
        set_ = self.set
        d = set_.dim
        eps = np.finfo(float).eps
        # A row counts as zero on the null space when its part there is
        # below the error of Z itself, relative to the row's own norm.
        zero_tol = d * eps
        if len(set_.e):
            E = set_.E / set_._E_scale[:, None]
            e = set_.e / set_._E_scale
            U, s, Vt = np.linalg.svd(E, full_matrices=True)
            rank = int(np.sum(s > max(E.shape) * eps * s[0]))
            x_p = Vt[:rank].T @ ((U.T[:rank] @ e) / s[:rank])
            if np.max(np.abs(E @ x_p - e)) > 1e-9 * max(1.0, np.max(np.abs(e))):
                raise InfeasiblePolyhedronError(
                    "inconsistent equality constraints",
                    float(np.max(np.abs(E @ x_p - e))),
                )
            Z = Vt[rank:].T
            if rank:
                zero_tol = max(E.shape) * eps * s[0] / s[rank - 1]
        else:
            x_p = np.zeros(d)
            Z = np.eye(d)
        fin_hi = np.isfinite(set_.hi)
        fin_lo = np.isfinite(set_.lo)
        R = np.vstack([set_.G @ Z, Z[fin_hi], -Z[fin_lo]])
        r = np.concatenate([set_.g - set_.G @ x_p, set_.hi[fin_hi] - x_p[fin_hi],
                            x_p[fin_lo] - set_.lo[fin_lo]])
        orig_norm = np.concatenate([set_._G_scale,
                                    np.ones(fin_hi.sum() + fin_lo.sum())])
        norm = np.linalg.norm(R, axis=1)
        zero = norm <= zero_tol * orig_norm
        slack = r[zero] / orig_norm[zero]
        if np.any(slack < -self.tol):
            raise InfeasiblePolyhedronError(
                "an inequality or box row contradicts the equality constraints",
                float(-slack.min()),
            )
        keep = ~zero
        self._x_p, self._Z = x_p, Z
        self._R = R[keep] / norm[keep, None]
        self._r = r[keep] / norm[keep]

    def project(self, w):
        """Projection of w onto the set, certified to the residual tolerance.

        w must have shape (dim,).  Raises ProjectionError (with the last
        point and its residual) when the active-set steps reach the cap or
        the result misses the tolerance, and InfeasiblePolyhedronError when
        the inequalities admit no common point.
        """
        w = np.asarray(w, dtype=float)
        if w.shape != (self.set.dim,):
            raise ValueError("w has shape %s, not (%d,)" % (w.shape, self.set.dim))
        maxit = 10 * sum(self._R.shape)
        y, status = self._active_set(self._Z.T @ (w - self._x_p), maxit)
        x = self._x_p + self._Z @ y
        res = self.set.residual(x)
        if status == "infeasible" and res > self.tol:
            raise InfeasiblePolyhedronError(
                "the inequalities admit no common point", res
            )
        if status == "max_iter":
            raise ProjectionError(
                "active-set method stopped at its cap of %d steps "
                "(residual %.3e)" % (maxit, res),
                res,
                x,
            )
        if not res <= self.tol:
            raise ProjectionError(
                "projection residual %.3e exceeds tol %.1e" % (res, self.tol),
                res,
                x,
            )
        return x

    def feasible_point(self):
        """Projection of the origin, or an infeasibility signal.

        If no point satisfies every constraint to tolerance the set is
        reported as possibly infeasible with the residual achieved.
        """
        try:
            return self.project(np.zeros(self.set.dim))
        except ProjectionError as err:
            raise InfeasiblePolyhedronError(
                "possibly infeasible polyhedron (best residual %.3e)" % err.residual,
                err.residual,
            ) from err

    def _active_set(self, w, max_steps):
        """Goldfarb-Idnani solve of  min 1/2 ||y - w||^2  s.t.  R y <= r.

        y = w - N^T u always holds for the active rows N with multipliers
        u >= 0.  The most violated row p is added by moving y along z, the
        part of R[p] orthogonal to N, while the multipliers move with it;
        if an active multiplier would turn negative first, that row is
        dropped and the step resumes.  B is the dual basis of the active
        rows (N B = I, columns in the span of N^T), kept by rank-one
        updates, so rvec = B^T R[p] gives R[p] = N^T rvec + z.  Returns y and
        "optimal" (no row violated beyond 1e-3 tol), "infeasible" (R[p]
        is a nonnegative combination of the active rows, so no point
        meets them all) or "max_iter".
        """
        R, r = self._R, self._r
        n = R.shape[1]
        y = w.copy()
        if not len(r):
            return y, "optimal"
        u = np.zeros(n)
        B = np.zeros((n, n))
        NT = np.zeros((n, n))
        k = steps = 0
        feas_tol = 1e-3 * self.tol
        while True:
            viol = R @ y - r
            p = int(np.argmax(viol))
            if viol[p] <= feas_tol:
                return y, "optimal"
            n_p = R[p]
            u_p = 0.0
            while True:
                steps += 1
                if steps > max_steps:
                    return y, "max_iter"
                Bk, Nk = B[:, :k], NT[:, :k]
                rvec = n_p @ Bk
                z = n_p - Nk @ rvec
                dr = z @ Bk  # one refinement pass against drift in B
                rvec += dr
                z -= Nk @ dr
                # Dual step: largest t keeping active multipliers >= 0.
                t1, l = np.inf, -1
                if k:
                    ratios = np.divide(u[:k], rvec, out=np.full(k, np.inf),
                                       where=rvec > 0)
                    l = int(np.argmin(ratios))
                    t1 = ratios[l]
                # Full step: the one that makes row p active, unless R[p]
                # lies in the span of the active rows.
                zz = float(z @ z)
                t2 = (n_p @ y - r[p]) / zz if k < n and zz > 1e-24 else np.inf
                t = min(t1, t2)
                if t == np.inf:
                    return y, "infeasible"
                if t2 < np.inf:
                    y -= t * z
                u[:k] -= t * rvec
                u_p += t
                if t2 <= t1:
                    Bk -= np.outer(z, rvec / zz)
                    B[:, k] = z / zz
                    NT[:, k] = n_p
                    u[k] = u_p
                    k += 1
                    break
                b_l = B[:, l].copy()
                u[l:k - 1] = u[l + 1:k]
                B[:, l:k - 1] = B[:, l + 1:k]
                NT[:, l:k - 1] = NT[:, l + 1:k]
                k -= 1
                Bk = B[:, :k]
                Bk -= np.outer(b_l, (b_l @ Bk) / (b_l @ b_l))

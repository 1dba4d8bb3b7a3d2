"""Simple convex sets with exact projections, plus intersection oracles.

Every set kind is polyhedral, so a finite intersection is one ``Polyhedron``
of unit rows {z : C z <= d}; a hyperplane is two opposite rows.
``project_intersection`` projects onto it (or a stack of points, each from
the previous point's active rows) by Goldfarb and Idnani's dual active-set
method and certifies the answer by its KKT conditions (feasibility, tight
active rows, nonnegative multipliers, stationarity); an empty
intersection, certified by a dual ray of the same solve, raises.
``estimate_kappa`` is the one owner of the linear-regularity constant: a
problem's known kappa, else the largest sampled ratio
dist_X(x)^2 / E[dist_{X_S}(x)^2], which certifies a lower bound only.
"""

from __future__ import annotations

import numpy as np

from .core import Array, Oracle, as_vector, norm

# default relative tolerance of a projection's KKT certificate
CERTIFICATE_TOL = 1e-10


class ConstraintSet(Oracle):
    kind = "abstract"

    def rows(self):
        """(C, d) with the set equal to {x : C x <= d}."""
        raise NotImplementedError

    def project(self, x: Array) -> Array:
        raise NotImplementedError

    def distance(self, x: Array) -> float:
        """||x - project(x)||; subclasses override with cheaper closed forms."""
        x = self._check(x)
        return norm(x - self.project(x))


class WholeSpace(ConstraintSet):
    kind = "whole-space"

    def project(self, x):
        return self._check(x).copy()

    def distance(self, x):
        self._check(x)
        return 0.0

    def rows(self):
        return np.empty((0, self.dim)), np.empty(0)


class _OneRow(ConstraintSet):
    """A set given by one normal c (nonzero) and offset d."""

    def __init__(self, c, d: float):
        c = as_vector(c)
        self._c_sq = float(np.dot(c, c))
        if self._c_sq == 0.0:
            raise ValueError("normal vector must be nonzero")
        super().__init__(c.shape[0])
        self.c = c
        self.d = float(d)
        self._c_nrm = float(np.sqrt(self._c_sq))


class Halfspace(_OneRow):
    """{x : c'x <= d}."""

    kind = "halfspace"

    def rows(self):
        return self.c[None, :], np.array([self.d])

    def project(self, x):
        x = self._check(x)
        viol = float(self.c.dot(x)) - self.d
        if viol <= 0.0:
            return x.copy()
        return x - (viol / self._c_sq) * self.c

    def distance(self, x):
        x = self._check(x)
        return max(0.0, float(self.c.dot(x)) - self.d) / self._c_nrm


class Hyperplane(_OneRow):
    """{x : c'x = d}."""

    kind = "hyperplane"

    def rows(self):  # c'x <= d and -c'x <= -d
        return np.stack([self.c, -self.c]), np.array([self.d, -self.d])

    def project(self, x):
        x = self._check(x)
        return x - ((float(self.c.dot(x)) - self.d) / self._c_sq) * self.c

    def distance(self, x):
        x = self._check(x)
        return abs(float(self.c.dot(x)) - self.d) / self._c_nrm


class Box(ConstraintSet):
    """{x : lo <= x <= hi} componentwise."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = as_vector(lo)
        hi = as_vector(hi, lo.shape[0])
        if np.any(lo > hi):
            raise ValueError("box needs lo <= hi componentwise")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def project(self, x):
        x = self._check(x)
        return np.clip(x, self.lo, self.hi)

    def rows(self):
        eye = np.eye(self.dim)
        return np.vstack([eye, -eye]), np.concatenate([self.hi, -self.lo])


class NonnegativeOrthant(ConstraintSet):
    """{x : x >= 0}."""

    kind = "nonneg-orthant"

    def project(self, x):
        x = self._check(x)
        return np.maximum(x, 0.0)

    def distance(self, x):
        x = self._check(x)
        return norm(np.minimum(x, 0.0))

    def rows(self):
        return -np.eye(self.dim), np.zeros(self.dim)


class DykstraError(RuntimeError):
    """The intersection is empty, or a projection's certificate failed."""


def _factor(C, rows):
    """C_A' = J [T; 0], J orthogonal, T triangular: J and T^-1 (n x n)."""
    J, T = np.linalg.qr(C[rows].T, mode="complete")
    Tinv = np.zeros_like(J)
    Tinv[:len(rows), :len(rows)] = np.linalg.inv(T[:len(rows)])
    return J, Tinv


def _equality(C, d, x, rows, J, Tinv):
    """Projection z = x - C_A' mu onto {z : C_A z = d_A} by the factors of
    the rows A, dropping the most negative multiplier mu until none is: z,
    refined by a second pass from z, mu and the rows and factors kept."""
    while True:
        q = len(rows)
        Ti, Jq, CA, dA = Tinv[:q, :q], J[:, :q], C[rows], d[rows]
        y = Ti.T @ (CA @ x - dA)
        mu = Ti @ y
        if not rows or mu.min() >= 0.0:
            z = x - Jq @ y
            return z - Jq @ (Ti.T @ (CA @ z - dA)), mu, (rows, J, Tinv)
        del rows[int(np.argmin(mu))]
        J, Tinv = _factor(C, rows)


def _unit_rows(C, d):
    C = np.asarray(C, dtype=np.float64)
    nrm = np.sqrt(np.einsum("ij,ij->i", C, C))
    if not np.all(nrm > 0.0):
        raise ValueError("constraint rows must be nonzero")
    return C / nrm[:, None], np.asarray(d, dtype=np.float64) / nrm


class Polyhedron:
    """{z : C z <= d} as an array of unit rows, built once per family.

    A halfspace gives one row, a hyperplane two opposite rows, an orthant n
    rows, a box 2n rows and the whole space none.  ``owner`` maps the rows
    to the ``sets`` they came from (by default every row is its own set).
    The last cold projection (the first of a stack) is memoized: it is a
    pure function of x and the tolerance, and every run starts at x0.
    """

    def __init__(self, C, d, owner=None, sets=None):
        C = np.asarray(C, dtype=np.float64)
        self.dim = C.shape[1]
        self.C, self.d = _unit_rows(C, d)
        self.owner = np.arange(len(self.d)) if owner is None else owner
        self.sets = len(self.d) if sets is None else sets
        self._scale = float(np.abs(self.d).max(initial=0.0))
        self._memo = None

    @classmethod
    def of(cls, sets, dim: int) -> "Polyhedron":
        """The rows of a family of ``ConstraintSet`` objects."""
        sizes = [len(s.rows()[1]) for s in sets]
        # filled set by set: no per-set arrays pile up
        C, d = np.empty((sum(sizes), dim)), np.empty(sum(sizes))
        at = np.cumsum([0] + sizes)
        for s, lo, hi in zip(sets, at, at[1:]):
            C[lo:hi], d[lo:hi] = s.rows()
        return cls(C, d, owner=np.repeat(np.arange(len(sets)), sizes),
                   sets=len(sets))

    def violations(self, x: Array) -> Array:
        """Per-row distances: the positive violations, a row per point."""
        return np.maximum(x @ self.C.T - self.d, 0.0)

    def set_sq_distances(self, x: Array) -> Array:
        """dist_{X_i}(x)^2 for every set i: the sum over its rows."""
        v = self.violations(x)
        return np.bincount(self.owner, weights=v * v, minlength=self.sets)

    def project(self, x: Array, tol: float = CERTIFICATE_TOL) -> Array:
        """Certified projection of x, or of each row of a stack of points;
        see ``project_intersection``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: expected ({self.dim},), "
                             f"got {x.shape}")
        if not np.isfinite(x).all():  # LAPACK would fail on it less clearly
            raise ValueError("cannot project a non-finite point")
        if not 0 < tol < np.inf:
            raise ValueError(f"tol = {tol} must be positive and finite")
        points = np.atleast_2d(x)
        key = (points[0].tobytes(), tol)
        if self._memo is None or self._memo[0] != key:
            self._memo = (key, *self._solve(points[0], tol, None))
        z, state = [self._memo[1]], self._memo[2]
        for point in points[1:]:  # each from the previous point's rows
            zi, state = self._solve(point, tol, state)
            z.append(zi)
        return np.reshape(z, x.shape)

    def _solve(self, x, tol, start):
        """Goldfarb and Idnani's dual method from the rows and factors
        ``start``: z = x - C_A' lam, lam >= 0, the rows A tight.  The most
        violated row p has c_p = C_A' r + h; a step along -h adds p unless
        some lam_j with r_j > 0 reaches 0 first, which drops row j.  A
        dependent p (h ~ 0) violated within tol is set aside; with no
        r_j > 0, e_p - r is a dual ray: a Farkas certificate of emptiness
        once its gap d_A'r - d_p exceeds tol.  Returns z, certified as in
        ``project_intersection``, and the state."""
        C, d, n, eps = self.C, self.d, len(x), np.finfo(float).eps
        scale = 1.0 + float(np.abs(x).max()) + self._scale
        tol, roundoff, dependent = (tol * scale, 16.0 * eps * scale,
                                    (16.0 * eps * n) ** 2)
        rows, J, Tinv = start or ([], np.eye(n), np.zeros((n, n)))
        z, lam, (rows, J, Tinv) = _equality(C, d, x, list(rows), J.copy(),
                                            Tinv.copy())
        aside, p, moved = np.zeros(len(d), dtype=bool), None, False
        for _ in range(10 * (len(d) + n)):
            if p is None:  # the next row to add
                s = np.where(aside, -np.inf, C @ z - d)
                s[rows] = -np.inf
                if not (s > roundoff).any():
                    break
                p, lam_p = int(np.argmax(s)), 0.0
            q, v = len(rows), J.T @ C[p]
            r, u = Tinv[:q, :q] @ v[:q], v[q:]
            hh, viol = float(u @ u), float(C[p] @ z) - d[p]
            block = np.flatnonzero(r > 0.0)
            if hh <= dependent and (viol <= tol or not block.size):
                if viol > tol and float(d[rows] @ r) - d[p] > tol:
                    raise DykstraError("empty intersection: a dual ray is "
                                       "a Farkas certificate")
                aside[p], p = True, None
                continue
            ratios = lam[block] / r[block]
            full = viol / hh if hh > dependent else np.inf
            t = min(full, ratios.min(initial=np.inf))
            z, lam, lam_p = z - t * (J[:, q:] @ u), lam - t * r, lam_p + t
            moved = True
            if t == full:  # reflect u to a e_1: T gains the column (T r, a)
                a, w = -np.copysign(norm(u), u[0]), u.copy()
                w[0] -= a
                J[:, q:] -= np.outer(J[:, q:] @ w, w) * (2.0 / (w @ w))
                Tinv[:q, q], Tinv[q, q] = -r / a, 1.0 / a
                rows, lam, p = rows + [p], np.append(lam, lam_p), None
            else:
                k = int(block[np.argmin(ratios)])
                del rows[k]
                J, Tinv = _factor(C, rows)
                lam, aside[:] = np.delete(lam, k), False
        else:
            raise DykstraError("dual active-set solve did not stop")
        if moved:  # else the first equality projection is the answer
            z, lam, (rows, J, Tinv) = _equality(C, d, x, rows, J, Tinv)
        slack = C @ z - d
        worst = max(float(slack.max(initial=0.0)),
                    float(np.abs(slack[rows]).max(initial=0.0)),
                    norm(x - z - C[rows].T @ lam))
        least = float(lam.min(initial=0.0))
        if not (worst <= tol and least >= 0.0):  # also catches NaN
            raise DykstraError(f"least-distance certificate failed: residual "
                               f"{worst:.3g} (tolerance {tol:.3g}), least "
                               f"multiplier {least:.3g}")
        return z, (rows, J, Tinv)


def project_intersection(sets, x, tol: float = CERTIFICATE_TOL) -> Array:
    """Projection of x, or of a stack of points (rows) solved in order,
    onto the intersection of ``sets`` (``ConstraintSet`` objects or their
    ``Polyhedron``).  Each point starts from the previous one's active rows,
    the first cold.  An answer is returned only when its KKT certificate
    (feasibility, complementary slackness and stationarity to tol * (1 +
    ||x||_inf + max_i |d_i|), nonnegative multipliers) holds; an empty
    intersection or a failed certificate raises DykstraError.
    """
    if not isinstance(sets, Polyhedron):
        sets = list(sets)
        if not sets:
            raise ValueError("need at least one set")
        sets = Polyhedron.of(sets, np.shape(x)[-1])
    return sets.project(x, tol)


def dist_intersection(sets, x, tol: float = CERTIFICATE_TOL):
    """Distance from x to the intersection of ``sets``, or the array of
    distances of a stack of points (see ``project_intersection``)."""
    x = np.asarray(x, dtype=np.float64)
    dist = [norm(r) for r in np.atleast_2d(
        x - project_intersection(sets, x, tol=tol))]
    return np.array(dist) if x.ndim == 2 else dist[0]


def estimate_kappa(problem, probes: int, rng: np.random.Generator,
                   tol: float = CERTIFICATE_TOL) -> float:
    """The linear-regularity constant: ``problem.kappa`` if known (no probe
    is drawn), else an empirical lower bound.  A (probes, n) block of normal
    draws gives probes uniformly on the sphere of radius ``2 max(1, ||c||)``
    around c, the known optimum or else the origin: a feasible anchor of the
    iterate region.  Each contributes dist_X(x)^2 / E[dist_{X_S}(x)^2], with
    dist_X certified at ``tol`` as in ``project_intersection``; probes with
    denominator below 1e-14 are skipped.  Returns the largest ratio floored
    at 1 (X lies in each X_S).
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if problem.kappa is not None:
        return problem.kappa
    center = (problem.x_star if problem.x_star is not None
              else np.zeros(problem.dim))
    radius = 2.0 * max(1.0, norm(center))
    u = rng.standard_normal((probes, problem.dim))
    x = center + (radius / np.sqrt(np.einsum("ij,ij->i", u, u)))[:, None] * u
    den = problem.mean_constraint_sq_distance(x)
    x, den = x[den >= 1e-14], den[den >= 1e-14]
    if not len(den):
        raise ValueError("all probes were degenerate (feasible or near-feasible)")
    num = np.array([dist_intersection(problem.rows, p, tol=tol) for p in x])
    return max(float((num ** 2 / den).max()), 1.0)

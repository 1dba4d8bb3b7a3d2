"""Simple convex sets with exact projections, plus intersection oracles.

``project_intersection`` projects onto a finite intersection.  Halfspace
families are one polyhedron {z : C z <= d}, projected exactly by Lawson and
Hanson's least-distance program (solved as a nonnegative least-squares
problem) and certified by its KKT conditions; an empty intersection raises.
Families of other or mixed kinds use Dykstra's alternating-projection scheme
(plain alternating projections would only give a feasible point, not the
projection, and the distance report needs the projection).
``estimate_kappa`` probes the linear-regularity ratio
dist_X(x)^2 / E[dist_{X_S}(x)^2]; being sampled, it certifies a lower bound
on the regularity constant only.
"""

from __future__ import annotations

import numpy as np

from .core import Array, RandomSource, as_vector, norm


class ConstraintSet:
    kind = "abstract"

    def __init__(self, dim: int):
        self.dim = dim

    def _check(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: expected ({self.dim},), got {x.shape}")
        return x

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


class Halfspace(ConstraintSet):
    """{x : c'x <= d}."""

    kind = "halfspace"

    def __init__(self, c, d: float):
        c = as_vector(c)
        self._c_sq = float(np.dot(c, c))
        if self._c_sq == 0.0:
            raise ValueError("normal vector must be nonzero")
        super().__init__(c.shape[0])
        self.c = c
        self.d = float(d)
        self._c_nrm = float(np.sqrt(self._c_sq))

    def project(self, x):
        x = self._check(x)
        viol = float(np.dot(self.c, x)) - self.d
        if viol <= 0.0:
            return x.copy()
        return x - (viol / self._c_sq) * self.c

    def distance(self, x):
        x = self._check(x)
        return max(0.0, float(np.dot(self.c, x)) - self.d) / self._c_nrm


class Hyperplane(ConstraintSet):
    """{x : c'x = d}."""

    kind = "hyperplane"

    def __init__(self, c, d: float):
        c = as_vector(c)
        self._c_sq = float(np.dot(c, c))
        if self._c_sq == 0.0:
            raise ValueError("normal vector must be nonzero")
        super().__init__(c.shape[0])
        self.c = c
        self.d = float(d)
        self._c_nrm = float(np.sqrt(self._c_sq))

    def project(self, x):
        x = self._check(x)
        return x - ((float(np.dot(self.c, x)) - self.d) / self._c_sq) * self.c

    def distance(self, x):
        x = self._check(x)
        return abs(float(np.dot(self.c, x)) - self.d) / self._c_nrm


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


class NonnegativeOrthant(ConstraintSet):
    """{x : x >= 0}."""

    kind = "nonneg-orthant"

    def __init__(self, dim: int):
        super().__init__(dim)

    def project(self, x):
        x = self._check(x)
        return np.maximum(x, 0.0)

    def distance(self, x):
        x = self._check(x)
        return norm(np.minimum(x, 0.0))


class DykstraError(RuntimeError):
    """Intersection projection failed (cycle cap, empty intersection or
    failed certificate); ``best`` carries the last candidate."""

    def __init__(self, message: str, best: Array):
        super().__init__(message)
        self.best = best

    def __reduce__(self):  # a pool worker's error must unpickle in the parent
        return type(self), (self.args[0], self.best)


def _dykstra_generic(sets, x, tol, max_cycles):
    y = x.copy()
    incs = [np.zeros_like(x) for _ in sets]
    for _ in range(max_cycles):
        start = y
        for i, s in enumerate(sets):
            w = y + incs[i]
            y = s.project(w)
            incs[i] = w - y
        if norm(y - start) < tol:
            return y
    raise DykstraError(
        f"Dykstra did not converge within {max_cycles} cycles", best=y)


def _nnls(E, f):
    """Lawson-Hanson active-set solve of min ||E w - f|| over w >= 0.

    Returns w and the residual r = E w - f.
    """
    k = E.shape[1]
    w = np.zeros(k)
    free = np.zeros(k, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * float(np.abs(E).max())
    grad = E.T @ f
    for _ in range(3 * k + 10):
        j = int(np.argmax(np.where(free, -np.inf, grad)))
        if free[j] or grad[j] <= tol:
            return w, E @ w - f
        free[j] = True
        while True:
            cols = np.flatnonzero(free)
            s = np.zeros(k)
            s[cols] = np.linalg.lstsq(E[:, cols], f, rcond=None)[0]
            if s[cols].min() > 0.0:
                w = s
                grad = E.T @ (f - E @ w)
                break
            if s[j] <= 0.0 and w[j] == 0.0:  # j gains only roundoff: bar it
                free[j] = False
                grad[j] = -np.inf
                break
            out = cols[s[cols] <= 0.0]
            ratios = w[out] / (w[out] - s[out])
            i = int(np.argmin(ratios))
            w = w + ratios[i] * (s - w)
            w[out[i]] = 0.0
            free &= w > 0.0
            w[~free] = 0.0
    raise DykstraError("NNLS did not terminate", best=w)


def _project_polyhedron(C, d, x):
    """Exact projection of x onto {z : C z <= d} by least-distance NNLS.

    u = z - x solves min ||u|| s.t. -C u >= C x - d.  Lawson and Hanson
    (*Solving Least Squares Problems*, 1974, ch. 23): NNLS on
    E = [-C'; (C x - d)'], f = e_{n+1} gives r = E w - f and u = -r[:n]/r[n];
    r = 0 certifies an empty set.  z is returned only when its KKT
    certificate (feasibility, complementary slackness) holds to 1e-10 * scale.
    """
    nrm = np.sqrt(np.einsum("ij,ij->i", C, C))
    C = C / nrm[:, None]
    d = d / nrm
    h = C @ x - d  # violations, scaled below to a largest value of 1
    top = float(h.max(initial=0.0))
    if top <= 0.0:
        return x.copy()
    n = x.shape[0]
    w, r = _nnls(np.vstack([-C.T, h / top]), np.eye(n + 1)[n])
    if -r[n] <= 1e-14:
        raise DykstraError("empty intersection: the halfspaces are "
                           "inconsistent", best=x.copy())
    z = x - (top / r[n]) * r[:n]
    tol = 1e-10 * (1.0 + float(np.abs(x).max()) + float(np.abs(d).max()))
    slack = C @ z - d
    worst = max(float(slack.max()),
                float(np.abs(slack[w > 0.0]).max(initial=0.0)))
    if not worst <= tol:  # also catches NaN
        raise DykstraError(
            f"least-distance certificate failed: residual {worst:.3g} "
            f"exceeds {tol:.3g}", best=z)
    return z


def project_intersection(sets, x, tol: float = 1e-10,
                         max_cycles: int = 100_000) -> Array:
    """Projection of x onto the intersection of ``sets``.

    Halfspace families are projected exactly by one least-distance NNLS
    solve (DykstraError if empty or uncertified).  Other or mixed families
    run Dykstra cycles until the per-cycle displacement drops below ``tol``,
    raising DykstraError (carrying the last iterate) after ``max_cycles``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one set")
    x = np.asarray(x, dtype=np.float64)
    if len(sets) == 1:
        return sets[0].project(x)
    if all(isinstance(s, Halfspace) for s in sets):
        return _project_polyhedron(np.stack([s.c for s in sets]),
                                   np.array([s.d for s in sets]), x)
    if max(s.distance(x) for s in sets) == 0.0:
        return x.copy()
    return _dykstra_generic(sets, x, tol, max_cycles)


def dist_intersection(sets, x, tol: float = 1e-10,
                      max_cycles: int = 100_000) -> float:
    """Distance from x to the intersection of ``sets``."""
    x = np.asarray(x, dtype=np.float64)
    return norm(x - project_intersection(sets, x, tol=tol, max_cycles=max_cycles))


def estimate_kappa(problem, probes: int, rng: RandomSource,
                   center=None, radius: float | None = None,
                   dykstra_tol: float = 1e-10) -> float:
    """Empirical lower bound on the linear-regularity constant.

    Probe points are drawn uniformly on a sphere of radius
    ``2 max(1, ||center||)`` (overridable) around ``center``, which defaults
    to the known optimum or the origin and should be a feasible anchor of the
    iterate region.  Each probe contributes
    dist_X(x)^2 / E[dist_{X_S}(x)^2]; probes with denominator below 1e-14
    are skipped, and the maximum ratio is returned.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if center is None:
        center = problem.x_star if problem.x_star is not None else np.zeros(problem.dim)
    center = as_vector(center, problem.dim)
    if radius is None:
        radius = 2.0 * max(1.0, norm(center))
    best = None
    for _ in range(probes):
        u = rng.normal(problem.dim)
        nu = norm(u)
        if nu == 0.0:
            continue
        x = center + (radius / nu) * u
        den = problem.mean_constraint_sq_distance(x)
        if den < 1e-14:
            continue
        num = dist_intersection(problem.constraints, x, tol=dykstra_tol) ** 2
        ratio = num / den
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError("all probes were degenerate (feasible or near-feasible)")
    return best

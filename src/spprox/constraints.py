"""Simple convex sets with exact projections, plus intersection oracles.

Every set kind is polyhedral, so a finite intersection is one ``Polyhedron``
of unit rows {z : C z <= d}; a hyperplane is two opposite rows.
``project_intersection`` projects onto it exactly by Lawson and Hanson's
least-distance program, solved as a nonnegative least-squares problem, and
certifies the answer by its KKT conditions; an empty intersection, certified
by the Farkas weights of the same solve, raises.
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

    def rows(self):
        """(C, d) with the set equal to {x : C x <= d}."""
        raise NotImplementedError

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
        viol = float(np.dot(self.c, x)) - self.d
        if viol <= 0.0:
            return x.copy()
        return x - (viol / self._c_sq) * self.c

    def distance(self, x):
        x = self._check(x)
        return max(0.0, float(np.dot(self.c, x)) - self.d) / self._c_nrm


class Hyperplane(_OneRow):
    """{x : c'x = d}."""

    kind = "hyperplane"

    def rows(self):  # c'x <= d and -c'x <= -d
        return np.stack([self.c, -self.c]), np.array([self.d, -self.d])

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
    """Intersection projection failed (empty intersection or failed
    certificate); ``best`` carries the last candidate."""

    def __init__(self, message: str, best: Array):
        super().__init__(message)
        self.best = best

    def __reduce__(self):  # a pool worker's error must unpickle in the parent
        return type(self), (self.args[0], self.best)


def _nnls(E, f, passive=None):
    """Lawson-Hanson active-set solve of min ||E w - f|| over w >= 0.

    ``passive`` (a boolean mask) starts the loop from that passive set, as in
    Bro and De Jong (J. Chemometrics, 1997): columns are dropped until the
    least-squares solution on the rest is positive.  Returns w and the
    residual r = E w - f.
    """
    k = E.shape[1]
    w = np.zeros(k)
    free = np.zeros(k, dtype=bool) if passive is None else passive.copy()
    while free.any():
        cols = np.flatnonzero(free)
        s = np.linalg.lstsq(E[:, cols], f, rcond=None)[0]
        if s.min() > 0.0:
            w[cols] = s
            break
        free[cols[s <= 0.0]] = False
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * float(np.abs(E).max())
    grad = E.T @ (f - E @ w)
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


def _ldp(C, d, x, scale, passive=None):
    """Least-distance projection of x onto {z : C z <= d} (unit rows), at the
    scale 1 + ||x||_inf + max|d|.

    u = z - x solves min ||u|| s.t. -C u >= C x - d.  Lawson and Hanson
    (*Solving Least Squares Problems*, 1974, ch. 23): NNLS on
    E = [-C'; (C x - d)'], f = e_{n+1} gives w >= 0, r = E w - f and
    u = -r[:n]/r[n].  The weights are a Farkas certificate of an empty set
    when max|C'w| scale < 1e-9 (-d'w): every z in the set has
    (C'w)'z <= d'w, so none lies within 1e9 scale / n of the origin.
    Returns z and the passive set (active rows), or None when x is
    feasible.
    """
    h = C @ x - d  # violations, scaled below to a largest value of 1
    top = float(h.max(initial=0.0))
    if top <= 0.0:
        return x.copy(), None
    n = x.shape[0]
    w, r = _nnls(np.vstack([-C.T, h / top]), np.eye(n + 1)[n], passive)
    if float(np.abs(r[:n]).max()) * scale < -1e-9 * float(d @ w):  # r = -C'w
        raise DykstraError("empty intersection: the rows admit a Farkas "
                           "certificate", best=x.copy())
    # r[n] = -1 / (1 + ||u||^2 / top^2) is lost to roundoff once ||u|| passes
    # top / sqrt(eps): there is no step to certify
    if not r[n] < 0.0:
        raise DykstraError("least-distance certificate failed: the solve "
                           "gives no step", best=x.copy())
    return x - (top / r[n]) * r[:n], w > 0.0


def _unit_rows(C, d):
    C = np.asarray(C, dtype=np.float64)
    nrm = np.sqrt(np.einsum("ij,ij->i", C, C))
    if not np.all(nrm > 0.0):
        raise ValueError("constraint rows must be nonzero")
    return C / nrm[:, None], np.asarray(d, dtype=np.float64) / nrm


class WarmStart:
    """The passive set of one run's last least-distance solve.

    Handed to ``project_intersection`` so that the next solve of the same
    run starts from it; a run owns its own, so no state crosses runs.
    """

    passive = None


class Polyhedron:
    """{z : C z <= d} as an array of unit rows, built once per family.

    A halfspace gives one row, a hyperplane two opposite rows, an orthant n
    rows, a box 2n rows and the whole space none.  ``owner`` maps the rows
    to the ``sets`` they came from (by default every row is its own set).
    The last cold projection (one not warm-started) is memoized: it is a
    pure function of x and the tolerance.
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
        """Per-row distances: the positive violations."""
        return np.maximum(self.C @ x - self.d, 0.0)

    def set_sq_distances(self, x: Array) -> Array:
        """dist_{X_i}(x)^2 for every set i: the sum over its rows."""
        v = self.violations(x)
        return np.bincount(self.owner, weights=v * v, minlength=self.sets)

    def project(self, x: Array, tol: float = 1e-10,
                warm: WarmStart | None = None) -> Array:
        """Certified projection of x; see ``project_intersection``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: expected ({self.dim},), "
                             f"got {x.shape}")
        if not np.isfinite(x).all():  # LAPACK would fail on it less clearly
            raise ValueError("cannot project a non-finite point")
        start = None if warm is None else warm.passive
        key = (x.tobytes(), tol)
        if start is None and self._memo is not None and self._memo[0] == key:
            z, passive = self._memo[1:]
        else:
            z, passive = self._solve(x, tol, start)
            if start is None:
                self._memo = (key, z, passive)
        if warm is not None and passive is not None:
            warm.passive = passive
        return z.copy()

    def _solve(self, x, tol, start):
        scale = 1.0 + float(np.abs(x).max()) + self._scale
        z, passive = _ldp(self.C, self.d, x, scale, start)
        tol *= scale
        slack = self.C @ z - self.d
        worst = max(float(slack.max(initial=0.0)), 0.0 if passive is None
                    else float(np.abs(slack[passive]).max(initial=0.0)))
        if not worst <= tol:  # also catches NaN
            raise DykstraError(
                f"least-distance certificate failed: residual {worst:.3g} "
                f"exceeds {tol:.3g}", best=z)
        return z, passive


def project_intersection(sets, x, tol: float = 1e-10,
                         warm: WarmStart | None = None) -> Array:
    """Projection of x onto the intersection of ``sets``.

    ``sets`` is a sequence of ``ConstraintSet`` objects or their
    ``Polyhedron``.  One least-distance NNLS solve projects every family;
    the answer is returned only when its KKT certificate (feasibility and
    complementary slackness) holds to
    tol * (1 + ||x||_inf + max_i |d_i|), and an empty intersection or a
    failed certificate raises DykstraError.  ``warm`` starts the solve from
    the passive set of the last solve that used it, and records this one's.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not isinstance(sets, Polyhedron):
        sets = list(sets)
        if not sets:
            raise ValueError("need at least one set")
        sets = Polyhedron.of(sets, np.shape(x)[0])
    return sets.project(x, tol, warm)


def dist_intersection(sets, x, tol: float = 1e-10,
                      warm: WarmStart | None = None) -> float:
    """Distance from x to the intersection of ``sets``."""
    x = np.asarray(x, dtype=np.float64)
    return norm(x - project_intersection(sets, x, tol=tol, warm=warm))


def estimate_kappa(problem, probes: int, rng: RandomSource,
                   tol: float = 1e-10) -> float:
    """Empirical lower bound on the linear-regularity constant.

    Probe points are drawn uniformly on the sphere of radius
    ``2 max(1, ||c||)`` around the center c, the known optimum or else the
    origin: a feasible anchor of the iterate region.  Each probe contributes
    dist_X(x)^2 / E[dist_{X_S}(x)^2], with dist_X certified at ``tol`` as in
    ``project_intersection``; probes with denominator below 1e-14 are
    skipped, and the maximum ratio is returned.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    center = (problem.x_star if problem.x_star is not None
              else np.zeros(problem.dim))
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
        num = dist_intersection(problem.rows, x, tol=tol) ** 2
        ratio = num / den
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError("all probes were degenerate (feasible or near-feasible)")
    return best

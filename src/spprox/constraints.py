"""Simple convex sets with exact projections, plus intersection oracles.

Every set kind is polyhedral, so a finite intersection is one ``Polyhedron``
of unit rows {z : C z <= d, A z = b}.  ``project_intersection`` projects
onto it exactly by Lawson and Hanson's least-distance program (equality rows
eliminated by a null-space reduction, the rest solved as a nonnegative
least-squares problem) and certifies the answer by its KKT conditions; an
empty intersection raises.
``estimate_kappa`` probes the linear-regularity ratio
dist_X(x)^2 / E[dist_{X_S}(x)^2]; being sampled, it certifies a lower bound
on the regularity constant only.
"""

from __future__ import annotations

import numpy as np

from .core import Array, RandomSource, as_vector, norm


class ConstraintSet:
    kind = "abstract"
    equality = False  # whether ``rows`` are equalities

    def __init__(self, dim: int):
        self.dim = dim

    def rows(self):
        """(C, d) with the set equal to {x : C x <= d} (= d if ``equality``)."""
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
    """A set of one row c'x <= d or c'x = d (nonzero c)."""

    def __init__(self, c, d: float):
        c = as_vector(c)
        self._c_sq = float(np.dot(c, c))
        if self._c_sq == 0.0:
            raise ValueError("normal vector must be nonzero")
        super().__init__(c.shape[0])
        self.c = c
        self.d = float(d)
        self._c_nrm = float(np.sqrt(self._c_sq))

    def rows(self):
        return self.c[None, :], np.array([self.d])


class Halfspace(_OneRow):
    """{x : c'x <= d}."""

    kind = "halfspace"

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
    equality = True

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

    def __init__(self, dim: int):
        super().__init__(dim)

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


def _ldp(C, d, x, passive=None):
    """Least-distance projection of x onto {z : C z <= d} (unit rows).

    u = z - x solves min ||u|| s.t. -C u >= C x - d.  Lawson and Hanson
    (*Solving Least Squares Problems*, 1974, ch. 23): NNLS on
    E = [-C'; (C x - d)'], f = e_{n+1} gives r = E w - f and u = -r[:n]/r[n];
    r = 0 certifies an empty set.  Returns z and the passive set (active
    rows), or None when x is feasible.
    """
    h = C @ x - d  # violations, scaled below to a largest value of 1
    top = float(h.max(initial=0.0))
    if top <= 0.0:
        return x.copy(), None
    n = x.shape[0]
    w, r = _nnls(np.vstack([-C.T, h / top]), np.eye(n + 1)[n], passive)
    if -r[n] <= 1e-14:
        raise DykstraError("empty intersection: the rows are inconsistent",
                           best=x.copy())
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
    """{z : C z <= d, A z = b} as arrays of unit rows, built once per family.

    A halfspace gives one row, an orthant n rows, a box 2n rows and the
    whole space none; a hyperplane gives one equality row.  ``owner`` maps
    the rows of [C; A] to the ``sets`` they came from (by default every row
    is its own set).  Equality rows are eliminated by a null-space
    reduction z = z0 + N y (Lawson and Hanson, ch. 20-22): y is projected
    onto {y : (C N) y <= d - C z0} and mapped back.  The last cold
    projection (one not warm-started) is memoized: it is a pure function of
    x and the tolerance.
    """

    def __init__(self, C, d, A=None, b=None, owner=None, sets=None):
        C = np.asarray(C, dtype=np.float64)
        dim = C.shape[1]
        self.dim = dim
        self.C, self.d = _unit_rows(C, d)
        self.A, self.b = _unit_rows(np.empty((0, dim)) if A is None else A,
                                    np.empty(0) if b is None else b)
        rows = len(self.d) + len(self.b)
        self.owner = np.arange(rows) if owner is None else owner
        self.sets = rows if sets is None else sets
        self._scale = float(np.abs(np.concatenate([self.d, self.b]))
                            .max(initial=0.0))
        self._memo = None
        self._null = None
        if len(self.b):
            U, sv, Vt = np.linalg.svd(self.A)
            r = int(np.sum(sv > max(self.A.shape) * np.finfo(float).eps
                           * sv[0]))
            z0 = Vt[:r].T @ ((U[:, :r].T @ self.b) / sv[:r])
            N = Vt[r:].T
            Cr, dr = self.C @ N, self.d - self.C @ z0
            keep = np.sqrt(np.einsum("ij,ij->i", Cr, Cr)) > 1e-12
            # a row constant on {A z = b} holds everywhere on it or nowhere
            self._gap = max(float(np.abs(self.A @ z0 - self.b).max()),
                            float((-dr[~keep]).max(initial=0.0)))
            self._null = (z0, N, keep, *_unit_rows(Cr[keep], dr[keep]))

    @classmethod
    def of(cls, sets, dim: int) -> "Polyhedron":
        """The rows of a family of ``ConstraintSet`` objects."""

        def stack(group):  # filled set by set: no per-set arrays pile up
            sizes = [len(s.rows()[1]) for _, s in group]
            C, d = np.empty((sum(sizes), dim)), np.empty(sum(sizes))
            at = np.cumsum([0] + sizes)
            for (_, s), lo, hi in zip(group, at, at[1:]):
                C[lo:hi], d[lo:hi] = s.rows()
            return C, d, np.repeat([i for i, _ in group], sizes).astype(int)

        C, d, own = stack([(i, s) for i, s in enumerate(sets)
                           if not s.equality])
        A, b, own_eq = stack([(i, s) for i, s in enumerate(sets) if s.equality])
        return cls(C, d, A, b, owner=np.concatenate([own, own_eq]),
                   sets=len(sets))

    def violations(self, x: Array) -> Array:
        """Per-row distances: positive inequality violations, then absolute
        equality residuals."""
        return np.concatenate([np.maximum(self.C @ x - self.d, 0.0),
                               np.abs(self.A @ x - self.b)])

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
        start = None if warm is None else warm.passive
        key = (x.tobytes(), tol)
        if start is None and self._memo is not None and self._memo[0] == key:
            z, passive = self._memo[1:]
        else:
            z, passive = self._solve(
                x, tol * (1.0 + float(np.abs(x).max()) + self._scale), start)
            if start is None:
                self._memo = (key, z, passive)
        if warm is not None and passive is not None:
            warm.passive = passive
        return z.copy()

    def _solve(self, x, tol, start):
        active = np.zeros(len(self.d), dtype=bool)
        if self._null is None:
            z, passive = _ldp(self.C, self.d, x, start)
            if passive is not None:
                active = passive
        else:
            z0, N, keep, Cr, dr = self._null
            if not self._gap <= tol:
                raise DykstraError(
                    f"empty intersection: the equality rows leave a gap of "
                    f"{self._gap:.3g}", best=x.copy())
            y, passive = _ldp(Cr, dr, N.T @ (x - z0), start)
            z = z0 + N @ y
            if passive is not None:
                active[keep] = passive
        slack = self.C @ z - self.d
        worst = max(float(slack.max(initial=0.0)),
                    float(np.abs(slack[active]).max(initial=0.0)),
                    float(np.abs(self.A @ z - self.b).max(initial=0.0)))
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
    the answer is returned only when its KKT certificate (feasibility,
    complementary slackness, equality residuals) holds to
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
        num = dist_intersection(problem.rows, x, tol=dykstra_tol) ** 2
        ratio = num / den
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError("all probes were degenerate (feasible or near-feasible)")
    return best

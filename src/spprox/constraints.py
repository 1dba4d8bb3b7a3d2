"""Simple convex sets with exact projections, plus intersection oracles.

Every set kind is polyhedral, so a finite intersection is one ``Polyhedron``
of unit rows {z : C z <= d}; a hyperplane is two opposite rows, and a family
of sets gives its rows through ``Polyhedron.of``.  ``project_intersection``
and ``dist_intersection`` take those rows and a point, or a stack of points
solved cold in lockstep (a point is the batch of one), by Goldfarb and
Idnani's dual active-set method.  Each answer is certified by its KKT
conditions (feasibility, tight active rows, nonnegative multipliers,
stationarity) at ``CERTIFICATE_TOL``, which no caller sets; an empty
intersection, certified by a dual ray of the same solve, raises.  A point's
answer has the same bits in any batch: every product coupling its entries
is a BLAS call of its own.
``estimate_kappa`` is the one owner of the linear-regularity constant: a
problem's known kappa, else the largest sampled ratio
dist_X(x)^2 / E[dist_{X_S}(x)^2], which certifies a lower bound only.
"""

from __future__ import annotations

import numpy as np

from .core import Array, Oracle, as_vector, norm

# the relative tolerance of every projection's KKT certificate
CERTIFICATE_TOL = 1e-10
# points per lockstep solve: caps the (CHUNK, n, n) factors held at once
CHUNK = 64


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


def _matvec(A, x):
    """A @ x for every point x of a stack (A shared, or one per point).

    Each point gets its own BLAS call of one shape, so its bits do not
    depend on the rest of the batch; a BLAS product of the whole stack
    does not promise that.
    """
    return np.matmul(A, x[..., None])[..., 0]


def _rowdot(a, b):
    """Per-point inner products: a sum along each row alone."""
    return (a * b).sum(axis=-1)


def _padded(rows, q, zero):
    """Every point's first q rows, then the zero row ``zero`` (ending C0)."""
    return np.where(np.arange(rows.shape[1]) < q[:, None], rows, zero)


def _factor(C0, pad):
    """Per point, C_A' = J [T; 0] for its rows A (``pad``), J orthogonal and
    T triangular, by a stacked QR of the zero-padded n x n C_A': J and
    T^-T, zero outside its q x q block."""
    n = C0.shape[1]
    tail = pad == len(C0) - 1
    J, T = np.linalg.qr(C0[pad].transpose(0, 2, 1), mode="complete")
    T[:, np.arange(n), np.arange(n)] += tail  # [T_A 0; 0 0] -> [T_A 0; 0 I]
    TinvT = np.linalg.inv(T).transpose(0, 2, 1)
    TinvT[tail] = 0.0
    TinvT.transpose(0, 2, 1)[tail] = 0.0
    return J, TinvT


def _equality(C0, d0, x, pad, J, TinvT):
    """Per point, the projection z = x - C_A' mu onto {z : C_A z = d_A} for
    its rows A (``pad``), by their factors, refined by a second pass from
    z: z and mu, zero past its rows."""
    y = _matvec(TinvT, np.take_along_axis(_matvec(C0, x) - d0, pad, axis=1))
    z = x - _matvec(J, y)
    y2 = _matvec(TinvT, np.take_along_axis(_matvec(C0, z) - d0, pad, axis=1))
    return z - _matvec(J, y2), _matvec(TinvT.transpose(0, 2, 1), y)


def _unit_rows(C, d):
    C, d = np.asarray(C, dtype=np.float64), np.asarray(d, dtype=np.float64)
    if C.ndim != 2:
        raise ValueError(f"C must be 2-D, got shape {C.shape}")
    if d.shape != (len(C),):
        raise ValueError(f"d needs one entry per row of C: got shape "
                         f"{d.shape} for {len(C)} rows")
    if not (np.isfinite(C).all() and np.isfinite(d).all()):
        raise ValueError("constraint rows must be finite")
    nrm = np.sqrt(np.einsum("ij,ij->i", C, C))
    if not np.all(nrm > 0.0):
        raise ValueError("constraint rows must be nonzero")
    return C / nrm[:, None], d / nrm


class Polyhedron:
    """{z : C z <= d} as an array of unit rows, built once per family.

    A halfspace gives one row, a hyperplane two opposite rows, an orthant n
    rows, a box 2n rows and the whole space none.  ``owner`` maps the rows
    to the ``sets`` they came from (by default every row is its own set).
    """

    def __init__(self, C, d, owner=None, sets=None):
        self.C, self.d = _unit_rows(C, d)
        self.dim = self.C.shape[1]
        self.owner = np.arange(len(self.d)) if owner is None else owner
        self.sets = len(self.d) if sets is None else sets
        self._scale = float(np.abs(self.d).max(initial=0.0))

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

    def _solve(self, x):
        """Goldfarb and Idnani's dual method for every point of the stack x,
        in lockstep, each from no rows: z = x - C_A' lam, lam >= 0, the rows
        A tight.  The most violated row p has c_p = C_A' r + h; a step along
        -h adds p unless some lam_j with r_j > 0 reaches 0 first, which
        drops row j.  With tol the point's certificate tolerance, a
        dependent p (h ~ 0) violated within tol is set aside; with no
        r_j > 0, e_p - r is a dual ray: a Farkas certificate of emptiness
        once its gap d_A'r - d_p exceeds tol.  Returns z, each point
        certified as in ``project_intersection``."""
        C, d, eps = self.C, self.d, np.finfo(float).eps
        (B, n), m = x.shape, len(d)
        C0, d0 = np.vstack([C, np.zeros(n)]), np.append(d, 0.0)
        dependent, cols = (16.0 * eps * n) ** 2, np.arange(n)
        # per point: its tolerance, rows A (the first q) and their factors
        # J and T^-T (zero past q), kept to the end; then its iterate,
        # roundoff, multipliers, each row's mark (1 active, 2 set aside)
        # and the row p adding.  The first L points are unfinished, and one
        # that finishes swaps places with the last unfinished one.
        scale = 1.0 + np.abs(x).max(axis=1) + self._scale
        state = [np.arange(B), CERTIFICATE_TOL * scale,
                 np.zeros((B, n), dtype=np.intp), np.zeros(B, dtype=np.intp),
                 np.tile(np.eye(n), (B, 1, 1)), np.zeros((B, n, n)), x.copy(),
                 16.0 * eps * scale, np.zeros((B, n)),
                 np.zeros((B, m), dtype=np.int8), np.full(B, -1), np.zeros(B)]
        L, outer = B, np.empty((B, n, n))  # (reused: no page faults)
        for _ in range(10 * (m + n)):
            ids, tol_, rows, q, J, TinvT, z, roundoff, lam, mark, p, lam_p = (
                a[:L] for a in state)
            pick = p < 0
            if pick.any():  # the next row to add, or the point is done
                at = slice(None) if pick.all() else np.flatnonzero(pick)
                s = np.where(mark[at] != 0, -np.inf, _matvec(C, z[at]) - d)
                best = s.argmax(axis=1)
                more = s.max(axis=1) > roundoff[at]
                p[at], lam_p[at] = np.where(more, best, -1), 0.0
                done = np.flatnonzero(p < 0)
                if len(done):
                    L -= len(done)
                    if not L:
                        break
                    hole = done[done < L]
                    fill = L + np.flatnonzero(p[L:] >= 0)
                    for a in state[:6]:
                        a[hole], a[fill] = a[fill], a[hole]
                    for a in state[6:]:
                        a[hole] = a[fill]
                    ids, tol_, rows, q, J, TinvT, z, roundoff, lam, mark, p, \
                        lam_p = (a[:L] for a in state)
            # c_p = C_A' r + J u past q; r and lam are 0 past q
            Cp, head = C[p], cols < q[:, None]
            v = _matvec(J.transpose(0, 2, 1), Cp)
            r, u = _matvec(TinvT.transpose(0, 2, 1), v), np.where(head, 0.0, v)
            hh, viol = _rowdot(u, u), _rowdot(Cp, z) - d[p]
            block = r > 0.0
            ratios = np.where(block, lam / np.where(block, r, 1.0), np.inf)
            k = ratios.argmin(axis=1)
            ratio = ratios.min(axis=1)
            flat = hh <= dependent  # p depends on the rows A
            if flat.any():
                stuck = flat & ((viol <= tol_) | ~block.any(axis=1))
                gap = _rowdot(d[rows], r) - d[p]
                if (stuck & (viol > tol_) & (gap > tol_)).any():
                    raise DykstraError("empty intersection: a dual ray is "
                                       "a Farkas certificate")
                mark[np.flatnonzero(stuck), p[stuck]] = 2
                p[stuck] = -1
                if stuck.all():
                    continue
                full = np.where(flat, np.inf, viol / np.where(flat, 1.0, hh))
                t = np.where(stuck, 0.0, np.minimum(full, ratio))
                adds = ~stuck & (full <= ratio)  # a stuck point stays put
                drops = ~stuck & ~adds
            else:
                full = viol / hh
                t, adds = np.minimum(full, ratio), full <= ratio
                drops = ~adds
            Ju = _matvec(J, u)
            z -= t[:, None] * Ju
            lam -= t[:, None] * r
            lam_p += t
            if adds.any():  # reflect u to a e_q: T gains the column (T r, a)
                i = np.flatnonzero(adds)
                at = slice(None) if len(i) == L else i
                qi, w, pi, j = q[at], u[at], p[at], np.arange(len(i))
                a = -np.copysign(np.sqrt(hh[at]), w[j, qi])
                w[j, qi] -= a
                Jw = ((Ju[at] - a[:, None] * J[i, :, qi])  # J w = J u - a J e_q
                      * (2.0 / _rowdot(w, w))[:, None])
                J[at] -= np.einsum("bi,bj->bij", Jw, w, out=outer[:len(i)])
                TinvT[i, qi] = -r[at] / a[:, None]
                TinvT[i, qi, qi] = 1.0 / a
                rows[i, qi], mark[i, pi], lam[i, qi] = pi, 1, lam_p[at]
                q[at], p[at] = qi + 1, -1
            if drops.any():  # row k leaves A: refactor the rows kept
                i = np.flatnonzero(drops)
                ki = k[i]
                mark[i, rows[i, ki]] = 0
                mark[i] &= 1  # rows set aside are candidates again
                order = np.argsort(cols == ki[:, None], axis=1, kind="stable")
                rows[i] = np.take_along_axis(rows[i], order, axis=1)
                lam_i = np.take_along_axis(lam[i], order, axis=1)
                lam_i[:, -1] = 0.0
                lam[i], q[i] = lam_i, q[i] - 1
                J[i], TinvT[i] = _factor(C0, _padded(rows[i], q[i], m))
        else:
            raise DykstraError("dual active-set solve did not stop")
        ids, tol, rows, q, J, TinvT = state[:6]
        x = x[ids]  # in the order the states end in
        pad = _padded(rows, q, m)
        z, mu = _equality(C0, d0, x, pad, J, TinvT)
        slack, act = _matvec(C0, z) - d0, np.zeros((len(x), m + 1))
        np.put_along_axis(act, pad, mu, axis=1)  # the zero row gets 0s
        res = x - z - _matvec(C0.T, act)
        worst = np.maximum.reduce([
            slack.max(axis=1, initial=0.0),
            np.abs(np.take_along_axis(slack, pad, axis=1)).max(axis=1),
            np.sqrt(_rowdot(res, res))])
        least = np.where(cols < q[:, None], mu, np.inf).min(axis=1)  # rows A
        failed = ~((worst <= tol) & (least >= 0.0))  # also catches NaN
        if failed.any():
            i = int(np.argmax(failed))
            mult = (f"least multiplier {least[i]:.3g}" if q[i]
                    else "no active row")
            raise DykstraError(f"least-distance certificate failed: residual "
                               f"{worst[i]:.3g} (tolerance {tol[i]:.3g}), "
                               f"{mult}")
        z[ids] = z.copy()
        return z


def project_intersection(rows: Polyhedron, x) -> Array:
    """Projection of x, or of each point of a stack (rows of x), onto the
    polyhedron ``rows``.  The points are solved cold, in lockstep, at most
    ``CHUNK`` at a time; a point's answer does not depend on the others.
    An answer is returned only when its KKT certificate (feasibility,
    complementary slackness and stationarity to CERTIFICATE_TOL * (1 +
    ||x||_inf + max_i |d_i|), nonnegative multipliers) holds; an empty
    intersection or a failed certificate raises DykstraError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != rows.dim:
        raise ValueError(f"dimension mismatch: expected ({rows.dim},), "
                         f"got {x.shape}")
    if not np.isfinite(x).all():  # LAPACK would fail on it less clearly
        raise ValueError("cannot project a non-finite point")
    points = np.atleast_2d(x)
    if not len(rows.d) or not len(points):  # X = R^n, or no point
        return x.copy()
    z = [rows._solve(points[i:i + CHUNK])
         for i in range(0, len(points), CHUNK)]
    return np.concatenate(z).reshape(x.shape)


def dist_intersection(rows: Polyhedron, x):
    """Distance from x to the polyhedron ``rows``, or the array of
    distances of a stack of points (see ``project_intersection``)."""
    x = np.asarray(x, dtype=np.float64)
    dist = [norm(r) for r in np.atleast_2d(x - project_intersection(rows, x))]
    return np.array(dist) if x.ndim == 2 else dist[0]


def estimate_kappa(problem, probes: int, rng: np.random.Generator) -> float:
    """The linear-regularity constant: ``problem.kappa`` if known (no probe
    is drawn), else an empirical lower bound.  A (probes, n) block of normal
    draws gives probes uniformly on the sphere of radius ``2 max(1, ||c||)``
    around c, the known optimum or else the origin: a feasible anchor of the
    iterate region.  Each contributes dist_X(x)^2 / E[dist_{X_S}(x)^2], with
    dist_X certified as in ``dist_intersection``, one batch for every kept
    probe; probes with denominator below 1e-14 are skipped.  Returns the
    largest ratio floored at 1 (X lies in each X_S).
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
    num = dist_intersection(problem.rows, x)
    return max(float((num ** 2 / den).max()), 1.0)

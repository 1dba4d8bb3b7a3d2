"""Loss components with exact values, gradients, and Moreau proximal maps.

Every component exposes the sampled term f(.;S) through four operations:

    value(x)                f(x)
    gradient(x)             grad f(x)
    prox(x, mu)             argmin_z f(z) + ||z - x||^2 / (2 mu)
    moreau_value(x, mu)     min_z  f(z) + ||z - x||^2 / (2 mu)
    moreau_gradient(x, mu)  (x - prox(x, mu)) / mu

and caches its restricted strong-convexity constant ``sigma`` and
gradient-Lipschitz constant ``lips_grad``.
"""

from __future__ import annotations

import numpy as np

from .core import Array, Oracle, as_vector

PROX_1D_TOL = 1e-12     # a 1-D prox root has |g(t)| <= tol * (1 + |l'(c)|)
PROX_1D_MAX_ITER = 200  # safeguarded Newton steps before ProxSolveError


class ProxSolveError(RuntimeError):
    """The 1-D prox solve found no bracketed root or did not converge."""


class LossComponent(Oracle):
    kind = "abstract"

    def __init__(self, dim: int, sigma: float, lips_grad: float):
        self.dim = dim
        self.sigma = float(sigma)
        self.lips_grad = float(lips_grad)

    @staticmethod
    def _check_mu(mu: float) -> float:
        if not mu > 0:
            raise ValueError(f"mu must be positive, got {mu}")
        return float(mu)

    def value(self, x: Array) -> float:
        raise NotImplementedError

    def gradient(self, x: Array) -> Array:
        raise NotImplementedError

    def prox(self, x: Array, mu: float) -> Array:
        raise NotImplementedError

    def moreau_value(self, x: Array, mu: float) -> float:
        """Moreau envelope f_mu(x); never exceeds value(x)."""
        x = self._check(x)
        mu = self._check_mu(mu)
        z = self.prox(x, mu)
        d = z - x
        return self.value(z) + float(np.dot(d, d)) / (2.0 * mu)

    def moreau_gradient(self, x: Array, mu: float) -> Array:
        """Envelope gradient (x - prox(x, mu)) / mu."""
        x = self._check(x)
        mu = self._check_mu(mu)
        return (x - self.prox(x, mu)) / mu

    def quad_terms(self):
        """(M, h, c) with f(x) = x'Mx - 2h'x + c, or None if not quadratic."""
        return None


class QuadraticNorm(LossComponent):
    """f(x) = (lam/2) ||x||^2; prox(x, mu) = x / (1 + mu lam)."""

    kind = "quadratic-norm"

    def __init__(self, dim: int, lam: float):
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        super().__init__(dim, sigma=lam, lips_grad=lam)
        self.lam = float(lam)

    def value(self, x):
        x = self._check(x)
        return 0.5 * self.lam * float(np.dot(x, x))

    def gradient(self, x):
        return self.lam * self._check(x)

    def prox(self, x, mu):
        x = self._check(x)
        mu = self._check_mu(mu)
        return x / (1.0 + mu * self.lam)

    def quad_terms(self):
        return (0.5 * self.lam * np.eye(self.dim),
                np.zeros(self.dim), 0.0)


class LinearResidualSquared(LossComponent):
    """f(x) = (a'x - b)^2, the elementary squared residual.

    prox(x, mu) = x - [2 mu (a'x - b) / (1 + 2 mu ||a||^2)] a.
    Not strongly convex for dim > 1 (sigma = 0); lips_grad = 2 ||a||^2.
    """

    kind = "linear-residual-squared"

    def __init__(self, a, b: float):
        a = as_vector(a)
        nrm2 = float(np.dot(a, a))
        if nrm2 == 0.0:
            raise ValueError("a must be nonzero")
        sigma = 2.0 * nrm2 if a.shape[0] == 1 else 0.0
        super().__init__(a.shape[0], sigma=sigma, lips_grad=2.0 * nrm2)
        self.a = a
        self.b = float(b)
        self._a_sq = nrm2

    def value(self, x):
        x = self._check(x)
        r = float(self.a.dot(x)) - self.b
        return r * r

    def gradient(self, x):
        x = self._check(x)
        r = float(self.a.dot(x)) - self.b
        return (2.0 * r) * self.a

    def prox(self, x, mu):
        x = self._check(x)
        mu = self._check_mu(mu)
        r = float(self.a.dot(x)) - self.b
        return x - (2.0 * mu * r / (1.0 + 2.0 * mu * self._a_sq)) * self.a

    def quad_terms(self):
        return (np.outer(self.a, self.a), self.b * self.a, self.b ** 2)


class BatchLeastSquares(LossComponent):
    """f(x) = ||A x - b||^2 over a dense batch A.

    With A'A = V diag(lam) V' from one symmetric eigensolve at construction
    (eigenvalues below the numerical-rank cutoff n eps lam_max set to 0),
    prox(x, mu) = V diag(1/(1 + 2 mu lam))
    V'(x + 2 mu A'b): exact for every mu, with no per-stepsize
    factorization.  sigma = 2 lambda_min(A'A), lips_grad = 2 lambda_max(A'A).
    """

    kind = "batch-least-squares"

    def __init__(self, A, b):
        A = np.asarray(A, dtype=np.float64)
        b = as_vector(b)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("A rows must match b")
        if not np.isfinite(A).all():
            raise ValueError("A has non-finite entries")
        self.A = A
        self.b = b
        self._ata = A.T @ A
        self._atb = A.T @ b
        eigs, self._vecs = np.linalg.eigh(self._ata)
        # eigenvalues within rounding of zero (numerical rank) are zero
        cutoff = A.shape[1] * np.finfo(np.float64).eps * max(eigs[-1], 0.0)
        self._eigs = np.where(eigs > cutoff, eigs, 0.0)
        super().__init__(A.shape[1], sigma=2.0 * float(self._eigs[0]),
                         lips_grad=2.0 * float(self._eigs[-1]))

    def value(self, x):
        x = self._check(x)
        r = self.A @ x - self.b
        return float(np.dot(r, r))

    def gradient(self, x):
        x = self._check(x)
        return 2.0 * (self.A.T.dot(self.A.dot(x)) - self._atb)

    def prox(self, x, mu):
        x = self._check(x)
        mu = self._check_mu(mu)
        V = self._vecs
        y = V.T.dot(x + (2.0 * mu) * self._atb)
        return V.dot(y / (1.0 + (2.0 * mu) * self._eigs))

    def quad_terms(self):
        return (self._ata, self._atb, float(np.dot(self.b, self.b)))


# -- scalar convex functions for the composed form ---------------------------

class ScalarConvex:
    """1-D convex function with its first and second derivatives and a
    curvature upper bound; the prox solver needs all three methods."""

    curvature = np.inf

    def value(self, t: float) -> float:
        raise NotImplementedError

    def deriv(self, t: float) -> float:
        raise NotImplementedError

    def second(self, t: float) -> float:
        """Second derivative, the slope of the Newton prox solver."""
        raise NotImplementedError


class LogisticScalar(ScalarConvex):
    """l(t) = log(1 + e^t); l'' <= 1/4."""

    curvature = 0.25

    def value(self, t):
        return float(np.logaddexp(0.0, t))

    def deriv(self, t):
        if t >= 0:
            return 1.0 / (1.0 + np.exp(-t))
        e = np.exp(t)
        return e / (1.0 + e)

    def second(self, t):
        p = self.deriv(t)
        return p * (1.0 - p)


class HuberScalar(ScalarConvex):
    """l(t) = t^2/2 for |t| <= delta, else delta |t| - delta^2/2."""

    def __init__(self, delta: float = 1.0):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self.curvature = 1.0

    def value(self, t):
        a = abs(t)
        if a <= self.delta:
            return 0.5 * t * t
        return self.delta * a - 0.5 * self.delta ** 2

    def deriv(self, t):
        return float(np.clip(t, -self.delta, self.delta))

    def second(self, t):
        return 1.0 if abs(t) <= self.delta else 0.0


class SquareScalar(ScalarConvex):
    """l(t) = (t - b)^2; composing recovers the elementary residual."""

    curvature = 2.0

    def __init__(self, b: float = 0.0):
        self.b = float(b)

    def value(self, t):
        return (t - self.b) ** 2

    def deriv(self, t):
        return 2.0 * (t - self.b)

    def second(self, t):
        return 2.0


def _solve_prox_1d(fn: ScalarConvex, c: float, mus: float) -> float:
    """Root of g(t) = l'(t) + (t - c)/(mu s): safeguarded Newton on a bracket.

    For a convex l, g is increasing and the root lies between c and
    c - mu*s*l'(c), so that interval (widened by a hair) brackets a sign
    change; a bracket without one means l is not convex and raises.
    """
    def g(t):
        return fn.deriv(t) + (t - c) / mus

    gc = fn.deriv(c)
    if gc == 0.0:
        return c
    lo, hi = sorted((c, c - mus * gc))
    pad = 1e-9 * (1.0 + abs(c) + abs(hi - lo))
    lo -= pad
    hi += pad
    if not g(lo) <= 0.0 <= g(hi):  # also catches NaN
        raise ProxSolveError(f"1-D prox bracket [{lo:.6g}, {hi:.6g}] holds no "
                             f"root: the scalar function is not convex")
    t = 0.5 * (lo + hi)
    for _ in range(PROX_1D_MAX_ITER):
        gt = g(t)
        if abs(gt) <= PROX_1D_TOL * (1.0 + abs(gc)):
            return t
        if gt > 0:
            hi = t
        else:
            lo = t
        slope = fn.second(t) + 1.0 / mus
        t_new = t - gt / slope if slope > 0 else t
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:  # bracket exhausted at float resolution
            return t
        t = t_new
    raise ProxSolveError(
        f"1-D prox solve did not reach tol={PROX_1D_TOL} in "
        f"{PROX_1D_MAX_ITER} iterations")


class ComposedScalar(LossComponent):
    """f(x) = l(a'x) for a scalar convex l with derivative.

    The prox reduces to min_t l(t) + (t - a'x)^2 / (2 mu ||a||^2) solved by
    safeguarded Newton/bisection, then z = x + ((t* - a'x)/||a||^2) a.
    """

    kind = "composed-scalar"

    def __init__(self, a, fn: ScalarConvex):
        a = as_vector(a)
        nrm2 = float(np.dot(a, a))
        if nrm2 == 0.0:
            raise ValueError("a must be nonzero")
        # fn.curvature is only an upper bound, so no strong convexity is claimed
        super().__init__(a.shape[0], sigma=0.0, lips_grad=fn.curvature * nrm2)
        self.a = a
        self.fn = fn
        self._a_sq = nrm2

    def value(self, x):
        x = self._check(x)
        return self.fn.value(float(np.dot(self.a, x)))

    def gradient(self, x):
        x = self._check(x)
        return self.fn.deriv(float(np.dot(self.a, x))) * self.a

    def prox(self, x, mu):
        x = self._check(x)
        mu = self._check_mu(mu)
        c = float(np.dot(self.a, x))
        t = _solve_prox_1d(self.fn, c, mu * self._a_sq)
        return x + ((t - c) / self._a_sq) * self.a

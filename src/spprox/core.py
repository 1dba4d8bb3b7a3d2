"""Vector validation and norm, the point check of sets and losses, and the
stochastic problem, whose index pairs come from a numpy ``Generator``."""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

FEASIBILITY_TOL = 1e-9


def as_vector(x, dim: int | None = None) -> Array:
    """Return ``x`` as a finite 1-D float64 array, validating dimension if given."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def norm(a: Array) -> float:
    """Euclidean norm sqrt(<a, a>)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(a.dot(a)))


class Oracle:
    """An operator on the points of R^dim: the base of sets and losses."""

    def __init__(self, dim: int):
        self.dim = dim

    def _check(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: expected ({self.dim},), got {x.shape}")
        return x


class QuadraticForm:
    """Exact quadratic x'Mx - 2h'x + c, used as a fast objective evaluator;
    a float at a point, an array over a stack of points (rows)."""

    def __init__(self, M: Array, h: Array, c: float):
        self.M = M
        self.h = h
        self.c = c

    def __call__(self, x: Array):
        x = np.asarray(x, dtype=np.float64)
        value = ((x @ self.M) * x).sum(axis=-1) - 2.0 * (x @ self.h) + self.c
        return value if x.ndim == 2 else float(value)


class StochasticProblem:
    """Sampler over (loss component, constraint set) pairs.

    The discrete sample space couples a finite family of loss components with
    a finite family of simple constraint sets.  A draw picks one loss index
    and one constraint index, each uniformly and independently of the other
    (the formal sample space is the product of the two families).

    Parameters
    ----------
    losses : sequence of LossComponent
    constraints : sequence of ConstraintSet
    dim : int
        Decision-variable dimension.
    x_star : array, optional
        Known optimum.  Must lie in the intersection of all constraint sets
        within ``FEASIBILITY_TOL``; checked again whenever it is set.
    kappa : float, optional
        Known (or estimated) linear-regularity constant, finite and >= 1;
        1 if X = R^n.
    test_objective : callable, optional
        Held-out objective F_test(x) (portfolio experiments).
    one_pass : int, optional
        Number of iterations constituting one pass through the data; defaults
        to the loss-component count.
    meta : dict, optional
        Free-form generator metadata.

    ``rows`` holds the constraint family once as a ``Polyhedron`` of unit
    rows, for intersection projections and per-set distances.
    """

    def __init__(self, losses, constraints, dim, x_star=None, kappa=None,
                 test_objective=None, one_pass=None, meta=None):
        self.losses = tuple(losses)
        self.constraints = tuple(constraints)
        self.dim = int(dim)
        if not self.losses:
            raise ValueError("at least one loss component is required")
        if not self.constraints:
            raise ValueError("at least one constraint set is required")
        for part in self.losses + self.constraints:
            if part.dim != self.dim:
                raise ValueError(f"{part.kind} has dimension {part.dim}, "
                                 f"the problem {self.dim}")
        self.test_objective = test_objective
        self.one_pass = int(one_pass) if one_pass else len(self.losses)
        self.meta = dict(meta) if meta else {}
        from .constraints import Polyhedron  # constraints imports this module
        self.rows = Polyhedron.of(self.constraints, self.dim)
        if kappa is not None and not 1.0 <= kappa < math.inf:  # X lies in X_S
            raise ValueError(f"kappa = {kappa} must be finite and >= 1")
        self.kappa = 1.0 if kappa is None and not len(self.rows.d) else kappa
        self.x_star = x_star
        self._quad = self._build_quadratic_objective()

    @property
    def x_star(self):
        return self._x_star

    @x_star.setter
    def x_star(self, x):
        if x is not None:
            x = as_vector(x, self.dim)
            worst = math.sqrt(self.rows.set_sq_distances(x).max())
            if worst > FEASIBILITY_TOL:
                raise ValueError(
                    f"x_star violates a constraint set by {worst:.3e} "
                    f"(tolerance {FEASIBILITY_TOL:g})")
        self._x_star = x

    # -- sample space -------------------------------------------------------

    def sample_indices(self, rng: np.random.Generator, count: int):
        """Draw ``count`` uniform (loss index, constraint index) pairs.

        Loss indices are drawn first, then constraint indices; this order is
        part of the reproducibility contract.
        """
        li = rng.integers(len(self.losses), size=count)
        ci = rng.integers(len(self.constraints), size=count)
        return li, ci

    # -- exact expectations over the uniform loss marginal -------------------

    def objective(self, x: Array):
        """Exact F(x) = E[f(x;S)] over the finite loss marginal, per point
        of a stack (rows)."""
        if self._quad is not None:
            return self._quad(x)
        w = 1.0 / len(self.losses)
        x = np.asarray(x, dtype=np.float64)
        value = [sum(w * f.value(p) for f in self.losses)
                 for p in np.atleast_2d(x)]
        return np.array(value) if x.ndim == 2 else float(value[0])

    def mean_gradient(self, x: Array) -> Array:
        """Exact gradient of F at x."""
        w = 1.0 / len(self.losses)
        g = np.zeros(self.dim)
        for f in self.losses:
            g += w * f.gradient(x)
        return g

    def exp_grad_norm_sq(self, x: Array) -> float:
        """Exact E[||grad f(x;S)||^2]."""
        w = 1.0 / len(self.losses)
        return float(sum(w * float(np.dot(g, g))
                         for g in (f.gradient(x) for f in self.losses)))

    def sigma_values(self) -> Array:
        """Per-component restricted strong-convexity constants."""
        return np.array([f.sigma for f in self.losses])

    def exp_lips_grad_sq(self) -> float:
        """E[L_{f,S}^2] with L the gradient-Lipschitz constants."""
        L = np.array([f.lips_grad for f in self.losses])
        return float(np.mean(L ** 2))

    def mean_constraint_sq_distance(self, x: Array):
        """Exact E[dist_{X_S}(x)^2] over the constraint marginal, per point of
        a stack: the sum of squared row violations over the set count."""
        v = self.rows.violations(np.asarray(x, dtype=np.float64))
        return np.einsum("...i,...i->...", v, v) / self.rows.sets

    # -- internals ------------------------------------------------------------

    def _build_quadratic_objective(self):
        w = 1.0 / len(self.losses)
        M = np.zeros((self.dim, self.dim))
        h = np.zeros(self.dim)
        c = 0.0
        for f in self.losses:
            terms = f.quad_terms()
            if terms is None:
                return None
            Mi, hi, ci = terms
            M += w * Mi
            h += w * hi
            c += w * ci
        return QuadraticForm(M, h, c)

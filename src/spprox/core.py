"""Dense vector arithmetic, seeded randomness, and the stochastic problem container."""

from __future__ import annotations

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


def dot(a: Array, b: Array) -> float:
    """Scalar product <a, b>. Raises on dimension mismatch."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def norm(a: Array) -> float:
    """Euclidean norm sqrt(<a, a>)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.dot(a, a)))


class RandomSource:
    """Seeded random stream with bit-exact reproducibility.

    Two sources built from the same 64-bit seed produce identical draw
    sequences.  A source is single-owner: parallel Monte-Carlo runs should
    each use an independently seeded source (``spawn``), never share one.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def spawn(self, offset: int) -> "RandomSource":
        """Independent source with seed ``seed + offset`` (run-index convention)."""
        return RandomSource(self.seed + int(offset))

    def integers(self, m: int) -> int:
        """One uniform draw from {0, ..., m-1}."""
        return int(self._gen.integers(m))

    def integers_block(self, m: int, size: int) -> Array:
        """``size`` uniform draws from {0, ..., m-1} as an int array."""
        return self._gen.integers(m, size=size)

    def normal(self, size=None):
        """Standard normal draw(s)."""
        return self._gen.standard_normal(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def categorical_block(self, cum_weights: Array, size: int) -> Array:
        """``size`` draws from the categorical law with cumulative weights."""
        u = self._gen.uniform(size=size)
        return np.searchsorted(cum_weights, u, side="right")

    def shuffle(self, n: int) -> Array:
        """A random permutation of range(n)."""
        return self._gen.permutation(n)


def _normalized_weights(weights, count: int) -> Array | None:
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (count,):
        raise ValueError(f"weights must have shape ({count},), got {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not sum to zero")
    return w / total


class QuadraticForm:
    """Exact quadratic x'Mx - 2h'x + c, used as a fast objective evaluator."""

    def __init__(self, M: Array, h: Array, c: float):
        self.M = M
        self.h = h
        self.c = c

    def __call__(self, x: Array) -> float:
        return float(x @ self.M @ x - 2.0 * (self.h @ x) + self.c)


class StochasticProblem:
    """Sampler over (loss component, constraint set) pairs.

    The discrete sample space couples a finite family of loss components with
    a finite family of simple constraint sets.  With ``coupling="independent"``
    a draw picks one loss index and one constraint index independently (the
    formal sample space is the product of the two families); with
    ``coupling="paired"`` both families must have equal length and a single
    index selects the pair.

    Parameters
    ----------
    losses : sequence of LossComponent
    constraints : sequence of ConstraintSet
    dim : int
        Decision-variable dimension.
    coupling : str
        "independent" (default) or "paired".
    loss_weights, constraint_weights : array, optional
        Sampling weights for the two marginals; uniform when omitted.
    x_star : array, optional
        Known optimum.  Must lie in the intersection of all constraint sets
        within ``FEASIBILITY_TOL``.
    kappa : float, optional
        Known (or externally estimated) linear-regularity constant.
    exp_subgrad_sq : float, optional
        User-supplied bound on the expected squared subgradient norm over the
        iterate region; the least-squares losses are only locally Lipschitz,
        so this cannot be derived from the components.
    test_objective : callable, optional
        Held-out objective F_test(x) (portfolio experiments).
    one_pass : int, optional
        Number of iterations constituting one pass through the data; defaults
        to the loss-component count.
    meta : dict, optional
        Free-form generator metadata.
    """

    def __init__(self, losses, constraints, dim, coupling="independent",
                 loss_weights=None, constraint_weights=None, x_star=None,
                 kappa=None, exp_subgrad_sq=None, test_objective=None,
                 one_pass=None, meta=None):
        self.losses = tuple(losses)
        self.constraints = tuple(constraints)
        self.dim = int(dim)
        if not self.losses:
            raise ValueError("at least one loss component is required")
        if not self.constraints:
            raise ValueError("at least one constraint set is required")
        if coupling not in ("independent", "paired"):
            raise ValueError(f"unknown coupling {coupling!r}")
        if coupling == "paired" and len(self.losses) != len(self.constraints):
            raise ValueError("paired coupling needs equally many losses and sets")
        self.coupling = coupling
        self.loss_weights = _normalized_weights(loss_weights, len(self.losses))
        self.constraint_weights = _normalized_weights(
            constraint_weights, len(self.constraints))
        self._loss_cum = (None if self.loss_weights is None
                          else np.cumsum(self.loss_weights))
        self._cons_cum = (None if self.constraint_weights is None
                          else np.cumsum(self.constraint_weights))
        self.kappa = kappa
        self.exp_subgrad_sq = exp_subgrad_sq
        self.test_objective = test_objective
        self.one_pass = int(one_pass) if one_pass else len(self.losses)
        self.meta = dict(meta) if meta else {}

        if x_star is not None:
            x_star = as_vector(x_star, self.dim)
            worst = max(s.distance(x_star) for s in self.constraints)
            if worst > FEASIBILITY_TOL:
                raise ValueError(
                    f"x_star violates a constraint set by {worst:.3e} "
                    f"(tolerance {FEASIBILITY_TOL:g})")
        self.x_star = x_star

        self._quad = self._build_quadratic_objective()

    # -- sample space -------------------------------------------------------

    @property
    def component_count(self) -> int:
        if self.coupling == "paired":
            return len(self.losses)
        return len(self.losses) * len(self.constraints)

    def component(self, i: int):
        """The i-th (loss, constraint) pair of the discrete sample space."""
        if not 0 <= i < self.component_count:
            raise IndexError(i)
        if self.coupling == "paired":
            return self.losses[i], self.constraints[i]
        nc = len(self.constraints)
        return self.losses[i // nc], self.constraints[i % nc]

    def sample_indices(self, rng: RandomSource, count: int):
        """Draw ``count`` (loss index, constraint index) pairs.

        Loss indices are drawn first, then constraint indices; this order is
        part of the reproducibility contract.
        """
        if self._loss_cum is None:
            li = rng.integers_block(len(self.losses), count)
        else:
            li = rng.categorical_block(self._loss_cum, count)
        if self.coupling == "paired":
            return li, li
        if self._cons_cum is None:
            ci = rng.integers_block(len(self.constraints), count)
        else:
            ci = rng.categorical_block(self._cons_cum, count)
        return li, ci

    # -- exact expectations over the finite marginals -------------------------

    def _lweights(self) -> Array:
        if self.loss_weights is not None:
            return self.loss_weights
        return np.full(len(self.losses), 1.0 / len(self.losses))

    def _cweights(self) -> Array:
        if self.constraint_weights is not None:
            return self.constraint_weights
        return np.full(len(self.constraints), 1.0 / len(self.constraints))

    def objective(self, x: Array) -> float:
        """Exact F(x) = E[f(x;S)] over the finite loss marginal."""
        if self._quad is not None:
            return self._quad(x)
        w = self._lweights()
        return float(sum(wi * f.value(x) for wi, f in zip(w, self.losses)))

    def mean_gradient(self, x: Array) -> Array:
        """Exact gradient of F at x."""
        w = self._lweights()
        g = np.zeros(self.dim)
        for wi, f in zip(w, self.losses):
            g += wi * f.gradient(x)
        return g

    def exp_grad_norm_sq(self, x: Array) -> float:
        """Exact E[||grad f(x;S)||^2]."""
        w = self._lweights()
        return float(sum(wi * float(np.dot(g, g))
                         for wi, g in ((wi, f.gradient(x))
                                       for wi, f in zip(w, self.losses))))

    def sigma_values(self) -> Array:
        """Per-component restricted strong-convexity constants."""
        return np.array([f.sigma for f in self.losses])

    def sigma_mean(self) -> float:
        """E[sigma_{f,S}] over the loss marginal."""
        return float(np.dot(self._lweights(), self.sigma_values()))

    def exp_lips_grad_sq(self) -> float:
        """E[L_{f,S}^2] with L the gradient-Lipschitz constants."""
        L = np.array([f.lips_grad for f in self.losses])
        return float(np.dot(self._lweights(), L ** 2))

    def mean_constraint_sq_distance(self, x: Array) -> float:
        """Exact E[dist_{X_S}(x)^2] over the constraint marginal."""
        w = self._cweights()
        return float(sum(wi * s.distance(x) ** 2
                         for wi, s in zip(w, self.constraints)))

    # -- internals ------------------------------------------------------------

    def _build_quadratic_objective(self):
        w = self._lweights()
        M = np.zeros((self.dim, self.dim))
        h = np.zeros(self.dim)
        c = 0.0
        for wi, f in zip(w, self.losses):
            terms = f.quad_terms()
            if terms is None:
                return None
            Mi, hi, ci = terms
            M += wi * Mi
            h += wi * hi
            c += wi * ci
        return QuadraticForm(M, h, c)

"""Generators for the experiment families and returns-data ingestion.

Families
--------
constrained-ls        batched/elementary least squares with random halfspaces
                      and a planted ground truth (three constraints active).
random-ls-polyhedron  row-sampled least squares over a random polyhedron; the
                      reference optimum is computed, not planted.
feasibility           least-norm point of an intersection of halfspaces.
finite-sum            strongly convex quadratic components around random
                      centers (clean analysis instance).
markowitz             portfolio model built from a returns table.

``FAMILIES`` maps each family to its generator, whose signature alone lists
the family's knobs and their defaults; a ``GeneratorSpec`` holds the knobs set.

Generated problems store their known optimum as the minimizer of the realized
finite-sum objective over the constraint intersection.  For constrained-ls
the planted ground truth differs from that minimizer at desk scale by the
statistical error of the sample; it is kept in ``meta["ground_truth"]``.
``problem.meta`` holds what a generator computed, never a knob.
"""

from __future__ import annotations

import csv
import inspect
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .components import BatchLeastSquares, LinearResidualSquared, QuadraticNorm
from .constraints import Halfspace, NonnegativeOrthant, Polyhedron, \
    WholeSpace, project_intersection
from .core import Array, StochasticProblem


class ReferenceSolveError(RuntimeError):
    """The objective admits no exact reference solve (not strongly convex)."""


def _refine_optimum(problem: StochasticProblem) -> Array:
    """Exact minimizer of the quadratic finite sum over the constraint rows.

    With M = L L' and y = L'x the objective x'Mx - 2h'x equals
    ||y - L^-1 h||^2 up to a constant, so the minimizer is the projection of
    L^-1 h onto {y : C L^-T y <= d}, mapped back by x = L^-T y.
    """
    quad, rows = problem._quad, problem.rows
    if quad is None:
        raise ReferenceSolveError("reference solve needs a quadratic objective")
    try:
        L = np.linalg.cholesky(quad.M)
    except np.linalg.LinAlgError:
        raise ReferenceSolveError(
            "objective is not strongly convex (Cholesky failed)") from None
    y = project_intersection(Polyhedron(np.linalg.solve(L, rows.C.T).T,
                                        rows.d), np.linalg.solve(L, quad.h))
    return np.linalg.solve(L.T, y)


def _least_squares(losses, C: Array, d: Array, dim: int, one_pass=None,
                   meta=None) -> StochasticProblem:
    """The least-squares problem over the halfspaces {x : C x <= d}, one per
    row, with its exact optimum."""
    problem = StochasticProblem(
        losses, [Halfspace(c, di) for c, di in zip(C, d)], dim,
        one_pass=one_pass, meta=meta)
    problem.x_star = _refine_optimum(problem)
    return problem


def gen_constrained_ls(n: int = 20, m: int = 2000, seed: int = 0,
                       noise: float = 1.0,
                       active: int = 3) -> StochasticProblem:
    """Constrained least squares with planted structure.

    Feature rows are Gaussian with covariance spectrum {1, 1/2, ..., 1/n} in
    a random orthogonal basis; targets are noisy linear responses of a random
    ground truth.  Losses are m/n strongly convex batches of n consecutive
    rows plus the first m/2 rows as elementary residuals (p = m/2 + m/n
    components in total), and p random halfspaces constrain the estimator
    with ``active`` of them tight at the ground truth.

    The problem's known optimum is the minimizer of the realized finite sum
    over the polyhedron (exact least-distance solve); the planted point
    stays in ``meta["ground_truth"]``.
    """
    if n < 2 or m < n:
        raise ValueError("need n >= 2 and m >= n")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))  # fix the QR sign convention
    lams = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    H_sqrt = (Q * np.sqrt(lams)) @ Q.T
    x_gt = rng.standard_normal(n)
    A = rng.standard_normal((m, n)) @ H_sqrt
    b = A @ x_gt + noise * rng.standard_normal(m)

    losses = [BatchLeastSquares(A[j * n:(j + 1) * n], b[j * n:(j + 1) * n])
              for j in range(m // n)]
    losses += [LinearResidualSquared(A[i], b[i]) for i in range(m // 2)]
    p = len(losses)

    C = rng.standard_normal((p, n))
    v = np.zeros(p)  # slack: the first ``active`` rows are tight at x_gt
    v[active:] = 0.1 + 0.9 * rng.uniform(size=p - active)
    d = C @ x_gt + v
    return _least_squares(losses, C, d, n, one_pass=m, meta={
        "ground_truth": x_gt, "feature_cov": (Q * lams) @ Q.T})


def gen_random_ls_polyhedron(n: int = 20, m: int = 1000, seed: int = 0,
                             noise: float = 1.0) -> StochasticProblem:
    """Row-sampled least squares over a random polyhedron.

    No solution structure is imposed; the stored optimum is the minimizer of
    the realized objective, computed by an exact least-distance solve.
    """
    if n < 2 or m < n:
        raise ValueError("need n >= 2 and m >= n")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    z0 = rng.standard_normal(n)
    b = A @ z0 + noise * rng.standard_normal(m)
    C = rng.standard_normal((m, n))
    anchor = 0.5 * rng.standard_normal(n)
    d = C @ anchor + rng.uniform(0.1, 1.1, m)  # anchor strictly interior
    losses = [LinearResidualSquared(A[i], b[i]) for i in range(m)]
    return _least_squares(losses, C, d, n)


def gen_feasibility(n: int = 10, sets: int = 20, seed: int = 0,
                    lam: float = 1.0, margin: float = 0.1) -> StochasticProblem:
    """Least-norm convex feasibility: f = (lam/2)||x||^2 on every draw.

    Halfspaces are random but contain the origin with slack at least
    ``margin``; the optimum is the projection of the origin onto the
    intersection.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    rng = np.random.default_rng(seed)
    constraints = []
    for _ in range(sets):
        c = rng.standard_normal(n)
        constraints.append(Halfspace(c, rng.uniform(margin, margin + 1.0)))
    problem = StochasticProblem([QuadraticNorm(n, lam)], constraints, n,
                                one_pass=sets)
    problem.x_star = project_intersection(problem.rows, np.zeros(n), tol=1e-13)
    return problem


def gen_finite_sum(n: int = 5, m: int = 8, seed: int = 0,
                   spread: float = 1.0) -> StochasticProblem:
    """Strongly convex finite sum: f_i = (alpha_i^2/2)||x - c_i||^2.

    Every component carries positive curvature, so the contraction-based
    analysis applies with exact constants.  The optimum is the curvature-
    weighted mean of the centers.  kappa = 1: the single constraint set is
    the whole space.
    """
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.5, 1.5, m)
    centers = spread * rng.standard_normal((m, n))
    losses = [BatchLeastSquares((a / math.sqrt(2.0)) * np.eye(n),
                                (a / math.sqrt(2.0)) * c)
              for a, c in zip(alphas, centers)]
    w = alphas ** 2
    x_star = (w[:, None] * centers).sum(axis=0) / w.sum()
    return StochasticProblem(losses, [WholeSpace(n)], n, x_star=x_star)


# -- returns data -------------------------------------------------------------

@dataclass
class ReturnsTable:
    """Per-period asset returns, one column per asset."""

    assets: list
    returns: Array

    @property
    def periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


def load_returns_csv(path) -> ReturnsTable:
    """Parse a comma-separated returns table.

    First row is the header; one leading date/index column is permitted and
    ignored when non-numeric.  Ragged rows, non-numeric or non-finite cells,
    and tables with fewer than two rows are errors carrying the offending
    location.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    width = len(header)
    raw = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} cells, "
                             f"got {len(row)}")
        raw.append([cell.strip() for cell in row])
    if len(raw) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(raw)}")

    def numeric_column(j):
        for r in raw:
            try:
                float(r[j])
            except ValueError:
                return False
        return True

    start = 0
    if width >= 2 and not numeric_column(0):
        start = 1  # date/index column
    assets = header[start:]
    data = np.empty((len(raw), width - start))
    for i, r in enumerate(raw):
        for j in range(start, width):
            try:
                data[i, j - start] = float(r[j])
            except ValueError:
                raise ValueError(
                    f"{path}: line {i + 2}: non-numeric cell in column "
                    f"{header[j]!r}") from None
            if not math.isfinite(data[i, j - start]):
                raise ValueError(f"{path}: line {i + 2}: non-finite cell "
                                 f"{r[j]!r} in column {header[j]!r}")
    return ReturnsTable(assets=assets, returns=data)


def synth_returns(periods: int = 1276, n: int = 25,
                  seed: int = 0) -> ReturnsTable:
    """Synthetic daily-return table with factor structure (offline stand-in)."""
    rng = np.random.default_rng(seed)
    means = 0.0005 + 0.0004 * rng.standard_normal(n)
    loadings = 0.6 * rng.standard_normal((n, 3))
    factors = rng.standard_normal((periods, 3))
    eps = rng.standard_normal((periods, n))
    data = means + 0.01 * (factors @ loadings.T) + 0.006 * eps
    return ReturnsTable(assets=[f"A{i:02d}" for i in range(n)], returns=data)


class MeanSquaredTarget:
    """Held-out objective mean((a_i'x - b)^2) over the test rows; a float at
    a point, an array over a stack of points (rows)."""

    def __init__(self, rows: Array, b: float):
        self.rows = rows
        self.b = float(b)

    def __call__(self, x: Array):
        x = np.asarray(x, dtype=np.float64)
        r = x @ self.rows.T - self.b
        value = (r * r).sum(axis=-1) / len(self.rows)
        return value if x.ndim == 2 else float(value)


def build_markowitz(table: ReturnsTable, b_policy="mean", seed: int = 0,
                    train_frac: float = 0.9) -> StochasticProblem:
    """Portfolio model over a returns table.

    One squared-residual loss per training row with target return b
    (b = mean of the per-asset training means under the "mean" policy, or a
    float override); the constraint draw picks uniformly among the
    nonnegative orthant, the budget halfspace e'x <= 1, and the return
    halfspace a_av'x >= b, independently of the loss row.  Rows are split
    train/test by a seeded shuffle (floor(train_frac * T) training rows).
    A target above max(0, max_i a_av_i), the best return a budget portfolio
    reaches, leaves the constraint family empty and is an error.
    """
    T = table.periods
    n = table.n_assets
    rng = np.random.default_rng(seed)
    perm = rng.permutation(T)
    n_train = int(math.floor(train_frac * T))
    if n_train < 1 or n_train >= T:
        raise ValueError("degenerate train/test split")
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    train = table.returns[train_idx]
    test = table.returns[test_idx]
    a_av = train.mean(axis=0)
    b = float(np.mean(a_av)) if b_policy == "mean" else float(b_policy)
    best = max(0.0, float(a_av.max()))  # max a_av'x over x >= 0, e'x <= 1
    if b > best:
        raise ValueError(f"b_policy: target return {b:g} exceeds {best:g}, "
                         f"the best a budget portfolio reaches; the "
                         f"constraint family is empty")
    losses = [LinearResidualSquared(row, b) for row in train]
    constraints = [NonnegativeOrthant(n),
                   Halfspace(np.ones(n), 1.0),
                   Halfspace(-a_av, -b)]
    return StochasticProblem(
        losses, constraints, n, test_objective=MeanSquaredTarget(test, b),
        meta={"assets": list(table.assets), "a_av": a_av})


# -- family dispatch -----------------------------------------------------------

def gen_markowitz(n: int = 25, periods: int = 1276, seed: int = 0,
                  split_seed: int = 0, b_policy: str | float = "mean",
                  train_frac: float = 0.9,
                  returns_csv: str = "") -> StochasticProblem:
    """``build_markowitz`` split by ``split_seed``, over the table at
    ``returns_csv`` or else over ``synth_returns(periods, n, seed)``."""
    table = (load_returns_csv(returns_csv) if returns_csv
             else synth_returns(periods=periods, n=n, seed=seed))
    return build_markowitz(table, b_policy=b_policy, seed=split_seed,
                           train_frac=train_frac)


FAMILIES = {"constrained-ls": gen_constrained_ls,
            "random-ls-polyhedron": gen_random_ls_polyhedron,
            "feasibility": gen_feasibility, "finite-sum": gen_finite_sum,
            "markowitz": gen_markowitz}


def knob_defaults(family: str) -> dict:
    """The knobs of ``family``: its generator's parameters, with defaults."""
    if family not in FAMILIES:
        raise ValueError(f"unknown problem family {family!r}")
    params = inspect.signature(FAMILIES[family]).parameters.values()
    return {p.name: p.default for p in params
            if p.kind is p.POSITIONAL_OR_KEYWORD}


class GeneratorSpec:
    """A family plus the knobs set for its generator; a knob left out takes
    the generator's default.  ``validate`` checks both before dispatch."""

    def __init__(self, family: str, **knobs):
        self.family = family
        self.knobs = knobs

    def validate(self):
        """Raise ValueError, naming the knob, for a knob the family's
        generator does not take or a value it would reject or fail on."""
        fam = self.family
        defaults = knob_defaults(fam)
        for key in self.knobs:
            if key not in defaults:
                raise ValueError(f"problem family {fam} takes no knob {key!r}")
        v = SimpleNamespace(**{**defaults, **self.knobs})

        def need(ok, key, what):
            if not ok:  # also False for NaN comparisons
                raise ValueError(f"{key} must be {what} for {fam}")

        synthetic = not getattr(v, "returns_csv", "")
        ls = fam in ("constrained-ls", "random-ls-polyhedron")
        if synthetic:
            least_n = 2 if ls else 1
            need(v.seed >= 0, "seed", ">= 0")
            need(v.n >= least_n, "n", f">= {least_n}")
        if ls:
            need(v.m >= v.n, "m", ">= n")
            need(math.isfinite(v.noise), "noise", "finite")
        if fam == "constrained-ls":
            need(0 <= v.active <= v.m // 2 + v.m // v.n, "active",
                 "between 0 and the constraint count m/2 + m/n")
        elif fam == "feasibility":
            need(v.sets >= 1, "sets", ">= 1")
            need(0 < v.lam < math.inf, "lam", "positive and finite")
            need(0 <= v.margin < math.inf, "margin", "finite and >= 0")
        elif fam == "finite-sum":
            need(v.m >= 1, "m", ">= 1")
            need(math.isfinite(v.spread), "spread", "finite")
        elif fam == "markowitz":
            need(v.split_seed >= 0, "split_seed", ">= 0")
            try:
                target = float(v.b_policy)
            except (TypeError, ValueError):
                target = math.nan
            need(v.b_policy == "mean" or math.isfinite(target), "b_policy",
                 "'mean' or a finite number")
            need(0 < v.train_frac < 1, "train_frac", "in (0, 1)")
            for key in ("n", "periods", "seed"):  # shape the synthetic table
                need(synthetic or key not in self.knobs, key,
                     "left out beside returns_csv")
            if synthetic:
                need(v.periods >= 2, "periods", ">= 2")
                need(1 <= math.floor(v.train_frac * v.periods)
                     < v.periods, "train_frac",
                     "a split leaving train and test rows of `periods`")


def generate(spec: GeneratorSpec) -> StochasticProblem:
    spec.validate()
    return FAMILIES[spec.family](**spec.knobs)

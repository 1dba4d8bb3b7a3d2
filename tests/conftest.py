"""Shared fixtures: instance caches and independent oracles."""

import itertools
import math

import numpy as np
import pytest

from spprox import (BatchLeastSquares, Box, ComposedScalar, Halfspace,
                    HuberScalar, Hyperplane, LinearResidualSquared,
                    LogisticScalar, NonnegativeOrthant, QuadraticNorm,
                    SquareScalar, gen_constrained_ls,
                    gen_random_ls_polyhedron)


# -- randomized object factories -------------------------------------------------

def random_component(rng: np.random.Generator, dim: int, kinds=(0, 1, 2, 3)):
    kind = kinds[rng.integers(len(kinds))]
    if kind == 0:
        return QuadraticNorm(dim, lam=0.1 + 2.0 * float(rng.uniform()))
    if kind == 1:
        a = rng.standard_normal(dim)
        while float(np.dot(a, a)) < 1e-6:
            a = rng.standard_normal(dim)
        return LinearResidualSquared(a, float(rng.standard_normal()))
    if kind == 2:
        rows = dim + rng.integers(3)
        return BatchLeastSquares(rng.standard_normal((rows, dim)),
                                 rng.standard_normal(rows))
    a = rng.standard_normal(dim)
    while float(np.dot(a, a)) < 1e-6:
        a = rng.standard_normal(dim)
    fns = (LogisticScalar(), HuberScalar(0.5 + float(rng.uniform())),
           SquareScalar(float(rng.standard_normal())))
    return ComposedScalar(a, fns[rng.integers(3)])


def random_set(rng: np.random.Generator, dim: int):
    kind = rng.integers(4)
    if kind == 0:
        c = rng.standard_normal(dim)
        return Halfspace(c, float(rng.standard_normal()))
    if kind == 1:
        c = rng.standard_normal(dim)
        return Hyperplane(c, float(rng.standard_normal()))
    if kind == 2:
        lo = rng.standard_normal(dim) - 1.0
        return Box(lo, lo + 0.5 + np.abs(rng.standard_normal(dim)))
    return NonnegativeOrthant(dim)


# -- independent oracles ----------------------------------------------------------

def golden_min(h, lo: float, hi: float, tol: float = 1e-11) -> float:
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    hc, hd = h(c), h(d)
    while b - a > tol:
        if hc < hd:
            b, d, hd = d, c, hc
            c = b - invphi * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + invphi * (b - a)
            hd = h(d)
    return 0.5 * (a + b)


def prox_oracle(comp, x, mu):
    """Brute-force prox: normal-equation solve or 1-D golden section."""
    x = np.asarray(x, dtype=float)
    if isinstance(comp, BatchLeastSquares):
        A, b = comp.A, comp.b
        return np.linalg.solve(np.eye(len(x)) + 2.0 * mu * A.T @ A,
                               x + 2.0 * mu * A.T @ b)
    if isinstance(comp, QuadraticNorm):
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return x.copy()
        u = x / r

        def h(t):
            return 0.5 * comp.lam * t * t + (t - r) ** 2 / (2.0 * mu)

        t_star = golden_min(h, -0.5, r + 1.0)
        return t_star * u
    # rank-one kinds: the prox moves along a only
    a = comp.a
    a_sq = float(np.dot(a, a))
    c0 = float(np.dot(a, x))

    def obj(s):
        return comp.value(x + s * a) + s * s * a_sq / (2.0 * mu)

    if isinstance(comp, LinearResidualSquared):
        span = 2.0 * mu * abs(c0 - comp.b) + 1.0
    else:
        span = 2.0 * mu * (abs(comp.fn.deriv(c0)) + 1.0) + 1.0
    s_star = golden_min(obj, -span, span)
    return x + s_star * a


def fd_gradient(f, x, h: float = 1e-6):
    """Central finite differences."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def enum_polyhedron_projection(sets, x):
    """Exact projection onto an intersection of polyhedral sets by KKT
    enumeration: every equality row (one c'x = d per hyperplane) is active,
    plus a subset of the inequality rows of the rest."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[0]

    def stack(rows):
        return (np.vstack([np.empty((0, dim))] + [C for C, _ in rows]),
                np.concatenate([np.empty(0)] + [d for _, d in rows]))

    C, d = stack([s.rows() for s in sets if not isinstance(s, Hyperplane)])
    A, b = stack([(s.c[None, :], np.array([s.d])) for s in sets
                  if isinstance(s, Hyperplane)])
    p, q = len(d), len(b)
    rows, rhs = np.vstack([A, C]), np.concatenate([b, d])
    best, best_dist = None, np.inf
    for r in range(0, min(p, dim) + 1):
        for S in itertools.combinations(range(q, q + p), r):
            active = [*range(q), *S]
            Ca, da = rows[active], rhs[active]
            if len(da) == 0:
                z = x.copy()
            else:
                alpha, *_ = np.linalg.lstsq(Ca @ Ca.T, Ca @ x - da, rcond=None)
                z = x - Ca.T @ alpha
            if np.all(C @ z <= d + 1e-9) and np.all(np.abs(A @ z - b) <= 1e-9):
                if r == 0:  # feasible projection onto the equality rows alone
                    return z
                dist = float(np.linalg.norm(z - x))
                if dist < best_dist:
                    best, best_dist = z, dist
    return best


# -- shared instances --------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_ls():
    """The desk-scale batched least-squares instance (m=2000, n=20)."""
    return gen_constrained_ls(n=20, m=2000, seed=7)


@pytest.fixture(scope="session")
def desk_poly():
    """The random-polyhedron least-squares instance (m=1000, n=20)."""
    return gen_random_ls_polyhedron(n=20, m=1000, seed=11)


@pytest.fixture(scope="session")
def small_ls():
    """A cheap batched least-squares instance for module tests."""
    return gen_constrained_ls(n=8, m=240, seed=3)

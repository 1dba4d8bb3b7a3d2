import numpy as np
import pytest

from conftest import fd_gradient, prox_oracle, random_component
from spprox import (BatchLeastSquares, ComposedScalar, HuberScalar,
                    LinearResidualSquared, LogisticScalar, ProxSolveError,
                    QuadraticNorm, SquareScalar)
from spprox import components
from spprox.components import ScalarConvex, _solve_prox_1d


def test_value_examples():
    assert QuadraticNorm(2, 1.0).value(np.array([3.0, 4.0])) == 12.5
    r = LinearResidualSquared(np.array([1.0, 0.0]), 1.0)
    assert r.value(np.array([3.0, 2.0])) == 4.0
    bl = BatchLeastSquares(np.eye(2), np.ones(2))
    assert bl.value(np.zeros(2)) == 2.0


def test_gradient_examples():
    assert np.allclose(QuadraticNorm(2, 2.0).gradient(np.ones(2)), [2.0, 2.0])
    r = LinearResidualSquared(np.array([1.0, 0.0]), 0.0)
    assert np.allclose(r.gradient(np.array([2.0, 5.0])), [4.0, 0.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(60):
        dim = 2 + rng.integers(4)
        comp = random_component(rng, dim)
        x = rng.standard_normal(dim)
        g = comp.gradient(x)
        g_fd = fd_gradient(comp.value, x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


def test_prox_examples():
    q = QuadraticNorm(2, 1.0)
    assert np.allclose(q.prox(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    r = LinearResidualSquared(np.array([1.0, 0.0]), 0.0)
    z = r.prox(np.array([2.0, 1.0]), 0.5)
    assert np.allclose(z, [1.0, 1.0])
    # optimality residual of the closed form
    resid = z - np.array([2.0, 1.0]) + 2 * 0.5 * (z[0] - 0.0) * np.array([1.0, 0.0])
    assert np.linalg.norm(resid) < 1e-12
    bl = BatchLeastSquares(np.eye(2), np.zeros(2))
    assert np.allclose(bl.prox(np.array([4.0, 2.0]), 0.5), [2.0, 1.0])


def test_prox_rejects_nonpositive_mu():
    q = QuadraticNorm(2, 1.0)
    with pytest.raises(ValueError):
        q.prox(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        q.moreau_value(np.zeros(2), -1.0)


def test_dimension_mismatch_raises():
    q = QuadraticNorm(3, 1.0)
    with pytest.raises(ValueError):
        q.value(np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batch_least_squares_rejects_a_non_finite_a(bad):
    # as LinearResidualSquared and ComposedScalar reject a non-finite a
    with pytest.raises(ValueError, match="non-finite"):
        BatchLeastSquares([[bad, 1.0], [0.0, 1.0]], [1.0, 1.0])


def test_prox_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for _ in range(150):
        dim = 1 + rng.integers(5)
        comp = random_component(rng, dim)
        x = 2.0 * rng.standard_normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        z = comp.prox(x, mu)
        z_ref = prox_oracle(comp, x, mu)
        assert np.linalg.norm(z - z_ref) <= 1e-6 * (1.0 + np.linalg.norm(x))


def test_composed_square_equals_residual_prox():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = rng.standard_normal(3)
        b = float(rng.standard_normal())
        comp_newton = ComposedScalar(a, SquareScalar(b))
        comp_closed = LinearResidualSquared(a, b)
        x = rng.standard_normal(3)
        mu = 0.1 + float(rng.uniform())
        assert np.allclose(comp_newton.prox(x, mu), comp_closed.prox(x, mu),
                           atol=1e-9)


def test_moreau_value_examples():
    q = QuadraticNorm(2, 1.0)
    assert abs(q.moreau_value(np.array([2.0, 0.0]), 1.0) - 1.0) < 1e-14
    # envelope touches the function at minimizers
    assert abs(q.moreau_value(np.zeros(2), 0.7) - q.value(np.zeros(2))) < 1e-14


def test_moreau_value_below_value():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.standard_normal(dim)
        mu = 0.1 + float(rng.uniform())
        assert comp.moreau_value(x, mu) <= comp.value(x) + 1e-12


def test_moreau_gradient_examples():
    q = QuadraticNorm(2, 1.0)
    assert np.allclose(q.moreau_gradient(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    assert np.allclose(q.moreau_gradient(np.zeros(2), 1.0), np.zeros(2))


def test_moreau_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(40):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.standard_normal(dim)
        mu = 0.2 + float(rng.uniform())
        g = comp.moreau_gradient(x, mu)
        g_fd = fd_gradient(lambda z: comp.moreau_value(z, mu), x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


def test_gradient_norm_domination():
    rng = np.random.default_rng(23)
    for _ in range(300):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.standard_normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        gm = np.linalg.norm(comp.moreau_gradient(x, mu))
        gf = np.linalg.norm(comp.gradient(x))
        assert gm <= gf + 1e-9


def test_prox_contraction_factor():
    rng = np.random.default_rng(29)
    for _ in range(300):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        lhs = np.linalg.norm(comp.prox(x, mu) - comp.prox(y, mu))
        rhs = np.linalg.norm(x - y) / (1.0 + mu * comp.sigma)
        assert lhs <= rhs + 1e-9


def test_prox_optimality_residual():
    rng = np.random.default_rng(37)
    for _ in range(100):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.standard_normal(dim)
        mu = 0.1 + float(rng.uniform())
        z = comp.prox(x, mu)
        resid = (x - z) / mu - comp.gradient(z)
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(x))


def test_moreau_gradient_lipschitz():
    rng = np.random.default_rng(41)
    for _ in range(200):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)
        mu = 0.1 + float(rng.uniform())
        lhs = np.linalg.norm(comp.moreau_gradient(x, mu)
                             - comp.moreau_gradient(y, mu))
        assert lhs <= np.linalg.norm(x - y) / mu + 1e-9


def test_cached_constants():
    rng = np.random.default_rng(43)
    A = rng.standard_normal((6, 4))
    bl = BatchLeastSquares(A, rng.standard_normal(6))
    eigs = np.linalg.eigvalsh(A.T @ A)
    assert abs(bl.sigma - 2 * eigs[0]) < 1e-10
    assert abs(bl.lips_grad - 2 * eigs[-1]) < 1e-10
    assert bl.sigma <= bl.lips_grad
    r = LinearResidualSquared(np.array([1.0, 2.0]), 0.0)
    assert r.sigma == 0.0
    assert abs(r.lips_grad - 2 * 5.0) < 1e-14
    q = QuadraticNorm(3, 1.5)
    assert q.sigma == q.lips_grad == 1.5


def test_rank_deficient_batch_prox_is_exact():
    # rows < dim: A'A is singular, so sigma is 0 and the prox must still
    # solve (I + 2 mu A'A) z = x + 2 mu A'b at every stepsize
    rng = np.random.default_rng(44)
    for rows, dim in ((1, 4), (3, 8), (5, 6), (9, 20)):
        A, b = rng.standard_normal((rows, dim)), rng.standard_normal(rows)
        bl = BatchLeastSquares(A, b)
        assert bl.sigma == 0.0
        for k in range(1, 61):
            mu = 5.0 / k ** 0.75
            x = rng.standard_normal(dim)
            ref = np.linalg.solve(np.eye(dim) + 2 * mu * A.T @ A,
                                  x + 2 * mu * A.T @ b)
            z = bl.prox(x, mu)
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


class _ConcaveScalar(ScalarConvex):
    """l(t) = -t^2 / 2: not convex, so the prox objective has no minimum."""

    def value(self, t):
        return -0.5 * t * t

    def deriv(self, t):
        return -t

    def second(self, t):
        return -1.0


def test_non_convex_scalar_prox_raises():
    # c = 1, mu*s = 2: g(t) = -t + (t - 1)/2 < 0 on the whole bracket [1, 3]
    with pytest.raises(ProxSolveError, match="not convex"):
        _solve_prox_1d(_ConcaveScalar(), 1.0, 2.0)


def test_prox_solve_out_of_steps_names_its_tolerance_and_budget(
        monkeypatch):
    assert components.PROX_1D_TOL == 1e-12
    assert components.PROX_1D_MAX_ITER == 200
    _solve_prox_1d(LogisticScalar(), 3.0, 2.0)  # converges within 200
    monkeypatch.setattr(components, "PROX_1D_MAX_ITER", 1)
    with pytest.raises(ProxSolveError, match=r"tol=1e-12 in 1 iterations"):
        _solve_prox_1d(LogisticScalar(), 3.0, 2.0)


@pytest.mark.parametrize("fn", [LogisticScalar(), HuberScalar(0.7),
                                SquareScalar(-1.3)],
                         ids=["logistic", "huber", "square"])
def test_prox_bracket_holds_for_convex_scalars(fn):
    # |c| and mu*s from 1e-8 to 1e8: the solve raises if its bracket
    # [c, c - mu*s*l'(c)] (padded) misses the root
    scales = 10.0 ** np.linspace(-8.0, 8.0, 33)
    for c in np.concatenate([scales, -scales]):
        for mus in scales:
            ends = (c, c - mus * fn.deriv(c))
            pad = 1e-9 * (1.0 + abs(c) + abs(ends[1] - ends[0]))
            t = _solve_prox_1d(fn, float(c), float(mus))
            assert min(ends) - pad <= t <= max(ends) + pad

import numpy as np
import pytest

from conftest import fd_gradient, prox_oracle, random_component
from spprox import (BatchLeastSquares, ComposedScalar, LinearResidualSquared,
                    QuadraticNorm, RandomSource, SquareScalar)


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
    rng = RandomSource(21)
    for _ in range(60):
        dim = 2 + rng.integers(4)
        comp = random_component(rng, dim)
        x = rng.normal(dim)
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


def test_prox_matches_bruteforce_oracle():
    rng = RandomSource(31)
    for _ in range(150):
        dim = 1 + rng.integers(5)
        comp = random_component(rng, dim)
        x = 2.0 * rng.normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        z = comp.prox(x, mu)
        z_ref = prox_oracle(comp, x, mu)
        assert np.linalg.norm(z - z_ref) <= 1e-6 * (1.0 + np.linalg.norm(x))


def test_composed_square_equals_residual_prox():
    rng = RandomSource(5)
    for _ in range(40):
        a = rng.normal(3)
        b = float(rng.normal())
        comp_newton = ComposedScalar(a, SquareScalar(b))
        comp_closed = LinearResidualSquared(a, b)
        x = rng.normal(3)
        mu = 0.1 + float(rng.uniform())
        assert np.allclose(comp_newton.prox(x, mu), comp_closed.prox(x, mu),
                           atol=1e-9)


def test_moreau_value_examples():
    q = QuadraticNorm(2, 1.0)
    assert abs(q.moreau_value(np.array([2.0, 0.0]), 1.0) - 1.0) < 1e-14
    # envelope touches the function at minimizers
    assert abs(q.moreau_value(np.zeros(2), 0.7) - q.value(np.zeros(2))) < 1e-14


def test_moreau_value_below_value():
    rng = RandomSource(13)
    for _ in range(100):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.normal(dim)
        mu = 0.1 + float(rng.uniform())
        assert comp.moreau_value(x, mu) <= comp.value(x) + 1e-12


def test_moreau_gradient_examples():
    q = QuadraticNorm(2, 1.0)
    assert np.allclose(q.moreau_gradient(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    assert np.allclose(q.moreau_gradient(np.zeros(2), 1.0), np.zeros(2))


def test_moreau_gradient_matches_finite_differences():
    rng = RandomSource(17)
    for _ in range(40):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.normal(dim)
        mu = 0.2 + float(rng.uniform())
        g = comp.moreau_gradient(x, mu)
        g_fd = fd_gradient(lambda z: comp.moreau_value(z, mu), x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


def test_gradient_norm_domination():
    rng = RandomSource(23)
    for _ in range(300):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        gm = np.linalg.norm(comp.moreau_gradient(x, mu))
        gf = np.linalg.norm(comp.gradient(x))
        assert gm <= gf + 1e-9


def test_prox_contraction_factor():
    rng = RandomSource(29)
    for _ in range(300):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x, y = rng.normal(dim), rng.normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        lhs = np.linalg.norm(comp.prox(x, mu) - comp.prox(y, mu))
        rhs = np.linalg.norm(x - y) / (1.0 + mu * comp.sigma)
        assert lhs <= rhs + 1e-9


def test_prox_optimality_residual():
    rng = RandomSource(37)
    for _ in range(100):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.normal(dim)
        mu = 0.1 + float(rng.uniform())
        z = comp.prox(x, mu)
        resid = (x - z) / mu - comp.gradient(z)
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(x))


def test_moreau_gradient_lipschitz():
    rng = RandomSource(41)
    for _ in range(200):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x, y = rng.normal(dim), rng.normal(dim)
        mu = 0.1 + float(rng.uniform())
        lhs = np.linalg.norm(comp.moreau_gradient(x, mu)
                             - comp.moreau_gradient(y, mu))
        assert lhs <= np.linalg.norm(x - y) / mu + 1e-9


def test_cached_constants():
    rng = RandomSource(43)
    A = rng.normal((6, 4))
    bl = BatchLeastSquares(A, rng.normal(6))
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
    rng = RandomSource(44)
    for rows, dim in ((1, 4), (3, 8), (5, 6), (9, 20)):
        A, b = rng.normal((rows, dim)), rng.normal(rows)
        bl = BatchLeastSquares(A, b)
        assert bl.sigma == 0.0
        for k in range(1, 61):
            mu = 5.0 / k ** 0.75
            x = rng.normal(dim)
            ref = np.linalg.solve(np.eye(dim) + 2 * mu * A.T @ A,
                                  x + 2 * mu * A.T @ b)
            z = bl.prox(x, mu)
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)

import math

import numpy as np
import pytest

from spprox import (LinearResidualSquared, QuadraticNorm, RandomSource,
                    StochasticProblem, WholeSpace, dot, norm)
from spprox.constraints import Halfspace


def test_dot_examples():
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_dot_matches_compensated_summation():
    rng = RandomSource(11)
    for _ in range(50):
        a = rng.normal(20)
        b = rng.normal(20)
        exact = math.fsum(float(ai) * float(bi) for ai, bi in zip(a, b))
        assert abs(dot(a, b) - exact) <= 1e-12 * (1.0 + abs(exact))


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(np.ones(3), np.ones(4))


def test_dot_symmetric_bilinear():
    rng = RandomSource(2)
    for _ in range(200):
        a, b, c = rng.normal(7), rng.normal(7), rng.normal(7)
        s, t = float(rng.normal()), float(rng.normal())
        assert abs(dot(a, b) - dot(b, a)) <= 1e-12 * (1 + abs(dot(a, b)))
        lhs = dot(s * a + t * b, c)
        rhs = s * dot(a, c) + t * dot(b, c)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_norm_examples():
    assert norm(np.zeros(3)) == 0.0
    assert norm(np.array([3.0, 4.0])) == 5.0


def test_norm_scaling_and_consistency():
    rng = RandomSource(3)
    for _ in range(200):
        x = rng.normal(9)
        alpha = float(rng.normal())
        assert abs(norm(alpha * x) - abs(alpha) * norm(x)) <= 1e-12 * (1 + norm(x))
        assert abs(norm(x) ** 2 - dot(x, x)) <= 1e-12 * (1 + dot(x, x))


def test_random_source_replay():
    a = RandomSource(987654321)
    b = RandomSource(987654321)
    assert np.array_equal(a.integers_block(1000, 100_000),
                          b.integers_block(1000, 100_000))
    assert np.array_equal(a.normal(100_000), b.normal(100_000))


def test_random_source_spawn_differs():
    base = RandomSource(5)
    assert not np.array_equal(base.spawn(1).normal(64), base.spawn(2).normal(64))


def _two_component_problem():
    losses = [QuadraticNorm(2, 1.0), LinearResidualSquared(np.array([1.0, 0.0]), 0.5)]
    sets = [Halfspace(np.array([1.0, 0.0]), 1.0), WholeSpace(2)]
    return StochasticProblem(losses, sets, 2)


def test_x_star_feasibility_enforced():
    losses = [QuadraticNorm(2, 1.0)]
    sets = [Halfspace(np.array([1.0, 0.0]), 0.0)]
    with pytest.raises(ValueError):
        StochasticProblem(losses, sets, 2, x_star=np.array([1.0, 0.0]))
    StochasticProblem(losses, sets, 2, x_star=np.array([-1.0, 0.0]))


def test_objective_quadratic_path_matches_direct_sum():
    p = _two_component_problem()
    rng = RandomSource(8)
    w = 1 / len(p.losses)
    for _ in range(50):
        x = rng.normal(2)
        direct = sum(w * f.value(x) for f in p.losses)
        assert abs(p.objective(x) - direct) <= 1e-12 * (1 + abs(direct))


def test_sample_indices_are_two_uniform_blocks():
    p = _two_component_problem()
    p3 = StochasticProblem([QuadraticNorm(2, 1.0)] * 3, [WholeSpace(2)] * 5, 2)
    for prob, seed in ((p, 0), (p, 17), (p3, 12345)):
        li, ci = prob.sample_indices(RandomSource(seed), 500)
        ref = RandomSource(seed)
        assert np.array_equal(li, ref.integers_block(len(prob.losses), 500))
        assert np.array_equal(ci, ref.integers_block(len(prob.constraints), 500))

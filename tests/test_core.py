import numpy as np
import pytest

from spprox import (LinearResidualSquared, QuadraticNorm, StochasticProblem,
                    WholeSpace, norm)
from spprox.constraints import Halfspace


def test_norm_examples():
    assert norm(np.zeros(3)) == 0.0
    assert norm(np.array([3.0, 4.0])) == 5.0


def test_norm_scaling_and_consistency():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.standard_normal(9)
        alpha = float(rng.standard_normal())
        assert abs(norm(alpha * x) - abs(alpha) * norm(x)) <= 1e-12 * (1 + norm(x))
        assert abs(norm(x) ** 2 - x @ x) <= 1e-12 * (1 + x @ x)


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
    rng = np.random.default_rng(8)
    w = 1 / len(p.losses)
    for _ in range(50):
        x = rng.standard_normal(2)
        direct = sum(w * f.value(x) for f in p.losses)
        assert abs(p.objective(x) - direct) <= 1e-12 * (1 + abs(direct))


def test_sample_indices_are_two_uniform_blocks():
    p = _two_component_problem()
    p3 = StochasticProblem([QuadraticNorm(2, 1.0)] * 3, [WholeSpace(2)] * 5, 2)
    for prob, seed in ((p, 0), (p, 17), (p3, 12345)):
        li, ci = prob.sample_indices(np.random.default_rng(seed), 500)
        ref = np.random.default_rng(seed)
        assert np.array_equal(li, ref.integers(len(prob.losses), size=500))
        assert np.array_equal(ci, ref.integers(len(prob.constraints), size=500))

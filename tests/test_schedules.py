import math

import numpy as np
import pytest

from spprox import (PolynomialDecay, ProblemConstants, QuadraticNorm,
                    RandomSource, StochasticProblem, WholeSpace,
                    constant_step_envelope, iteration_complexity, phi,
                    rspp_plan, strongly_convex_bound, theta)
from spprox.schedules import mean_theta_sq


def _at(sched, k):
    """mu_k by Python's ``**``: an oracle written apart from ``block``."""
    return sched.mu0 / float(max(k, 1)) ** sched.gamma


def test_stepsize_examples():
    assert PolynomialDecay(1.0, 1.0).block(4, 1)[0] == 0.25
    assert PolynomialDecay(1.0, 0.5).block(4, 1)[0] == 0.5
    assert PolynomialDecay(0.7, 1.3).block(0, 1)[0] == 0.7
    assert PolynomialDecay(0.3, 0).block(10, 1)[0] == 0.3


def test_stepsize_nonincreasing():
    for sched in (PolynomialDecay(0.5, 0), PolynomialDecay(1.0, 0.5),
                  PolynomialDecay(2.0, 1.5)):
        vals = sched.block(0, 200)
        assert all(a >= b > 0 for a, b in zip(vals, vals[1:]))


def test_partial_sums_match_loop():
    for sched in (PolynomialDecay(0.4, 0), PolynomialDecay(1.5, 0.7)):
        for k in (1, 5, 33):
            s1, s2 = sched.partial_sums(k)
            l1 = sum(_at(sched, i) for i in range(k))
            l2 = sum(_at(sched, i) ** 2 for i in range(k))
            assert abs(s1 - l1) <= 1e-12 * (1 + l1)
            assert abs(s2 - l2) <= 1e-12 * (1 + l2)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.75, 1.0])
def test_partial_sums_match_fsum(gamma):
    for mu0 in (0.3, 1.0, 2.7):
        sched = PolynomialDecay(mu0, gamma)
        assert sched.partial_sums(0) == (0.0, 0.0)
        for k in (1, 2, 17, 1000, 20_001):
            mus = [_at(sched, i) for i in range(k)]
            l1, l2 = math.fsum(mus), math.fsum(m * m for m in mus)
            s1, s2 = sched.partial_sums(k)
            assert abs(s1 - l1) <= 1e-12 * l1
            assert abs(s2 - l2) <= 1e-12 * l2


def test_block_matches_at():
    sched = PolynomialDecay(1.0, 0.5)
    block = sched.block(0, 10)
    assert np.allclose(block, [_at(sched, k) for k in range(10)])


def test_zero_gamma_is_the_constant_stepsize_bit_for_bit():
    for mu0 in (1e-3, 0.1, 0.3, 0.7, 1.0, 1 / 3, math.pi, 7.5e4):
        sched = PolynomialDecay(mu0, 0)
        for K in (0, 1, 2, 39, 2000):
            assert np.array_equal(sched.block(0, K + 1), np.full(K + 1, mu0))
        assert np.array_equal(sched.block(25, 4), np.full(4, mu0))


@pytest.mark.parametrize("mu0, gamma, message", [
    (math.nan, 1.0, "mu0 must be positive and finite"),
    (math.inf, 1.0, "mu0 must be positive and finite"),
    (-math.inf, 1.0, "mu0 must be positive and finite"),
    (0.0, 0.5, "mu0 must be positive and finite"),
    (1.0, math.nan, "gamma must be finite and >= 0"),
    (1.0, math.inf, "gamma must be finite and >= 0"),
    (1.0, -math.inf, "gamma must be finite and >= 0"),
    (1.0, -0.5, "gamma must be finite and >= 0"),
])
def test_schedule_rejects_bad_parameters(mu0, gamma, message):
    with pytest.raises(ValueError, match=message):
        PolynomialDecay(mu0, gamma)


def test_phi_examples():
    assert phi(1.0, 3.0) == 2.0
    assert abs(phi(0.0, math.e) - 1.0) < 1e-15
    assert abs(phi(0.5, 4.0) - 2.0) < 1e-14


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi(1.0, 0.0)
    with pytest.raises(ValueError):
        phi(0.0, -2.0)


def test_phi_increasing_and_continuous_in_alpha():
    for alpha in (-1.0, -0.3, 0.0, 0.4, 1.0, 2.0):
        xs = [0.2, 0.7, 1.0, 2.5, 9.0]
        vals = [phi(alpha, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for x in (0.3, 1.7, 12.0):
        for eps in (1e-8, -1e-8):
            assert abs(phi(eps, x) - phi(0.0, x)) < 1e-6


def test_theta_examples():
    assert theta(1.0, 1.0) == 0.5
    assert theta(2.7, 0.0) == 1.0
    vals = [theta(mu, 1.0) for mu in (0.1, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def _problem_with_sigmas(sigmas):
    losses = [QuadraticNorm(2, s) for s in sigmas]
    return StochasticProblem(losses, [WholeSpace(2)], 2)


def _theta0(problem, mu0):
    return mean_theta_sq(problem.sigma_values(), mu0)


def test_theta0_examples():
    assert _theta0(_problem_with_sigmas([1.0]), 1.0) == 0.25
    assert abs(_theta0(_problem_with_sigmas([0.0, 1.0]), 1.0) - 0.625) < 1e-15


def test_theta0_requires_some_strong_convexity():
    # all sigma = 0 gives theta0 = 1: every strongly convex evaluator refuses
    sigmas = _problem_with_sigmas([0.0, 0.0]).sigma_values()
    assert mean_theta_sq(sigmas, 1.0) == 1.0
    c = ProblemConstants(r0=1.0, kappa=2.0, exp_grad_sq_opt=1.0,
                         grad_norm_opt=0.5, exp_lips_sq=4.0, sigmas=sigmas,
                         dist0=0.3)
    sched = PolynomialDecay(1.0, 1.0)
    for evaluate in (lambda: c.cal_a(1.0),
                     lambda: strongly_convex_bound(c, 5, sched),
                     lambda: iteration_complexity(0.1, sched, c),
                     lambda: rspp_plan(0.1, sched, c),
                     lambda: constant_step_envelope(c, 1.0, 5)):
        with pytest.raises(ValueError, match="theta"):
            evaluate()


def test_theta0_below_one_with_positive_sigma():
    p = _problem_with_sigmas([0.0, 0.0, 0.5])
    assert 0.0 < _theta0(p, 0.3) < 1.0


def test_theta0_matches_sampling_oracle(small_ls):
    mu0 = 1.0
    exact = _theta0(small_ls, mu0)
    assert 0.0 < exact < 1.0
    rng = RandomSource(77)
    li, _ = small_ls.sample_indices(rng, 200_000)
    sigmas = small_ls.sigma_values()[li]
    mc = float(np.mean(1.0 / (1.0 + mu0 * sigmas) ** 2))
    assert abs(exact - mc) < 1e-3

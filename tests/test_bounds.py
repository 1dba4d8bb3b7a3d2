import math

import numpy as np
import pytest

from spprox import (MissingConstantError, PolynomialDecay,
                    ProblemConstants, RandomSource, bound_overlay,
                    constant_step_envelope, constant_step_plan, convex_bounds,
                    gen_finite_sum, iteration_complexity, phi, rspp_plan,
                    strongly_convex_bound)
from spprox.schedules import mean_theta_sq


def make_constants(r0=1.0, kappa=1.0, eta_sq=1.0, grad_norm=0.5, lips_sq=4.0,
                   sigmas=(1.0,), dist0=0.3):
    return ProblemConstants(
        r0=r0, kappa=kappa, exp_grad_sq_opt=eta_sq, grad_norm_opt=grad_norm,
        exp_lips_sq=lips_sq, sigmas=np.array(sigmas, dtype=float),
        dist0=dist0)


# -- independently written re-evaluations (different operation order) -----------

def convex_bounds_alt(c, k, schedule, L2):
    mus = np.array([schedule.mu0 / float(max(i, 1)) ** schedule.gamma
                    for i in range(k)])
    s1 = math.fsum(mus)
    s2 = math.fsum(mus * mus)
    mu0 = mus[0]
    R = (c.r0 ** 2 + L2 * s2) * (mu0 * c.kappa)
    upper = (c.r0 ** 2 + L2 * s2) / (2.0 * s1)
    base = s2 / s1 + mu0 * 2.0
    lower = -(base * L2 * c.kappa + math.sqrt(L2 / s1) * math.sqrt(R))
    feas = base * base * L2 * 2.0 * c.kappa ** 2 + (2.0 / s1) * R
    return upper, lower, feas


def mean_theta_sq_alt(sigmas, mu):
    """E[1/(1 + mu sigma_S)^2] over the uniform law, by an exact sum."""
    return math.fsum(1.0 / (1.0 + mu * s) ** 2 for s in sigmas) / len(sigmas)


def envelope_alt(c, mu, k):
    tb = mean_theta_sq_alt(c.sigmas, mu)
    gap = 1.0 - math.sqrt(tb)
    radius = math.sqrt(c.exp_grad_sq_opt) / gap * mu
    return tb ** k * (2.0 * c.r0 ** 2) + 2.0 * radius ** 2, radius


def strongly_convex_alt(c, k, schedule):
    mu0, gamma = schedule.mu0, schedule.gamma
    th0 = mean_theta_sq_alt(c.sigmas, mu0)
    A = max(c.r0, math.sqrt(c.exp_grad_sq_opt) * mu0 / (1.0 - math.sqrt(th0)))
    B = (math.sqrt(2.0) * math.sqrt(c.exp_grad_sq_opt)
         + math.sqrt(2.0) * A * math.sqrt(c.exp_lips_sq))
    eta = math.sqrt(c.exp_grad_sq_opt)
    if c.kappa == 1.0:
        lead = 0.0
    else:
        lead = ((c.dist0 + 2.0 * mu0 * c.kappa * B) / mu0
                / math.log(c.kappa / (c.kappa - 1.0)))
    D = (4.0 * c.grad_norm_opt * (lead + B * c.kappa * 3.0 ** gamma)
         + 2.0 * eta * math.sqrt(2.0 * (eta ** 2 + c.exp_lips_sq * A ** 2))
         + 2.0 * eta * math.sqrt(c.exp_lips_sq) * A)
    if gamma < 1.0:
        e1 = (k ** (1.0 - gamma) - 1.0) / (1.0 - gamma)
        e2 = (((k + 1) / 2.0) ** (1.0 - gamma) - 1.0) / (1.0 - gamma)
        if gamma == 0.5:
            mids = math.log((k + 1) / 2.0)
        else:
            mids = (((k + 1) / 2.0) ** (1.0 - 2.0 * gamma) - 1.0) / (1.0 - 2.0 * gamma)
        return (math.exp(e1 * math.log(th0)) * c.r0 ** 2
                + D * math.exp((e1 - e2) * math.log(th0)) * mu0 ** 2 * (mids + 2.0)
                + D * mu0 ** 2 * 4.0 ** gamma / (k ** gamma * (1.0 - th0)))
    lam = -math.log(th0)
    head = math.exp(math.log(k) * math.log(th0)) * c.r0 ** 2
    if th0 < 1.0 / math.e:
        return head + mu0 ** 2 * 2.0 / (lam - 1.0) / k
    if th0 == 1.0 / math.e:
        return head + 2.0 * mu0 ** 2 * math.log(k) / k
    return head + math.exp(lam * math.log(2.0 / k)) * mu0 ** 2 / (1.0 - lam)


def rspp_plan_alt(epsilon, schedule, c):
    mu0, gamma = schedule.mu0, schedule.gamma
    th0 = mean_theta_sq_alt(c.sigmas, mu0)
    A = max(c.r0, math.sqrt(c.exp_grad_sq_opt) * mu0 / (1.0 - math.sqrt(th0)))
    B = math.sqrt(2.0 * c.exp_grad_sq_opt) + A * math.sqrt(2.0 * c.exp_lips_sq)
    eta = math.sqrt(c.exp_grad_sq_opt)
    k2 = c.kappa * c.kappa
    if c.kappa == 1.0:
        lead = 0.0
    else:
        lead = ((c.dist0 + 2.0 * mu0 * k2 * B)
                / (mu0 * math.log(c.kappa / (c.kappa - 1.0))))
    Dr = (4.0 * c.grad_norm_opt * (lead + 3.0 ** gamma * B * k2)
          + 2.0 * eta * math.sqrt(2.0 * eta ** 2 + 2.0 * c.exp_lips_sq * A ** 2)
          + 2.0 * eta * A * math.sqrt(c.exp_lips_sq))
    C = (mu0 / (1.0 - th0)) ** 2
    if gamma < 1.0:
        C += 0.5 / ((1.0 - gamma) * math.log(1.0 / math.sqrt(th0)))
    if c.r0 == 0.0:  # no distance to close: only the noise term counts
        a1 = 0.0
    else:
        a1 = math.log(2.0 * c.r0 ** 2 / epsilon) / math.log(1.0 / th0)
    a2 = math.exp(math.log(2.0 ** (gamma + 1.0) * Dr * C / epsilon) / gamma)
    T = max(1, math.ceil(max(a1, a2)))
    return T, T ** (1.0 + gamma) / (1.0 + gamma)


def random_constants(rng):
    """Random constants, a random mu0 and a random subgradient bound E[L^2],
    drawn in one fixed order."""
    sigmas = np.abs(rng.normal(1 + rng.integers(4))) + 0.05
    drawn = dict(
        r0=0.5 + 2 * float(rng.uniform()),
        kappa=1.0 + 3 * float(rng.uniform()),
        eta_sq=0.1 + 2 * float(rng.uniform()),
        grad_norm=float(rng.uniform()),
        lips_sq=1.0 + 4 * float(rng.uniform()),
        sigmas=sigmas,
        dist0=float(rng.uniform()))
    mu0 = 0.2 + float(rng.uniform())
    return make_constants(**drawn), mu0, 2.0 + 2 * float(rng.uniform())


def test_dual_evaluations_agree():
    rng = RandomSource(101)
    for _ in range(1000):
        c, mu0, L2 = random_constants(rng)
        k = 1 + rng.integers(500)
        gamma = (0.25, 0.5, 0.75, 1.0)[rng.integers(4)]
        sched = PolynomialDecay(mu0, gamma)
        for a, b in zip(convex_bounds(c, k, sched, L2),
                        convex_bounds_alt(c, k, sched, L2)):
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))
        v1 = strongly_convex_bound(c, k, sched)
        v2 = strongly_convex_alt(c, k, sched)
        assert abs(v1 - v2) <= 1e-10 * (1.0 + abs(v1))
        e1 = constant_step_envelope(c, mu0, k)
        e2 = envelope_alt(c, mu0, k)
        assert abs(e1[0] - e2[0]) <= 1e-10 * (1.0 + e1[0])
        assert abs(e1[1] - e2[1]) <= 1e-10 * (1.0 + e1[1])
        eps = 0.05 + float(rng.uniform())
        assert rspp_plan(eps, sched, c) == pytest.approx(rspp_plan_alt(eps, sched, c))


def test_convex_bounds_hand_example():
    c = make_constants(r0=1.0, kappa=1.0)
    upper, lower, feas = convex_bounds(c, 1, PolynomialDecay(1.0, 0), 2.0)
    assert upper == pytest.approx(1.5)  # (r0^2 + 2*1) / (2*1)
    # lower: -1*2*(1 + 2) - sqrt(2*3/1) = -6 - sqrt(6)
    assert lower == pytest.approx(-6.0 - math.sqrt(6.0))
    # feas: 2*1*2*(1+2)^2 + 2*3/1 = 36 + 6
    assert feas == pytest.approx(42.0)


def test_convex_bounds_limit_consistency():
    c = make_constants(r0=1.0, kappa=1.0)
    L2 = 2.0
    sched = PolynomialDecay(1.0, 1.0)
    k = 10 ** 6
    upper, lower, feas = convex_bounds(c, k, sched, L2)
    s1, s2 = sched.partial_sums(k)
    # each bound stays within 10x of its non-vanishing leading term
    assert 0 < upper <= 10 * (c.r0 ** 2 / (2 * s1) + L2 * s2 / (2 * s1))
    assert abs(lower) <= 10 * (2 * c.kappa * L2 * sched.mu0 + math.sqrt(L2))
    assert 0 < feas <= 10 * (2 * c.kappa ** 2 * L2 * (2 * sched.mu0) ** 2 + 1)


def test_convex_bounds_vanishing_gradient_case():
    c = make_constants(kappa=2.0, r0=1.5)
    sched = PolynomialDecay(0.5, 0)
    k = 10
    upper, lower, feas = convex_bounds(c, k, sched, 0.0)
    s1, _ = sched.partial_sums(k)
    R = 0.5 * 2.0 * 1.5 ** 2
    assert feas == pytest.approx(2.0 * R / s1)
    assert lower == 0.0


def test_convex_bounds_missing_constants():
    c = make_constants()
    with pytest.raises(MissingConstantError):
        convex_bounds(c, 5, PolynomialDecay(1.0, 0), None)
    with pytest.raises(MissingConstantError):
        constant_step_plan(0.1, c, None)


@pytest.mark.parametrize("subgrad_sq", [math.nan, math.inf, -2.0])
def test_a_bad_subgradient_bound_is_rejected(subgrad_sq):
    c = make_constants(r0=2.0)
    with pytest.raises(ValueError, match="subgrad_sq"):
        convex_bounds(c, 5, PolynomialDecay(1.0, 0), subgrad_sq)
    with pytest.raises(ValueError, match="subgrad_sq"):
        constant_step_plan(0.1, c, subgrad_sq)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.1])
def test_a_bad_epsilon_is_rejected(epsilon):
    c = make_constants(r0=2.0, sigmas=(4.0,), kappa=2.0)
    sched = PolynomialDecay(1.0, 1.0)
    for plan in (lambda: constant_step_plan(epsilon, c, 2.0),
                 lambda: iteration_complexity(epsilon, sched, c),
                 lambda: rspp_plan(epsilon, sched, c)):
        with pytest.raises(ValueError, match="epsilon"):
            plan()


@pytest.mark.parametrize("kappa", [None, math.nan, math.inf, 0.5])
def test_a_bad_kappa_is_rejected(kappa):
    with pytest.raises(ValueError, match="kappa"):
        make_constants(kappa=kappa)


def test_constant_step_plan_example():
    c = make_constants(r0=1.0, kappa=1.0)
    mu, K = constant_step_plan(0.1, c, 2.0)
    factor = 3.0 + math.sqrt(2.0)
    assert mu == pytest.approx(0.1 / (2.0 * factor))
    assert mu == pytest.approx(0.011327, rel=1e-4)
    assert K == math.ceil(200.0 * factor ** 2)
    assert max(1.0, factor ** 2) == pytest.approx(19.4853, abs=1e-4)


def test_constant_step_plan_epsilon_scaling():
    c = make_constants(r0=2.0, kappa=1.5)
    _, K1 = constant_step_plan(0.1, c, 3.0)
    _, K2 = constant_step_plan(0.05, c, 3.0)
    assert K2 / K1 == pytest.approx(4.0, rel=1e-3)


def test_constant_step_plan_warns_outside_hypotheses():
    c = make_constants(r0=0.5)
    with pytest.warns(UserWarning):
        constant_step_plan(0.1, c, 2.0)


def test_envelope_examples():
    c = make_constants(eta_sq=0.0, sigmas=(1.0,), r0=2.0)
    val, radius = constant_step_envelope(c, 1.0, 3)
    assert radius == 0.0
    assert val == pytest.approx(2.0 * 0.25 ** 3 * 4.0)
    c2 = make_constants(eta_sq=0.49, sigmas=(1.0,), r0=1.0)
    val0, radius2 = constant_step_envelope(c2, 1.0, 0)
    assert val0 == pytest.approx(2.0 + 2.0 * radius2 ** 2)
    assert radius2 == pytest.approx(2.0 * 1.0 * 0.7)  # 1/(1-1/2) = 2


def test_envelope_requires_contraction():
    c = make_constants(sigmas=(0.0, 0.0))
    with pytest.raises(ValueError):
        constant_step_envelope(c, 1.0, 5)


def test_strongly_convex_bound_branch_formula():
    # theta0 < 1/e branch transcribed symbol for symbol
    c = make_constants(sigmas=(4.0,), r0=1.5)
    th0 = 1.0 / 25.0
    k = 50
    expected = th0 ** math.log(k) * 1.5 ** 2 \
        + 2.0 * 1.0 / (k * (math.log(1.0 / th0) - 1.0))
    got = strongly_convex_bound(c, k, PolynomialDecay(1.0, 1.0))
    assert got == pytest.approx(expected)


def test_strongly_convex_bound_branch_selection():
    # theta0 above 1/e picks the power-law tail
    c = make_constants(sigmas=(0.2,), r0=1.0)
    th0 = mean_theta_sq(c.sigmas, 1.0)
    assert th0 > 1.0 / math.e
    lam = math.log(1.0 / th0)
    k = 40
    expected = th0 ** math.log(k) + (2.0 / k) ** lam / (1.0 - lam)
    got = strongly_convex_bound(c, k, PolynomialDecay(1.0, 1.0))
    assert got == pytest.approx(expected)


def test_strongly_convex_bound_monotone_tail():
    rng = RandomSource(55)
    for _ in range(20):
        c, mu0, _ = random_constants(rng)
        sched = PolynomialDecay(mu0, (0.5, 1.0)[rng.integers(2)])
        vals = [strongly_convex_bound(c, k, sched)
                for k in np.unique(np.logspace(2, 5, 40).astype(int))]
        assert all(a >= b * (1 - 1e-12) for a, b in zip(vals, vals[1:]))


def test_strongly_convex_bound_gamma_half_rate():
    c = make_constants(sigmas=(2.0,), kappa=2.0)
    sched = PolynomialDecay(1.0, 0.5)
    for k in (10 ** 5, 10 ** 6):
        ratio = (strongly_convex_bound(c, 4 * k, sched)
                 / strongly_convex_bound(c, k, sched))
        assert abs(ratio - 0.5) <= 0.1


@pytest.mark.parametrize("algorithm", ["spp", "rspp"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5])
def test_bound_overlay_rule(algorithm, gamma):
    c = make_constants(kappa=2.0)  # theta0 = 1/4
    ks = np.array([0, 10, 20])
    sched = PolynomialDecay(1.0, gamma)
    got = bound_overlay(c, algorithm, sched, ks)
    if gamma == 0:  # the envelope at every recorded k, rspp's included
        assert np.array_equal(got[0], ks)
        assert np.array_equal(got[1], [constant_step_envelope(c, 1.0, k)[0]
                                       for k in ks])
    elif gamma <= 1 and algorithm != "rspp":  # the bound from k = 1 on
        assert np.array_equal(got[0], [10, 20])
        assert np.array_equal(got[1], [strongly_convex_bound(c, k, sched)
                                       for k in (10, 20)])
    else:
        assert got is None


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_bound_overlay_is_none_when_an_evaluator_raises(gamma):
    c = make_constants(kappa=2.0, sigmas=(0.0,))  # theta0 = 1
    sched = PolynomialDecay(1.0, gamma)
    with pytest.raises(ValueError):
        (constant_step_envelope(c, 1.0, 1) if gamma == 0
         else strongly_convex_bound(c, 1, sched))
    assert bound_overlay(c, "spp", sched, np.array([0, 10])) is None


def test_iteration_complexity_scaling():
    c = make_constants(sigmas=(4.0,), kappa=2.0)  # theta0 = 1/25 < 1/e
    one, half = PolynomialDecay(1.0, 1.0), PolynomialDecay(1.0, 0.5)
    k1 = iteration_complexity(1e-3, one, c)
    k2 = iteration_complexity(5e-4, one, c)
    assert 1.8 <= k2 / k1 <= 2.3
    k1h = iteration_complexity(1e-3, half, c)
    k2h = iteration_complexity(5e-4, half, c)
    assert 3.4 <= k2h / k1h <= 4.8
    assert iteration_complexity(1e-2, one, c) <= k1


def test_rspp_plan_examples():
    c = make_constants(sigmas=(4.0,), r0=1.0, kappa=2.0)
    sched = PolynomialDecay(1.0, 1.0)
    T, total = rspp_plan(1e9, sched, c)
    assert T == 1
    assert total == pytest.approx(0.5)
    # epsilon^-2 scaling of the total-iteration bound at gamma = 1
    _, t1 = rspp_plan(1e-4, sched, c)
    _, t2 = rspp_plan(5e-5, sched, c)
    assert t1 > 1e4  # D_r-dominated regime
    assert t2 / t1 == pytest.approx(4.0, rel=0.05)
    # theta0 -> 1 blows the epoch count up
    c_weak = make_constants(sigmas=(1e-4,), kappa=2.0)
    T_weak, _ = rspp_plan(0.1, sched, c_weak)
    c_strong = make_constants(sigmas=(4.0,), kappa=2.0)
    T_strong, _ = rspp_plan(0.1, sched, c_strong)
    assert T_weak > 100 * T_strong


def test_rspp_plan_at_the_optimum():
    # x0 = x*: no log(2 r0^2 / eps) term, the noise term alone sets T
    c = make_constants(r0=0.0, sigmas=(4.0,), kappa=2.0, dist0=0.0)
    for gamma in (0.5, 1.0):
        sched = PolynomialDecay(1.0, gamma)
        assert rspp_plan(0.1, sched, c) == pytest.approx(
            rspp_plan_alt(0.1, sched, c))


def test_rspp_plan_monotone_in_epsilon():
    c = make_constants(sigmas=(1.0, 3.0), kappa=2.0)
    for gamma in (0.5, 1.0):
        Ts = [rspp_plan(eps, PolynomialDecay(0.8, gamma), c)[0]
              for eps in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3)]
        assert all(a <= b for a, b in zip(Ts, Ts[1:]))


def test_cal_d_kappa_one_singular():
    c = make_constants(kappa=1.0, dist0=0.0)
    sched = PolynomialDecay(1.0, 1.0)
    c.cal_d(sched)  # fine: the singular term vanishes with dist0 = 0
    c_bad = make_constants(kappa=1.0, dist0=0.5)
    with pytest.raises(ValueError):
        c_bad.cal_d(sched)


def test_measure_from_problem():
    prob = gen_finite_sum(n=4, m=6, seed=2)
    x0 = np.zeros(4)
    c = ProblemConstants.measure(prob, x0, kappa=1.0)
    assert c.r0 == pytest.approx(float(np.linalg.norm(prob.x_star)))
    assert c.dist0 == 0.0  # whole space
    assert c.exp_grad_sq_opt == pytest.approx(
        prob.exp_grad_norm_sq(prob.x_star))
    assert c.exp_lips_sq == pytest.approx(prob.exp_lips_grad_sq())


def test_measure_requires_optimum_and_kappa():
    prob = gen_finite_sum(n=4, m=6, seed=2)
    prob_free = gen_finite_sum(n=4, m=6, seed=2)
    prob_free.x_star = None
    with pytest.raises(MissingConstantError):
        ProblemConstants.measure(prob_free, np.zeros(4), kappa=1.0)
    prob.kappa = None
    with pytest.raises(MissingConstantError):
        ProblemConstants.measure(prob, np.zeros(4))

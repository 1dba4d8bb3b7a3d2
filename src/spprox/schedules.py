"""Stepsize schedules, contraction factors, and the phi_alpha helper."""

from __future__ import annotations

import math

import numpy as np


def phi(alpha: float, x: float) -> float:
    """phi_alpha(x) = (x^alpha - 1)/alpha for alpha != 0, log(x) at alpha = 0.

    Defined for x > 0 only; continuous in alpha at 0 (the log branch is used
    exactly, with no smoothing across the branch).
    """
    if x <= 0:
        raise ValueError(f"phi requires x > 0, got {x}")
    if alpha == 0.0:
        return math.log(x)
    return math.expm1(alpha * math.log(x)) / alpha


def theta(mu: float, sigma: float) -> float:
    """Prox contraction factor 1 / (1 + mu sigma)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return 1.0 / (1.0 + mu * sigma)


def mean_theta_sq(sigmas, mu: float) -> float:
    """E[theta_S(mu)^2] = E[1/(1 + mu sigma_S)^2] under the uniform law on
    the components' ``sigmas``."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return float(np.mean(1.0 / (1.0 + mu * np.asarray(sigmas, float)) ** 2))


def theta0(problem, mu0: float) -> float:
    """theta0 = E[theta_S(mu0)^2] over the problem's components, exactly.

    Requires some component to carry strong convexity (E[sigma] > 0),
    otherwise the expectation is 1 and the strongly convex analysis is void.
    """
    sigmas = problem.sigma_values()
    if float(np.mean(sigmas)) <= 0.0:
        raise ValueError("all components have sigma = 0; "
                         "strong-convexity assumption violated")
    return mean_theta_sq(sigmas, mu0)


class StepsizeSchedule:
    """mu_k, the stepsize at iteration k = 0, 1, ..."""

    def at(self, k: int) -> float:
        raise NotImplementedError

    def partial_sums(self, k: int) -> tuple[float, float]:
        """(sum_{i<k} mu_i, sum_{i<k} mu_i^2)."""
        raise NotImplementedError

    def block(self, start: int, count: int) -> np.ndarray:
        """Stepsizes for iterations start, ..., start+count-1."""
        return np.array([self.at(start + i) for i in range(count)])


class ConstantStepsize(StepsizeSchedule):
    """mu_k = mu for all k."""

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)

    def at(self, k):
        return self.mu

    def partial_sums(self, k):
        return k * self.mu, k * self.mu ** 2

    def block(self, start, count):
        return np.full(count, self.mu)


class PolynomialDecay(StepsizeSchedule):
    """mu_k = mu0 / k^gamma for k >= 1, with mu_0 = mu0 by convention.

    The k = 0 value is mu0: the analyses start their sums at index 0 with
    mu0 while defining the decay for k >= 1 only.
    """

    def __init__(self, mu0: float, gamma: float):
        if mu0 <= 0:
            raise ValueError("mu0 must be positive")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.mu0 = float(mu0)
        self.gamma = float(gamma)

    def at(self, k):
        if k <= 0:
            return self.mu0
        return self.mu0 / float(k) ** self.gamma

    def partial_sums(self, k):
        if k <= 0:
            return 0.0, 0.0
        ks = np.arange(1, k, dtype=np.float64)
        decays = ks ** -self.gamma
        s1 = self.mu0 * (1.0 + float(decays.sum()))
        s2 = self.mu0 ** 2 * (1.0 + float((decays ** 2).sum()))
        return s1, s2

    def block(self, start, count):
        ks = np.arange(start, start + count, dtype=np.float64)
        ks[ks < 1.0] = 1.0
        return self.mu0 / ks ** self.gamma

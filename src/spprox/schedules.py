"""The stepsize law mu0 / k^gamma (gamma = 0 constant), contraction factors,
and the phi_alpha helper."""

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


class PolynomialDecay:
    """The stepsize law mu_k = mu0 / k^gamma for k >= 1, with mu_0 = mu0.

    gamma = 0 is the constant stepsize mu0 (mu0 / k^0 == mu0 exactly).  The
    k = 0 value is mu0: the analyses start their sums at index 0 with mu0
    while defining the decay for k >= 1 only.
    """

    def __init__(self, mu0: float, gamma: float):
        if not (math.isfinite(mu0) and mu0 > 0):
            raise ValueError("mu0 must be positive and finite")
        if not (math.isfinite(gamma) and gamma >= 0):
            raise ValueError("gamma must be finite and >= 0")
        self.mu0 = float(mu0)
        self.gamma = float(gamma)

    def partial_sums(self, k: int) -> tuple[float, float]:
        """(sum_{i<k} mu_i, sum_{i<k} mu_i^2)."""
        mus = self.block(0, k)
        return float(mus.sum()), float((mus * mus).sum())

    def block(self, start: int, count: int) -> np.ndarray:
        """Stepsizes for iterations start, ..., start+count-1."""
        ks = np.arange(start, start + count, dtype=np.float64)
        ks[ks < 1.0] = 1.0
        return self.mu0 / ks ** self.gamma

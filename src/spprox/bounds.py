"""Evaluators for the closed-form convergence guarantees.

Each evaluator is a direct transcription of one stated bound so that harness
plots can overlay predicted curves on empirical ones.  ``ProblemConstants``
holds the problem's measured constants alone (``measure`` fills it from a
problem with a known optimum); each evaluator takes the ``PolynomialDecay``
it bounds and checks its own hypotheses, raising ``ValueError`` when one
fails (theta0 = E[theta_S(mu0)^2] outside (0, 1), epsilon not positive and
finite, ...).

Two expected-squared-Lipschitz constants coexist deliberately:

* ``exp_lips_sq`` — gradient-Lipschitz constants (smooth strongly convex
  analysis); measured from the components.
* ``subgrad_sq`` — subgradient bound over the iterate region (convex
  Lipschitz analysis), an argument of ``convex_bounds`` and
  ``constant_step_plan``; every generated family's losses are quadratics,
  only locally Lipschitz, so no problem carries it (``SUBGRADIENT_CAVEAT``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constraints import CERTIFICATE_TOL, dist_intersection
from .core import Array, StochasticProblem, norm
from .schedules import PolynomialDecay, mean_theta_sq, phi

# No plan asks for more iterations than this; beyond it a plan is unreachable.
ITERATION_CAP = 2 ** 62

SUBGRADIENT_CAVEAT = (
    "quadratic losses are Lipschitz only on bounded sets; convex-case "
    "certificates are interpreted over the observed iterate region")


class MissingConstantError(ValueError):
    """A bound evaluator is missing required constants."""


@dataclass
class ProblemConstants:
    """The constants feeding the bound formulas.

    r0 = ||x0 - x*||, eta^2 = E[||grad f(x*;S)||^2], dist0 = dist_X(x0).
    """

    r0: float
    kappa: float
    exp_grad_sq_opt: float
    grad_norm_opt: float
    exp_lips_sq: float
    sigmas: Array
    dist0: float

    def __post_init__(self):
        if not (self.kappa is not None and 1.0 <= self.kappa < math.inf):
            raise ValueError(f"kappa = {self.kappa} must be finite and >= 1")

    # -- derived aggregates ---------------------------------------------------

    @property
    def eta(self) -> float:
        return math.sqrt(self.exp_grad_sq_opt)

    def cal_a(self, mu0: float) -> float:
        """max{r0, mu0 eta / (1 - sqrt(theta0))}: the iterate-radius cap."""
        th0 = mean_theta_sq(self.sigmas, mu0)
        if th0 >= 1.0:
            raise ValueError("theta0 >= 1: no strong convexity in expectation")
        return max(self.r0, mu0 * self.eta / (1.0 - math.sqrt(th0)))

    def cal_b(self, mu0: float) -> float:
        """sqrt(2 eta^2) + A sqrt(2 E[L^2])."""
        return (math.sqrt(2.0 * self.exp_grad_sq_opt)
                + self.cal_a(mu0) * math.sqrt(2.0 * self.exp_lips_sq))

    def cal_d(self, schedule: PolynomialDecay, kappa_power: int = 1) -> float:
        """The rate constant of the variable-stepsize analysis of ``schedule``.

        ``kappa_power=2`` gives the restarted variant of the constant.  The
        leading term divides by log(kappa/(kappa-1)), which is singular at
        kappa = 1; there the term is taken as 0 when dist0 = 0 (the bound
        implicitly presumes kappa > 1) and an error otherwise.
        """
        mu0, gamma = schedule.mu0, schedule.gamma
        A, B = self.cal_a(mu0), self.cal_b(mu0)
        kap = self.kappa
        kp = kap ** kappa_power
        if kap == 1.0:
            if self.dist0 == 0.0:
                lead = 0.0
            else:
                raise ValueError("kappa = 1 with dist_X(x0) > 0: "
                                 "log(kappa/(kappa-1)) term is singular")
        else:
            lead = ((self.dist0 + 2.0 * mu0 * kp * B)
                    / (mu0 * math.log(kap / (kap - 1.0))))
        return (4.0 * self.grad_norm_opt * (lead + 3.0 ** gamma * B * kp)
                + 2.0 * self.eta * math.sqrt(
                    2.0 * self.exp_grad_sq_opt + 2.0 * self.exp_lips_sq * A ** 2)
                + 2.0 * self.eta * A * math.sqrt(self.exp_lips_sq))

    @classmethod
    def measure(cls, problem: StochasticProblem, x0: Array,
                kappa: float | None = None,
                tol: float = CERTIFICATE_TOL) -> "ProblemConstants":
        """Fill the constants from a problem with a known optimum.

        kappa is the argument, else ``problem.kappa`` (``estimate_kappa``
        gives a lower bound), else an error.  ``tol`` certifies dist0 as in
        ``project_intersection``.
        """
        if problem.x_star is None:
            raise MissingConstantError(
                "problem has no known optimum x*; refusing to guess constants")
        x0 = np.asarray(x0, dtype=np.float64)
        kappa = problem.kappa if kappa is None else kappa
        if kappa is None:
            raise MissingConstantError("no kappa available: pass kappa=")
        xs = problem.x_star
        return cls(
            r0=norm(x0 - xs),
            kappa=float(kappa),
            exp_grad_sq_opt=problem.exp_grad_norm_sq(xs),
            grad_norm_opt=norm(problem.mean_gradient(xs)),
            exp_lips_sq=problem.exp_lips_grad_sq(),
            sigmas=problem.sigma_values(),
            dist0=dist_intersection(problem.rows, x0, tol=tol))


def _subgrad_bound(subgrad_sq: float | None) -> float:
    """The user-supplied E[L^2], checked: given, finite and >= 0."""
    if subgrad_sq is None:
        raise MissingConstantError(
            "supply subgrad_sq, the subgradient bound E[L^2]")
    if not 0.0 <= subgrad_sq < math.inf:
        raise ValueError(f"subgrad_sq = {subgrad_sq} must be finite and >= 0")
    return subgrad_sq


def convex_bounds(c: ProblemConstants, k: int, schedule: PolynomialDecay,
                  subgrad_sq: float) -> tuple[float, float, float]:
    """Convex-case certificates after k iterations of the averaged scheme.

    Returns (suboptimality upper bound, suboptimality lower bound,
    feasibility-squared upper bound) with mu1 = sum of the first k stepsizes,
    mu2 = sum of their squares, and R = mu0 kappa (r0^2 + E[L^2] mu2), where
    E[L^2] = ``subgrad_sq`` bounds the subgradients over the iterates.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    L2 = _subgrad_bound(subgrad_sq)
    s1, s2 = schedule.partial_sums(k)
    mu0 = schedule.mu0
    R = mu0 * c.kappa * (c.r0 ** 2 + L2 * s2)
    ratio = s2 / s1
    upper = R / (2.0 * mu0 * c.kappa * s1)
    lower = (-c.kappa * L2 * (ratio + 2.0 * mu0)
             - math.sqrt(L2 * R / s1))
    feas_sq = (2.0 * c.kappa ** 2 * L2 * (ratio + 2.0 * mu0) ** 2
               + 2.0 * R / s1)
    return upper, lower, feas_sq


def constant_step_plan(epsilon: float, c: ProblemConstants,
                       subgrad_sq: float) -> tuple[float, int]:
    """Constant stepsize and iteration count guaranteeing epsilon accuracy.

    mu = eps / (E[L^2](3k + sqrt(2k))) and the smallest integer K with
    K >= E[L^2] r0^2 / eps^2 * max{1, (3k + sqrt(2k))^2}, where E[L^2] =
    ``subgrad_sq``.  The plan's standing hypotheses r0 >= 1 and E[L^2] >= 2
    are checked and warned about.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon = {epsilon} must be positive and finite")
    L2 = _subgrad_bound(subgrad_sq)
    if c.r0 < 1.0 or L2 < 2.0:
        warnings.warn("constant-step plan assumes r0 >= 1 and E[L^2] >= 2; "
                      "the returned pair may be conservative", stacklevel=2)
    factor = 3.0 * c.kappa + math.sqrt(2.0 * c.kappa)
    mu = epsilon / (L2 * factor)
    K = math.ceil(L2 * c.r0 ** 2 / epsilon ** 2 * max(1.0, factor ** 2))
    return mu, int(K)


def constant_step_envelope(c: ProblemConstants, mu: float,
                           k: int) -> tuple[float, float]:
    """Linear-convergence envelope for constant-stepsize runs.

    Returns (2 theta^k r0^2 + 2 mu^2 eta^2/(1-sqrt(theta))^2, noise radius
    mu eta/(1-sqrt(theta))) with theta = E[theta_S(mu)^2].
    """
    tb = mean_theta_sq(c.sigmas, mu)
    if tb >= 1.0:
        raise ValueError("E[theta_S^2(mu)] >= 1: envelope undefined")
    root = math.sqrt(tb)
    radius = mu * c.eta / (1.0 - root)
    value = 2.0 * tb ** k * c.r0 ** 2 + 2.0 * (mu * c.eta) ** 2 / (1.0 - root) ** 2
    return value, radius


def strongly_convex_bound(c: ProblemConstants, k: int,
                          schedule: PolynomialDecay) -> float:
    """Nonasymptotic bound on E[||x^k - x*||^2] for mu_k = mu0/k^gamma.

    gamma in (0,1) uses the phi-exponent form; gamma = 1 splits on theta0
    against 1/e.  Branch selection is exact; the three gamma = 1 expressions
    do not agree at the boundary.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mu0, gamma = schedule.mu0, schedule.gamma
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    th0 = mean_theta_sq(c.sigmas, mu0)
    if not 0.0 < th0 < 1.0:
        raise ValueError(f"theta0 = {th0} outside (0, 1)")
    r0sq = c.r0 ** 2
    mu0sq = mu0 ** 2
    if gamma < 1.0:
        D = c.cal_d(schedule, kappa_power=1)
        head = th0 ** phi(1.0 - gamma, k) * r0sq
        expo = phi(1.0 - gamma, k) - phi(1.0 - gamma, (k + 1) / 2.0)
        mid = D * th0 ** expo * mu0sq * (phi(1.0 - 2.0 * gamma, (k + 1) / 2.0) + 2.0)
        tail = D * mu0sq * 4.0 ** gamma / ((1.0 - th0) * k ** gamma)
        return head + mid + tail
    head = th0 ** phi(0.0, k) * r0sq
    lam = math.log(1.0 / th0)
    boundary = 1.0 / math.e
    if th0 < boundary:
        tail = 2.0 * mu0sq / (k * (lam - 1.0))
    elif th0 == boundary:
        tail = 2.0 * mu0sq * math.log(k) / k
    else:
        tail = (2.0 / k) ** lam * mu0sq / (1.0 - lam)
    return head + tail


def bound_overlay(c: ProblemConstants, algorithm: str,
                  schedule: PolynomialDecay,
                  ks: Array) -> tuple[Array, Array] | None:
    """(ks, values) of a cell's bound overlay: the constant-step envelope at
    every k if gamma = 0, the strongly convex bound at k >= 1 if 0 < gamma <= 1
    outside rspp; None for any other cell or on an evaluator's ValueError."""
    mu0, gamma = schedule.mu0, schedule.gamma
    try:
        if gamma == 0:
            return ks, np.array([constant_step_envelope(c, mu0, int(k))[0]
                                 for k in ks])
        if algorithm != "rspp" and 0 < gamma <= 1:
            ks = ks[ks >= 1]
            return ks, np.array([strongly_convex_bound(c, int(k), schedule)
                                 for k in ks])
    except ValueError:
        pass
    return None


def iteration_complexity(epsilon: float, schedule: PolynomialDecay,
                         c: ProblemConstants) -> int:
    """Smallest k with strongly_convex_bound(c, k, schedule) <= epsilon.

    Found by doubling into the monotone tail of the bound and bisecting the
    crossing.  Raises if the bound is still above epsilon at ``ITERATION_CAP``.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon = {epsilon} must be positive and finite")

    def ok(k):
        return strongly_convex_bound(c, k, schedule) <= epsilon

    if ok(1):
        return 1
    hi = 2
    while not ok(hi):
        hi *= 2
        if hi > ITERATION_CAP:
            raise ValueError(
                f"bound never reaches epsilon within {ITERATION_CAP}")
    lo = hi // 2  # ok(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def rspp_plan(epsilon: float, schedule: PolynomialDecay,
              c: ProblemConstants) -> tuple[int, float]:
    """Epoch count and total-iteration lower bound for the restarted scheme.

    T = ceil(max{ln(2 r0^2/eps)/ln(1/theta0), (2^(gamma+1) D_r C / eps)^(1/gamma)})
    (at least 1), with total inner iterations at least T^(1+gamma)/(1+gamma);
    raises when that total exceeds ``ITERATION_CAP``.  At r0 = 0 the first
    term, which bounds the r0^2 head, is taken as 0.  The constant C's
    1/(2(1-gamma) ln(1/sqrt(theta0))) term is derived for gamma < 1 only and
    is degenerate at gamma >= 1; it is dropped there.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon = {epsilon} must be positive and finite")
    mu1, gamma = schedule.mu0, schedule.gamma  # mu_t = mu0/t^gamma at t = 1
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    th0 = mean_theta_sq(c.sigmas, mu1)
    if not 0.0 < th0 < 1.0:
        raise ValueError(f"theta0 = {th0} outside (0, 1)")
    Dr = c.cal_d(schedule, kappa_power=2)
    C = mu1 ** 2 / (1.0 - th0) ** 2
    if gamma < 1.0:
        C += 1.0 / (2.0 * (1.0 - gamma) * math.log(1.0 / math.sqrt(th0)))
    arg1 = (math.log(2.0 * c.r0 ** 2 / epsilon) / math.log(1.0 / th0)
            if c.r0 > 0 else 0.0)
    try:
        arg2 = (2.0 ** (gamma + 1.0) * Dr * C / epsilon) ** (1.0 / gamma)
    except OverflowError:  # far beyond the cap
        arg2 = math.inf
    t = max(arg1, arg2)
    # total <= cap reads T <= ((1+gamma) cap)^(1/(1+gamma)): no power overflows
    if not t <= math.floor(((1.0 + gamma) * ITERATION_CAP)
                           ** (1.0 / (1.0 + gamma))):
        raise ValueError(f"bound never reaches epsilon within {ITERATION_CAP}")
    T = max(1, math.ceil(t))
    return T, T ** (1.0 + gamma) / (1.0 + gamma)

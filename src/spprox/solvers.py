"""The four iterative schemes: SPP, averaged SPP, SGD, and restarted SPP.

One loop, ``run``, serves all four: SPP's step x <- project_{X_S}(prox_{mu
f(.;S)}(x)) (a projected gradient step for the SGD baseline) with the
iterate, the stepsize-weighted average, or an epoch restart as output.  All
share the sampling contract of ``StochasticProblem`` and emit a ``RunTrace``
of per-iteration metrics.  One run is strictly sequential; Monte-Carlo
repetitions parallelize at the harness level with independently seeded
sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import dist_intersection
from .core import Array, RandomSource, StochasticProblem
from .schedules import PolynomialDecay, StepsizeSchedule

DIVERGENCE_NORM = 1e12

ALGORITHMS = ("spp", "aspp", "sgd", "rspp")


class SolverError(RuntimeError):
    """Non-finite iterate in a prox scheme; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):  # a pool worker's error must unpickle in the parent
        return type(self), (self.args[0], self.iteration)


@dataclass
class SolverConfig:
    """Algorithm choice plus run parameters.

    ``iterations`` is the budget K for spp/aspp/sgd; ``epochs`` is the
    restart budget T for rspp (the schedule must then be a polynomial decay,
    whose mu0/gamma define the per-epoch stepsize mu_t = mu0 / t^gamma and
    length K_t = ceil(t^gamma)).  Metrics are recorded at every iteration
    index divisible by ``stride`` (so a full run yields
    floor(K / stride) + 1 records).
    """

    algorithm: str
    schedule: StepsizeSchedule
    iterations: int = 0
    epochs: int = 0
    seed: int = 0
    stride: int = 1
    x0: Array | None = None
    feas_tol: float = 1e-10
    record_feasibility: bool = True

    def validate(self, dim: int) -> Array:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.algorithm == "rspp":
            if self.epochs < 1:
                raise ValueError("rspp needs epochs >= 1")
            if not isinstance(self.schedule, PolynomialDecay):
                raise ValueError("rspp needs a PolynomialDecay schedule")
        elif self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.x0 is None:
            return np.zeros(dim)
        x0 = np.asarray(self.x0, dtype=np.float64)
        if x0.shape != (dim,):
            raise ValueError(f"x0 must have shape ({dim},)")
        return x0.copy()


@dataclass
class RunTrace:
    """Per-iteration metrics of one solver run.

    ``sqdist``/``feas``/``objective``/``test_obj`` refer to the algorithm's
    output point at the recorded iteration (the running weighted average for
    aspp, the iterate otherwise); entries are NaN where a metric is
    unavailable (unknown optimum, feasibility recording disabled, no test
    objective).
    """

    algorithm: str
    ks: Array
    stepsizes: Array
    sqdist: Array
    feas: Array
    objective: Array
    test_obj: Array
    final: Array
    final_average: Array | None = None
    iterate_sqdist: Array | None = None
    epoch_ends: list = field(default_factory=list)
    epoch_stepsizes: list = field(default_factory=list)
    epoch_lengths: list = field(default_factory=list)
    epoch_outputs: list = field(default_factory=list)
    diverged: bool = False
    diverged_at: int | None = None
    max_sampled_violation: float = 0.0


class _Recorder:
    def __init__(self, problem: StochasticProblem, config: SolverConfig,
                 track_iterate: bool = False):
        self.problem = problem
        self.config = config
        self.ks = []
        self.steps = []
        self.sqdist = []
        self.feas = []
        self.obj = []
        self.ftest = []
        self.iterate_sqdist = [] if track_iterate else None

    def record(self, k: int, point: Array, stepsize: float, iterate: Array):
        p = self.problem
        self.ks.append(k)
        self.steps.append(stepsize)
        if p.x_star is not None:
            d = point - p.x_star
            self.sqdist.append(float(np.dot(d, d)))
        else:
            self.sqdist.append(math.nan)
        if self.config.record_feasibility:
            self.feas.append(dist_intersection(
                p.constraints, point, tol=self.config.feas_tol))
        else:
            self.feas.append(math.nan)
        self.obj.append(p.objective(point))
        if p.test_objective is not None:
            self.ftest.append(float(p.test_objective(point)))
        else:
            self.ftest.append(math.nan)
        if self.iterate_sqdist is not None:
            if p.x_star is not None:
                d = iterate - p.x_star
                self.iterate_sqdist.append(float(np.dot(d, d)))
            else:
                self.iterate_sqdist.append(math.nan)

    def build(self, algorithm: str, final: Array, **extra) -> RunTrace:
        it = (np.array(self.iterate_sqdist)
              if self.iterate_sqdist is not None else None)
        return RunTrace(
            algorithm=algorithm,
            ks=np.array(self.ks, dtype=np.int64),
            stepsizes=np.array(self.steps),
            sqdist=np.array(self.sqdist),
            feas=np.array(self.feas),
            objective=np.array(self.obj),
            test_obj=np.array(self.ftest),
            final=final.copy(),
            iterate_sqdist=it,
            **extra)


def rspp_schedule(mu0: float, gamma: float, epochs: int):
    """Per-epoch stepsizes mu_t = mu0/t^gamma and lengths K_t = ceil(t^gamma)."""
    ts = np.arange(1, epochs + 1, dtype=np.float64)
    mu_ts = mu0 / ts ** gamma
    k_ts = np.ceil(ts ** gamma).astype(np.int64)
    return mu_ts, k_ts


def epochs_for_budget(gamma: float, iterations: int) -> int:
    """Largest T whose total inner iterations sum(ceil(t^gamma)) fit the budget."""
    total = 0
    t = 0
    while True:
        nxt = total + math.ceil((t + 1) ** gamma)
        if nxt > iterations and t >= 1:
            return t
        t += 1
        total = nxt
        if t > 10_000_000:  # pragma: no cover
            raise ValueError("budget too large")


def run(problem: StochasticProblem, config: SolverConfig,
        rng: RandomSource | None = None) -> RunTrace:
    """One run of ``config.algorithm``.

    Every iteration samples one (loss, set) pair i.i.d. from the problem
    distribution and sets x <- project_{X_S}(step(x)).  The step is the
    proximal point prox_{mu f(.;S)}(x) for spp/aspp/rspp and the gradient
    step x - mu grad f(x;S) for sgd; the projection onto the sampled set
    keeps the two matched in per-iteration cost.  The schemes differ in
    their output:

    * spp and sgd report the iterate;
    * aspp reports the running average xhat^k = (sum_{i<k} mu_i x^i) /
      (sum_{i<k} mu_i) (with xhat^0 := x^0), and ``iterate_sqdist`` tracks
      the raw iterate;
    * rspp runs epoch t for K_t = ceil(t^gamma) iterations at the constant
      stepsize mu_t = mu0/t^gamma and restarts from the plain average of the
      epoch's iterates (the stepsize-weighted average under a constant
      stepsize); the trace records the inner iterates on the global
      iteration counter plus the epoch boundaries and outputs.

    A non-finite iterate raises ``SolverError`` in a prox scheme.  For sgd,
    divergence (norm above 1e12, or a non-finite iterate) is an observable
    outcome: the trace is truncated and flagged, not raised.
    """
    alg = config.algorithm
    x = config.validate(problem.dim)
    rng = rng if rng is not None else RandomSource(config.seed)
    sgd, averaged, restarted = alg == "sgd", alg == "aspp", alg == "rspp"
    if restarted:
        sched: PolynomialDecay = config.schedule  # validated
        mu_ts, k_ts = rspp_schedule(sched.mu0, sched.gamma, config.epochs)
        mus = np.repeat(mu_ts, k_ts)
        epoch_ends = np.cumsum(k_ts).tolist()
    else:
        mus = config.schedule.block(0, config.iterations)
    K = len(mus)
    li, ci = problem.sample_indices(rng, K)
    rec = _Recorder(problem, config, track_iterate=averaged)
    wavg, wsum = np.zeros_like(x), 0.0
    epoch_outputs = []
    max_viol = 0.0
    diverged_at = None
    for k in range(K + 1):
        if k % config.stride == 0:
            point = (wavg / wsum) if (averaged and k > 0) else x
            mu_k = (float(mus[min(k, K - 1)]) if restarted
                    else config.schedule.at(k))
            rec.record(k, point, mu_k, iterate=x)
        if k == K:
            break
        mu = float(mus[k])
        if averaged or restarted:
            wavg += mu * x if averaged else x
            wsum += mu if averaged else 1.0
        loss = problem.losses[li[k]]
        cons = problem.constraints[ci[k]]
        x = cons.project(x - mu * loss.gradient(x) if sgd
                         else loss.prox(x, mu))
        v = cons.distance(x)
        if v > max_viol:
            max_viol = v
        s = float(np.dot(x, x))
        if not math.isfinite(s) or (sgd and s > DIVERGENCE_NORM ** 2):
            if not sgd:
                raise SolverError(
                    f"non-finite iterate at iteration {k + 1}", k + 1)
            diverged_at = k + 1
            break
        if restarted and k + 1 == epoch_ends[len(epoch_outputs)]:
            x = wavg / wsum  # restart from the epoch average
            epoch_outputs.append(x.copy())
            wavg, wsum = np.zeros_like(x), 0.0
    extra = {}
    if averaged:
        extra = dict(final_average=wavg / wsum)
    elif restarted:
        extra = dict(final_average=x.copy(), epoch_ends=epoch_ends,
                     epoch_stepsizes=list(map(float, mu_ts)),
                     epoch_lengths=list(map(int, k_ts)),
                     epoch_outputs=epoch_outputs)
    return rec.build(alg, x, diverged=diverged_at is not None,
                     diverged_at=diverged_at, max_sampled_violation=max_viol,
                     **extra)

"""The four iterative schemes: SPP, averaged SPP, SGD, and restarted SPP.

All four share the sampling contract of ``StochasticProblem`` and emit a
``RunTrace`` of per-iteration metrics.  One run is strictly sequential;
Monte-Carlo repetitions parallelize at the harness level with independently
seeded sources.
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

    def record(self, k: int, point: Array, stepsize: float,
               iterate: Array | None = None):
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
        if self.iterate_sqdist is not None and iterate is not None:
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


def _finite(x: Array) -> bool:
    s = float(np.dot(x, x))
    return math.isfinite(s)


def _run_prox(problem: StochasticProblem, config: SolverConfig,
              rng: RandomSource | None, averaged: bool) -> RunTrace:
    x = config.validate(problem.dim)
    rng = rng if rng is not None else RandomSource(config.seed)
    K = config.iterations
    stride = config.stride
    li, ci = problem.sample_indices(rng, K)
    mus = config.schedule.block(0, K)
    rec = _Recorder(problem, config, track_iterate=averaged)
    wsum = 0.0
    wavg = np.zeros_like(x)
    max_viol = 0.0
    for k in range(K + 1):
        if k % stride == 0:
            point = (wavg / wsum) if (averaged and k > 0) else x
            rec.record(k, point, config.schedule.at(k), iterate=x)
        if k == K:
            break
        mu = float(mus[k])
        if averaged:
            wavg += mu * x
            wsum += mu
        loss = problem.losses[li[k]]
        cons = problem.constraints[ci[k]]
        x = cons.project(loss.prox(x, mu))
        v = cons.distance(x)
        if v > max_viol:
            max_viol = v
        if not _finite(x):
            raise SolverError(f"non-finite iterate at iteration {k + 1}", k + 1)
    final_average = (wavg / wsum) if averaged else None
    return rec.build("aspp" if averaged else "spp", x,
                     final_average=final_average,
                     max_sampled_violation=max_viol)


def run_spp(problem: StochasticProblem, config: SolverConfig,
            rng: RandomSource | None = None) -> RunTrace:
    """Stochastic proximal point: x <- project_{X_S}(prox_{mu f(.;S)}(x)).

    At every iteration one (loss, constraint) pair is sampled i.i.d. from the
    problem distribution, the iterate moves to the loss's proximal point with
    the current stepsize, and is then projected onto the sampled set.
    """
    if config.algorithm != "spp":
        raise ValueError("config.algorithm must be 'spp'")
    return _run_prox(problem, config, rng, averaged=False)


def run_aspp(problem: StochasticProblem, config: SolverConfig,
             rng: RandomSource | None = None) -> RunTrace:
    """SPP with weighted-average output.

    The iterate recursion is identical to ``run_spp``; the trace metrics are
    those of the running average xhat^k = (sum_{i<k} mu_i x^i)/(sum_{i<k} mu_i)
    (with xhat^0 := x^0), and ``iterate_sqdist`` tracks the raw iterate.
    """
    if config.algorithm != "aspp":
        raise ValueError("config.algorithm must be 'aspp'")
    return _run_prox(problem, config, rng, averaged=True)


def run_sgd(problem: StochasticProblem, config: SolverConfig,
            rng: RandomSource | None = None) -> RunTrace:
    """Projected stochastic gradient baseline.

    x <- project_{X_S}(x - mu_k grad f(x;S)).  The projection onto the
    sampled set mirrors the SPP step so the two schemes stay matched in
    per-iteration cost.  Divergence (norm above 1e12, or a non-finite
    iterate) is an observable outcome: the trace is truncated and flagged,
    not raised.
    """
    if config.algorithm != "sgd":
        raise ValueError("config.algorithm must be 'sgd'")
    x = config.validate(problem.dim)
    rng = rng if rng is not None else RandomSource(config.seed)
    K = config.iterations
    stride = config.stride
    li, ci = problem.sample_indices(rng, K)
    mus = config.schedule.block(0, K)
    rec = _Recorder(problem, config)
    max_viol = 0.0
    diverged = False
    diverged_at = None
    for k in range(K + 1):
        if k % stride == 0:
            rec.record(k, x, config.schedule.at(k))
        if k == K:
            break
        loss = problem.losses[li[k]]
        cons = problem.constraints[ci[k]]
        x = cons.project(x - float(mus[k]) * loss.gradient(x))
        v = cons.distance(x)
        if v > max_viol:
            max_viol = v
        s = float(np.dot(x, x))
        if not math.isfinite(s) or s > DIVERGENCE_NORM ** 2:
            diverged = True
            diverged_at = k + 1
            break
    return rec.build("sgd", x, diverged=diverged, diverged_at=diverged_at,
                     max_sampled_violation=max_viol)


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


def run_rspp(problem: StochasticProblem, config: SolverConfig,
             rng: RandomSource | None = None) -> RunTrace:
    """Restarted SPP.

    Epoch t runs SPP for K_t = ceil(t^gamma) iterations at the constant
    stepsize mu_t = mu0/t^gamma, starting from the previous epoch's output;
    the epoch output is the plain average of that epoch's iterates (the
    stepsize-weighted and plain averages coincide under a constant
    within-epoch stepsize).  The trace records the inner iterates on the
    global iteration counter plus the epoch boundaries and outputs.
    """
    if config.algorithm != "rspp":
        raise ValueError("config.algorithm must be 'rspp'")
    x = config.validate(problem.dim)
    rng = rng if rng is not None else RandomSource(config.seed)
    sched: PolynomialDecay = config.schedule  # validated
    mu_ts, k_ts = rspp_schedule(sched.mu0, sched.gamma, config.epochs)
    total = int(k_ts.sum())
    li, ci = problem.sample_indices(rng, total)
    stride = config.stride
    rec = _Recorder(problem, config)
    epoch_ends, epoch_outputs = [], []
    max_viol = 0.0
    g = 0
    current_mu = float(mu_ts[0])
    for t in range(config.epochs):
        mu = float(mu_ts[t])
        current_mu = mu
        acc = np.zeros_like(x)
        for _ in range(int(k_ts[t])):
            if g % stride == 0:
                rec.record(g, x, current_mu)
            acc += x
            loss = problem.losses[li[g]]
            cons = problem.constraints[ci[g]]
            x = cons.project(loss.prox(x, mu))
            v = cons.distance(x)
            if v > max_viol:
                max_viol = v
            if not _finite(x):
                raise SolverError(f"non-finite iterate at inner iteration {g + 1}",
                                  g + 1)
            g += 1
        x = acc / float(k_ts[t])  # restart from the epoch average
        epoch_ends.append(g)
        epoch_outputs.append(x.copy())
    if g % stride == 0:
        rec.record(g, x, current_mu)
    return rec.build("rspp", x,
                     final_average=x.copy(),
                     epoch_ends=epoch_ends,
                     epoch_stepsizes=list(map(float, mu_ts)),
                     epoch_lengths=list(map(int, k_ts)),
                     epoch_outputs=epoch_outputs,
                     max_sampled_violation=max_viol)


_RUNNERS = {"spp": run_spp, "aspp": run_aspp, "sgd": run_sgd, "rspp": run_rspp}


def run(problem: StochasticProblem, config: SolverConfig,
        rng: RandomSource | None = None) -> RunTrace:
    """Dispatch on config.algorithm."""
    return _RUNNERS[config.algorithm](problem, config, rng)

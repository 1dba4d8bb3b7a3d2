"""The four iterative schemes: SPP, averaged SPP, SGD, and restarted SPP.

One loop, ``run``, serves all four: SPP's step x <- project_{X_S}(prox_{mu
f(.;S)}(x)) (a projected gradient step for the SGD baseline) with the
iterate, the stepsize-weighted average, or an epoch restart as output.  All
share the sampling contract of ``StochasticProblem`` and emit a ``RunTrace``
of per-iteration metrics, computed on the stack of recorded points after
the loop; ``fill_feasibility`` gets the distances to X of the points of any
list of traces from one batched intersection solve.  One run is strictly
sequential; Monte-Carlo repetitions parallelize at the harness level with
independently seeded generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import CERTIFICATE_TOL, dist_intersection
from .core import Array, StochasticProblem
from .schedules import PolynomialDecay

DIVERGENCE_NORM = 1e12

ALGORITHMS = ("spp", "aspp", "sgd", "rspp")


class SolverError(RuntimeError):
    """Non-finite iterate in a prox scheme; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):  # a pool worker's error must unpickle in the parent
        return type(self), (self.args[0], self.iteration)


def check_scheme(algorithm: str, gamma: float) -> None:
    """The problem-independent scheme rules: the algorithm is known, and
    rspp restarts on a decaying stepsize (gamma > 0)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "rspp" and gamma <= 0:
        raise ValueError("rspp needs gamma > 0")


@dataclass
class SolverConfig:
    """Algorithm choice plus run parameters.

    ``iterations`` is the budget K of every scheme.  rspp spends it on the
    most epochs T that fit (``epochs_for_budget``): epoch t runs K_t =
    ceil(t^gamma) steps at mu_t = mu0 / t^gamma, so a run stops at
    sum(K_t) <= K.  Metrics are recorded at every iteration index divisible
    by ``stride`` (so a full run yields floor(K / stride) + 1 records).
    """

    algorithm: str
    schedule: PolynomialDecay
    iterations: int = 0
    seed: int = 0
    stride: int = 1
    x0: Array | None = None
    feas_tol: float = CERTIFICATE_TOL
    record_feasibility: bool = True

    def validate(self, dim: int) -> Array:
        check_scheme(self.algorithm, self.schedule.gamma)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.x0 is None:
            return np.zeros(dim)
        x0 = np.asarray(self.x0, dtype=np.float64)
        if x0.shape != (dim,):
            raise ValueError(f"x0 must have shape ({dim},)")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        return x0.copy()


@dataclass
class RunTrace:
    """Per-iteration metrics of one solver run.

    ``sqdist``/``feas``/``objective``/``test_obj`` refer to the algorithm's
    output point at the recorded iteration (the running weighted average for
    aspp, the iterate otherwise), the rows of ``points``; entries are NaN
    where a metric is unavailable (unknown optimum, feasibility not
    recorded, no test objective).
    """

    algorithm: str
    ks: Array
    stepsizes: Array
    sqdist: Array
    feas: Array
    objective: Array
    test_obj: Array
    final: Array
    points: Array | None = None
    final_average: Array | None = None
    iterate_sqdist: Array | None = None
    epoch_ends: list = field(default_factory=list)
    epoch_stepsizes: list = field(default_factory=list)
    epoch_lengths: list = field(default_factory=list)
    epoch_outputs: list = field(default_factory=list)
    diverged: bool = False
    diverged_at: int | None = None
    max_sampled_violation: float = 0.0


def _sq_distances(points: Array, x_star: Array | None) -> Array:
    """||x - x_star||^2 for every point of a stack (NaN with no optimum)."""
    if x_star is None:
        return np.full(len(points), math.nan)
    d = points - x_star
    return (d * d).sum(axis=1)


def fill_feasibility(problem: StochasticProblem, traces: list,
                     tol: float) -> None:
    """Set every trace's ``feas`` to dist_X of its recorded points, from one
    batched intersection solve of all of them; a point's distance does not
    depend on the batch it is solved in."""
    sizes = [len(t.points) for t in traces]
    dist = dist_intersection(problem.rows, np.concatenate(
        [t.points for t in traces]), tol=tol)
    for t, lo, hi in zip(traces, np.cumsum([0] + sizes), np.cumsum(sizes)):
        t.feas = dist[lo:hi]


def rspp_schedule(mu0: float, gamma: float, epochs: int):
    """Per-epoch stepsizes mu_t = mu0/t^gamma and lengths K_t = ceil(t^gamma)."""
    mu_ts = PolynomialDecay(mu0, gamma).block(1, epochs)
    k_ts = np.ceil(np.arange(1.0, epochs + 1) ** gamma).astype(np.int64)
    return mu_ts, k_ts


def epochs_for_budget(gamma: float, iterations: int) -> int:
    """Largest T >= 1 whose total inner iterations sum(ceil(t^gamma)) fit the
    budget.  The sum is at least T^(1+gamma)/(1+gamma), which caps T."""
    cap = math.floor(((1.0 + gamma) * max(iterations, 1)) ** (1 / (1 + gamma)))
    totals = np.cumsum(rspp_schedule(1.0, gamma, cap + 2)[1])
    return max(1, int(np.count_nonzero(totals <= iterations)))


def run(problem: StochasticProblem, config: SolverConfig,
        rng: np.random.Generator | None = None) -> RunTrace:
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
      stepsize mu_t = mu0/t^gamma, for the most epochs that fit the budget,
      and restarts from the plain average of the epoch's iterates (the
      stepsize-weighted average under a constant stepsize); the trace
      records the inner iterates on the global iteration counter plus the
      epoch boundaries and outputs.

    A non-finite iterate raises ``SolverError`` in a prox scheme.  For sgd,
    divergence (norm above 1e12, or a non-finite iterate) is an observable
    outcome: the trace is truncated and flagged, not raised.  With
    ``record_feasibility`` the run fills its own ``feas``; the harness runs
    without it and fills a cell's or a share's traces as one batch.
    """
    alg = config.algorithm
    x = config.validate(problem.dim)
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    sgd, averaged, restarted = alg == "sgd", alg == "aspp", alg == "rspp"
    if restarted:
        sched = config.schedule
        T = epochs_for_budget(sched.gamma, config.iterations)
        mu_ts, k_ts = rspp_schedule(sched.mu0, sched.gamma, T)
        # the last epoch's stepsize stands for the record at k = K
        mus = np.append(np.repeat(mu_ts, k_ts), mu_ts[-1])
        epoch_ends = np.cumsum(k_ts).tolist()
    else:
        mus = config.schedule.block(0, config.iterations + 1)
    K = len(mus) - 1  # mus[k] steps iteration k and is recorded at k
    li, ci = (a.tolist() for a in problem.sample_indices(rng, K))
    losses, sets, steps = problem.losses, problem.constraints, mus.tolist()
    stride = config.stride
    points, iterates = [], []  # the recorded output points and iterates
    wavg, wsum = np.zeros_like(x), 0.0
    epoch_outputs = []
    max_viol = 0.0
    diverged_at = None
    for k in range(K + 1):
        if k % stride == 0:
            points.append((wavg / wsum) if (averaged and k > 0) else x)
            iterates.append(x)
        if k == K:
            break
        mu = steps[k]
        if averaged or restarted:
            wavg += mu * x if averaged else x
            wsum += mu if averaged else 1.0
        loss, cons = losses[li[k]], sets[ci[k]]
        x = cons.project(x - mu * loss.gradient(x) if sgd
                         else loss.prox(x, mu))
        v = cons.distance(x)
        if v > max_viol:
            max_viol = v
        s = float(x.dot(x))
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
    points = np.array(points)
    ks = stride * np.arange(len(points))
    nan = np.full(len(ks), math.nan)
    test_objective = problem.test_objective
    trace = RunTrace(
        alg, ks, mus[ks], _sq_distances(points, problem.x_star), nan.copy(),
        problem.objective(points),
        nan if test_objective is None else test_objective(points),
        final=x.copy(), points=points,
        iterate_sqdist=(_sq_distances(np.array(iterates), problem.x_star)
                        if averaged else None),
        diverged=diverged_at is not None, diverged_at=diverged_at,
        max_sampled_violation=max_viol, **extra)
    if config.record_feasibility:
        fill_feasibility(problem, [trace], config.feas_tol)
    return trace

import math
import re
import time

import numpy as np
import pytest
from scipy import stats

from conftest import random_component
from spprox import (BatchLeastSquares, Halfspace, PolynomialDecay,
                    QuadraticNorm, RandomSource,
                    SolverConfig, SolverError, StochasticProblem, WholeSpace,
                    epochs_for_budget, parse_config, rspp_schedule, run)
from spprox.components import LossComponent
from spprox.schedules import mean_theta_sq


def _half_sq_dist(dim, center):
    """f(x) = 0.5 ||x - center||^2 as a batch component."""
    s = 1.0 / math.sqrt(2.0)
    return BatchLeastSquares(s * np.eye(dim), s * np.asarray(center))


def _single(comp, constraint, x_star=None, **kw):
    return StochasticProblem([comp], [constraint], comp.dim, x_star=x_star, **kw)


def test_spp_deterministic_recursion():
    c = np.array([1.5, -2.0, 0.5])
    prob = _single(_half_sq_dist(3, c), WholeSpace(3), x_star=c, kappa=1.0)
    mu = 0.7
    x0 = np.array([4.0, 1.0, -3.0])
    cfg = SolverConfig("spp", PolynomialDecay(mu, 0), iterations=100, stride=1,
                       x0=x0, record_feasibility=False)
    tr = run(prob, cfg, RandomSource(0))
    for j, k in enumerate(tr.ks):
        expected = np.linalg.norm((x0 - c) / (1.0 + mu) ** int(k)) ** 2
        assert abs(tr.sqdist[j] - expected) <= 1e-12 * (1.0 + expected)


def test_spp_converges_inside_halfspace():
    c = np.array([-1.0, 0.5])
    h = Halfspace(np.array([1.0, 0.0]), 0.0)  # contains the minimizer
    prob = _single(_half_sq_dist(2, c), h, x_star=c, kappa=1.0)
    cfg = SolverConfig("spp", PolynomialDecay(0.5, 0), iterations=200, stride=20,
                       x0=np.array([3.0, 3.0]))
    tr = run(prob, cfg, RandomSource(1))
    assert tr.sqdist[-1] < 1e-8
    assert tr.feas[-1] < 1e-8


def test_spp_decay_on_desk_instance(desk_ls):
    # one-pass decay factor between k = 200 and k = 2000, 30 seeds
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 1.0), iterations=2000,
                       stride=200, record_feasibility=False)
    traces = [run(desk_ls, cfg, RandomSource(500 + i)) for i in range(30)]
    sq = np.mean([t.sqdist for t in traces], axis=0)
    k200 = list(traces[0].ks).index(200)
    assert sq[k200] / sq[-1] >= 5.0


def test_aspp_constant_stepsize_average_is_plain_mean():
    prob = _single(_half_sq_dist(2, np.zeros(2)), WholeSpace(2),
                   x_star=np.zeros(2), kappa=1.0)
    cfg = SolverConfig("aspp", PolynomialDecay(0.6, 0), iterations=12, stride=1,
                       x0=np.array([2.0, -1.0]))
    tr = run(prob, cfg, RandomSource(2))
    # replay the iterate recursion by hand
    x = np.array([2.0, -1.0])
    iterates = [x.copy()]
    for _ in range(12):
        x = x / 1.6
        iterates.append(x.copy())
    mean_11 = np.mean(iterates[:-1], axis=0)
    assert np.allclose(tr.final_average, mean_11, atol=1e-14)


def test_aspp_first_average_is_start():
    prob = _single(_half_sq_dist(2, np.ones(2)), WholeSpace(2),
                   x_star=np.ones(2), kappa=1.0)
    x0 = np.array([3.0, 0.0])
    cfg = SolverConfig("aspp", PolynomialDecay(1.0, 0), iterations=1, stride=1,
                       x0=x0)
    tr = run(prob, cfg, RandomSource(3))
    assert np.allclose(tr.final_average, x0)


def test_aspp_average_lags_deterministic_iterate():
    c = np.array([1.0, 1.0])
    prob = _single(_half_sq_dist(2, c), WholeSpace(2), x_star=c, kappa=1.0)
    cfg = SolverConfig("aspp", PolynomialDecay(1.0, 0), iterations=60, stride=1,
                       x0=np.array([5.0, -3.0]))
    tr = run(prob, cfg, RandomSource(4))
    assert tr.sqdist[-1] >= tr.iterate_sqdist[-1]


def test_sgd_linear_recursion():
    c = np.array([0.5, 2.0])
    prob = _single(_half_sq_dist(2, c), WholeSpace(2), x_star=c, kappa=1.0)
    mu = 0.8
    x0 = np.array([4.0, 4.0])
    cfg = SolverConfig("sgd", PolynomialDecay(mu, 0), iterations=50, stride=1,
                       x0=x0)
    tr = run(prob, cfg, RandomSource(5))
    for j, k in enumerate(tr.ks):
        expected = np.linalg.norm((1 - mu) ** int(k) * (x0 - c)) ** 2
        assert abs(tr.sqdist[j] - expected) <= 1e-10 * (1.0 + expected)


def test_sgd_divergence_flagged():
    c = np.zeros(2)
    prob = _single(_half_sq_dist(2, c), WholeSpace(2), x_star=c, kappa=1.0)
    cfg = SolverConfig("sgd", PolynomialDecay(3.0, 0), iterations=100, stride=10,
                       x0=np.array([1.0, 1.0]))
    tr = run(prob, cfg, RandomSource(6))
    assert tr.diverged
    assert tr.diverged_at is not None
    assert np.all(np.isfinite(tr.sqdist))


def test_rspp_schedule_values():
    mu_ts, k_ts = rspp_schedule(1.0, 1.0, 5)
    assert mu_ts[2] == pytest.approx(1.0 / 3.0)
    assert k_ts[2] == 3
    # total iterations dominate the stated lower bound
    _, k10 = rspp_schedule(1.0, 1.0, 10)
    assert k10.sum() == 55 >= 10 ** 2 / 2


def test_rspp_single_epoch_equals_aspp():
    prob = _single(_half_sq_dist(3, np.ones(3)), WholeSpace(3),
                   x_star=np.ones(3), kappa=1.0)
    x0 = np.array([2.0, 0.0, -2.0])
    cfg_r = SolverConfig("rspp", PolynomialDecay(0.8, 1.0), iterations=1,
                         stride=1, x0=x0)
    cfg_a = SolverConfig("aspp", PolynomialDecay(0.8, 0), iterations=1, stride=1,
                         x0=x0)
    tr_r = run(prob, cfg_r, RandomSource(7))
    tr_a = run(prob, cfg_a, RandomSource(7))
    assert np.array_equal(tr_r.final_average, tr_a.final_average)


def test_rspp_restarts_from_epoch_average(small_ls):
    cfg = SolverConfig("rspp", PolynomialDecay(1.0, 1.0), iterations=21,
                       stride=1, record_feasibility=False)
    tr = run(small_ls, cfg, RandomSource(8))
    assert tr.epoch_lengths == [1, 2, 3, 4, 5, 6]
    assert tr.epoch_ends == [1, 3, 6, 10, 15, 21]
    assert np.allclose(tr.epoch_stepsizes, [1.0 / t for t in range(1, 7)])
    assert np.array_equal(tr.final, tr.epoch_outputs[-1])
    # each record carries the stepsize of the epoch running at k; k = K
    # (the last restart point) carries the last epoch's
    assert tr.ks[-1] == tr.epoch_ends[-1] == 21
    for k, mu in zip(tr.ks, tr.stepsizes):
        t = min(int(np.searchsorted(tr.epoch_ends, k, side="right")),
                len(tr.epoch_ends) - 1)
        assert mu == tr.epoch_stepsizes[t]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_rspp_spends_the_iteration_budget_on_whole_epochs(gamma):
    prob = _single(_half_sq_dist(2, np.ones(2)), WholeSpace(2),
                   x_star=np.ones(2))
    totals = np.cumsum(rspp_schedule(1.0, gamma, 7)[1])
    for T, (total, next_total) in enumerate(zip(totals, totals[1:]), 1):
        for budget in range(total, next_total):
            cfg = SolverConfig("rspp", PolynomialDecay(1.0, gamma),
                               iterations=int(budget), stride=1,
                               record_feasibility=False)
            tr = run(prob, cfg, RandomSource(3))
            assert len(tr.epoch_ends) == T, budget
            assert tr.epoch_ends[-1] == total == tr.ks[-1], budget


def _parse_cell(tmp_path, algorithm, gamma):
    path = tmp_path / "cell.ini"
    path.write_text(f"[solvers]\nalgorithms = {algorithm}\nmu0 = 1\n"
                    f"gamma = {gamma}\n")
    parse_config(path)


def _validate_cell(tmp_path, algorithm, gamma):
    SolverConfig(algorithm, PolynomialDecay(1.0, gamma),
                 iterations=5).validate(2)


@pytest.mark.parametrize("entry", [_parse_cell, _validate_cell],
                         ids=["parse_config", "SolverConfig.validate"])
@pytest.mark.parametrize("algorithm,gamma,message", [
    ("nope", 1, "unknown algorithm 'nope'"),
    ("rspp", 0, "rspp needs gamma > 0"),
], ids=["unknown", "rspp-constant"])
def test_scheme_rules_read_the_same_at_both_entry_points(
        tmp_path, entry, algorithm, gamma, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(tmp_path, algorithm, gamma)


def test_epochs_for_budget():
    assert epochs_for_budget(1.0, 55) == 10
    assert epochs_for_budget(1.0, 54) == 9
    assert epochs_for_budget(0.5, 1) == 1


def _epochs_for_budget_loop(gamma, iterations):
    """The epoch count as a scalar loop over ceil(t^gamma): the oracle."""
    total = 0
    t = 0
    while True:
        nxt = total + math.ceil((t + 1) ** gamma)
        if nxt > iterations and t >= 1:
            return t
        t += 1
        total = nxt


@pytest.mark.parametrize("gamma", [0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0,
                                   1.5, 2.0])
def test_epochs_for_budget_matches_loop(gamma):
    for budget in range(1, 3001):
        assert (epochs_for_budget(gamma, budget)
                == _epochs_for_budget_loop(gamma, budget)), budget


def test_epochs_for_budget_large_budget_is_fast():
    t0 = time.perf_counter()
    T = epochs_for_budget(0.5, 10 ** 6)
    assert time.perf_counter() - t0 < 1.0
    assert T == _epochs_for_budget_loop(0.5, 10 ** 6)
    assert np.sum(rspp_schedule(1.0, 0.5, T)[1]) <= 10 ** 6
    assert np.sum(rspp_schedule(1.0, 0.5, T + 1)[1]) > 10 ** 6


def test_seed_determinism(small_ls):
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0.5), iterations=120,
                       stride=10, seed=99, record_feasibility=False)
    t1 = run(small_ls, cfg)
    t2 = run(small_ls, cfg)
    assert np.array_equal(t1.sqdist, t2.sqdist)
    assert np.array_equal(t1.final, t2.final)


def test_spp_step_equals_moreau_gradient_step():
    rng = RandomSource(9)
    for _ in range(100):
        dim = 2 + rng.integers(3)
        comp = random_component(rng, dim)
        x = rng.normal(dim)
        mu = 0.1 + float(rng.uniform())
        lhs = x - mu * comp.moreau_gradient(x, mu)
        assert np.allclose(lhs, comp.prox(x, mu), atol=1e-12)


def test_boundedness_cap_strongly_convex(small_ls):
    mu0 = 1.0
    th0 = mean_theta_sq(small_ls.sigma_values(), mu0)
    eta = math.sqrt(small_ls.exp_grad_norm_sq(small_ls.x_star))
    r0 = float(np.linalg.norm(small_ls.x_star))
    cap = max(r0, mu0 * eta / (1.0 - math.sqrt(th0)))
    cfg = SolverConfig("spp", PolynomialDecay(mu0, 1.0), iterations=240,
                       stride=20, record_feasibility=False)
    sq = np.array([run(small_ls, cfg, RandomSource(600 + i)).sqdist
                   for i in range(30)])
    mean = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(30)
    assert np.all(np.sqrt(mean) <= cap + 3 * np.sqrt(se))


def test_feasibility_trend_spearman(small_ls):
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 1.0), iterations=240,
                       stride=24, record_feasibility=True)
    feas_sq = np.mean([run(small_ls, cfg, RandomSource(700 + i)).feas ** 2
                       for i in range(30)], axis=0)
    rho, _ = stats.spearmanr(np.arange(len(feas_sq)), feas_sq)
    assert rho < 0.0


def test_trace_record_count_and_finiteness(small_ls):
    for stride, K in ((10, 240), (7, 240), (300, 240)):
        cfg = SolverConfig("spp", PolynomialDecay(1.0, 1.0), iterations=K,
                           stride=stride)
        tr = run(small_ls, cfg, RandomSource(11))
        assert len(tr.ks) == K // stride + 1
        assert np.all(np.isfinite(tr.sqdist))
        assert np.all(np.isfinite(tr.objective))
        assert np.all(np.isfinite(tr.feas))
        assert tr.max_sampled_violation <= 1e-9


@pytest.mark.parametrize("algorithm", ["spp", "aspp", "sgd"])
def test_recorded_stepsize_is_the_one_stepped(small_ls, algorithm):
    # at gamma = 0.75, mu0 / k**gamma in Python and in numpy differ by an
    # ulp at some k; the record must carry the value the step used
    K, schedule = 1000, PolynomialDecay(1.0, 0.75)
    cfg = SolverConfig(algorithm, schedule, iterations=K, stride=20,
                       record_feasibility=False)
    tr = run(small_ls, cfg, RandomSource(3))
    assert len(tr.ks) == 51
    assert np.array_equal(tr.stepsizes, schedule.block(0, K + 1)[tr.ks])


class _PoisonComponent(LossComponent):
    kind = "poison"

    def __init__(self, dim):
        super().__init__(dim, sigma=0.0, lips_grad=1.0)

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.full(self.dim, np.nan)

    def prox(self, x, mu):
        return np.full(self.dim, np.nan)


@pytest.mark.parametrize("algorithm,schedule,budget", [
    ("spp", PolynomialDecay(1.0, 0), {"iterations": 5}),
    ("aspp", PolynomialDecay(1.0, 0), {"iterations": 5}),
    ("rspp", PolynomialDecay(1.0, 1.0), {"iterations": 1}),
], ids=["spp", "aspp", "rspp"])
def test_non_finite_iterate_raises_with_index(algorithm, schedule, budget):
    prob = StochasticProblem([_PoisonComponent(2)], [WholeSpace(2)], 2)
    cfg = SolverConfig(algorithm, schedule, stride=1, **budget)
    with pytest.raises(SolverError) as err:
        run(prob, cfg, RandomSource(12))
    assert err.value.iteration == 1


def test_non_finite_sgd_iterate_is_flagged_divergence():
    prob = StochasticProblem([_PoisonComponent(2)], [WholeSpace(2)], 2)
    cfg = SolverConfig("sgd", PolynomialDecay(1.0, 0), iterations=5, stride=1)
    tr = run(prob, cfg, RandomSource(12))
    assert tr.diverged and tr.diverged_at == 1
    assert list(tr.ks) == [0]


def test_config_validation():
    sched = PolynomialDecay(1.0, 0)
    with pytest.raises(ValueError):
        SolverConfig("spp", sched, iterations=0).validate(2)
    with pytest.raises(ValueError, match="gamma"):
        SolverConfig("rspp", sched, iterations=3).validate(2)  # gamma > 0
    with pytest.raises(ValueError):
        SolverConfig("nope", sched, iterations=5).validate(2)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("algorithm", ["sgd", "spp"])
def test_non_finite_x0_rejected(algorithm, record, capfd):
    # not a divergence at iteration 1, nor a failed SVD in the recorder
    prob = _single(_half_sq_dist(2, [1.0, 2.0]),
                   Halfspace(np.array([1.0, 0.0]), 0.5),
                   x_star=np.array([0.5, 2.0]))
    for bad in (np.nan, np.inf):
        cfg = SolverConfig(algorithm, PolynomialDecay(1.0, 0), iterations=5,
                           x0=np.array([bad, 0.0]), record_feasibility=record)
        with pytest.raises(ValueError, match="x0"):
            run(prob, cfg, RandomSource(0))
    assert "DLASCL" not in capfd.readouterr().err

"""Acceptance gate: one test per criterion, each printing a PASS line.

Monte-Carlo cells over the shared desk-scale instances are cached at module
scope so criteria that share a configuration reuse the same runs.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import prox_oracle, random_component, random_set
from spprox import (BatchLeastSquares, Cell, ExperimentConfig,
                    GeneratorSpec, PolynomialDecay, ProblemConstants,
                    SolverConfig,
                    StochasticProblem, WholeSpace, build_markowitz,
                    constant_step_envelope, estimate_kappa, fill_feasibility,
                    gen_feasibility, run, run_experiment, rspp_plan,
                    rspp_schedule, strongly_convex_bound, synth_returns)
from spprox.constraints import project_intersection
from spprox.schedules import mean_theta_sq
from spprox.harness import log_log_slope

BASE_SEED = 500
RUNS = 30

_cells = {}


def mc_runs(problem, key, algorithm, schedule, iterations, stride,
            record_feasibility=False, x0=None, runs=RUNS, base=BASE_SEED):
    """Cached Monte-Carlo cell: list of traces with seeds base + i."""
    if key not in _cells:
        cfg = SolverConfig(algorithm, schedule, iterations=iterations,
                           stride=stride, x0=x0)
        _cells[key] = [run(problem, cfg, np.random.default_rng(base + i))
                       for i in range(runs)]
        if record_feasibility:
            fill_feasibility(problem, _cells[key])
    return _cells[key]


def mean_se(traces, attr="sqdist"):
    stack = np.array([getattr(t, attr) for t in traces])
    return (stack.mean(axis=0),
            stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0]))


@pytest.fixture(scope="module")
def kappa_hat(desk_ls):
    return estimate_kappa(desk_ls, 40, np.random.default_rng(123))


def test_criterion_01_operator_properties():
    """Gradient-norm domination, prox contraction, firm nonexpansiveness."""
    rng = np.random.default_rng(1001)
    pool = [random_component(rng, 2 + rng.integers(4)) for _ in range(800)]
    sets = [random_set(rng, d) for d in (2, 3, 4, 5) for _ in range(100)]
    start = time.monotonic()
    violations = 0
    for _ in range(10_000):
        comp = pool[rng.integers(len(pool))]
        dim = comp.dim
        x = 2.0 * rng.standard_normal(dim)
        y = 2.0 * rng.standard_normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        # gradient-norm domination of the envelope gradient
        if (np.linalg.norm(comp.moreau_gradient(x, mu))
                > np.linalg.norm(comp.gradient(x)) + 1e-9):
            violations += 1
        # prox contraction with factor 1/(1 + mu sigma)
        lhs = np.linalg.norm(comp.prox(x, mu) - comp.prox(y, mu))
        if lhs > np.linalg.norm(x - y) / (1.0 + mu * comp.sigma) + 1e-9:
            violations += 1
        # firm nonexpansiveness of the projection at a feasible z
        s = sets[(rng.integers(100)) + 100 * (dim - 2)]
        p = s.project(x)
        z = s.project(3.0 * rng.standard_normal(dim))
        gap = (np.linalg.norm(x - p) ** 2
               - (np.linalg.norm(x - z) ** 2 - np.linalg.norm(z - p) ** 2))
        if gap > 1e-9:
            violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 0 violations over 10^4 triples in {elapsed:.1f}s")


def test_criterion_02_prox_vs_bruteforce():
    """Closed-form/iterative prox against grid+golden-section or normal equations."""
    rng = np.random.default_rng(2002)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        dim = 1 + rng.integers(5)
        comp = random_component(rng, dim)
        x = 2.0 * rng.standard_normal(dim)
        mu = 0.05 + 2.0 * float(rng.uniform())
        err = float(np.linalg.norm(comp.prox(x, mu) - prox_oracle(comp, x, mu)))
        worst = max(worst, err / (1.0 + float(np.linalg.norm(x))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    print(f"criterion 2 PASS: max prox error {worst:.2e} over 10^3 instances "
          f"in {elapsed:.1f}s")


def test_criterion_03_deterministic_recursion():
    """Single quadratic, constant stepsize: exact geometric decay."""
    c = np.array([2.0, -1.0, 0.5, 3.0])
    s = 1.0 / math.sqrt(2.0)
    comp = BatchLeastSquares(s * np.eye(4), s * c)
    prob = StochasticProblem([comp], [WholeSpace(4)], 4, x_star=c, kappa=1.0)
    mu = 0.6
    x0 = np.array([5.0, 2.0, -4.0, 1.0])
    cfg = SolverConfig("spp", PolynomialDecay(mu, 0), iterations=100, stride=1,
                       x0=x0)
    tr = run(prob, cfg, np.random.default_rng(3))
    worst = 0.0
    for j, k in enumerate(tr.ks):
        expected = float(np.sum(((x0 - c) / (1.0 + mu) ** int(k)) ** 2))
        worst = max(worst, abs(tr.sqdist[j] - expected) / (1.0 + expected))
    assert worst <= 1e-12
    print(f"criterion 3 PASS: recursion matched to {worst:.2e} for k <= 100")


def test_criterion_04_rate_law(desk_ls):
    """Fitted log-log slopes over the last decade, one pass, 30 runs."""
    start = time.monotonic()
    tr1 = mc_runs(desk_ls, "ls_g1", "spp", PolynomialDecay(1.0, 1.0),
                  2000, 40)
    slope1 = log_log_slope(tr1[0].ks, mean_se(tr1)[0])
    trh = mc_runs(desk_ls, "ls_gh", "spp", PolynomialDecay(1.0, 0.5),
                  2000, 40)
    slopeh = log_log_slope(trh[0].ks, mean_se(trh)[0])
    elapsed = time.monotonic() - start
    assert -1.0 - 0.35 <= slope1 <= -1.0 + 0.35
    assert -0.5 - 0.25 <= slopeh <= -0.5 + 0.25
    assert elapsed < 300.0
    print(f"criterion 4 PASS: slope(gamma=1) = {slope1:+.3f}, "
          f"slope(gamma=1/2) = {slopeh:+.3f} in {elapsed:.0f}s")


def test_criterion_05_exponent_ordering(desk_poly):
    """End-of-pass error ordered by stepsize exponent, separated extremes."""
    ends = {}
    for g in (1.0, 0.75, 0.5, 0.25):
        traces = mc_runs(desk_poly, f"poly_g{g}", "spp",
                         PolynomialDecay(1.0, g), 1000, 100)
        finals = np.array([t.sqdist[-1] for t in traces])
        ends[g] = (float(finals.mean()),
                   float(finals.std(ddof=1)) / math.sqrt(len(finals)))
    assert ends[1.0][0] <= ends[0.75][0] <= ends[0.5][0] <= ends[0.25][0]
    separation = (ends[0.25][0] - ends[1.0][0]) / (ends[0.25][1] + ends[1.0][1])
    assert separation >= 2.0
    print("criterion 5 PASS: end errors "
          + " <= ".join(f"{ends[g][0]:.3g} (g={g})" for g in (1.0, 0.75, 0.5, 0.25))
          + f", extremes separated by {separation:.1f} se")


def test_criterion_06_bound_dominance(desk_ls, kappa_hat):
    """Monte-Carlo mean never exceeds the evaluated bounds plus 3 se."""
    c = ProblemConstants.measure(desk_ls, np.zeros(desk_ls.dim),
                                 kappa=kappa_hat)
    checked = 0
    for gamma, key in ((1.0, "ls_g1"), (0.5, "ls_gh")):
        sched = PolynomialDecay(1.0, gamma)
        traces = mc_runs(desk_ls, key, "spp", sched, 2000, 40)
        mean, se = mean_se(traces)
        for j, k in enumerate(traces[0].ks):
            if k < 1:
                continue
            bound = strongly_convex_bound(c, int(k), sched)
            assert mean[j] <= bound + 3.0 * se[j], (gamma, k)
            checked += 1
    traces = mc_runs(desk_ls, "ls_const", "spp", PolynomialDecay(1.0, 0),
                     2000, 40)
    mean, se = mean_se(traces)
    for j, k in enumerate(traces[0].ks):
        bound, _ = constant_step_envelope(c, 1.0, int(k))
        assert mean[j] <= bound + 3.0 * se[j], ("const", k)
        checked += 1
    print(f"criterion 6 PASS: dominance at {checked} recorded points "
          f"(kappa_hat = {kappa_hat:.2f})")


def test_criterion_07_noise_floor():
    """Constant-stepsize plateau within the noise region; ~4x drop per halving.

    The instance pairs one strongly contracting component with weakly curved
    noise carriers, so the per-draw contraction stays bounded away from one
    while the injected noise scales with the stepsize: the squared-stepsize
    regime of the noise-region prediction.
    """
    rng = np.random.default_rng(42)
    n, m = 6, 8
    alphas = np.array([math.sqrt(40.0)] + [math.sqrt(0.05)] * (m - 1))
    centers = np.vstack([rng.standard_normal(n) * 0.5]
                        + [rng.standard_normal(n) * 2.0 for _ in range(m - 1)])
    s = 1.0 / math.sqrt(2.0)
    losses = [BatchLeastSquares(a * s * np.eye(n), a * s * c)
              for a, c in zip(alphas, centers)]
    w = alphas ** 2
    x_star = (w[:, None] * centers).sum(axis=0) / w.sum()
    prob = StochasticProblem(losses, [WholeSpace(n)], n, x_star=x_star,
                             kappa=1.0)
    c = ProblemConstants.measure(prob, x_star, kappa=1.0)
    plateaus = {}
    for mu in (0.4, 0.2):
        cfg = SolverConfig("spp", PolynomialDecay(mu, 0), iterations=6000,
                           stride=60, x0=x_star)
        traces = [run(prob, cfg, np.random.default_rng(300 + i))
                  for i in range(RUNS)]
        sq = np.mean([t.sqdist for t in traces], axis=0)
        plateau = float(np.mean(sq[len(sq) // 3:]))
        _, radius = constant_step_envelope(c, mu, 6000)
        assert plateau <= 2.0 * radius ** 2
        plateaus[mu] = plateau
    ratio = plateaus[0.4] / plateaus[0.2]
    assert 2.0 <= ratio <= 8.0
    print(f"criterion 7 PASS: plateaus {plateaus[0.4]:.4g} / {plateaus[0.2]:.4g}"
          f" (ratio {ratio:.2f}), both under the noise-region cap")


def test_criterion_08_rspp_schedule():
    """Exact epoch schedules, total-iteration lower bound, plan monotone."""
    prob = StochasticProblem(
        [BatchLeastSquares(np.eye(3) / math.sqrt(2.0), np.zeros(3))],
        [WholeSpace(3)], 3, x_star=np.zeros(3), kappa=1.0)
    for gamma, T in ((0.5, 50), (1.0, 50), (2.0, 20)):
        mu_ts, k_ts = rspp_schedule(1.0, gamma, T)
        cfg = SolverConfig("rspp", PolynomialDecay(1.0, gamma),
                           iterations=int(k_ts.sum()), stride=10 ** 9,
                           x0=np.ones(3))
        tr = run(prob, cfg, np.random.default_rng(8))
        assert tr.epoch_stepsizes == [1.0 / t ** gamma for t in range(1, T + 1)]
        assert tr.epoch_lengths == [math.ceil(t ** gamma) for t in range(1, T + 1)]
        assert np.array_equal(k_ts, tr.epoch_lengths)
        assert sum(tr.epoch_lengths) >= T ** (1 + gamma) / (1 + gamma)
    c = ProblemConstants(
        r0=2.0, kappa=3.0, exp_grad_sq_opt=1.0, grad_norm_opt=0.5,
        exp_lips_sq=4.0, sigmas=np.array([1.0, 2.0]), dist0=0.4)
    for gamma in (0.5, 1.0, 2.0):
        Ts = [rspp_plan(eps, PolynomialDecay(1.0, gamma), c)[0]
              for eps in (1.0, 0.3, 0.1, 0.03, 0.01)]
        assert all(a <= b for a, b in zip(Ts, Ts[1:]))
    print("criterion 8 PASS: epoch schedules exact for gamma in {1/2, 1, 2}, "
          "plan epochs monotone in accuracy")


def test_criterion_09_robustness_contrast(desk_ls):
    """SGD transient blows past SPP under paired seeds; SPP under its cap."""
    spp = mc_runs(desk_ls, "ls_gh", "spp", PolynomialDecay(1.0, 0.5), 2000, 40)
    sgd = mc_runs(desk_ls, "sgd_gh", "sgd", PolynomialDecay(1.0, 0.5), 2000, 40)
    peak_spp = float(np.mean([t.sqdist.max() for t in spp]))
    peak_sgd = float(np.mean([t.sqdist.max() for t in sgd]))
    assert peak_sgd >= 10.0 * peak_spp
    th0 = mean_theta_sq(desk_ls.sigma_values(), 1.0)
    eta = math.sqrt(desk_ls.exp_grad_norm_sq(desk_ls.x_star))
    r0 = float(np.linalg.norm(desk_ls.x_star))
    cap = max(r0, 1.0 * eta / (1.0 - math.sqrt(th0)))
    mean, se = mean_se(spp)
    assert np.all(np.sqrt(mean) <= cap + 3.0 * np.sqrt(se))
    print(f"criterion 9 PASS: SGD/SPP peak ratio {peak_sgd / peak_spp:.3g}, "
          f"SPP under the boundedness cap {cap:.3g}")


def test_criterion_10_feasibility_decay(desk_ls):
    """Mean squared intersection distance drops >= 3x from K/10 to K."""
    traces = mc_runs(desk_ls, "ls_feas", "spp", PolynomialDecay(1.0, 1.0),
                     2000, 200, record_feasibility=True)
    feas_sq = np.mean([t.feas ** 2 for t in traces], axis=0)
    ks = list(traces[0].ks)
    ratio = feas_sq[ks.index(200)] / feas_sq[ks.index(2000)]
    assert ratio >= 3.0
    print(f"criterion 10 PASS: feasibility decay factor {ratio:.1f}")


def test_criterion_11_markowitz_pipeline(tmp_path):
    """Full ingest -> build -> run -> emit path on SP500-shaped returns."""
    table = synth_returns(periods=1276, n=25, seed=3)
    prob = build_markowitz(table, seed=5)
    assert (len(prob.losses), table.n_assets) == (1148, 25)
    x0 = project_intersection(prob.rows, np.zeros(25))
    K = prob.one_pass
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 1.0), iterations=K,
                       stride=K // 8, x0=x0)
    traces = [run(prob, cfg, np.random.default_rng(100 + i)) for i in range(RUNS)]
    worst_violation = max(t.max_sampled_violation for t in traces)
    assert worst_violation <= 1e-9
    mean, se = mean_se(traces, "test_obj")
    for j in range(len(mean) - 1):
        assert mean[j + 1] - mean[j] <= 2.0 * math.hypot(se[j], se[j + 1])
    # emission leg of the pipeline
    spec = GeneratorSpec("markowitz", n=25, periods=1276, seed=3, split_seed=5)
    config = ExperimentConfig(spec=spec, cells=[Cell("spp", 1.0, 1.0)],
                              runs=3, base_seed=100,
                              outdir=str(tmp_path / "mk"), workers=1,
                              record_feasibility=False)
    run_experiment(config)
    assert (Path(config.outdir) / "spp_mu1_g1.csv").exists()
    assert len(list(Path(config.outdir).glob("*.svg"))) == 1
    print(f"criterion 11 PASS: pipeline complete, max sampled violation "
          f"{worst_violation:.1e}, held-out objective nonincreasing")


def test_criterion_12_reproducibility(tmp_path):
    """Serial and parallel execution emit byte-identical CSVs."""
    spec = GeneratorSpec("feasibility", n=5, sets=12, seed=6)
    cells = [Cell("spp", 1.0, 1.0), Cell("aspp", 0.5, 0.5)]
    c_ser = ExperimentConfig(spec=spec, cells=cells, runs=4, base_seed=20,
                             outdir=str(tmp_path / "ser"), iterations=80,
                             stride=20, workers=1)
    c_par = ExperimentConfig(spec=spec, cells=cells, runs=4, base_seed=20,
                             outdir=str(tmp_path / "par"), iterations=80,
                             stride=20, workers=2)
    run_experiment(c_ser)
    run_experiment(c_par)
    files = sorted(Path(c_ser.outdir).glob("*.csv"))
    assert files
    for f in files:
        assert f.read_bytes() == (Path(c_par.outdir) / f.name).read_bytes()
    print(f"criterion 12 PASS: {len(files)} CSVs byte-identical across "
          "serial and parallel execution")

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import enum_polyhedron_projection, random_set
from spprox import (Box, DykstraError, Halfspace, Hyperplane,
                    NonnegativeOrthant, PolynomialDecay, Polyhedron,
                    ProblemConstants, QuadraticNorm, SolverConfig,
                    StochasticProblem, WholeSpace,
                    build_markowitz, dist_intersection, estimate_kappa,
                    fill_feasibility, gen_constrained_ls, generate, norm,
                    parse_config, project_intersection, run, synth_returns)
from spprox import constraints
from spprox.harness import CONFIG_TEMPLATES
from spprox.problems import _refine_optimum


def test_halfspace_projection_examples():
    h = Halfspace(np.array([1.0, 0.0]), 0.0)
    assert np.allclose(h.project(np.array([2.0, 3.0])), [0.0, 3.0])
    assert np.allclose(h.project(np.array([-1.0, 1.0])), [-1.0, 1.0])


def test_box_projection_example():
    b = Box(np.zeros(2), np.ones(2))
    assert np.allclose(b.project(np.array([2.0, -3.0])), [1.0, 0.0])


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dim = 2 + rng.integers(4)
        s = random_set(rng, dim)
        x = 2 * rng.standard_normal(dim)
        p1 = s.project(x)
        assert np.linalg.norm(s.project(p1) - p1) <= 1e-12 * (1 + np.linalg.norm(p1))


def test_distance_examples():
    h = Halfspace(np.array([1.0, 0.0]), 0.0)
    assert h.distance(np.array([-0.5, 2.0])) == 0.0
    assert h.distance(np.array([2.0, 3.0])) == 2.0


def test_distance_matches_projection_route():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = 2 + rng.integers(4)
        s = random_set(rng, dim)
        x = 3 * rng.standard_normal(dim)
        direct = s.distance(x)
        via_proj = np.linalg.norm(x - s.project(x))
        assert abs(direct - via_proj) <= 1e-12 * (1 + via_proj)


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(9)
    for _ in range(300):
        dim = 2 + rng.integers(3)
        s = random_set(rng, dim)
        x = 3 * rng.standard_normal(dim)
        z = s.project(2 * rng.standard_normal(dim))  # a feasible point
        px = s.project(x)
        lhs = np.linalg.norm(x - px) ** 2
        rhs = np.linalg.norm(x - z) ** 2 - np.linalg.norm(z - px) ** 2
        assert lhs <= rhs + 1e-9


def test_dist_intersection_corner():
    sets = [Halfspace(np.array([1.0, 0.0]), 0.0),
            Halfspace(np.array([0.0, 1.0]), 0.0)]
    assert abs(dist_intersection(Polyhedron.of(sets, 2), np.array([1.0, 1.0]))
               - np.sqrt(2.0)) < 1e-10


def test_dist_intersection_single_set_reduction():
    s = Halfspace(np.array([1.0, 1.0]), 0.5)
    x = np.array([2.0, 2.0])
    assert abs(dist_intersection(Polyhedron.of([s], 2), x)
               - s.distance(x)) < 1e-14


def test_dist_intersection_matches_enumeration():
    rng = np.random.default_rng(15)
    for _ in range(150):
        anchor = 0.3 * rng.standard_normal(2)
        sets = []
        for _ in range(2 + rng.integers(3)):
            c = rng.standard_normal(2)
            sets.append(Halfspace(c, float(c @ anchor) + 0.02
                                  + abs(float(rng.standard_normal()))))
        x = 3 * rng.standard_normal(2)
        exact = enum_polyhedron_projection(sets, x)
        got = dist_intersection(Polyhedron.of(sets, 2), x)
        assert abs(got - np.linalg.norm(exact - x)) <= 1e-8


def test_dist_intersection_zero_iff_feasible():
    rng = np.random.default_rng(19)
    anchor = np.zeros(3)
    sets = [Halfspace(rng.standard_normal(3), 0.3 + float(rng.uniform()))
            for _ in range(5)]
    rows = Polyhedron.of(sets, 3)
    assert dist_intersection(rows, anchor) == 0.0
    x = 5 * np.ones(3)
    d = dist_intersection(rows, x)
    assert d >= max(s.distance(x) for s in sets) - 1e-10
    if d <= 1e-10:
        assert all(s.distance(x) <= 1e-8 for s in sets)


def test_inconsistent_hyperplanes_raise():
    parallel = [Halfspace(np.array([1.0, 0.0]), 0.0),
                Hyperplane(np.array([1.0, 1.0]), -1.0),
                Hyperplane(np.array([2.0, 2.0]), 1.0)]
    with pytest.raises(DykstraError, match="empty intersection"):
        project_intersection(Polyhedron.of(parallel, 2), np.array([4.0, 4.0]))
    # the hyperplane fixes x_0 = 2, which the box's upper row excludes
    fixed = [Hyperplane(np.array([1.0, 0.0]), 2.0), Box(np.zeros(2), np.ones(2))]
    with pytest.raises(DykstraError, match="empty intersection"):
        dist_intersection(Polyhedron.of(fixed, 2), np.zeros(2))


def test_empty_halfspace_intersection_raises():
    sets = [Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 0.0], -1.0)]
    with pytest.raises(DykstraError):
        project_intersection(Polyhedron.of(sets, 2), [3.0, 2.0])


@pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
def test_inconsistent_parallel_pairs_are_reported_empty(kind):
    # c'z <= d (or = d) against c'z >= d + gap, the second row scaled by k;
    # the gap spans 1e-5 to 1 of the scale 1 + ||x||_inf + max|d|
    rng = np.random.default_rng(71)
    for _ in range(667):
        dim = 2 + rng.integers(3)
        c = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
        d = float(rng.standard_normal())
        k = 10.0 ** rng.uniform(-2, 2)
        x = 10.0 ** rng.uniform(-1, 3) * rng.standard_normal(dim)
        nc = float(np.linalg.norm(c))
        scale = 1.0 + np.abs(x).max() + abs(d) / nc
        gap = 10.0 ** rng.uniform(-5, 0) * scale * nc
        if kind is Halfspace:
            sets = [Halfspace(c, d), Halfspace(-k * c, -k * (d + gap))]
        else:
            sets = [Hyperplane(c, d), Hyperplane(k * c, k * (d + gap))]
        with pytest.raises(DykstraError, match="empty intersection"):
            project_intersection(Polyhedron.of(sets, dim), x)


def test_tiny_gap_parallel_pairs_are_reported_empty():
    # absolute gaps 1e-4 to 10 at ||x|| up to 1e3: every pair is empty, and
    # a gap above the certificate tolerance must not read "certificate failed"
    rng = np.random.default_rng(73)
    for _ in range(667):
        dim = 2 + rng.integers(3)
        c = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
        d, k = float(rng.standard_normal()), 10.0 ** rng.uniform(-2, 2)
        u = rng.standard_normal(dim)
        x = 10.0 ** rng.uniform(-1, 3) * u / np.linalg.norm(u)
        gap = 10.0 ** rng.uniform(-4, 1) * float(np.linalg.norm(c))
        sets = [Halfspace(c, d), Halfspace(-k * c, -k * (d + gap))]
        with pytest.raises(DykstraError, match="empty intersection"):
            project_intersection(Polyhedron.of(sets, dim), x)


def _exact_2x2(c1, d1, c2, d2):
    """The point where c1'z = d1 and c2'z = d2, in exact rationals."""
    (a, b), (c, e) = map(Fraction, c1), map(Fraction, c2)
    f, g = Fraction(d1), Fraction(d2)
    det = a * e - b * c
    return np.array([float((f * e - b * g) / det), float((a * g - f * c) / det)])


def test_nearly_parallel_hyperplanes_match_exact_solve():
    # two hyperplanes 0.5 to 5 degrees apart meet in one point
    rng = np.random.default_rng(73)
    worst = 0.0
    for _ in range(300):
        a = 2.0 * math.pi * float(rng.uniform())
        b = a + math.radians(float(rng.uniform(0.5, 5.0)))
        c1 = 10.0 ** rng.uniform(-1, 1) * np.array([math.cos(a), math.sin(a)])
        c2 = 10.0 ** rng.uniform(-1, 1) * np.array([math.cos(b), math.sin(b)])
        d1, d2 = float(rng.standard_normal()), float(rng.standard_normal())
        rows = Polyhedron.of([Hyperplane(c1, d1), Hyperplane(c2, d2)], 2)
        z = project_intersection(rows, 3.0 * rng.standard_normal(2))
        exact = _exact_2x2(c1, d1, c2, d2)
        worst = max(worst, np.linalg.norm(z - exact) / np.linalg.norm(exact))
    assert worst <= 1e-13


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-10])
def test_thin_wedge_is_not_reported_empty(eps):
    # {|z_0| <= -eps z_1} holds the origin, the projection of (0, 1)
    sets = [Halfspace([1.0, eps], 0.0), Halfspace([-1.0, eps], 0.0)]
    try:
        z = project_intersection(Polyhedron.of(sets, 2), np.array([0.0, 1.0]))
    except DykstraError as err:
        assert "certificate failed" in str(err)
    else:
        assert max(s.distance(z) for s in sets) <= 1e-9


def _patch_equality(monkeypatch, multipliers):
    """Route the multipliers of every final equality pass through
    ``multipliers``."""
    original = constraints._equality

    def patched(*args):
        z, mu = original(*args)
        return z, multipliers(mu)
    monkeypatch.setattr(constraints, "_equality", patched)


@pytest.mark.parametrize("multipliers, point", [
    (lambda mu: 2.0 * mu, [1.0, 1.0]),  # mu = 1: stationarity fails
    (np.negative, [1e-12, 1.0]),  # mu = 1e-12: only its sign fails
], ids=["doubled", "negative"])
def test_the_certificate_checks_the_multipliers(monkeypatch, multipliers,
                                                point):
    # a feasible point (no rows, z = x) rides in the same batch
    poly = Polyhedron(np.array([[1.0, 0.0]]), np.zeros(1))
    stack = np.array([[0.0, 1.0], point])
    assert np.allclose(project_intersection(poly, stack),
                       [[0.0, 1.0], [0.0, 1.0]])
    _patch_equality(monkeypatch, multipliers)
    with pytest.raises(DykstraError, match="certificate failed"):
        project_intersection(poly, stack)


def test_far_probe_projection_is_certified(desk_ls):
    # the first kappa probe of np.random.default_rng(1) around the desk optimum
    xs = desk_ls.x_star
    u = np.random.default_rng(1).standard_normal(20)
    x = xs + 2.0 * max(1.0, np.linalg.norm(xs)) * u / np.linalg.norm(u)
    z = project_intersection(desk_ls.rows, x)
    assert max(s.distance(z) for s in desk_ls.constraints) <= 1e-9
    C = np.stack([s.c for s in desk_ls.constraints])
    d = np.array([s.d for s in desk_ls.constraints])
    nrm = np.linalg.norm(C, axis=1)
    tight = (C @ z - d) / nrm >= -1e-9
    _, res = nnls((C[tight] / nrm[tight, None]).T, x - z)
    assert res <= 1e-8
    assert dist_intersection(desk_ls.rows, x) == np.linalg.norm(x - z)


def test_estimate_kappa_single_halfspace():
    h = Halfspace(np.array([1.0, 0.0]), 0.0)
    prob = StochasticProblem([QuadraticNorm(2, 1.0)], [h, h, h], 2)
    k = estimate_kappa(prob, 50, np.random.default_rng(1))
    assert abs(k - 1.0) < 1e-9


def test_estimate_kappa_two_hyperplanes():
    sets = [Hyperplane(np.array([1.0, 0.0]), 0.0),
            Hyperplane(np.array([0.0, 1.0]), 0.0)]
    prob = StochasticProblem([QuadraticNorm(2, 1.0)], sets, 2,
                             x_star=np.zeros(2))
    k = estimate_kappa(prob, 50, np.random.default_rng(2))
    assert abs(k - 2.0) < 1e-8


def test_estimate_kappa_stability_on_generated_instance(small_ls):
    k1 = estimate_kappa(small_ls, 400, np.random.default_rng(100))
    k2 = estimate_kappa(small_ls, 400, np.random.default_rng(200))
    assert k1 > 0 and np.isfinite(k1)
    assert abs(k1 - k2) <= 0.1 * max(k1, k2)


def test_estimate_kappa_all_feasible_probes_error():
    # one row, far outside the probe sphere of radius 2 around the origin
    prob = StochasticProblem([QuadraticNorm(2, 1.0)],
                             [Halfspace(np.array([1.0, 0.0]), 100.0)], 2)
    assert prob.kappa is None
    with pytest.raises(ValueError, match="all probes were degenerate"):
        estimate_kappa(prob, 10, np.random.default_rng(3))


@pytest.mark.parametrize("sets, kappa, known", [
    ([WholeSpace(2)], None, 1.0),  # no rows: X = R^n
    ([WholeSpace(2), WholeSpace(2)], None, 1.0),
    ([Halfspace(np.array([1.0, 0.0]), 0.0)], 3.0, 3.0)])
def test_estimate_kappa_returns_a_known_kappa_without_probing(sets, kappa,
                                                              known):
    prob = StochasticProblem([QuadraticNorm(2, 1.0)], sets, 2, kappa=kappa)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert prob.kappa == known
    assert estimate_kappa(prob, 10, rng) == known
    assert rng.bit_generator.state == state


def test_estimate_kappa_draws_its_probes_as_one_block(tmp_path):
    # the constrained-ls template's 20-probe estimate, pinned to its value
    # from one probe draw at a time; the stream moves by one (20, 20) block
    path = tmp_path / "ls.ini"
    path.write_text(CONFIG_TEMPLATES["constrained-ls"])
    config = parse_config(path)
    problem = generate(config.spec)
    assert problem.dim == 20
    rng, block = config.probe_source(), config.probe_source()
    kappa = estimate_kappa(problem, 20, rng)
    assert abs(kappa - 51.71058446005237) <= 1e-12 * 51.71058446005237
    block.standard_normal((20, 20))
    assert rng.bit_generator.state == block.bit_generator.state


def test_estimate_kappa_solves_its_kept_probes_as_one_batch(small_ls,
                                                            monkeypatch):
    # 70 probes span two CHUNKs; the one batch gives the per-probe loop's bits
    assert constraints.CHUNK < 70
    rng, draw = np.random.default_rng(5), np.random.default_rng(5)
    center = small_ls.x_star
    u = draw.standard_normal((70, small_ls.dim))
    x = center + (2.0 * max(1.0, norm(center))
                  / np.sqrt(np.einsum("ij,ij->i", u, u)))[:, None] * u
    den = small_ls.mean_constraint_sq_distance(x)
    x, den = x[den >= 1e-14], den[den >= 1e-14]
    num = np.array([dist_intersection(small_ls.rows, p) for p in x])
    loop = max(float((num ** 2 / den).max()), 1.0)
    sizes = []

    def counted(rows, points):
        sizes.append(np.shape(points))
        return dist_intersection(rows, points)

    monkeypatch.setattr(constraints, "dist_intersection", counted)
    assert estimate_kappa(small_ls, 70, rng) == loop
    assert sizes == [x.shape]


def test_working_set_matches_enumeration():
    # 24 halfspaces in 4-D: one least-distance solve, same projection
    rng = np.random.default_rng(33)
    anchor = 0.2 * rng.standard_normal(4)
    sets = [Halfspace(c, float(c @ anchor) + 0.05 + float(rng.uniform()))
            for c in (rng.standard_normal(4) for _ in range(24))]
    for _ in range(5):
        x = 3 * rng.standard_normal(4)
        fast = project_intersection(Polyhedron.of(sets, 4), x)
        exact = enum_polyhedron_projection(sets, x)
        assert np.linalg.norm(fast - exact) <= 1e-8


def _mixed_family(rng, dim):
    """Boxes, orthants, 1-3 hyperplanes and halfspaces sharing a point."""
    anchor = 0.2 + np.abs(rng.standard_normal(dim))
    sets = [NonnegativeOrthant(dim),
            Box(anchor - 0.1 - np.abs(rng.standard_normal(dim)),
                anchor + 0.1 + np.abs(rng.standard_normal(dim)))]
    for _ in range(1 + rng.integers(3)):
        c = rng.standard_normal(dim)
        sets.append(Halfspace(c, float(c @ anchor) + 0.5 * float(rng.uniform())))
    for i in range(1 + rng.integers(3)):
        if i and not rng.integers(3):  # a scaled duplicate: dependent rows
            c = -2.5 * sets[-1].c
        else:
            c = rng.standard_normal(dim) if rng.integers(3) else np.eye(dim)[0]
        sets.append(Hyperplane(c, float(c @ anchor)))
    return sets


def test_mixed_families_match_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(40):
        dim = 2 + rng.integers(2)
        sets = _mixed_family(rng, dim)
        xs = 3 * rng.standard_normal((3, dim))
        rows = Polyhedron.of(sets, dim)
        stacked = project_intersection(rows, xs)  # one batch
        for x, z in zip(xs, stacked):
            exact = enum_polyhedron_projection(sets, x)
            assert np.linalg.norm(project_intersection(rows, x) - exact) <= 1e-9
            assert np.linalg.norm(z - exact) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polyhedron_rejects_non_finite_point(bad, capfd):
    rows = Polyhedron.of([Halfspace(np.array([1.0, 0.0]), 0.5),
                          Halfspace(np.array([0.0, 1.0]), 1.0)], 2)
    with pytest.raises(ValueError, match="non-finite"):
        project_intersection(rows, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        project_intersection(rows, np.array([[3.0, 2.0], [0.0, bad]]))
    assert "DLASCL" not in capfd.readouterr().err  # no LAPACK call was made


@pytest.mark.parametrize("C, d, fault", [
    (np.ones((3, 2)), [1.0], "one entry per row"),  # d would broadcast
    (np.ones((2, 2)), [[1.0, 1.0]], "one entry per row"),
    (np.ones(2), [1.0], "2-D"),
    (np.ones((2, 2)), [1.0, np.nan], "finite"),
    ([[np.inf, 1.0], [0.0, 1.0]], [1.0, 1.0], "finite"),
], ids=["d-per-row", "d-2-D", "C-1-D", "d-nan", "C-inf"])
def test_polyhedron_rejects_malformed_rows(C, d, fault):
    with pytest.raises(ValueError, match=fault):
        Polyhedron(C, d)


def test_no_caller_sets_the_certificate_tol(monkeypatch):
    # the oracle takes rows and points only; every solve reads the
    # module's tolerance when it runs, and at 0 roundoff fails it
    for oracle in (project_intersection, dist_intersection):
        assert list(inspect.signature(oracle).parameters) == ["rows", "x"]
    rows = Polyhedron.of([Halfspace([1.0, 3.0], 0.5),
                          Halfspace([-2.0, 1.0], 0.3)], 2)
    x = np.array([1.3, 2.7])  # outside X
    assert np.allclose(project_intersection(rows, x), [0.41, 0.03])
    monkeypatch.setattr(constraints, "CERTIFICATE_TOL", 0.0)
    with pytest.raises(DykstraError, match="certificate failed"):
        project_intersection(rows, x)
    with pytest.raises(DykstraError, match="certificate failed"):
        dist_intersection(rows, x)


def test_failed_certificate_reports_the_least_active_multiplier(monkeypatch):
    # x + y <= 0 is the one active row at this point, with a positive
    # multiplier; the padding past it must not read as a 0 multiplier
    rows = Polyhedron(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
    monkeypatch.setattr(constraints, "CERTIFICATE_TOL", -1.0)  # always fails
    with pytest.raises(DykstraError, match="certificate failed") as err:
        project_intersection(rows, np.array([0.7, 2.2]))
    least = re.search(r"least multiplier (\S+)$", str(err.value))
    assert least and float(least.group(1)) > 0.0, str(err.value)
    with pytest.raises(DykstraError, match="no active row$"):
        project_intersection(rows, np.array([-1.0, 0.5]))  # inside X


def test_row_mean_sq_distance_matches_set_loop():
    rng = np.random.default_rng(43)
    for _ in range(20):
        dim = 3
        sets = _mixed_family(rng, dim) + [WholeSpace(dim)]
        prob = StochasticProblem([QuadraticNorm(dim, 1.0)], sets, dim)
        x = 3 * rng.standard_normal(dim)
        loop = sum(s.distance(x) ** 2 for s in sets) / len(sets)
        assert abs(prob.mean_constraint_sq_distance(x) - loop) <= 1e-12 * loop
        # a stack of points: one value per row
        loops = np.array([loop, sum(s.distance(-x) ** 2 for s in sets)
                          / len(sets)])
        stacked = prob.mean_constraint_sq_distance(np.stack([x, -x]))
        assert np.all(np.abs(stacked - loops) <= 1e-12 * loops)


def _feas_is_bit_stable(problem, cfg, seed):
    # each run's records are one stacked solve of its own points
    first = run(problem, cfg, np.random.default_rng(seed))
    fill_feasibility(problem, [first])
    assert np.all(np.isfinite(first.feas))
    others = [run(problem, cfg, np.random.default_rng(other))
              for other in (seed + 1, seed + 2)]
    fill_feasibility(problem, others)
    estimate_kappa(problem, 2, np.random.default_rng(seed + 3))
    ProblemConstants.measure(problem, np.zeros(problem.dim), kappa=2.0)
    again = run(problem, cfg, np.random.default_rng(seed))
    fill_feasibility(problem, [again])
    assert np.array_equal(again.feas, first.feas)
    return first


def _recorded_points(problem, cfg, seed):
    """The output points a spp/aspp run records: the iterate, or for aspp
    the stepsize-weighted average of the iterates before it."""
    K = cfg.iterations
    mus = cfg.schedule.block(0, K)
    li, ci = problem.sample_indices(np.random.default_rng(seed), K)
    x, wavg, wsum, points = np.zeros(problem.dim), 0.0, 0.0, []
    for k in range(K + 1):
        if k % cfg.stride == 0:
            points.append(wavg / wsum if cfg.algorithm == "aspp" and k else x)
        if k < K:
            mu = float(mus[k])
            wavg, wsum = wavg + mu * x, wsum + mu
            x = problem.constraints[ci[k]].project(
                problem.losses[li[k]].prox(x, mu))
    return np.array(points)


def _feas_is_one_stacked_call(problem, cfg, seed):
    trace = _feas_is_bit_stable(problem, cfg, seed)
    points = _recorded_points(problem, cfg, seed)
    assert np.array_equal(trace.feas, dist_intersection(problem.rows, points))


def test_feasibility_record_bits_do_not_depend_on_history_desk():
    problem = gen_constrained_ls(n=20, m=2000, seed=7)
    cfg = SolverConfig("aspp", PolynomialDecay(1.0, 1.0), iterations=600,
                       stride=100)
    _feas_is_one_stacked_call(problem, cfg, 5)


def test_feasibility_record_bits_do_not_depend_on_history_markowitz():
    problem = build_markowitz(synth_returns(periods=300, n=10, seed=3))
    problem.x_star = _refine_optimum(problem)
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0.5), iterations=400,
                       stride=20)
    _feas_is_one_stacked_call(problem, cfg, 9)


def _same_bits_in_any_batch(rows, points):
    """Projections and distances of ``points`` solved all at once, in
    batches of 7 and one at a time (a stack of one and a 1-D point) agree
    bit for bit."""
    whole = project_intersection(rows, points)
    for size in (1, 7):
        parts = [project_intersection(rows, points[i:i + size])
                 for i in range(0, len(points), size)]
        assert np.array_equal(np.concatenate(parts), whole)
    assert all(np.array_equal(project_intersection(rows, x), z)
               for x, z in zip(points, whole))
    dist = dist_intersection(rows, points)
    assert np.array_equal(dist, [np.sqrt(r.dot(r)) for r in points - whole])
    assert dist_intersection(rows, points[-1]) == dist[-1]
    return whole


def test_batches_of_desk_record_points_give_the_same_bits():
    problem = gen_constrained_ls(n=20, m=2000, seed=7)
    points = np.concatenate([
        _recorded_points(problem, SolverConfig(
            alg, PolynomialDecay(1.0, 1.0), iterations=600, stride=25), 5)
        for alg in ("spp", "aspp")])
    _same_bits_in_any_batch(problem.rows, points)


def test_batches_of_markowitz_record_points_give_the_same_bits():
    problem = build_markowitz(synth_returns(periods=300, n=10, seed=3))
    points = np.concatenate([
        _recorded_points(problem, SolverConfig(
            alg, PolynomialDecay(1.0, 0.5), iterations=400, stride=10), 9)
        for alg in ("spp", "aspp")])
    _same_bits_in_any_batch(problem.rows, points)


def test_batches_of_mixed_family_points_give_the_same_bits(monkeypatch):
    # hyperplanes and dependent rows; chunks of 4 split the batches too
    monkeypatch.setattr(constraints, "CHUNK", 4)
    rng = np.random.default_rng(47)
    for _ in range(6):
        dim = 2 + rng.integers(3)
        sets = _mixed_family(rng, dim)
        points = 3 * rng.standard_normal((12, dim))
        whole = _same_bits_in_any_batch(Polyhedron.of(sets, dim), points)
        for x, z in zip(points, whole):
            exact = enum_polyhedron_projection(sets, x)
            assert np.linalg.norm(z - exact) <= 1e-9


def test_a_problem_with_no_rows_gives_zero_distances():
    problem = StochasticProblem([QuadraticNorm(3, 1.0)], [WholeSpace(3)], 3)
    assert len(problem.rows.d) == 0
    points = np.random.default_rng(5).standard_normal((6, 3))
    assert np.array_equal(dist_intersection(problem.rows, points),
                          np.zeros(6))
    assert dist_intersection(problem.rows, points[0]) == 0.0
    assert np.array_equal(project_intersection(problem.rows, points), points)

import numpy as np
import pytest

from spprox import (GeneratorSpec, Halfspace, Hyperplane, QuadraticNorm,
                    SolverConfig, StochasticProblem,
                    build_markowitz, gen_constrained_ls, gen_feasibility,
                    gen_finite_sum, gen_random_ls_polyhedron, generate,
                    load_returns_csv, run, synth_returns)
from spprox.components import BatchLeastSquares
from spprox.constraints import (Polyhedron, dist_intersection,
                                project_intersection)
from spprox.problems import FAMILIES, _refine_optimum, knob_defaults
from spprox.schedules import PolynomialDecay


def test_constrained_ls_counts(small_ls):
    # m=240, n=8: m/n batches + m/2 residuals, one halfspace per component
    assert len(small_ls.losses) == 240 // 8 + 240 // 2
    assert len(small_ls.constraints) == len(small_ls.losses)


def test_constrained_ls_desk_component_count(desk_ls):
    assert len(desk_ls.losses) == 1000 + 100  # m/2 + m/n at m=2000, n=20


def test_constrained_ls_active_constraints(small_ls):
    gt = small_ls.meta["ground_truth"]
    gaps = np.array([(s.c @ gt - s.d) / np.linalg.norm(s.c)
                     for s in small_ls.constraints])
    tight = np.abs(gaps) <= 1e-9
    assert tight.sum() == 3
    assert np.all(gaps[~tight] < -1e-6)


def test_constrained_ls_spectrum(small_ls):
    H = small_ls.meta["feature_cov"]
    eigs = np.sort(np.linalg.eigvalsh(H))[::-1]
    assert np.allclose(eigs, 1.0 / np.arange(1, 9), atol=1e-9)


def test_constrained_ls_row_covariance_lln():
    prob = gen_constrained_ls(n=10, m=100_000, seed=5)
    rows = np.vstack([c.A for c in prob.losses
                      if isinstance(c, BatchLeastSquares)])
    assert rows.shape == (100_000, 10)
    emp = rows.T @ rows / rows.shape[0]
    eigs = np.sort(np.linalg.eigvalsh(emp))[::-1]
    target = 1.0 / np.arange(1, 11)
    assert np.all(np.abs(eigs - target) <= 0.1 * target)


def test_constrained_ls_optimum_properties(small_ls):
    xs = small_ls.x_star
    assert max(s.distance(xs) for s in small_ls.constraints) <= 1e-9
    # the stored optimum improves on the planted point for the realized sum
    gt = small_ls.meta["ground_truth"]
    assert small_ls.objective(xs) <= small_ls.objective(gt) + 1e-12


def test_generation_deterministic():
    a = gen_constrained_ls(n=6, m=60, seed=9)
    b = gen_constrained_ls(n=6, m=60, seed=9)
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.meta["ground_truth"], b.meta["ground_truth"])
    c = gen_random_ls_polyhedron(n=6, m=40, seed=9)
    d = gen_random_ls_polyhedron(n=6, m=40, seed=9)
    assert np.array_equal(c.x_star, d.x_star)


def test_random_ls_polyhedron_reference(desk_poly):
    assert dist_intersection(desk_poly.rows, desk_poly.x_star) <= 1e-8
    # fixed point of the projected-gradient map at the stored optimum
    g = desk_poly.mean_gradient(desk_poly.x_star)
    step = desk_poly.x_star - 1e-3 * g
    back = project_intersection(desk_poly.rows, step)
    assert np.linalg.norm(back - desk_poly.x_star) <= 1e-6


def test_refine_matches_normal_equations_unconstrained():
    from spprox.components import LinearResidualSquared
    from spprox.constraints import WholeSpace
    rng = np.random.default_rng(13)
    A = rng.standard_normal((40, 5))
    b = rng.standard_normal(40)
    losses = [LinearResidualSquared(A[i], b[i]) for i in range(40)]
    x = _refine_optimum(StochasticProblem(losses, [WholeSpace(5)], 5))
    x_ne = np.linalg.solve(A.T @ A, A.T @ b)
    assert np.linalg.norm(x - x_ne) <= 1e-8


def test_refine_rejects_singular_objective():
    from spprox.components import LinearResidualSquared
    from spprox.problems import ReferenceSolveError
    losses = [LinearResidualSquared(np.array([1.0, 0.0]), 1.0)]
    with pytest.raises(ReferenceSolveError):
        _refine_optimum(StochasticProblem(
            losses, [Halfspace(np.array([1.0, 1.0]), 0.0)], 2))


def test_feasibility_family_least_norm():
    prob = gen_feasibility(n=4, sets=10, seed=1, lam=1.0)
    # all sets contain the origin, so the least-norm point is 0
    assert np.allclose(prob.x_star, np.zeros(4))
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0), iterations=400, stride=40,
                       x0=np.array([2.0, -1.0, 1.0, 0.5]))
    tr = run(prob, cfg, np.random.default_rng(2))
    assert tr.sqdist[-1] < 1e-3 * tr.sqdist[0]


def test_feasibility_hyperplane_through_origin():
    losses = [QuadraticNorm(3, 1.0)]
    sets = [Hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)]
    prob = StochasticProblem(losses, sets, 3, x_star=np.zeros(3))
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0), iterations=200, stride=20,
                       x0=np.array([2.0, -1.0, 1.5]))
    tr = run(prob, cfg, np.random.default_rng(3))
    assert tr.sqdist[-1] < 1e-10


def test_feasibility_wedge_small_lambda_limit():
    # wedge away from the origin; as lam -> 0 the optimum approaches P_X(0)
    sets = [Halfspace(np.array([-1.0, 0.0]), -1.0),
            Halfspace(np.array([0.0, -1.0]), -0.5)]
    target = project_intersection(Polyhedron.of(sets, 2), np.zeros(2))
    losses = [QuadraticNorm(2, 1e-3)]
    prob = StochasticProblem(losses, sets, 2)
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0), iterations=3000,
                       stride=300, x0=np.array([3.0, 3.0]))
    tr = run(prob, cfg, np.random.default_rng(4))
    assert np.linalg.norm(tr.final - target) <= 0.05


def test_finite_sum_optimum():
    prob = gen_finite_sum(n=4, m=7, seed=5)
    g = prob.mean_gradient(prob.x_star)
    assert np.linalg.norm(g) <= 1e-10
    assert np.all(prob.sigma_values() > 0)


def test_load_returns_csv(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    table = load_returns_csv(path)
    assert table.periods == 3 and table.n_assets == 2
    assert np.allclose(table.returns.mean(axis=0), [3.0, 4.0])


def test_load_returns_csv_date_column(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n")
    table = load_returns_csv(path)
    assert table.assets == ["a", "b"]
    assert table.returns.shape == (2, 2)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
def test_load_returns_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "r.csv"
    path.write_text(f"date,a,b\n2020-01-01,1,2\n2020-01-02,3,{cell}\n"
                    "2020-01-03,5,6\n")
    with pytest.raises(ValueError, match=r"line 3: non-finite .* 'b'"):
        load_returns_csv(path)


def test_load_returns_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 3"):
        load_returns_csv(ragged)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match="'b'"):
        load_returns_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_returns_csv(short)


def test_synth_returns_matches_sp500_shape():
    table = synth_returns(periods=1276, n=25, seed=0)
    assert table.periods == 1276
    assert table.n_assets == 25


def test_markowitz_build():
    table = synth_returns(periods=200, n=6, seed=1)
    prob = build_markowitz(table, seed=2)
    b = prob.test_objective.b
    assert b == pytest.approx(float(np.mean(prob.meta["a_av"])))
    assert len(prob.losses) == 180
    assert len(prob.test_objective.rows) == 20
    # x = 0: feasible for the orthant and budget, violates the return set iff b > 0
    zero = np.zeros(6)
    orthant, budget, ret = prob.constraints
    assert orthant.distance(zero) == 0.0
    assert budget.distance(zero) == 0.0
    assert (ret.distance(zero) > 0) == (b > 0)
    uniform = np.ones(6) / 6
    assert budget.distance(uniform) == 0.0


def test_markowitz_split_is_partition():
    table = synth_returns(periods=101, n=4, seed=3)
    prob = build_markowitz(table, seed=4)
    assert len(prob.losses) == 90
    assert len(prob.test_objective.rows) == 11
    with pytest.raises(ValueError):
        build_markowitz(table, train_frac=0.0)


@pytest.mark.parametrize("b_policy", ["foo", "nan", "inf", None])
def test_generator_spec_rejects_bad_b_policy(b_policy):
    with pytest.raises(ValueError, match="b_policy"):
        GeneratorSpec("markowitz", b_policy=b_policy).validate()
    GeneratorSpec("markowitz", b_policy="0.001").validate()


def test_markowitz_rejects_unreachable_target():
    table = synth_returns(periods=200, n=6, seed=1)
    best = build_markowitz(table, seed=2).meta["a_av"].max()
    assert best > 0
    build_markowitz(table, b_policy=best, seed=2)  # one asset reaches it
    with pytest.raises(ValueError, match="b_policy"):
        build_markowitz(table, b_policy=np.nextafter(best, 1.0), seed=2)
    with pytest.raises(ValueError, match="b_policy"):
        build_markowitz(table, b_policy=1.0, seed=2)


def test_generator_spec_dispatch():
    spec = GeneratorSpec("finite-sum", n=3, m=5, seed=1)
    prob = generate(spec)
    assert prob.dim == 3
    with pytest.raises(ValueError):
        generate(GeneratorSpec("nope"))
    with pytest.raises(ValueError):
        gen_constrained_ls(n=4, m=3)



# Draws each generator makes at small knobs, recorded once: a change in how a
# seed becomes a stream shows here.  Per family: knobs, then the raw draws
# (compared exactly) and the values that pass through a BLAS product
# (compared to 1e-12), each as a reader and its recorded value.
_DRAWS = {
    "constrained-ls": (
        dict(n=3, m=6, seed=4, active=2),
        lambda p: (p.meta["ground_truth"].tolist(), p.constraints[0].c.tolist()),
        ([0.2417718768768513, 0.23538091873745476, 1.5756260314314627],
         [0.9591848586745111, -0.9798545663746768, -0.7977957578895382]),
        lambda p: (), ()),
    "random-ls-polyhedron": (
        dict(n=2, m=3, seed=5),
        lambda p: (p.losses[0].a.tolist(), p.constraints[0].c.tolist()),
        ([-0.8019314252534474, -1.324358995628145],
         [-1.2333286640307717, -0.9582652054360887]),
        lambda p: (p.losses[0].b, p.constraints[0].d),
        (2.231261947347158, 1.1796351232224989)),
    "feasibility": (
        dict(n=3, sets=2, seed=6),
        lambda p: (p.constraints[0].c.tolist(), p.constraints[0].d),
        ([1.0531157544867582, 1.776491303816993, -2.5532918384570134],
         0.47449676558788234),
        lambda p: (), ()),
    "finite-sum": (
        dict(n=2, m=2, seed=7),
        lambda p: p.losses[0].b.tolist(),
        [-0.2180938342687079, -0.7085215889879705],
        lambda p: (), ()),
    "markowitz": (
        dict(n=2, periods=10, seed=8, split_seed=9),
        lambda p: (len(p.losses), len(p.test_objective.rows)), (9, 1),
        lambda p: tuple(p.meta["a_av"]),
        (0.002365264578685991, -0.007376805122691038)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_meta_holds_no_knob(family):
    # the knobs stay with the spec; meta keeps what the generator computed
    problem = FAMILIES[family](**_DRAWS[family][0])
    assert not set(problem.meta) & {"family", *knob_defaults(family)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_reproduce_their_draws(family):
    knobs, raw, expected, blas, expected_blas = _DRAWS[family]
    problem = FAMILIES[family](**knobs)
    assert raw(problem) == expected
    assert blas(problem) == pytest.approx(expected_blas, rel=1e-12)

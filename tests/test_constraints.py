import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import enum_polyhedron_projection, random_set
from spprox import (Box, DykstraError, Halfspace, Hyperplane,
                    NonnegativeOrthant, QuadraticNorm, RandomSource,
                    StochasticProblem, WholeSpace, dist_intersection,
                    estimate_kappa, project_intersection)


def test_halfspace_projection_examples():
    h = Halfspace(np.array([1.0, 0.0]), 0.0)
    assert np.allclose(h.project(np.array([2.0, 3.0])), [0.0, 3.0])
    assert np.allclose(h.project(np.array([-1.0, 1.0])), [-1.0, 1.0])


def test_box_projection_example():
    b = Box(np.zeros(2), np.ones(2))
    assert np.allclose(b.project(np.array([2.0, -3.0])), [1.0, 0.0])


def test_projection_idempotent():
    rng = RandomSource(3)
    for _ in range(200):
        dim = 2 + rng.integers(4)
        s = random_set(rng, dim)
        x = 2 * rng.normal(dim)
        p1 = s.project(x)
        assert np.linalg.norm(s.project(p1) - p1) <= 1e-12 * (1 + np.linalg.norm(p1))


def test_distance_examples():
    h = Halfspace(np.array([1.0, 0.0]), 0.0)
    assert h.distance(np.array([-0.5, 2.0])) == 0.0
    assert h.distance(np.array([2.0, 3.0])) == 2.0


def test_distance_matches_projection_route():
    rng = RandomSource(7)
    for _ in range(300):
        dim = 2 + rng.integers(4)
        s = random_set(rng, dim)
        x = 3 * rng.normal(dim)
        direct = s.distance(x)
        via_proj = np.linalg.norm(x - s.project(x))
        assert abs(direct - via_proj) <= 1e-12 * (1 + via_proj)


def test_firm_nonexpansiveness():
    rng = RandomSource(9)
    for _ in range(300):
        dim = 2 + rng.integers(3)
        s = random_set(rng, dim)
        x = 3 * rng.normal(dim)
        z = s.project(2 * rng.normal(dim))  # a feasible point
        px = s.project(x)
        lhs = np.linalg.norm(x - px) ** 2
        rhs = np.linalg.norm(x - z) ** 2 - np.linalg.norm(z - px) ** 2
        assert lhs <= rhs + 1e-9


def test_dist_intersection_corner():
    sets = [Halfspace(np.array([1.0, 0.0]), 0.0),
            Halfspace(np.array([0.0, 1.0]), 0.0)]
    assert abs(dist_intersection(sets, np.array([1.0, 1.0]))
               - np.sqrt(2.0)) < 1e-10


def test_dist_intersection_single_set_reduction():
    s = Halfspace(np.array([1.0, 1.0]), 0.5)
    x = np.array([2.0, 2.0])
    assert abs(dist_intersection([s], x) - s.distance(x)) < 1e-14


def test_dist_intersection_matches_enumeration():
    rng = RandomSource(15)
    for _ in range(150):
        anchor = 0.3 * rng.normal(2)
        sets = []
        for _ in range(2 + rng.integers(3)):
            c = rng.normal(2)
            sets.append(Halfspace(c, float(c @ anchor) + 0.02
                                  + abs(float(rng.normal()))))
        x = 3 * rng.normal(2)
        exact = enum_polyhedron_projection(sets, x)
        got = dist_intersection(sets, x, tol=1e-10)
        assert abs(got - np.linalg.norm(exact - x)) <= 1e-8


def test_dist_intersection_zero_iff_feasible():
    rng = RandomSource(19)
    anchor = np.zeros(3)
    sets = [Halfspace(rng.normal(3), 0.3 + float(rng.uniform()))
            for _ in range(5)]
    assert dist_intersection(sets, anchor) == 0.0
    x = 5 * np.ones(3)
    d = dist_intersection(sets, x, tol=1e-10)
    assert d >= max(s.distance(x) for s in sets) - 1e-10
    if d <= 1e-10:
        assert all(s.distance(x) <= 1e-8 for s in sets)


def test_dykstra_cycle_cap_carries_best():
    sets = [Halfspace(np.array([1.0, 0.0]), 0.0),
            Halfspace(np.array([0.0, 1.0]), 0.0),
            Hyperplane(np.array([1.0, 1.0]), -1.0)]
    with pytest.raises(DykstraError) as err:
        project_intersection(sets, np.array([4.0, 4.0]), tol=1e-14,
                             max_cycles=1)
    assert err.value.best.shape == (2,)


def test_empty_halfspace_intersection_raises():
    sets = [Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 0.0], -1.0)]
    with pytest.raises(DykstraError):
        project_intersection(sets, [3.0, 2.0])


def test_far_probe_projection_is_certified(desk_ls):
    # the first kappa probe of RandomSource(1) around the desk optimum
    xs = desk_ls.x_star
    u = RandomSource(1).normal(20)
    x = xs + 2.0 * max(1.0, np.linalg.norm(xs)) * u / np.linalg.norm(u)
    z = project_intersection(desk_ls.constraints, x)
    assert max(s.distance(z) for s in desk_ls.constraints) <= 1e-9
    C = np.stack([s.c for s in desk_ls.constraints])
    d = np.array([s.d for s in desk_ls.constraints])
    nrm = np.linalg.norm(C, axis=1)
    tight = (C @ z - d) / nrm >= -1e-9
    _, res = nnls((C[tight] / nrm[tight, None]).T, x - z)
    assert res <= 1e-8
    assert dist_intersection(desk_ls.constraints, x) == np.linalg.norm(x - z)


def test_estimate_kappa_single_halfspace():
    h = Halfspace(np.array([1.0, 0.0]), 0.0)
    prob = StochasticProblem([QuadraticNorm(2, 1.0)], [h, h, h], 2)
    k = estimate_kappa(prob, 50, RandomSource(1))
    assert abs(k - 1.0) < 1e-9


def test_estimate_kappa_two_hyperplanes():
    sets = [Hyperplane(np.array([1.0, 0.0]), 0.0),
            Hyperplane(np.array([0.0, 1.0]), 0.0)]
    prob = StochasticProblem([QuadraticNorm(2, 1.0)], sets, 2,
                             x_star=np.zeros(2))
    k = estimate_kappa(prob, 50, RandomSource(2))
    assert abs(k - 2.0) < 1e-8


def test_estimate_kappa_stability_on_generated_instance(small_ls):
    k1 = estimate_kappa(small_ls, 400, RandomSource(100), dykstra_tol=1e-6)
    k2 = estimate_kappa(small_ls, 400, RandomSource(200), dykstra_tol=1e-6)
    assert k1 > 0 and np.isfinite(k1)
    assert abs(k1 - k2) <= 0.1 * max(k1, k2)


def test_estimate_kappa_all_feasible_probes_error():
    prob = StochasticProblem([QuadraticNorm(2, 1.0)], [WholeSpace(2)], 2)
    with pytest.raises(ValueError):
        estimate_kappa(prob, 10, RandomSource(3))


def test_working_set_matches_enumeration():
    # 24 halfspaces in 4-D: one least-distance solve, same projection
    rng = RandomSource(33)
    anchor = 0.2 * rng.normal(4)
    sets = [Halfspace(c, float(c @ anchor) + 0.05 + float(rng.uniform()))
            for c in (rng.normal(4) for _ in range(24))]
    for _ in range(5):
        x = 3 * rng.normal(4)
        fast = project_intersection(sets, x, tol=1e-10)
        exact = enum_polyhedron_projection(sets, x)
        assert np.linalg.norm(fast - exact) <= 1e-8

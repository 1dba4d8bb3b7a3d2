"""The benchmark's tracer patches package names from outside, and its
checker compares outputs with bench/refs; a renamed or removed name, or a
changed answer, must fail here, not first in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spprox import cli, constraints, harness, parse_config, problems, solvers

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIG = """\
[experiment]
runs = 2
iterations = 30
stride = 10

[problem]
family = finite-sum
m = 4
n = 3

[solvers]
algorithms = spp, rspp
gamma = 0.5, 1
"""


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = _load("tracer")
    originals = (solvers.dist_intersection, constraints.dist_intersection,
                 constraints.project_intersection,
                 problems.project_intersection)
    t = tracer.Tracer("t")
    try:
        tracer.install(t)
        assert t.counted_error is constraints.DykstraError
        assert solvers.dist_intersection is not originals[0]
    finally:
        t.restore()  # raises if any name still holds a wrapper
    assert (solvers.dist_intersection, constraints.dist_intersection,
            constraints.project_intersection,
            problems.project_intersection) == originals


def test_traced_run_passes_the_bench_self_check(tmp_path, monkeypatch):
    # the wrappers must see generation, every cell and every run: a path
    # around harness.generate, run_cell or run leaves them blind
    tracer, bench = _load("tracer"), _load("run")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    monkeypatch.setenv("SPPROX_OUTDIR", str(tmp_path / "out"))
    t = tracer.Tracer("t")
    try:
        tracer.install(t)
        assert cli.main(["run", str(cfg), "--workers", "1"]) == 0
    finally:
        t.restore()
    cells = {cell.name: None for cell in parse_config(cfg).cells}
    assert len(cells) == 4
    assert bench.tracer_self_check(t.to_json(), {"cells": cells}) == []


KAPPA_CONFIG = """\
[experiment]
runs = 2
iterations = 20
stride = 10
kappa_probes = 2
overlay_bounds = true

[problem]
family = constrained-ls
n = 4
m = 40
seed = 2

[solvers]
algorithms = spp
"""


def test_traced_run_times_the_kappa_probes(tmp_path, monkeypatch):
    # the bench's kappa phase is the estimate_kappa span, and its probe time
    # the one dist_intersection call that solves every kept probe
    tracer = _load("tracer")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(KAPPA_CONFIG)
    monkeypatch.setenv("SPPROX_OUTDIR", str(tmp_path / "out"))
    t = tracer.Tracer("t")
    try:
        tracer.install(t)
        assert cli.main(["run", str(cfg), "--workers", "1"]) == 0
    finally:
        t.restore()
    trace = t.to_json()
    names = [span[2] for span in trace["spans"]]
    assert names.count("constraints.estimate_kappa") == 1
    config = parse_config(cfg)
    problem = problems.generate(config.spec)
    u = config.probe_source().standard_normal((2, problem.dim))
    radius = 2.0 * max(1.0, np.linalg.norm(problem.x_star))
    x = problem.x_star + radius * u / np.linalg.norm(u, axis=1)[:, None]
    kept = sum(problem.mean_constraint_sq_distance(p) >= 1e-14 for p in x)
    assert kept == 2
    assert trace["calls"]["constraints.probe_projection"]["count"] == 1


@pytest.mark.parametrize("workload", ["ls_steps", "ls_feas", "portfolio"])
def test_workload_matches_the_bench_refs(tmp_path, monkeypatch, workload):
    # seed set 0 of each workload, run in process from the package's template
    bench = _load("run")
    template = harness.CONFIG_TEMPLATES[bench.WORKLOADS[workload]["template"]]
    cfg = bench.write_config(workload, template, 0, tmp_path / "exp.ini")
    monkeypatch.setenv("SPPROX_OUTDIR", str(tmp_path / "out"))
    code = cli.main(["run", str(cfg), "--workers", "1"])
    checker = bench.Checker(bench.load_refs(workload))
    checker.check_run(workload, 0, tmp_path / "out", code)
    assert checker.attempted > 0
    assert checker.failed == 0, checker.problems


def test_setup_probe_reproduces_the_reference_optimum(tmp_path):
    # the probe imports the package and generates the problem on its own
    bench = _load("run")
    template = harness.CONFIG_TEMPLATES[bench.WORKLOADS["ls_feas"]["template"]]
    cfg = bench.write_config("ls_feas", template, 0, tmp_path / "exp.ini")
    probe = bench.probe_setup(cfg)  # a subprocess, as in a benchmark run
    assert probe["setup_s"] > 0
    assert bench.xstar_matches(probe["x_star"],
                               bench.load_refs("ls_feas")["x_star"])

import configparser
import inspect
import math
import multiprocessing
import pickle
from dataclasses import MISSING, fields, replace
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from spprox import (AggregateTrace, Cell, ConfigError, ExperimentConfig,
                    GeneratorSpec, PolynomialDecay, ProblemConstants,
                    SolverConfig, aggregate, build_markowitz,
                    emit_csv, emit_svg, log_log_slope, parse_config,
                    parse_csv, run_cell, run_experiment, synth_returns)
from spprox import (DykstraError, Polyhedron, SolverError, constraints,
                    harness, solvers)
from spprox.harness import CONFIG_TEMPLATES, CSV_HEADER, emit_run_csv
from spprox.problems import FAMILIES, generate, knob_defaults


def _toy_aggregate(records: int) -> AggregateTrace:
    ks = np.arange(records) * 10
    vals = 1.0 / (1.0 + ks)
    z = np.zeros(records)
    return AggregateTrace(
        name="toy", ks=ks, stepsizes=np.full(records, 0.5),
        mean_sqdist=vals, se_sqdist=z + 0.01,
        mean_feas=vals / 2, se_feas=z,
        mean_obj=vals * 3, se_obj=z + 0.25,
        mean_ftest=np.full(records, math.nan),
        se_ftest=np.full(records, math.nan),
        counts=np.full(records, 3), runs=3, diverged=0)


def test_emit_csv_counts(tmp_path):
    empty = _toy_aggregate(0)
    path = tmp_path / "empty.csv"
    emit_csv(empty, path)
    assert path.read_text() == CSV_HEADER + "\n"
    three = _toy_aggregate(3)
    path3 = tmp_path / "three.csv"
    emit_csv(three, path3)
    assert len(path3.read_text().strip().splitlines()) == 4


def test_emit_csv_roundtrip_exact(tmp_path):
    agg = _toy_aggregate(5)
    agg.mean_sqdist = np.array([1/ 3, 2.5e-17, 1.0, math.pi, 6.02e23])
    path = tmp_path / "rt.csv"
    emit_csv(agg, path)
    back = parse_csv(path)
    assert np.array_equal(back["mean_sqdist"], agg.mean_sqdist)
    assert np.array_equal(back["k"], agg.ks.astype(float))
    assert "mean_ftest" not in back  # fixed schema
    assert np.array_equal(back["mean_obj"], agg.mean_obj)


def test_emit_svg_well_formed(tmp_path):
    path = tmp_path / "plot.svg"
    ks = np.arange(0, 100, 10)
    emit_svg([("flat", ks, np.full(10, 2.0))], [], path, title="t",
             ylabel="y")
    tree = ET.parse(path)  # XML parser oracle
    root = tree.getroot()
    assert root.tag.endswith("svg")
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 1
    ys = {pt.split(",")[1] for pt in polys[0].attrib["points"].split()}
    assert len(ys) == 1  # constant trace renders horizontal


def test_emit_svg_overlays_dashed(tmp_path):
    path = tmp_path / "plot2.svg"
    ks = np.arange(1, 50)
    emit_svg([("run", ks, 1.0 / ks)], [("bound", ks, 2.0 / ks)], path)
    root = ET.parse(path).getroot()
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 2
    dashed = [e for e in polys if "stroke-dasharray" in e.attrib]
    assert len(dashed) == 1


def _metric_trace(sqdist, feas, objective):
    """A RunTrace of the given metrics; shorter than its cell's longest run
    means diverged, as an sgd run stops recording when it diverges."""
    from spprox.solvers import RunTrace
    n = len(sqdist)
    return RunTrace("sgd", ks=np.arange(n) * 10, stepsizes=np.ones(n),
                    sqdist=np.asarray(sqdist, dtype=float),
                    feas=np.asarray(feas, dtype=float),
                    objective=np.asarray(objective, dtype=float),
                    test_obj=np.full(n, math.nan), final=np.zeros(2))


def _two_runs():
    return [_metric_trace([4.0, 2.0, 1.0], np.zeros(3), np.ones(3)),
            _metric_trace([4.0, 8.0], np.zeros(2), np.ones(2))], [2, 2, 1]


def _twelve_runs():
    rng = np.random.default_rng(3)
    lengths = [6] * 8 + [4, 2, 6, 5]
    traces = [_metric_trace(rng.uniform(0.5, 2.0, n), rng.uniform(0, 1e-3, n),
                            rng.normal(5.0, 1.0, n)) for n in lengths]
    traces[2].sqdist[3] = math.nan  # a non-finite entry is excluded
    return traces, [12, 12, 11, 11, 10, 9]  # runs that recorded each k


def test_counts_are_runs_recorded_on_markowitz():
    # no known optimum, so sqdist is NaN at every record
    problem = build_markowitz(synth_returns(periods=200, n=5, seed=2))
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0.5), iterations=40,
                       stride=10)
    agg = run_cell(problem, cfg, runs=3, base_seed=7)
    assert np.isnan(agg.mean_sqdist).all()
    assert agg.counts.tolist() == [3] * len(agg.ks)


def test_a_cell_of_no_runs_is_rejected():
    problem = build_markowitz(synth_returns(periods=200, n=5, seed=2))
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0.5), iterations=40,
                       stride=10)
    with pytest.raises(ValueError, match="a cell needs at least one run"):
        run_cell(problem, cfg, runs=0, base_seed=7)
    with pytest.raises(ValueError, match="a cell needs at least one run"):
        aggregate("empty", [])


@pytest.mark.parametrize("make", [_two_runs, _twelve_runs])
def test_aggregate_handles_truncated_runs(make):
    traces, counts = make()
    longest = max(len(t.ks) for t in traces)
    for t in traces:
        if len(t.ks) < longest:
            t.diverged_at = int(t.ks[-1]) + 4
    agg = aggregate("cell", traces)
    assert agg.diverged == sum(len(t.ks) < longest for t in traces)
    assert agg.counts.tolist() == counts
    assert np.array_equal(agg.ks, np.arange(longest) * 10)
    for metric, mean, se in (("sqdist", agg.mean_sqdist, agg.se_sqdist),
                             ("feas", agg.mean_feas, agg.se_feas),
                             ("objective", agg.mean_obj, agg.se_obj)):
        for j in range(longest):  # per-column oracle over the finite entries
            vals = np.array([getattr(t, metric)[j] for t in traces
                             if len(t.ks) > j])
            vals = vals[np.isfinite(vals)]
            want_se = (np.std(vals, ddof=1) / math.sqrt(len(vals))
                       if len(vals) > 1 else 0.0)
            assert mean[j] == pytest.approx(np.mean(vals), rel=1e-15, abs=0)
            assert se[j] == pytest.approx(want_se, rel=1e-15, abs=0)
    assert np.isnan(agg.mean_ftest).all() and np.isnan(agg.se_ftest).all()


def test_log_log_slope_recovers_power_law():
    ks = np.arange(1, 2001)
    assert log_log_slope(ks, 5.0 / ks) == pytest.approx(-1.0)
    assert log_log_slope(ks, 2.0 / np.sqrt(ks)) == pytest.approx(-0.5)


def _tiny_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        spec=GeneratorSpec("finite-sum", n=3, m=4, seed=1),
        cells=[Cell("spp", 1.0, 1.0)],
        runs=1, base_seed=10, outdir=str(tmp_path / "out"),
        iterations=40, stride=10, workers=1)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_run_experiment_single_cell_outputs(tmp_path):
    config = _tiny_config(tmp_path)
    results = run_experiment(config)
    out = Path(config.outdir)
    assert len(list(out.glob("*.csv"))) == 1
    assert len(list(out.glob("*.svg"))) == 1
    assert list(results) == ["spp_mu1_g1"]
    assert len(results["spp_mu1_g1"].ks) == 5


def test_run_experiment_rerun_byte_identical(tmp_path):
    c1 = _tiny_config(tmp_path, outdir=str(tmp_path / "a"),
                      cells=[Cell("spp", 1.0, 1.0), Cell("sgd", 0.5, 0.5)],
                      runs=3)
    c2 = _tiny_config(tmp_path, outdir=str(tmp_path / "b"),
                      cells=[Cell("spp", 1.0, 1.0), Cell("sgd", 0.5, 0.5)],
                      runs=3)
    run_experiment(c1)
    run_experiment(c2)
    for f in sorted(Path(c1.outdir).glob("*.csv")):
        assert f.read_bytes() == (Path(c2.outdir) / f.name).read_bytes()


def test_figure_one_reproduction_counts(tmp_path):
    # 4 algorithms x mu0 in {0.5, 1} x gamma in {1/2, 1}: 16 curves, 2 SVGs
    spec = GeneratorSpec("constrained-ls", n=4, m=80, seed=2)
    cells = [Cell(a, m, g) for a in ("spp", "aspp", "sgd", "rspp")
             for m in (0.5, 1.0) for g in (0.5, 1.0)]
    config = ExperimentConfig(spec=spec, cells=cells, runs=1, base_seed=3,
                              outdir=str(tmp_path / "fig1"), iterations=80,
                              stride=20, workers=1, record_feasibility=False)
    results = run_experiment(config)
    assert len(results) == 16
    svgs = sorted(Path(config.outdir).glob("*.svg"))
    assert len(svgs) == 2
    for svg in svgs:
        root = ET.parse(svg).getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 8


def test_gammas_that_print_alike_share_one_figure(tmp_path):
    config = _tiny_config(tmp_path, cells=[Cell("spp", 1.0, 0.5),
                                           Cell("aspp", 1.0, 0.5000001)])
    run_experiment(config)
    svgs = list(Path(config.outdir).glob("*.svg"))
    assert [p.name for p in svgs] == ["fig_gamma_0.5.svg"]
    polys = [e for e in ET.parse(svgs[0]).getroot().iter()
             if e.tag.endswith("polyline")]
    assert len(polys) == 2
    assert not any("stroke-dasharray" in e.attrib for e in polys)


def test_debug_runs_match_aggregate(tmp_path):
    config = _tiny_config(tmp_path, runs=4, debug_runs=True)
    results = run_experiment(config)
    agg = results["spp_mu1_g1"]
    out = Path(config.outdir)
    per_run = [parse_csv(p) for p in sorted(out.glob("spp_mu1_g1_run*.csv"))]
    assert len(per_run) == 4
    stack = np.stack([r["mean_sqdist"] for r in per_run])
    assert np.all(np.abs(stack.mean(axis=0) - agg.mean_sqdist) <= 1e-12)
    se = stack.std(axis=0, ddof=1) / math.sqrt(4)
    assert np.all(np.abs(se - agg.se_sqdist) <= 1e-12)


def test_serial_parallel_identical(tmp_path):
    base = dict(cells=[Cell("spp", 1.0, 1.0), Cell("aspp", 1.0, 0.5)], runs=4)
    c1 = _tiny_config(tmp_path, outdir=str(tmp_path / "ser"), **base)
    c2 = _tiny_config(tmp_path, outdir=str(tmp_path / "par"), workers=2,
                      **base)
    run_experiment(c1)
    run_experiment(c2)
    # per cell its CSV and meta.json; one SVG per gamma
    _assert_same_files(c1.outdir, c2.outdir, 2 * 2 + 2)


def _assert_same_files(dir1, dir2, count):
    """``dir1`` and ``dir2`` hold the same ``count`` files, byte for byte:
    every CSV, per-run CSV, meta.json and SVG."""
    dir1, dir2 = Path(dir1), Path(dir2)
    names = sorted(p.name for p in dir1.iterdir())
    assert len(names) == count
    assert sorted(p.name for p in dir2.iterdir()) == names
    for name in names:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name


def test_markowitz_records_are_byte_identical_at_any_worker_count(tmp_path):
    # 43 records per run: a serial cell's 129 points end in a chunk of one
    # (a BLAS matrix-vector call), a pooled share's chunks mix cells, and
    # a point's feasibility must not depend on the batch it is solved in
    assert 3 * 43 == 2 * constraints.CHUNK + 1
    outdirs = [tmp_path / f"w{w}" for w in (1, 2, 3)]
    for workers, outdir in zip((1, 2, 3), outdirs):
        run_experiment(ExperimentConfig(
            spec=GeneratorSpec("markowitz", n=25, periods=300, seed=3),
            cells=[Cell(a, 1.0, 0.5) for a in ("spp", "aspp", "sgd")],
            runs=3, base_seed=11, outdir=str(outdir), workers=workers,
            iterations=168, stride=4, debug_runs=True))
    # per cell: its CSV, 3 per-run CSVs and meta.json; one SVG
    for outdir in outdirs[1:]:
        _assert_same_files(outdirs[0], outdir, 3 * (1 + 3 + 1) + 1)
    runs = parse_csv(outdirs[0] / "aspp_mu1_g0.5_run000.csv")
    assert len(runs["k"]) == 43 and np.isfinite(runs["mean_feas"]).all()


def test_feasibility_is_one_solve_per_cell_and_per_share(tmp_path,
                                                         monkeypatch):
    sizes = []
    dist = solvers.dist_intersection

    def counted(rows, x):
        sizes.append(len(x))
        return dist(rows, x)

    monkeypatch.setattr(solvers, "dist_intersection", counted)
    problem = build_markowitz(synth_returns(periods=200, n=5, seed=2))
    cfg = SolverConfig("spp", PolynomialDecay(1.0, 0.5), iterations=40,
                       stride=10)
    agg = run_cell(problem, cfg, runs=3, base_seed=7)
    assert sizes == [15] and np.isfinite(agg.mean_feas).all()
    sizes.clear()  # a cell with no feasibility records solves nothing
    agg = run_cell(problem, cfg, runs=3, base_seed=7,
                   record_feasibility=False)
    assert sizes == [] and np.isnan(agg.mean_feas).all()
    # a share of two cells' runs
    share = [(cfg, 7), (replace(cfg, algorithm="aspp"), 8)]
    traces = harness._run_share(share, problem, multiprocessing.Event(), True)
    assert sizes == [10]
    assert all(np.isfinite(t.feas).all() for t in traces)
    for record, solves in ((True, [10]), (False, [])):
        sizes.clear()  # the parent's share 0 of a pooled experiment
        run_experiment(ExperimentConfig(
            spec=GeneratorSpec("markowitz", n=5, periods=200, seed=2),
            cells=[Cell("spp", 1.0, 0.5), Cell("aspp", 1.0, 0.5)], runs=2,
            base_seed=7, outdir=str(tmp_path / f"pool_{record}"),
            iterations=40, stride=10, workers=2,
            record_feasibility=record))
        assert sizes == solves


@pytest.fixture
def opened_pools(monkeypatch):
    """The ``max_workers`` of every process pool the harness opens."""
    opened = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return opened


def test_one_pool_per_experiment(tmp_path, opened_pools):
    # 3 runs per cell do not divide evenly over 2 workers; the parent is one
    base = dict(cells=[Cell("spp", 1.0, 1.0), Cell("rspp", 1.0, 0.5),
                       Cell("sgd", 0.5, 0.5)], runs=3)
    c1 = _tiny_config(tmp_path, outdir=str(tmp_path / "ser"), **base)
    c2 = _tiny_config(tmp_path, outdir=str(tmp_path / "par"), workers=2,
                      **base)
    run_experiment(c1)
    assert opened_pools == []
    run_experiment(c2)
    assert opened_pools == [1]
    _assert_same_files(c1.outdir, c2.outdir, 3 + 3 + 2)


def test_uneven_shares_match_serial(tmp_path, opened_pools):
    # 7 tasks over 3 workers: shares of 3, 2 and 2 tasks
    base = dict(cells=[Cell("spp", 1.0, 1.0), Cell("aspp", 1.0, 0.5),
                       Cell("sgd", 0.5, 0.5), Cell("rspp", 1.0, 0.5),
                       Cell("spp", 2.0, 0.5), Cell("aspp", 0.5, 1.0),
                       Cell("sgd", 0.5, 1.0)], runs=1)
    c1 = _tiny_config(tmp_path, outdir=str(tmp_path / "ser"), **base)
    c3 = _tiny_config(tmp_path, outdir=str(tmp_path / "par"), workers=3,
                      **base)
    run_experiment(c1)
    run_experiment(c3)
    assert opened_pools == [2]
    _assert_same_files(c1.outdir, c3.outdir, 7 + 7 + 2)


def test_one_task_grid_opens_no_pool(tmp_path, opened_pools):
    config = _tiny_config(tmp_path, workers=2)
    assert len(run_experiment(config)) == 1
    assert opened_pools == []


def test_run_errors_survive_pickling():
    # a worker's exception reaches the parent pickled
    err = pickle.loads(pickle.dumps(SolverError("non-finite iterate", 7)))
    assert type(err) is SolverError and err.iteration == 7
    assert str(err) == "non-finite iterate"
    err = pickle.loads(pickle.dumps(DykstraError("empty")))
    assert type(err) is DykstraError and str(err) == "empty"


def test_overlay_bounds_adds_dashed_curves(tmp_path):
    spec = GeneratorSpec("finite-sum", n=3, m=5, seed=4)
    config = ExperimentConfig(
        spec=spec, cells=[Cell("spp", 0.5, 1.0)], runs=2, base_seed=5,
        outdir=str(tmp_path / "ov"), iterations=60, stride=15, workers=1,
        overlay_bounds=True, kappa_probes=0)
    # kappa comes from the problem itself (single whole-space set)
    run_experiment(config)
    svg = next(Path(config.outdir).glob("*.svg"))
    root = ET.parse(svg).getroot()
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 2
    assert sum("stroke-dasharray" in e.attrib for e in polys) == 1


def test_a_row_free_run_records_its_known_kappa(tmp_path):
    # finite-sum's one set is the whole space: kappa = 1, and no probe fails
    config = ExperimentConfig(
        spec=GeneratorSpec("finite-sum", n=3, m=5, seed=4),
        cells=[Cell("spp", 0.5, 1.0)], runs=2, base_seed=5,
        outdir=str(tmp_path / "rf"), iterations=20, stride=10, workers=1,
        kappa_probes=3)
    (agg,) = run_experiment(config).values()
    assert agg.metadata["kappa_hat_lower_bound"] == 1.0


def test_run_certifies_every_intersection_solve_at_the_certificate_tol(
        tmp_path, monkeypatch):
    # every solve reads CERTIFICATE_TOL itself: no caller passes a tolerance
    assert list(inspect.signature(Polyhedron._solve).parameters) == [
        "self", "x"]
    solves = []
    solve = Polyhedron._solve

    def spy(rows, x):
        solves.append(len(x))
        return solve(rows, x)

    generate = harness.generate

    def generate_then_spy(spec):  # the reference solve is not a run's
        problem = generate(spec)
        monkeypatch.setattr(Polyhedron, "_solve", spy)
        return problem

    monkeypatch.setattr(harness, "generate", generate_then_spy)
    config = ExperimentConfig(
        spec=GeneratorSpec("constrained-ls", n=4, m=40, seed=2),
        cells=[Cell("spp", 0.5, 1.0)], runs=2, base_seed=5,
        outdir=str(tmp_path / "tol"), iterations=40, stride=10, workers=1,
        overlay_bounds=True, kappa_probes=1)
    (agg,) = run_experiment(config).values()
    # the run's records, the kappa probe and the overlay's dist_X(x0)
    assert agg.metadata["kappa_hat_lower_bound"] is not None
    svg = ET.parse(next(Path(config.outdir).glob("*.svg"))).getroot()
    assert any("stroke-dasharray" in e.attrib for e in svg.iter()
               if e.tag.endswith("polyline"))
    assert len(solves) >= 3


def test_a_run_measures_its_problem_once(tmp_path, monkeypatch):
    calls = []
    measure = ProblemConstants.measure

    def spy(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(ProblemConstants, "measure", spy)
    config = ExperimentConfig(
        spec=GeneratorSpec("constrained-ls", n=4, m=40, seed=2),
        cells=[Cell("spp", mu0, 1.0) for mu0 in (0.5, 1.0)], runs=2,
        base_seed=5, outdir=str(tmp_path / "once"), iterations=40, stride=10,
        workers=1, overlay_bounds=True, kappa_probes=1)
    run_experiment(config)
    svg = ET.parse(next(Path(config.outdir).glob("*.svg"))).getroot()
    # each mu0 gets its bound from the one measurement
    assert sum("stroke-dasharray" in e.attrib for e in svg.iter()
               if e.tag.endswith("polyline")) == 2
    assert len(calls) == 1


def test_parse_config_roundtrip(tmp_path):
    for family, text in CONFIG_TEMPLATES.items():
        path = tmp_path / f"{family}.ini"
        path.write_text(text)
        config = parse_config(path)
        config.validate()
        assert config.spec.family == family


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_template_shows_the_defaults(tmp_path, family):
    # every value shown is its default; every defaulted [experiment] field
    # and every knob appears, a knob with no value as a comment line
    text = CONFIG_TEMPLATES[family]
    path = tmp_path / "t.ini"
    path.write_text(text)
    config, default = parse_config(path), ExperimentConfig()
    shown = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    shown.read_string(text)
    keys = [("outdir" if k == "output_dir" else k)
            for k in shown["experiment"]]
    assert keys == [f.name for f in fields(ExperimentConfig)
                    if f.default is not MISSING]
    for key in keys:
        assert getattr(config, key) == getattr(default, key), key
    defaults = knob_defaults(family)
    commented = {key for key in defaults if f"\n# {key} =" in text}
    assert commented == ({"returns_csv"} if family == "markowitz" else set())
    assert config.spec.knobs == {key: value for key, value in defaults.items()
                                 if key not in commented}
    lists = [shown["solvers"][key].split(",")
             for key in ("algorithms", "mu0", "gamma")]
    assert len(config.cells) == math.prod(map(len, lists)) > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_alone_builds_its_generator_defaults(tmp_path, family):
    path = tmp_path / "f.ini"
    path.write_text(f"[problem]\nfamily = {family}\n")
    got, want = generate(parse_config(path).spec), FAMILIES[family]()
    assert got.dim == want.dim
    assert (len(got.losses), len(got.constraints), got.one_pass) == (
        len(want.losses), len(want.constraints), want.one_pass)
    if want.x_star is None:
        assert got.x_star is None
    else:
        assert np.array_equal(got.x_star, want.x_star)


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nruns = 3\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(path)
    path2 = tmp_path / "bad2.ini"
    path2.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(path2)
    path3 = tmp_path / "bad3.ini"
    path3.write_text("[experiment]\nruns = not_a_number\n")
    with pytest.raises(ConfigError, match="runs"):
        parse_config(path3)


def test_parse_config_grid(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(
        "[problem]\nfamily = finite-sum\nm = 4\nn = 3\n"
        "[solvers]\nalgorithms = spp, sgd\nmu0 = 0.5, 1\ngamma = 1\n")
    config = parse_config(path)
    assert len(config.cells) == 4
    names = {c.name for c in config.cells}
    assert "sgd_mu0.5_g1" in names


def test_rspp_with_constant_gamma_rejected(tmp_path):
    path = tmp_path / "r.ini"
    path.write_text("[solvers]\nalgorithms = rspp\nmu0 = 1\ngamma = 0\n")
    with pytest.raises(ConfigError):
        parse_config(path)

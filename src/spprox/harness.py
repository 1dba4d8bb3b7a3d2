"""Experiment harness: Monte-Carlo orchestration, aggregation, CSV/SVG output.

A configuration names one generated problem and a grid of solver cells
(algorithm x mu0 x gamma).  Each cell runs ``runs`` Monte-Carlo repetitions
with seeds ``base_seed + run_index``.  Every run goes through one share
runner, ``_run_share``; serially each cell is one share.  With ``workers``
> 1 processes, the flattened (cell, run) tasks are dealt into ``workers``
interleaved shares: the parent runs share 0, and one pool of ``workers - 1``
processes, whose initializer installs the problem, the stop event and the
record flag once each, runs one share per process.  A task carries only
its ``(SolverConfig, seed)``; a failed run stops every share at its next
run, and no file is written.  A share's feasibility records come from one
``solvers.fill_feasibility`` call (none with ``record_feasibility`` off),
certified at ``constraints.CERTIFICATE_TOL``, whose answer for a point does
not depend on the batch.  Aggregation is keyed by run index, so serial and
parallel execution emit byte-identical files.  The problem's constants are
measured once; ``bounds.bound_overlay`` picks each cell's bound for its
schedule.  Each ``gen-config`` template shows the ``ExperimentConfig``
defaults and the family generator's knob defaults, and a per-family grid.
"""

from __future__ import annotations

import configparser
import json
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from . import bounds as bounds_mod
from .constraints import estimate_kappa
from .core import StochasticProblem
from .problems import FAMILIES, GeneratorSpec, generate, knob_defaults
from .schedules import PolynomialDecay, mean_theta_sq
from .solvers import (RunTrace, SolverConfig, check_scheme, fill_feasibility,
                      run)

CSV_HEADER = "k,mean_sqdist,se_sqdist,mean_feas,se_feas,mean_obj,se_obj,stepsize"


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, bad grid)."""


@dataclass
class Cell:
    algorithm: str
    mu0: float
    gamma: float  # 0 means a constant stepsize mu0

    @property
    def gamma_label(self) -> str:
        """The stepsize exponent as named in outputs: "const" or ``%g``."""
        return "const" if self.gamma == 0 else f"{self.gamma:g}"

    @property
    def name(self) -> str:
        return f"{self.algorithm}_mu{self.mu0:g}_g{self.gamma_label}"

    def schedule(self) -> PolynomialDecay:
        return PolynomialDecay(self.mu0, self.gamma)


@dataclass
class ExperimentConfig:
    spec: GeneratorSpec = field(default_factory=lambda: GeneratorSpec("constrained-ls"))
    cells: list = field(default_factory=lambda: [Cell("spp", 1.0, 1.0)])
    runs: int = 30
    base_seed: int = 12345
    outdir: str = "out"
    overlay_bounds: bool = False
    kappa_probes: int = 0
    iterations: int = 0       # 0: one pass through the data
    stride: int = 0           # 0: ~50 records per run
    workers: int = 0          # 0: available parallelism
    record_feasibility: bool = True
    debug_runs: bool = False

    def probe_source(self) -> np.random.Generator:
        """The random stream of the kappa probes, apart from every run's."""
        return np.random.default_rng(self.base_seed + 999_983)

    def validate(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        for key in ("base_seed", "iterations", "stride", "workers",
                    "kappa_probes"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        try:
            self.spec.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.cells:
            raise ConfigError("no solver cells configured")
        names = set()
        for cell in self.cells:
            try:
                check_scheme(cell.algorithm, cell.schedule().gamma)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if cell.name in names:  # its files would overwrite another's
                raise ConfigError(f"two solver cells (algorithms x mu0 x "
                                  f"gamma) share the output name {cell.name!r}")
            names.add(cell.name)


@dataclass
class AggregateTrace:
    """Per-k Monte-Carlo means and standard errors for one cell."""

    name: str
    ks: np.ndarray
    stepsizes: np.ndarray
    mean_sqdist: np.ndarray
    se_sqdist: np.ndarray
    mean_feas: np.ndarray
    se_feas: np.ndarray
    mean_obj: np.ndarray
    se_obj: np.ndarray
    mean_ftest: np.ndarray
    se_ftest: np.ndarray
    counts: np.ndarray
    runs: int
    diverged: int
    metadata: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)  # per-run RunTrace, run-index order


def _mean_se(values: np.ndarray):
    """Means, standard errors and counts of the finite entries along the last
    (runs) axis: NaN where none is finite, an se of 0 where one is.

    A record whose runs are all finite reduces bit for bit as ``np.mean``/
    ``np.std(ddof=1)`` of its runs (the same pairwise sum along the
    contiguous axis); a masked entry adds 0, which may move the last bit.
    """
    finite = np.isfinite(values)
    counts = finite.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(finite, values, 0.0).sum(axis=-1) / counts
        dev = np.where(finite, values - mean[..., None], 0.0)
        se = np.sqrt((dev * dev).sum(axis=-1) / (counts - 1)) / np.sqrt(counts)
    return mean, np.where(counts == 1, 0.0, se), counts


def aggregate(name: str, traces: list, metadata: dict | None = None) -> AggregateTrace:
    """Deterministic reduction of per-run traces (run-index order).

    The four metrics are reduced as one NaN-padded (metric, record, run)
    array, so a run truncated by divergence counts at its recorded ks only.
    """
    if not traces:
        raise ValueError("a cell needs at least one run")
    longest = max(traces, key=lambda t: len(t.ks))
    values = np.full((4, len(longest.ks), len(traces)), math.nan)
    for i, t in enumerate(traces):
        values[:, :len(t.ks), i] = (t.sqdist, t.feas, t.objective, t.test_obj)
    mean, se, counts = _mean_se(values)
    return AggregateTrace(
        name=name,
        ks=longest.ks.copy(),
        stepsizes=longest.stepsizes.copy(),
        mean_sqdist=mean[0], se_sqdist=se[0],
        mean_feas=mean[1], se_feas=se[1],
        mean_obj=mean[2], se_obj=se[2],
        mean_ftest=mean[3], se_ftest=se[3],
        counts=counts[2],  # objective: finite wherever a run recorded
        runs=len(traces),
        diverged=sum(1 for t in traces if t.diverged),
        metadata=dict(metadata or {}),
        traces=list(traces))


_worker_context = None  # (problem, stop, record), set in a pool process


def _install_problem(problem: StochasticProblem, stop, record: bool) -> None:
    global _worker_context
    _worker_context = problem, stop, record


def _run_share(share: list, *context) -> list:
    """The traces of a share's ``(SolverConfig, seed)`` tasks, in order.

    ``context`` is ``(problem, stop, record)``; a pool process omits it
    (installed once).  With ``record``, the feasibility of every point the
    share records is one ``fill_feasibility`` solve.  Once any share has
    failed (``stop`` is set), it runs no more.
    """
    problem, stop, record = context or _worker_context
    try:
        traces = []
        for cfg, seed in share:
            if stop.is_set():  # a share cut short is never read
                return traces
            traces.append(run(problem, replace(cfg, seed=seed)))
        if record:
            fill_feasibility(problem, traces)
        return traces
    except BaseException:
        stop.set()
        raise


def _pooled_traces(problem: StochasticProblem, solver_cfgs: list,
                   seeds: range, workers: int, record: bool) -> list:
    """Traces of every config in ``solver_cfgs`` at every seed.

    Task i of the flattened (config, seed) list goes to share ``i % workers``
    (2 <= workers <= tasks).  The parent runs share 0 and a pool of
    ``workers - 1`` processes runs one share each.  If a run raises, every
    share stops at its next run and the original exception propagates.
    """
    tasks = [(cfg, seed) for cfg in solver_cfgs for seed in seeds]
    stop = multiprocessing.Event()
    with ProcessPoolExecutor(max_workers=workers - 1,
                             initializer=_install_problem,
                             initargs=(problem, stop, record)) as pool:
        futures = [pool.submit(_run_share, tasks[i::workers])
                   for i in range(1, workers)]
        try:
            shares = [_run_share(tasks[::workers], problem, stop, record)]
            shares += [future.result() for future in futures]
        except BaseException:
            stop.set()
            for future in futures:
                future.cancel()
            raise
    traces = [None] * len(tasks)
    for i, share in enumerate(shares):
        traces[i::workers] = share
    runs = len(seeds)
    return [traces[i:i + runs] for i in range(0, len(traces), runs)]


def run_cell(problem: StochasticProblem, solver_config: SolverConfig,
             runs: int, base_seed: int, name: str = "cell",
             metadata: dict | None = None,
             record_feasibility: bool = True) -> AggregateTrace:
    """Monte-Carlo repetitions of one cell; seeds are base_seed + run index.
    The cell runs as one share: with ``record_feasibility``, the feasibility
    of every point it records is one batched solve."""
    share = [(solver_config, base_seed + i) for i in range(runs)]
    traces = _run_share(share, problem, threading.Event(), record_feasibility)
    return aggregate(name, traces, metadata)


# -- emission ------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, ks, columns) -> None:
    lines = [CSV_HEADER] + [
        ",".join([str(int(k))] + [_fmt(col[j]) for col in columns])
        for j, k in enumerate(ks)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def emit_csv(trace: AggregateTrace, path) -> None:
    """Write the fixed-schema per-k CSV (17 significant digits, ASCII)."""
    _write_csv(path, trace.ks, [
        trace.mean_sqdist, trace.se_sqdist, trace.mean_feas, trace.se_feas,
        trace.mean_obj, trace.se_obj, trace.stepsizes])


def emit_run_csv(trace: RunTrace, path) -> None:
    """Debug emission of one run's raw metrics (same schema, se columns 0)."""
    zero = np.zeros(len(trace.ks))
    _write_csv(path, trace.ks, [trace.sqdist, zero, trace.feas, zero,
                                trace.objective, zero, trace.stepsizes])


def parse_csv(path):
    """Read back an emitted CSV as a dict of float arrays."""
    text = Path(path).read_text(encoding="ascii").strip().splitlines()
    header = text[0].split(",")
    cols = {h: [] for h in header}
    for line in text[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(float(cell))
    return {h: np.array(v) for h, v in cols.items()}


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]


def emit_svg(traces, overlays, path, title: str = "",
             ylabel: str = "metric") -> None:
    """Self-contained SVG: log-scaled y, one polyline per trace.

    ``traces`` and ``overlays`` are sequences of (label, ks, values);
    overlays render dashed.  Nonpositive values are dropped (log scale).
    """
    if not traces:
        raise ValueError("need at least one trace")
    width, height = 800, 520
    ml, mr, mt, mb = 70, 190, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    pts = []
    for _, ks, ys in list(traces) + list(overlays):
        ks = np.asarray(ks, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (ys > 0) & np.isfinite(ys)
        pts.append((ks[keep], ys[keep]))
    all_k = np.concatenate([k for k, _ in pts if len(k)]) if any(len(k) for k, _ in pts) else np.array([0.0, 1.0])
    all_y = np.concatenate([y for _, y in pts if len(y)]) if any(len(y) for _, y in pts) else np.array([1.0])
    kmin, kmax = float(all_k.min()), float(all_k.max())
    if kmax == kmin:
        kmax = kmin + 1.0
    ylo = math.floor(math.log10(float(all_y.min())))
    yhi = math.ceil(math.log10(float(all_y.max())))
    if yhi == ylo:
        yhi = ylo + 1

    def sx(k):
        return ml + (k - kmin) / (kmax - kmin) * pw

    def sy(y):
        return mt + (yhi - math.log10(y)) / (yhi - ylo) * ph

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height),
                     viewBox=f"0 0 {width} {height}")

    def text(x, y, label, size, anchor=None, transform=None):
        el = ET.SubElement(svg, "text", x=str(x), y=str(y), fill="black")
        if anchor is not None:
            el.set("text-anchor", anchor)
        el.set("font-size", str(size))
        if transform is not None:
            el.set("transform", transform)
        el.text = label

    ET.SubElement(svg, "rect", x="0", y="0", width=str(width),
                  height=str(height), fill="white")
    # frame and ticks
    ET.SubElement(svg, "rect", x=str(ml), y=str(mt), width=str(pw),
                  height=str(ph), fill="none", stroke="black")
    for dec in range(ylo, yhi + 1):
        y = sy(10.0 ** dec)
        ET.SubElement(svg, "line", x1=str(ml), y1=f"{y:.2f}",
                      x2=str(ml + pw), y2=f"{y:.2f}",
                      stroke="#dddddd")
        text(ml - 8, f"{y + 4:.2f}", f"1e{dec}", 12, anchor="end")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = kmin + frac * (kmax - kmin)
        x = sx(k)
        ET.SubElement(svg, "line", x1=f"{x:.2f}", y1=str(mt + ph),
                      x2=f"{x:.2f}", y2=str(mt + ph + 5), stroke="black")
        text(f"{x:.2f}", mt + ph + 20, f"{k:.0f}", 12, anchor="middle")

    def polyline(ks, ys, color, dashed):
        if len(ks) == 0:
            return
        coords = " ".join(f"{sx(k):.2f},{sy(y):.2f}" for k, y in zip(ks, ys))
        el = ET.SubElement(svg, "polyline", points=coords, fill="none",
                           stroke=color)
        el.set("stroke-width", "1.6")
        if dashed:
            el.set("stroke-dasharray", "6 3")

    legend_y = mt + 14
    series = [(label, False) for label, _, _ in traces]
    series += [(label, True) for label, _, _ in overlays]
    for idx, ((label, dashed), (ks, ys)) in enumerate(zip(series, pts)):
        color = _PALETTE[idx % len(_PALETTE)]
        polyline(ks, ys, color, dashed)
        line = ET.SubElement(svg, "line", x1=str(ml + pw + 12),
                             y1=str(legend_y - 4), x2=str(ml + pw + 34),
                             y2=str(legend_y - 4), stroke=color)
        if dashed:
            line.set("stroke-dasharray", "6 3")
        text(ml + pw + 40, legend_y, label, 12)
        legend_y += 17

    if title:
        text(ml + pw // 2, 24, title, 15, anchor="middle")
    text(ml + pw // 2, height - 12, "iteration k", 13, anchor="middle")
    text(18, mt + ph // 2, ylabel, 13, anchor="middle",
         transform=f"rotate(-90 18 {mt + ph // 2})")

    ET.ElementTree(svg).write(path, encoding="utf-8", xml_declaration=True)


def log_log_slope(ks, ys) -> float:
    """OLS slope of ln y against ln k over the last decade of recorded k."""
    ks = np.asarray(ks, dtype=float)
    ys = np.asarray(ys, dtype=float)
    kmax = ks.max()
    keep = (ks >= kmax / 10.0) & (ks > 0) & (ys > 0) & np.isfinite(ys)
    if keep.sum() < 2:
        raise ValueError("not enough points in the last decade for a fit")
    x = np.log(ks[keep])
    y = np.log(ys[keep])
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


# -- experiment driver ----------------------------------------------------------

# A problem's figures plot the curve of the first row whose problem attribute
# is set (None: any problem): (attribute, AggregateTrace field, y label).
_PRIMARY_CURVES = (
    ("x_star", "mean_sqdist", "mean squared distance to optimum"),
    ("test_objective", "mean_ftest", "held-out objective"),
    (None, "mean_obj", "objective"),
)


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute every grid cell, aggregate, and write CSV/SVG outputs.

    Returns {cell name: AggregateTrace}.  Output files per cell:
    ``<name>.csv`` (fixed schema) and optionally per-run debug CSVs; one SVG
    per gamma group with the cells' primary curves (squared distance to the
    optimum when known, the held-out objective for portfolio problems) and,
    when enabled, the dashed bounds ``bounds.bound_overlay`` gives each cell.
    """
    config.validate()
    problem = generate(config.spec)
    K = config.iterations if config.iterations > 0 else problem.one_pass
    stride = config.stride if config.stride > 0 else max(1, K // 50)
    workers = config.workers or (  # 0: the CPUs this process may run on
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    meta_common = {"iterations": K, "stride": stride, "runs": config.runs,
                   "base_seed": config.base_seed,
                   "family": config.spec.family,
                   "subgradient_caveat": bounds_mod.SUBGRADIENT_CAVEAT,
                   "theta0_at_1": mean_theta_sq(problem.sigma_values(), 1.0)}

    kappa_hat = None
    if config.kappa_probes > 0:
        try:
            kappa_hat = estimate_kappa(problem, config.kappa_probes,
                                       config.probe_source())
            meta_common["kappa_hat_lower_bound"] = kappa_hat
        except ValueError:
            meta_common["kappa_hat_lower_bound"] = None

    solver_cfgs = [SolverConfig(
        algorithm=cell.algorithm, schedule=cell.schedule(),
        iterations=K, stride=stride) for cell in config.cells]
    workers = min(workers, len(solver_cfgs) * config.runs)
    if workers > 1:
        seeds = range(config.base_seed, config.base_seed + config.runs)
        pooled = _pooled_traces(problem, solver_cfgs, seeds, workers,
                                config.record_feasibility)
        aggs = [aggregate(cell.name, traces, dict(meta_common))
                for cell, traces in zip(config.cells, pooled)]
    else:
        aggs = [run_cell(problem, solver_cfg, config.runs, config.base_seed,
                         name=cell.name, metadata=dict(meta_common),
                         record_feasibility=config.record_feasibility)
                for cell, solver_cfg in zip(config.cells, solver_cfgs)]
    results = {}
    groups = {}
    for cell, agg in zip(config.cells, aggs):
        results[cell.name] = agg
        emit_csv(agg, outdir / f"{cell.name}.csv")
        if config.debug_runs:
            for i, tr in enumerate(agg.traces):
                emit_run_csv(tr, outdir / f"{cell.name}_run{i:03d}.csv")
        meta_path = outdir / f"{cell.name}.meta.json"
        meta_path.write_text(json.dumps(agg.metadata, indent=1,
                                        sort_keys=True) + "\n")
        groups.setdefault(cell.gamma_label, []).append((cell, agg))

    _, curve, ylabel = next(row for row in _PRIMARY_CURVES if row[0] is None
                            or getattr(problem, row[0]) is not None)
    constants = None
    if config.overlay_bounds and curve == "mean_sqdist":
        try:
            constants = bounds_mod.ProblemConstants.measure(
                problem, np.zeros(problem.dim), kappa=kappa_hat)
        except ValueError:  # no kappa: no overlay
            pass
    for gname, members in groups.items():
        curves = []
        overlays = []
        for cell, agg in members:
            curves.append((cell.name, agg.ks, getattr(agg, curve)))
            bound = None if constants is None else bounds_mod.bound_overlay(
                constants, cell.algorithm, cell.schedule(), agg.ks)
            if bound is not None:
                overlays.append((cell.name + " bound", *bound))
        emit_svg(curves, overlays, outdir / f"fig_gamma_{gname}.svg",
                 title=f"{config.spec.family}, gamma = {gname}",
                 ylabel=ylabel)
    return results


# -- configuration files ---------------------------------------------------------

# an [experiment] key is a defaulted ExperimentConfig field
_EXPERIMENT_KEYS = {"output_dir" if f.name == "outdir" else f.name: f
                    for f in fields(ExperimentConfig)
                    if f.default is not MISSING}


def _coerce(raw: str, typ, key: str):
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Parse the INI-style experiment file (strict: unknown keys are errors).

    An [experiment] key is a defaulted ``ExperimentConfig`` field and a
    [problem] key a knob of the family's generator, each parsed as its
    default's type; a key left out takes that default, which ``gen-config``
    shows.  The solver grid is the product algorithms x mu0 x gamma.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in ("experiment", "problem", "solvers"):
            raise ConfigError(f"unknown section [{section}]")

    config = ExperimentConfig()
    if parser.has_section("experiment"):
        for key, raw in parser.items("experiment"):
            if key not in _EXPERIMENT_KEYS:
                raise ConfigError(f"unknown key {key!r} in [experiment]")
            f = _EXPERIMENT_KEYS[key]
            setattr(config, f.name, _coerce(raw, type(f.default), key))
    knobs = dict(parser.items("problem") if parser.has_section("problem")
                 else ())
    family = knobs.pop("family", config.spec.family)
    defaults = knob_defaults(family) if family in FAMILIES else {}
    # a knob the family does not take stays text, for validate to reject
    config.spec = GeneratorSpec(family, **{
        key: _coerce(raw, type(defaults.get(key, "")), key)
        for key, raw in knobs.items()})

    (cell,) = config.cells  # the default grid
    grid = {"algorithms": [cell.algorithm], "mu0": [cell.mu0],
            "gamma": [cell.gamma]}
    if parser.has_section("solvers"):
        for key, raw in parser.items("solvers"):
            if key not in grid:
                raise ConfigError(f"unknown key {key!r} in [solvers]")
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"empty list for {key!r}")
            grid[key] = (parts if key == "algorithms"
                         else [_coerce(p, float, key) for p in parts])
    config.cells = [Cell(a, m, g) for a in grid["algorithms"]
                    for m in grid["mu0"] for g in grid["gamma"]]
    config.validate()
    return config


# Each family's [solvers] grid in its template: algorithms, mu0, gamma.
_TEMPLATE_GRIDS = {
    "constrained-ls": ("spp, aspp, rspp, sgd", "0.5, 1", "0.5, 1"),
    "random-ls-polyhedron": ("spp, rspp", "1", "0.25, 0.5, 0.75, 1"),
    "markowitz": ("spp, aspp, sgd", "0.5, 1", "0.5, 1"),
    "feasibility": ("spp", "1", "1"),
    "finite-sum": ("spp", "0.5, 1", "0"),
}

# The note a template prints beside a key, in any section.
_TEMPLATE_NOTES = {
    "runs": "Monte-Carlo repetitions per cell",
    "base_seed": "run i uses seed base_seed + i",
    "output_dir": "overridable with the SPPROX_OUTDIR env var",
    "overlay_bounds": "dashed theoretical-bound overlays in the SVGs",
    "kappa_probes": ">0: estimate the regularity constant (lower bound)",
    "iterations": "0 = one pass through the data",
    "stride": "0 = about 50 records per run",
    "workers": "0 = available parallelism",
    "debug_runs": "also write one CSV per run",
    "n": "dimension (markowitz: assets)",
    "m": "observations (finite-sum: components)",
    "noise": "response noise level",
    "active": "constraints tight at the planted truth",
    "periods": "rows of the synthetic returns table",
    "b_policy": "mean, or a float target return",
    "returns_csv": "a returns table; beside it, leave out periods, n, seed",
    "gamma": "0 means a constant stepsize",
}


def _template(family: str) -> str:
    """The ``gen-config`` template of ``family``: every defaulted
    ExperimentConfig field and every knob at its default, then the family's
    grid.  A knob with no value to show is a comment line."""
    (cell,) = ExperimentConfig().cells
    text = ("# spprox experiment configuration (INI syntax, '#' comments)\n"
            "# Unknown keys are errors; an omitted key takes its default, the "
            "value shown,\n# except the [solvers] lists "
            f"({cell.algorithm}, {cell.mu0:g} and {cell.gamma:g}).\n")
    grid = dict(zip(("algorithms", "mu0", "gamma"), _TEMPLATE_GRIDS[family]))
    for section, values in (
            ("experiment", {k: f.default for k, f in _EXPERIMENT_KEYS.items()}),
            ("problem", {"family": family, **knob_defaults(family)}),
            ("solvers", grid)):
        text += f"\n[{section}]\n"
        for key, value in values.items():
            value = str(value).lower() if isinstance(value, bool) else value
            line = f"{key} = {value}" if value != "" else f"# {key} ="
            note = _TEMPLATE_NOTES.get(key)
            text += (f"{line:<24} # {note}" if note else line) + "\n"
    return text


CONFIG_TEMPLATES = {family: _template(family) for family in _TEMPLATE_GRIDS}

"""Experiment harness: Monte-Carlo orchestration, aggregation, CSV/SVG output.

A configuration names one generated problem and a grid of solver cells
(algorithm x mu0 x gamma).  Each cell runs ``runs`` Monte-Carlo repetitions
with seeds ``base_seed + run_index``.  With more than one worker, an
experiment opens one process pool: its initializer installs the problem once
per worker, and every (cell, run) task, queued up front, carries only its
``(SolverConfig, seed)``.  Aggregation is a deterministic reduction keyed by
run index, so serial and parallel execution emit byte-identical CSVs.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from . import bounds as bounds_mod
from .constraints import estimate_kappa
from .core import RandomSource, StochasticProblem
from .problems import GeneratorSpec, generate
from .schedules import ConstantStepsize, PolynomialDecay, theta0
from .solvers import RunTrace, SolverConfig, epochs_for_budget, run

CSV_HEADER = "k,mean_sqdist,se_sqdist,mean_feas,se_feas,mean_obj,se_obj,stepsize"


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, bad grid)."""


@dataclass
class Cell:
    algorithm: str
    mu0: float
    gamma: float  # 0 means a constant stepsize mu0

    @property
    def name(self) -> str:
        g = "const" if self.gamma == 0 else f"{self.gamma:g}"
        return f"{self.algorithm}_mu{self.mu0:g}_g{g}"

    def schedule(self):
        if self.gamma == 0:
            return ConstantStepsize(self.mu0)
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
    feas_tol: float = 1e-10
    debug_runs: bool = False

    def validate(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        for key in ("iterations", "stride", "workers", "kappa_probes"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        if not (math.isfinite(self.feas_tol) and self.feas_tol > 0):
            raise ConfigError("feas_tol must be positive and finite")
        if self.spec.b_policy != "mean":
            try:
                target = float(self.spec.b_policy)
            except (TypeError, ValueError):
                target = math.nan
            if not math.isfinite(target):
                raise ConfigError("b_policy must be 'mean' or a finite number")
        if not self.cells:
            raise ConfigError("no solver cells configured")
        for cell in self.cells:
            if cell.algorithm not in ("spp", "aspp", "sgd", "rspp"):
                raise ConfigError(f"unknown algorithm {cell.algorithm!r}")
            if cell.mu0 <= 0:
                raise ConfigError("mu0 must be positive")
            if cell.gamma < 0:
                raise ConfigError("gamma must be >= 0")
            if cell.algorithm == "rspp" and cell.gamma == 0:
                raise ConfigError("rspp needs gamma > 0")


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


def _mean_se(stack: list):
    """Column means and standard errors over possibly truncated runs."""
    length = max(len(a) for a in stack)
    mean = np.full(length, math.nan)
    se = np.full(length, math.nan)
    counts = np.zeros(length, dtype=np.int64)
    for j in range(length):
        vals = np.array([a[j] for a in stack if len(a) > j])
        vals = vals[np.isfinite(vals)]
        counts[j] = len(vals)
        if len(vals) >= 1:
            mean[j] = float(np.mean(vals))
            se[j] = (float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
                     if len(vals) >= 2 else 0.0)
    return mean, se, counts


def aggregate(name: str, traces: list, metadata: dict | None = None) -> AggregateTrace:
    """Deterministic reduction of per-run traces (run-index order)."""
    longest = max(traces, key=lambda t: len(t.ks))
    mean_sq, se_sq, counts = _mean_se([t.sqdist for t in traces])
    mean_fe, se_fe, _ = _mean_se([t.feas for t in traces])
    mean_ob, se_ob, _ = _mean_se([t.objective for t in traces])
    mean_ft, se_ft, _ = _mean_se([t.test_obj for t in traces])
    return AggregateTrace(
        name=name,
        ks=longest.ks.copy(),
        stepsizes=longest.stepsizes.copy(),
        mean_sqdist=mean_sq, se_sqdist=se_sq,
        mean_feas=mean_fe, se_feas=se_fe,
        mean_obj=mean_ob, se_obj=se_ob,
        mean_ftest=mean_ft, se_ftest=se_ft,
        counts=counts,
        runs=len(traces),
        diverged=sum(1 for t in traces if t.diverged),
        metadata=dict(metadata or {}),
        traces=list(traces))


_worker_problem = None  # set in each pool worker by _install_problem


def _install_problem(problem: StochasticProblem) -> None:
    global _worker_problem
    _worker_problem = problem


def _execute_run(solver_config: SolverConfig, seed: int,
                 problem: StochasticProblem | None = None) -> RunTrace:
    """One Monte-Carlo run; a pool task omits ``problem`` (installed once)."""
    cfg = replace(solver_config, seed=seed)
    problem = _worker_problem if problem is None else problem
    return run(problem, cfg, RandomSource(seed))


def _pooled_traces(problem: StochasticProblem, cells: list,
                   workers: int) -> list:
    """Traces per ``(solver_config, seeds)`` in ``cells``, all from one pool.

    Every run is queued up front; one that raises cancels the queued rest.
    """
    tasks = sum(len(seeds) for _, seeds in cells)
    with ProcessPoolExecutor(max_workers=min(workers, tasks),
                             initializer=_install_problem,
                             initargs=(problem,)) as pool:
        futures = [[pool.submit(_execute_run, cfg, s) for s in seeds]
                   for cfg, seeds in cells]
        try:
            return [[f.result() for f in fs] for fs in futures]
        except BaseException:  # a failed run or an interrupt
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_cell(problem: StochasticProblem, solver_config: SolverConfig,
             runs: int, base_seed: int, workers: int = 1,
             name: str = "cell", metadata: dict | None = None) -> AggregateTrace:
    """Monte-Carlo repetitions of one cell; seeds are base_seed + run index."""
    seeds = [base_seed + i for i in range(runs)]
    if workers and workers > 1:
        traces = _pooled_traces(problem, [(solver_config, seeds)], workers)[0]
    else:
        traces = [_execute_run(solver_config, s, problem) for s in seeds]
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
        lab = ET.SubElement(svg, "text", x=str(ml - 8), y=f"{y + 4:.2f}",
                            fill="black")
        lab.set("text-anchor", "end")
        lab.set("font-size", "12")
        lab.text = f"1e{dec}"
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = kmin + frac * (kmax - kmin)
        x = sx(k)
        ET.SubElement(svg, "line", x1=f"{x:.2f}", y1=str(mt + ph),
                      x2=f"{x:.2f}", y2=str(mt + ph + 5), stroke="black")
        lab = ET.SubElement(svg, "text", x=f"{x:.2f}", y=str(mt + ph + 20),
                            fill="black")
        lab.set("text-anchor", "middle")
        lab.set("font-size", "12")
        lab.text = f"{k:.0f}"

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
        lab = ET.SubElement(svg, "text", x=str(ml + pw + 40), y=str(legend_y),
                            fill="black")
        lab.set("font-size", "12")
        lab.text = label
        legend_y += 17

    if title:
        t = ET.SubElement(svg, "text", x=str(ml + pw // 2), y="24", fill="black")
        t.set("text-anchor", "middle")
        t.set("font-size", "15")
        t.text = title
    xl = ET.SubElement(svg, "text", x=str(ml + pw // 2), y=str(height - 12),
                       fill="black")
    xl.set("text-anchor", "middle")
    xl.set("font-size", "13")
    xl.text = "iteration k"
    yl = ET.SubElement(svg, "text", x="18", y=str(mt + ph // 2), fill="black")
    yl.set("text-anchor", "middle")
    yl.set("font-size", "13")
    yl.set("transform", f"rotate(-90 18 {mt + ph // 2})")
    yl.text = ylabel

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

def _metric_kind(problem: StochasticProblem) -> str:
    if problem.x_star is not None:
        return "sqdist"
    if problem.test_objective is not None:
        return "ftest"
    return "obj"


def _curve(trace: AggregateTrace, kind: str):
    return {"sqdist": trace.mean_sqdist,
            "ftest": trace.mean_ftest,
            "obj": trace.mean_obj}[kind]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> dict:
    """Execute every grid cell, aggregate, and write CSV/SVG outputs.

    Returns {cell name: AggregateTrace}.  Output files per cell:
    ``<name>.csv`` (fixed schema) and optionally per-run debug CSVs; one SVG
    per gamma group with the cells' primary curves (squared distance to the
    optimum when known, the held-out objective for portfolio problems) and
    dashed bound overlays when enabled and computable.
    """
    config.validate()
    problem = generate(config.spec)
    K = config.iterations if config.iterations > 0 else problem.one_pass
    stride = config.stride if config.stride > 0 else max(1, K // 50)
    if workers is None:  # 0: the CPUs this process may run on
        workers = config.workers or (len(os.sched_getaffinity(0))
                                     if hasattr(os, "sched_getaffinity")
                                     else os.cpu_count() or 1)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    meta_common = {"iterations": K, "stride": stride, "runs": config.runs,
                   "base_seed": config.base_seed,
                   "family": config.spec.family}
    if "subgradient_caveat" in problem.meta:
        meta_common["subgradient_caveat"] = problem.meta["subgradient_caveat"]
    try:
        meta_common["theta0_at_1"] = theta0(problem, 1.0)
    except ValueError:
        meta_common["theta0_at_1"] = None

    kappa_hat = None
    if config.kappa_probes > 0:
        probe_rng = RandomSource(config.base_seed).spawn(999_983)
        try:
            kappa_hat = estimate_kappa(problem, config.kappa_probes, probe_rng)
            meta_common["kappa_hat_lower_bound"] = kappa_hat
        except ValueError:
            meta_common["kappa_hat_lower_bound"] = None

    constants_cache = {}

    def constants_for(mu0):
        if mu0 in constants_cache:
            return constants_cache[mu0]
        kap = max(kappa_hat, 1.0) if kappa_hat is not None else problem.kappa
        if problem.x_star is None or kap is None:
            constants_cache[mu0] = None
            return None
        try:
            c = bounds_mod.ProblemConstants.measure(
                problem, np.zeros(problem.dim), mu0, kappa=kap)
        except (ValueError, bounds_mod.MissingConstantError):
            c = None
        constants_cache[mu0] = c
        return c

    solver_cfgs = [SolverConfig(
        algorithm=cell.algorithm, schedule=cell.schedule(),
        iterations=K, stride=stride,
        epochs=(epochs_for_budget(cell.gamma, K)
                if cell.algorithm == "rspp" else 0),
        feas_tol=config.feas_tol,
        record_feasibility=config.record_feasibility)
        for cell in config.cells]
    if workers > 1:
        seeds = range(config.base_seed, config.base_seed + config.runs)
        pooled = _pooled_traces(problem, [(c, seeds) for c in solver_cfgs],
                                workers)
        aggs = [aggregate(cell.name, traces, dict(meta_common))
                for cell, traces in zip(config.cells, pooled)]
    else:
        aggs = (run_cell(problem, solver_cfg, config.runs, config.base_seed,
                         name=cell.name, metadata=dict(meta_common))
                for cell, solver_cfg in zip(config.cells, solver_cfgs))
    results = {}
    groups = {}
    for cell, agg in zip(config.cells, aggs):
        results[cell.name] = agg
        emit_csv(agg, outdir / f"{cell.name}.csv")
        if config.debug_runs:
            for i, tr in enumerate(agg.traces):
                emit_run_csv(tr, outdir / f"{cell.name}_run{i:03d}.csv")
        meta_path = outdir / f"{cell.name}.meta.json"
        meta_path.write_text(json.dumps(_jsonable(agg.metadata), indent=1,
                                        sort_keys=True) + "\n")
        groups.setdefault(cell.gamma, []).append((cell, agg))

    kind = _metric_kind(problem)
    ylabels = {"sqdist": "mean squared distance to optimum",
               "ftest": "held-out objective",
               "obj": "objective"}
    for gamma, members in groups.items():
        curves = []
        overlays = []
        for cell, agg in members:
            curves.append((cell.name, agg.ks, _curve(agg, kind)))
            if config.overlay_bounds and kind == "sqdist":
                c = constants_for(cell.mu0)
                if c is None:
                    continue
                try:
                    if cell.gamma == 0:
                        vals = [bounds_mod.constant_step_envelope(
                            c, cell.mu0, int(k))[0] for k in agg.ks]
                    elif cell.algorithm != "rspp" and 0 < cell.gamma <= 1:
                        vals = [bounds_mod.strongly_convex_bound(
                            c, int(k), cell.gamma) for k in agg.ks if k >= 1]
                    else:
                        continue
                except ValueError:
                    continue
                ks = agg.ks[agg.ks >= 1] if cell.gamma != 0 else agg.ks
                overlays.append((cell.name + " bound", ks, np.array(vals)))
        gname = "const" if gamma == 0 else f"{gamma:g}"
        emit_svg(curves, overlays, outdir / f"fig_gamma_{gname}.svg",
                 title=f"{config.spec.family}, gamma = {gname}",
                 ylabel=ylabels[kind])
    return results


# -- configuration files ---------------------------------------------------------

_EXPERIMENT_KEYS = {
    "runs": int, "base_seed": int, "output_dir": str, "overlay_bounds": bool,
    "kappa_probes": int, "iterations": int, "stride": int, "workers": int,
    "record_feasibility": bool, "feas_tol": float, "debug_runs": bool,
}
_PROBLEM_KEYS = {
    "family": str, "n": int, "m": int, "seed": int, "noise": float,
    "active": int, "lam": float, "sets": int, "margin": float,
    "spread": float, "returns_csv": str, "periods": int, "split_seed": int,
    "b_policy": str, "train_frac": float,
}
_SOLVER_KEYS = {"algorithms": str, "mu0": str, "gamma": str}


def _coerce(raw: str, typ, key: str):
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Parse the INI-style experiment file (strict: unknown keys are errors).

    Sections and defaults are documented by ``gen-config``; every key has a
    default, and the solver grid is the product algorithms x mu0 x gamma.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in ("experiment", "problem", "solvers"):
            raise ConfigError(f"unknown section [{section}]")

    config = ExperimentConfig()
    spec_kwargs = {}
    if parser.has_section("experiment"):
        for key, raw in parser.items("experiment"):
            if key not in _EXPERIMENT_KEYS:
                raise ConfigError(f"unknown key {key!r} in [experiment]")
            val = _coerce(raw, _EXPERIMENT_KEYS[key], key)
            attr = "outdir" if key == "output_dir" else key
            setattr(config, attr, val)
    if parser.has_section("problem"):
        for key, raw in parser.items("problem"):
            if key not in _PROBLEM_KEYS:
                raise ConfigError(f"unknown key {key!r} in [problem]")
            spec_kwargs[key] = _coerce(raw, _PROBLEM_KEYS[key], key)
    family = spec_kwargs.pop("family", "constrained-ls")
    try:
        config.spec = GeneratorSpec(family, **spec_kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None

    algorithms, mu0s, gammas = ["spp"], [1.0], [1.0]
    if parser.has_section("solvers"):
        for key, raw in parser.items("solvers"):
            if key not in _SOLVER_KEYS:
                raise ConfigError(f"unknown key {key!r} in [solvers]")
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"empty list for {key!r}")
            if key == "algorithms":
                algorithms = parts
            elif key == "mu0":
                mu0s = [_coerce(p, float, key) for p in parts]
            else:
                gammas = [_coerce(p, float, key) for p in parts]
    config.cells = [Cell(a, m, g) for a in algorithms for m in mu0s
                    for g in gammas]
    config.validate()
    return config


CONFIG_TEMPLATES = {
    "constrained-ls": """\
# spprox experiment configuration (INI syntax, '#' comments)
# Unknown keys are errors; every key shown carries its default.

[experiment]
runs = 30                # Monte-Carlo repetitions per cell
base_seed = 12345        # run i uses seed base_seed + i
output_dir = out         # overridable with the SPPROX_OUTDIR env var
overlay_bounds = false   # dashed theoretical-bound overlays in the SVGs
kappa_probes = 0         # >0: estimate the regularity constant (lower bound)
iterations = 0           # 0 = one pass through the data
stride = 0               # 0 = about 50 records per run
workers = 0              # 0 = available parallelism
record_feasibility = true
feas_tol = 1e-10         # intersection-projection tolerance
debug_runs = false       # also write one CSV per run

[problem]
family = constrained-ls
m = 2000                 # observations (desk-scale default)
n = 20                   # features
seed = 7
noise = 1.0              # response noise level
active = 3               # constraints tight at the planted truth

[solvers]
algorithms = spp, aspp, rspp, sgd
mu0 = 0.5, 1
gamma = 0.5, 1           # 0 means a constant stepsize
""",
    "random-ls-polyhedron": """\
[experiment]
runs = 30
base_seed = 12345
output_dir = out

[problem]
family = random-ls-polyhedron
m = 1000
n = 20
seed = 7

[solvers]
algorithms = spp, rspp
mu0 = 1
gamma = 0.25, 0.5, 0.75, 1
""",
    "markowitz": """\
[experiment]
runs = 30
base_seed = 12345
output_dir = out

[problem]
family = markowitz
# returns_csv = path/to/returns.csv   # omit to use the synthetic table
periods = 1276           # synthetic table size
n = 25
seed = 7
split_seed = 0
b_policy = mean          # or a float target return
train_frac = 0.9

[solvers]
algorithms = spp, aspp, sgd
mu0 = 0.5, 1
gamma = 0.5, 1
""",
    "feasibility": """\
[experiment]
runs = 30
base_seed = 12345
output_dir = out

[problem]
family = feasibility
n = 10
sets = 20
seed = 7
lam = 1.0
margin = 0.1

[solvers]
algorithms = spp
mu0 = 1
gamma = 1
""",
    "finite-sum": """\
[experiment]
runs = 30
base_seed = 12345
output_dir = out

[problem]
family = finite-sum
m = 8
n = 5
seed = 7
spread = 1.0

[solvers]
algorithms = spp
mu0 = 0.5, 1
gamma = 0
""",
}

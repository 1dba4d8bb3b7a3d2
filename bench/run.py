"""spprox benchmark: `spprox run` on three workloads, timed as a user sees it.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one experiment config, derived from a `spprox gen-config`
template with the overrides in WORKLOADS, and run as a closed loop with one
client: one `spprox run` invocation at a time, from this single process.

--trace 0  Times set-up (import plus problem generation, in a fresh process)
           and then alternates `spprox run --workers NPROC` with
           `spprox run --workers 1` for S seconds, moving to the next
           Monte-Carlo seed set after each pair.  Prints the end-to-end
           metrics as medians.
--trace 1  Runs the workload once untraced at 1 worker, once at NPROC
           workers, and once traced in a single process (bench/tracer.py),
           and prints the per-layer metrics.

Every invocation's outputs are checked: each expected cell CSV exists, is
byte-identical to the first serial run's, and matches the references in
bench/refs (recorded from the seed code) within RTOL/ATOL; the traced run's
CSVs must equal the untraced ones byte for byte.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; any failed check
exits 1.  A fuller result, with every sample and the environment, goes to
.bench_out/.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = BENCH / "refs"

# --seed selects one of VARIANTS Monte-Carlo seed sets; bench/refs holds the
# reference outputs of each, so every seed can be checked.
VARIANTS = 8
BASE_SEED = 12345
SETUP_REPEATS = 3
MIN_PAIRS = 3
RTOL = 1e-6
ATOL = 1e-9
XSTAR_ATOL = 1e-8
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

# Sizes keep one invocation at 1.5-3.5 s on a 2-core machine, so that a run
# of 35 s collects enough pairs for steady medians; run time varies by about
# 25% from one invocation of the same config to the next on such machines.
WORKLOADS = {
    "ls_steps": {
        "template": "constrained-ls",
        "why": "per-step work: batch and residual prox, single-halfspace "
               "project/distance, the solver loop and the per-run pool "
               "transfer; intersection projection only in setup",
        "overrides": {
            "experiment": {"runs": 2, "iterations": 1000,
                           "record_feasibility": "false", "kappa_probes": 0,
                           "overlay_bounds": "false"},
            "problem": {"m": 2000, "n": 20, "seed": 7},
            "solvers": {"algorithms": "spp, aspp, rspp, sgd",
                        "mu0": "0.5, 1", "gamma": "0.5, 1"},
        },
    },
    "ls_feas": {
        "template": "constrained-ls",
        "why": "intersection projection over 1100 halfspaces does nearly all "
               "the work, near iterates and at far kappa probes; the step "
               "loop is negligible; also exercises bounds",
        "overrides": {
            "experiment": {"runs": 2, "record_feasibility": "true",
                           "kappa_probes": 1, "overlay_bounds": "true",
                           "stride": 500},
            "problem": {"m": 2000, "n": 20, "seed": 7},
            "solvers": {"algorithms": "spp, aspp, rspp, sgd",
                        "mu0": "1", "gamma": "1"},
        },
    },
    "portfolio": {
        "template": "markowitz",
        "why": "three mixed-kind sets through generic Dykstra and cheap "
               "steps, so per-call overhead, aggregation and emission weigh "
               "the most; guards the small-problem path",
        "overrides": {
            "experiment": {"runs": 3, "record_feasibility": "true"},
            "problem": {"periods": 1276, "n": 25, "seed": 7,
                        "split_seed": 0, "train_frac": 0.9},
            "solvers": {"algorithms": "spp, aspp, sgd",
                        "mu0": "0.5, 1", "gamma": "0.5, 1"},
        },
    },
}

END_TO_END = {"run_s": "s", "run_serial_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
ALGORITHMS = ("spp", "aspp", "rspp", "sgd")


class CheckoutError(RuntimeError):
    """The benchmark cannot run here (no package source, no references)."""


# -- running spprox -------------------------------------------------------------

def spprox_env() -> dict:
    env = dict(os.environ)
    env.pop("SPPROX_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def gen_config(workload: str) -> str:
    """The `spprox gen-config` template the workload is derived from."""
    return subprocess.run(
        [sys.executable, "-m", "spprox.cli", "gen-config",
         WORKLOADS[workload]["template"]],
        env=spprox_env(), capture_output=True, text=True, check=True).stdout


def write_config(workload: str, template: str, variant: int,
                 path: Path) -> Path:
    """The workload's config: its template plus its overrides and seed."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(template)
    for section, values in WORKLOADS[workload]["overrides"].items():
        for key, value in values.items():
            parser.set(section, key, str(value))
    parser.set("experiment", "base_seed", str(BASE_SEED + 1000 * variant))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        parser.write(fh)
    return path


def _descendants(root: int) -> set:
    """``root`` and its descendants (which all have larger process ids)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) > root:
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {root}, [root]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    return tree


def _rss_kb(pids) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except OSError:
            continue
    return total


def run_spprox(config: Path, workers: int, outdir: Path,
               sample_rss: bool = False, argv=None):
    """One timed invocation; returns (wall seconds, exit code, peak MB).

    ``argv`` replaces the `spprox run` command line (the traced run).
    """
    if outdir.exists():
        shutil.rmtree(outdir)
    env = spprox_env()
    env["SPPROX_OUTDIR"] = str(outdir)
    cmd = argv or [sys.executable, "-m", "spprox.cli", "run", str(config),
                   "--workers", str(workers)]
    peak = [0]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    done = threading.Event()

    def sample():
        tick, tree = 0, {proc.pid}
        while not done.wait(0.02):
            if tick % 5 == 0:
                tree = _descendants(proc.pid)
            peak[0] = max(peak[0], _rss_kb(tree))
            tick += 1

    sampler = threading.Thread(target=sample) if sample_rss else None
    if sampler:
        sampler.start()
    try:
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        done.set()
        if sampler:
            sampler.join()
        if proc.poll() is None:  # timed out: stop it and its pool workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"spprox exited {proc.returncode}: {stderr.strip()[-500:]}",
              file=sys.stderr)
    return wall, proc.returncode, peak[0] / 1024.0, stdout


def probe_setup(config: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config)],
        env=spprox_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- correctness ---------------------------------------------------------------

def fingerprint(csv_path: Path) -> dict:
    """Per-column [sum of finite values, finite count, last value] of a CSV."""
    lines = csv_path.read_text(encoding="ascii").strip().splitlines()
    header = lines[0].split(",")
    columns = list(zip(*(map(float, line.split(",")) for line in lines[1:])))
    out = {}
    for name, values in zip(header, columns):
        finite = [v for v in values if math.isfinite(v)]
        out[name] = [math.fsum(finite), len(finite), values[-1]]
    return out


def _close(a, b, atol=ATOL) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + RTOL * abs(b)


def fingerprint_matches(got: dict, ref: dict) -> bool:
    if got.keys() != ref.keys():
        return False
    for col, (total, count, last) in ref.items():
        g_total, g_count, g_last = got[col]
        if g_count != count or not (_close(g_total, total)
                                    and _close(g_last, last)):
            return False
    return True


def xstar_matches(got, ref) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    return len(got) == len(ref) and all(
        _close(a, b, XSTAR_ATOL) for a, b in zip(got, ref))


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        raise CheckoutError(f"missing reference file {path}")
    return json.loads(path.read_text(encoding="utf-8"))


class Checker:
    """Counts checked cells; remembers each variant's first CSV bytes."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.golden = {}  # variant -> {cell: CSV bytes of its first run}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what: str):
        self.failed += 1
        self.problems.append(what)

    def check_setup(self, probe: dict):
        self.attempted += 1
        if not xstar_matches(probe["x_star"], self.refs["x_star"]):
            self.fail("setup: x_star differs from the reference")

    def check_run(self, label: str, variant: int, outdir: Path, code: int):
        ref = self.refs["variants"][str(variant)]
        cells = ref["cells"]
        self.attempted += len(cells)
        if code != 0:
            for cell in cells:
                self.fail(f"{label}: {cell}: spprox exited {code}")
            return
        golden = self.golden.get(variant)
        seen = {}
        for cell, fp in cells.items():
            path = outdir / f"{cell}.csv"
            if not path.is_file():
                self.fail(f"{label}: {cell}: CSV missing")
                continue
            data = path.read_bytes()
            seen[cell] = data
            if golden is not None and golden.get(cell) != data:
                self.fail(f"{label}: {cell}: CSV differs from the first run")
            elif not fingerprint_matches(fingerprint(path), fp):
                self.fail(f"{label}: {cell}: values differ from the reference")
        kappa = ref.get("kappa_hat_lower_bound")
        if kappa is not None:
            self.attempted += 1
            meta = outdir / f"{next(iter(cells))}.meta.json"
            got = (json.loads(meta.read_text()).get("kappa_hat_lower_bound")
                   if meta.is_file() else None)
            if not _close(got, kappa):
                self.fail(f"{label}: kappa_hat differs from the reference")
        if golden is None:
            self.golden[variant] = seen


# -- statistics ------------------------------------------------------------------

def summary(values) -> dict:
    vals = sorted(values)
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals), "samples": values}


def tail(values_ms) -> tuple:
    """(p50, tail value, tail percentile): the tail is the highest percentile
    with at least ten samples beyond it, or the median below 20 samples."""
    if not values_ms:
        return 0.0, 0.0, 0
    n = len(values_ms)
    p50 = statistics.median(values_ms)
    pct = math.floor(100 * (1 - 10 / n)) if n >= 20 else 50
    if pct <= 50:
        return p50, p50, 50
    q = statistics.quantiles(values_ms, n=100, method="inclusive")
    return p50, q[pct - 1], pct


# -- environment -------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    files = sorted((SRC / "spprox").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "cpu": cpu,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "src_spprox_lines": lines}


# -- the two modes ------------------------------------------------------------------

def measure_end_to_end(workload: str, seed: int, seconds: float,
                       checker: Checker) -> dict:
    """Set-up probes, then pairs of parallel and serial runs for ``seconds``.

    Pair i runs Monte-Carlo seed set (seed + i) mod VARIANTS, so each median
    spans several inputs; both runs of a pair use the same one.
    """
    workdir = OUT / workload
    template = gen_config(workload)
    configs = [write_config(workload, template, v, workdir / f"config{v}.ini")
               for v in range(VARIANTS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        probe = probe_setup(configs[seed % VARIANTS])
        checker.check_setup(probe)
        setups.append(probe["setup_s"])
    par, ser, rss = [], [], []
    workers = nproc()
    start = time.monotonic()
    pair = 0
    while True:
        elapsed = time.monotonic() - start
        # stop before a pair that would end past the window
        if pair >= MIN_PAIRS and elapsed * (pair + 1) / pair > seconds:
            break
        variant = (seed + pair) % VARIANTS
        for w in ((1, workers) if pair % 2 else (workers, 1)):
            outdir = workdir / f"w{w}"
            wall, code, peak, _ = run_spprox(configs[variant], w, outdir,
                                             sample_rss=w == workers)
            checker.check_run(f"pair {pair} workers={w}", variant, outdir,
                              code)
            (ser if w == 1 else par).append(wall)
            if w == workers:
                rss.append(peak)
        pair += 1
    return {"run_s": summary(par), "run_serial_s": summary(ser),
            "setup_s": summary(setups), "peak_rss_mb": summary(rss)}


def measure_layers(workload: str, seed: int, checker: Checker):
    """Untraced serial and parallel runs, then one traced serial run."""
    workdir = OUT / workload
    variant = seed % VARIANTS
    config = write_config(workload, gen_config(workload), variant,
                          workdir / f"config{variant}.ini")
    serial_dir, parallel_dir = workdir / "w1", workdir / "wN"
    traced_dir, trace_path = workdir / "traced", workdir / "trace.json"
    wall_u, code, _, _ = run_spprox(config, 1, serial_dir)
    checker.check_run("untraced workers=1", variant, serial_dir, code)
    wall_p, code, _, _ = run_spprox(config, nproc(), parallel_dir)
    checker.check_run(f"workers={nproc()}", variant, parallel_dir, code)
    wall_t, code, _, stdout = run_spprox(
        config, 1, traced_dir,
        argv=[sys.executable, str(BENCH / "traced_run.py"), str(config),
              str(trace_path), f"{workload}/seed{seed}"])
    checker.check_run("traced workers=1", variant, traced_dir, code)
    if code != 0:
        return {}, None
    wall_t -= json.loads(stdout.strip().splitlines()[-1])["post_s"]
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    for what in tracer_self_check(trace,
                                  checker.refs["variants"][str(variant)]):
        checker.fail(f"tracer: {what}")
    return layer_metrics(trace, wall_u, wall_p, wall_t), trace_path


def tracer_self_check(trace: dict, ref: dict) -> list:
    """Structural checks that the wrappers saw the calls they patch."""
    problems = []
    cells = [s for s in trace["spans"] if s[2] == "cell"]
    runs = [s for s in trace["spans"] if s[2] == "run"]
    expect_runs = sum(s[5]["runs"] for s in cells)
    if len(cells) != len(ref["cells"]):
        problems.append(f"{len(cells)} cell spans for {len(ref['cells'])} cells")
    if len(runs) != expect_runs or len(trace["runs"]) != expect_runs:
        problems.append(f"{len(runs)} run spans for {expect_runs} runs")
    calls = trace["calls"]
    if calls["problems.generate"]["count"] != 1:
        problems.append("generate not seen exactly once")
    if calls["harness.aggregate"]["count"] != len(cells):
        problems.append("aggregate not seen once per cell")
    if any(s[4] is None for s in trace["spans"]):
        problems.append("unclosed span")
    if sum(r[3] for r in trace["runs"]) == 0:
        problems.append("no solver steps seen")
    return problems


def layer_metrics(trace: dict, wall_u: float, wall_p: float,
                  wall_t: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from one trace file."""
    calls = trace["calls"]
    m = {}

    def count(name):
        return calls.get(name, {}).get("count", 0)

    def mean_ns(name):
        c = calls.get(name)
        return c["total_ns"] / c["count"] if c and c["count"] else 0.0

    def ms(name):
        return [d / 1e6 for d in trace["durations_ns"].get(name, [])]

    span_s, ncells = {}, 0
    for _, _, name, start, end, _ in trace["spans"]:
        span_s[name] = span_s.get(name, 0.0) + (end - start) / 1e9
        ncells += name == "cell"
    gen_s = span_s.get("problems.generate", 0.0)
    kappa_s = span_s.get("constraints.estimate_kappa", 0.0)
    cells_s = span_s.get("cell", 0.0)
    emit_s = span_s["harness.run_experiment"] - gen_s - kappa_s - cells_s
    m["harness.phase.generate_s"] = (gen_s, "s")
    m["harness.phase.kappa_s"] = (kappa_s, "s")
    m["harness.phase.cells_s"] = (cells_s, "s")
    m["harness.phase.emit_s"] = (emit_s, "s")
    m["harness.aggregate_ms"] = (
        calls["harness.aggregate"]["total_ns"] / max(ncells, 1) / 1e6, "ms")
    m["harness.pool_bytes_per_run"] = (trace["pool_transfer"]["bytes"],
                                       "bytes")
    m["harness.pool_transfer_ms_per_run"] = (trace["pool_transfer"]["ms"],
                                             "ms")
    m["harness.parallel_speedup"] = (wall_u / wall_p, "ratio")
    m["problems.generate_s"] = (mean_ns("problems.generate") / 1e9, "s")
    m["problems.reference_projections"] = (
        count("problems.reference_projection"), "count")

    dist_ms = ms("constraints.dist_intersection")
    p50, ptail, pct = tail(dist_ms)
    probe_ms = ms("constraints.probe_projection")
    m["constraints.dist_intersection.calls"] = (len(dist_ms), "count")
    m["constraints.dist_intersection.ms_p50"] = (p50, "ms")
    m["constraints.dist_intersection.ms_ptail"] = (ptail, "ms")
    m["constraints.dist_intersection.ptail_pct"] = (pct, "%")
    m["constraints.estimate_kappa_s"] = (kappa_s, "s")
    m["constraints.probe_projection.ms_p50"] = (
        statistics.median(probe_ms) if probe_ms else 0.0, "ms")
    for op in ("project", "distance"):
        for kind in ("halfspace", "nonneg-orthant"):
            name = f"constraints.{op}.{kind}"
            m[f"{name}.calls"] = (count(name), "count")
            m[f"{name}.us"] = (mean_ns(name) / 1e3, "us")
    m["constraints.dykstra_errors"] = (trace["dykstra_errors"], "count")

    for kind in ("batch-least-squares", "linear-residual-squared"):
        name = f"components.prox.{kind}"
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.us"] = (mean_ns(name) / 1e3, "us")
        m[f"components.gradient.{kind}.us"] = (
            mean_ns(f"components.gradient.{kind}") / 1e3, "us")
    batch = count("components.prox.batch-least-squares")
    m["components.prox.batch-least-squares.refactor_ratio"] = (
        trace["batch_prox_refactors"] / batch if batch else 0.0, "ratio")

    m["core.objective.us"] = (mean_ns("core.objective") / 1e3, "us")
    m["core.test_objective.us"] = (mean_ns("core.test_objective") / 1e3, "us")
    m["core.mean_constraint_sq_distance.ms"] = (
        mean_ns("core.mean_constraint_sq_distance") / 1e6, "ms")
    m["core.sample_indices.us"] = (mean_ns("core.sample_indices") / 1e3, "us")

    runs = trace["runs"]
    for alg in ALGORITHMS:
        mine = [r for r in runs if r[0] == alg]
        p50, ptail, pct = tail([r[1] / 1e6 for r in mine])
        m[f"solvers.run.{alg}.ms_p50"] = (p50, "ms")
        m[f"solvers.run.{alg}.ms_ptail"] = (ptail, "ms")
        m[f"solvers.run.{alg}.ptail_pct"] = (pct, "%")
        m[f"solvers.run.{alg}.n"] = (len(mine), "count")
        iters = sum(r[3] for r in mine)
        m[f"solvers.step_self_us.{alg}"] = (
            sum(r[2] for r in mine) / iters / 1e3 if iters else 0.0, "us")
    run_ns = sum(r[1] for r in runs)
    record_ns = sum(calls.get(n, {}).get("top_ns", 0) for n in (
        "constraints.dist_intersection", "core.objective",
        "core.test_objective"))
    sgd = [r[4] for r in runs if r[0] == "sgd"]
    m["solvers.record_share"] = (record_ns / run_ns if run_ns else 0.0,
                                 "ratio")
    m["solvers.sgd_diverged_frac"] = (sum(sgd) / len(sgd) if sgd else 0.0,
                                      "ratio")
    m["bounds.overlay_ms"] = (sum(c["top_ns"] for n, c in calls.items()
                                  if n.startswith("bounds.")) / 1e6, "ms")
    m["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")
    return m


# -- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spprox" / "__init__.py").is_file():
        raise CheckoutError(f"no spprox package source under {SRC}")
    checker = Checker(load_refs(args.workload))

    env = environment()
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "rtol": RTOL, "atol": ATOL}
    if args.trace:
        metrics, trace_path = measure_layers(args.workload, args.seed,
                                             checker)
        result["trace_file"] = str(trace_path) if trace_path else None
        out = {k: {"value": v, "unit": unit}
               for k, (v, unit) in metrics.items()}
    else:
        stats = measure_end_to_end(args.workload, args.seed, args.seconds,
                                   checker)
        result["samples"] = stats
        out = {k: {"value": stats[k]["median"], "unit": END_TO_END[k]}
               for k in END_TO_END}
        for k, s in stats.items():
            print(f"{k:>14} {s['median']:.4f} {END_TO_END[k]}  "
                  f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']}]")
    result.update(attempted=checker.attempted, failed=checker.failed,
                  check_failures=checker.problems, metrics=out)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for what in checker.problems:
        print(f"CHECK FAILED: {what}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"cells checked: {checker.attempted}, failed: {checker.failed}")
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)

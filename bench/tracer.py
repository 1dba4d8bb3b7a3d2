"""Call tracer for one in-process, single-worker `spprox run`.

The tracer never edits the package: it replaces, from outside, the names that
spprox callers look up at call time (module globals such as
``spprox.solvers.dist_intersection`` and ``spprox.harness.generate``, and the
methods of the set and loss classes) with timing wrappers, and puts every
original back in ``restore``.

Three kinds of wrapper:

* span: phases, cells and Monte-Carlo runs.  Each span keeps its parent id,
  so a run belongs to its cell and a cell to the experiment.
* composite: calls that do non-trivial work of their own (intersection
  projection, generation, aggregation, emission, bound evaluation).  Each
  call is counted and timed, and its duration kept for percentiles.
* step: the per-iteration calls of the solver loop (prox, gradient, project,
  distance, sample_indices, objective).  Counted and timed only when made
  directly from a run, not from inside a composite: intersection projection
  makes ~10^5 per-set distance calls that belong to it, not to the steps.

Spans and counts stay in memory and are written once, by ``to_json``.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import statistics
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []        # [id, parent, name, start_ns, end_ns, attrs]
        self.calls = {}        # name -> [count, total_ns, depth-0 ns]
        self.durations = {}    # composite name -> per-call ns
        self.depth = 0         # > 0 while a composite call is open
        self.attributed_ns = 0  # time of depth-0 step and composite calls
        self.step_calls = 0    # prox + gradient calls made at depth 0
        self.open_span = None
        self.patches = []      # (owner, attribute, original)
        self.last_mu = {}      # id(batch component) -> mu of its last prox
        self.refactors = 0
        self.runs = []         # [algorithm, ns, self_ns, iterations, diverged]
        self.counted_error = ()  # exception type counted in dykstra_errors
        self.last_error = None
        self.dykstra_errors = 0
        self.pool_sample = None

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, make):
        original = (owner.__dict__[attr] if inspect.isclass(owner)
                    else getattr(owner, attr))
        self.patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def restore(self):
        """Put every original back; raise if any name still holds a wrapper."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        for owner, attr, original in self.patches:
            now = (owner.__dict__[attr] if inspect.isclass(owner)
                   else getattr(owner, attr))
            if now is not original:
                raise RuntimeError(f"tracer left {owner!r}.{attr} patched")
        self.patches.clear()

    # -- wrappers -----------------------------------------------------------

    def step(self, name: str, counts_iteration: bool = False):
        stat = self.calls.setdefault(name, [0, 0, 0])
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.depth:
                    return fn(*args, **kwargs)
                t0 = _clock()
                out = fn(*args, **kwargs)
                dt = _clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                tracer.attributed_ns += dt
                if counts_iteration:
                    tracer.step_calls += 1
                return out
            return wrapper
        return make

    def batch_prox(self, name: str):
        """Step wrapper that also counts prox calls whose mu changed."""
        inner = self.step(name, counts_iteration=True)
        tracer = self

        def make(fn):
            timed = inner(fn)

            @functools.wraps(fn)
            def wrapper(component, x, mu):
                if not tracer.depth:
                    key = id(component)
                    if tracer.last_mu.get(key) != mu:
                        tracer.refactors += 1
                        tracer.last_mu[key] = mu
                return timed(component, x, mu)
            return wrapper
        return make

    def composite(self, name: str, span: bool = False):
        stat = self.calls.setdefault(name, [0, 0, 0])
        durations = self.durations.setdefault(name, [])
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                top = tracer.depth == 0
                tracer.depth += 1
                sid = tracer._open(name, {}) if span else None
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                except tracer.counted_error as exc:
                    if exc is not tracer.last_error:  # count once, innermost
                        tracer.dykstra_errors += 1
                        tracer.last_error = exc
                    raise
                finally:
                    dt = _clock() - t0
                    tracer.depth -= 1
                    if span:
                        tracer._close(sid, t0 + dt)
                    stat[0] += 1
                    stat[1] += dt
                    durations.append(dt)
                    if top:
                        stat[2] += dt
                        tracer.attributed_ns += dt
            return wrapper
        return make

    def span(self, name: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = tracer._open(name, {})
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(sid, _clock())
            return wrapper
        return make

    def cell(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(problem, solver_config, runs, base_seed, *args, **kwargs):
            if tracer.pool_sample is None:
                tracer.pool_sample = (problem, solver_config)
            sid = tracer._open("cell", {"name": kwargs.get("name"),
                                        "algorithm": solver_config.algorithm,
                                        "runs": runs})
            try:
                return fn(problem, solver_config, runs, base_seed,
                          *args, **kwargs)
            finally:
                tracer._close(sid, _clock())
        return wrapper

    def run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(problem, config, rng=None):
            sid = tracer._open("run", {"algorithm": config.algorithm,
                                       "seed": config.seed})
            attributed0, steps0 = tracer.attributed_ns, tracer.step_calls
            t0 = _clock()
            out = fn(problem, config, rng)
            dt = _clock() - t0
            tracer._close(sid, t0 + dt)
            tracer.runs.append([config.algorithm, dt,
                                dt - (tracer.attributed_ns - attributed0),
                                tracer.step_calls - steps0,
                                bool(out.diverged)])
            return out
        return wrapper

    def _open(self, name: str, attrs: dict) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self.open_span, name, _clock(), None, attrs])
        self.open_span = sid
        return sid

    def _close(self, sid: int, end_ns: int):
        span = self.spans[sid]
        span[4] = end_ns
        self.open_span = span[1]

    # -- after the run --------------------------------------------------------

    def pool_transfer(self, repeats: int = 5) -> dict:
        """Computed pickle size and dumps+loads time of one run's pool task.

        The process pool ships the problem and the solver config once per
        Monte-Carlo run; this measures that payload in-process.
        """
        if self.pool_sample is None:
            return {"bytes": 0, "ms": 0.0}
        times = []
        for _ in range(repeats):
            t0 = _clock()
            blob = pickle.dumps(self.pool_sample)
            pickle.loads(blob)
            times.append((_clock() - t0) / 1e6)
        return {"bytes": len(blob), "ms": statistics.median(times)}

    def to_json(self) -> dict:
        return {"trace_id": self.trace_id,
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns",
                                "attrs"],
                "spans": self.spans,
                "calls": {k: {"count": c, "total_ns": t, "top_ns": top}
                          for k, (c, t, top) in sorted(self.calls.items())},
                "durations_ns": {k: v for k, v in sorted(self.durations.items())
                                 if v},
                "run_fields": ["algorithm", "ns", "self_ns", "iterations",
                               "diverged"],
                "runs": self.runs,
                "batch_prox_refactors": self.refactors,
                "dykstra_errors": self.dykstra_errors}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every spprox module."""
    from spprox import (bounds, cli, components, constraints, core, harness,
                        problems, solvers)

    t = tracer
    t.counted_error = constraints.DykstraError
    # harness: phases, cells, runs, aggregation, emission
    t.patch(cli, "run_experiment", t.span("harness.run_experiment"))
    t.patch(harness, "generate", t.composite("problems.generate", span=True))
    t.patch(harness, "estimate_kappa",
            t.composite("constraints.estimate_kappa", span=True))
    t.patch(harness, "run_cell", t.cell)
    t.patch(harness, "run", t.run)
    t.patch(harness, "aggregate", t.composite("harness.aggregate"))
    for name in ("emit_csv", "emit_run_csv", "emit_svg"):
        t.patch(harness, name, t.composite(f"harness.{name}"))
    # bounds: every public function plus the constants constructor
    for name, fn in vars(bounds).copy().items():
        if (inspect.isfunction(fn) and fn.__module__ == bounds.__name__
                and not name.startswith("_")):
            t.patch(bounds, name, t.composite(f"bounds.{name}"))
    t.patch(bounds.ProblemConstants, "measure",
            t.composite("bounds.ProblemConstants.measure"))
    # constraints: intersection oracles under the names their callers use
    t.patch(solvers, "dist_intersection",
            t.composite("constraints.dist_intersection"))
    t.patch(constraints, "dist_intersection",
            t.composite("constraints.probe_projection"))
    t.patch(constraints, "project_intersection",
            t.composite("constraints.project_intersection"))
    t.patch(problems, "project_intersection",
            t.composite("problems.reference_projection"))
    for cls in _subclasses(constraints, constraints.ConstraintSet):
        for meth in ("project", "distance"):
            if meth in cls.__dict__:
                t.patch(cls, meth, t.step(f"constraints.{meth}.{cls.kind}"))
    # components: prox and gradient per loss kind
    for cls in _subclasses(components, components.LossComponent):
        if "prox" in cls.__dict__:
            make = (t.batch_prox if cls is components.BatchLeastSquares
                    else functools.partial(t.step, counts_iteration=True))
            t.patch(cls, "prox", make(f"components.prox.{cls.kind}"))
        if "gradient" in cls.__dict__:
            t.patch(cls, "gradient", t.step(f"components.gradient.{cls.kind}",
                                            counts_iteration=True))
    # core: sampling and the recorded objectives
    sp = core.StochasticProblem
    t.patch(sp, "sample_indices", t.step("core.sample_indices"))
    t.patch(sp, "objective", t.step("core.objective"))
    t.patch(sp, "mean_constraint_sq_distance",
            t.composite("core.mean_constraint_sq_distance"))
    t.patch(problems.MeanSquaredTarget, "__call__", t.step("core.test_objective"))


def _subclasses(module, base):
    return [c for c in vars(module).values()
            if inspect.isclass(c) and issubclass(c, base) and c is not base
            and c.__module__ == module.__name__]

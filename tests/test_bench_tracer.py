"""The benchmark's tracer patches package names from outside; a renamed or
removed name must fail here, not first in a benchmark run."""

import importlib.util
from pathlib import Path

from spprox import constraints, problems, solvers

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = _load_tracer()
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

"""Stochastic proximal point methods over intersections of simple constraints.

Solvers (SPP, averaged SPP, restarted SPP, projected SGD baseline), exact
proximal operators and projections, evaluators for the nonasymptotic
convergence guarantees, experiment generators, and a reproducible
Monte-Carlo harness with CSV/SVG output.
"""

from .bounds import (MissingConstantError, ProblemConstants, bound_overlay,
                     constant_step_envelope, constant_step_plan,
                     convex_bounds, iteration_complexity, rspp_plan,
                     strongly_convex_bound)
from .components import (BatchLeastSquares, ComposedScalar, HuberScalar,
                         LinearResidualSquared, LogisticScalar, LossComponent,
                         ProxSolveError, QuadraticNorm, SquareScalar)
from .constraints import (Box, ConstraintSet, DykstraError, Halfspace,
                          Hyperplane, NonnegativeOrthant, Polyhedron,
                          WholeSpace, dist_intersection, estimate_kappa,
                          project_intersection)
from .core import RandomSource, StochasticProblem, as_vector, dot, norm
from .harness import (AggregateTrace, Cell, ConfigError, ExperimentConfig,
                      aggregate, emit_csv, emit_svg, log_log_slope,
                      parse_config, parse_csv, run_cell, run_experiment)
from .problems import (GeneratorSpec, ReturnsTable, build_markowitz, generate,
                       gen_constrained_ls, gen_feasibility, gen_finite_sum,
                       gen_markowitz, gen_random_ls_polyhedron,
                       load_returns_csv, synth_returns)
from .schedules import PolynomialDecay, phi, theta
from .solvers import (RunTrace, SolverConfig, SolverError, epochs_for_budget,
                      rspp_schedule, run)

__version__ = "0.1.0"

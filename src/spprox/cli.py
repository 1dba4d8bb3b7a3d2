"""Command-line front end.

Subcommands: ``run`` executes an experiment config, ``gen-config`` prints a
documented template, ``estimate-kappa`` prints the configured problem's
linear-regularity constant, known or a sampled lower bound (both from
``estimate_kappa``), ``plan`` prints stepsize/iteration/epoch plans for a
target accuracy.  Exit codes: 0 success, 1 configuration error, 2 runtime
error.  The SPPROX_OUTDIR environment variable overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bounds
from .constraints import estimate_kappa
from .harness import (CONFIG_TEMPLATES, ConfigError, parse_config,
                      run_experiment)
from .problems import generate
from .schedules import PolynomialDecay, mean_theta_sq


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spprox",
        description="Stochastic proximal point experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to the INI config file")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker-pool size (default: config/auto)")

    p_gen = sub.add_parser("gen-config", help="print a config template")
    p_gen.add_argument("family", choices=sorted(CONFIG_TEMPLATES))

    p_kap = sub.add_parser("estimate-kappa",
                           help="probe the linear-regularity constant")
    p_kap.add_argument("config")
    p_kap.add_argument("--probes", type=int, default=200)

    p_plan = sub.add_parser("plan", help="accuracy-driven parameter plans")
    p_plan.add_argument("config")
    p_plan.add_argument("--eps", type=float, required=True)
    p_plan.add_argument("--gamma", type=float, default=1.0)
    p_plan.add_argument("--mu0", type=float, default=1.0)
    p_plan.add_argument("--kappa", type=float, default=None)
    p_plan.add_argument("--probes", type=int, default=200)
    p_plan.add_argument("--subgrad-sq", type=float, default=None,
                        help="E[L^2] subgradient bound for the convex-case plan")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    env_out = os.environ.get("SPPROX_OUTDIR")
    if env_out:
        config.outdir = env_out
    if args.workers is not None:
        config.workers = args.workers
    results = run_experiment(config)
    for name, agg in results.items():
        tail = ""
        if agg.diverged:
            tail = f"  (diverged runs: {agg.diverged})"
        print(f"{name}: {agg.runs} runs, {len(agg.ks)} records{tail}")
    print(f"outputs in {config.outdir}")
    return 0


def _cmd_gen_config(args) -> int:
    sys.stdout.write(CONFIG_TEMPLATES[args.family])
    return 0


def _cmd_estimate_kappa(args) -> int:
    config = parse_config(args.config)
    problem = generate(config.spec)
    kappa = estimate_kappa(problem, args.probes, config.probe_source())
    print(f"kappa (known): {kappa:.6g}" if problem.kappa is not None else
          f"kappa_hat (lower bound, {args.probes} probes): {kappa:.6g}\nnote: a "
          "sampled estimate certifies a lower bound on the regularity constant only")
    return 0


def _cmd_plan(args) -> int:
    config = parse_config(args.config)
    try:
        schedule = PolynomialDecay(args.mu0, args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    problem = generate(config.spec)
    kappa = args.kappa
    if kappa is None and problem.x_star is not None:
        kappa = estimate_kappa(problem, args.probes, config.probe_source())
    c = bounds.ProblemConstants.measure(problem, np.zeros(problem.dim),
                                        kappa=kappa)
    print(f"constants: r0={c.r0:.6g} kappa={c.kappa:.6g} eta^2={c.exp_grad_sq_opt:.6g} "
          f"E[L^2]={c.exp_lips_sq:.6g} dist0={c.dist0:.6g}")
    th0 = mean_theta_sq(c.sigmas, schedule.mu0)
    print(f"theta0 = E[theta_S^2(mu0)] = {th0:.6g}")
    # every plan is evaluated on its own; its evaluator checks the hypotheses
    plans = (
        ("convex-case plan", "mu={:.6g}, K={}",
         lambda: bounds.constant_step_plan(args.eps, c, args.subgrad_sq)),
        (f"variable-stepsize plan (gamma={schedule.gamma:g})", "k={}",
         lambda: (bounds.iteration_complexity(args.eps, schedule, c),)),
        ("restart plan", "T={} epochs, >= {:.6g} inner iterations",
         lambda: bounds.rspp_plan(args.eps, schedule, c)))
    for label, answer, plan in plans:
        try:
            print(f"{label}: {answer.format(*plan())}")
        except (ValueError, ArithmeticError) as exc:
            print(f"{label} unavailable: {exc}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "gen-config": _cmd_gen_config,
                "estimate-kappa": _cmd_estimate_kappa, "plan": _cmd_plan}
    try:
        if getattr(args, "probes", 1) < 1:  # estimate-kappa and plan
            raise ConfigError("probes must be >= 1")
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

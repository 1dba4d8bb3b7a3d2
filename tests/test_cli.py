import contextlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import spprox
from spprox import ConfigError, SolverError, harness, parse_config, run_experiment
from spprox.cli import main
from spprox.problems import knob_defaults

TINY = """\
[experiment]
runs = 2
base_seed = 4
iterations = 30
stride = 10
workers = 1

[problem]
family = finite-sum
m = 4
n = 3
seed = 1

[solvers]
algorithms = spp
mu0 = 1
gamma = 1
"""


def test_cli_run_and_env_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(TINY)
    out = tmp_path / "envout"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg)]) == 0
    assert len(list(Path(out).glob("*.csv"))) == 1
    assert "spp_mu1_g1" in capsys.readouterr().out


def test_cli_gen_config(capsys, tmp_path):
    assert main(["gen-config", "markowitz"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "m.ini"
    path.write_text(text)
    from spprox import parse_config
    assert parse_config(path).spec.family == "markowitz"


def _with_key(section: str, key: str, value: str, text: str = TINY) -> str:
    """``text`` with ``key = value`` in ``[section]``, replacing any old value."""
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


def _with_family(family: str, text: str = TINY) -> str:
    """``text`` under ``family``, less TINY's knobs the family does not take."""
    for key in ("m", "n", "seed"):
        if key not in knob_defaults(family):
            text = "".join(ln + "\n" for ln in text.splitlines()
                           if not ln.startswith(f"{key} ="))
    return _with_key("problem", "family", family, text)


_FAMILY_USING = {"noise": "random-ls-polyhedron", "train_frac": "markowitz",
                 "b_policy": "markowitz",
                 "margin": "feasibility", "lam": "feasibility",
                 "sets": "feasibility", "active": "constrained-ls",
                 "m": "random-ls-polyhedron"}


@pytest.mark.parametrize("section, key, value, argv", [
    # explicit ids, so that no case is renamed when a row comes or goes:
    # each row keeps the id pytest gave it from its index when it came
    pytest.param("experiment", "stride", "-5", [],
                 id="experiment-stride--5-argv0"),
    pytest.param("experiment", "iterations", "-3", [],
                 id="experiment-iterations--3-argv1"),
    pytest.param("experiment", "workers", "-4", [],
                 id="experiment-workers--4-argv2"),
    pytest.param("experiment", "kappa_probes", "-2", [],
                 id="experiment-kappa_probes--2-argv3"),
    pytest.param("problem", "b_policy", "foo", [],
                 id="problem-b_policy-foo-argv8"),
    pytest.param("problem", "b_policy", "nan", [],
                 id="problem-b_policy-nan-argv9"),
    pytest.param("experiment", "workers", "1", ["--workers", "-1"],
                 id="experiment-workers-1-argv10"),
    pytest.param("experiment", "base_seed", "-5", [],
                 id="experiment-base_seed--5-argv11"),
    pytest.param("solvers", "mu0", "nan", [],
                 id="solvers-mu0-nan-argv12"),
    pytest.param("solvers", "mu0", "inf", [],
                 id="solvers-mu0-inf-argv13"),
    pytest.param("solvers", "gamma", "nan", [],
                 id="solvers-gamma-nan-argv14"),
    pytest.param("solvers", "gamma", "inf", [],
                 id="solvers-gamma-inf-argv15"),
    pytest.param("problem", "noise", "nan", [],
                 id="problem-noise-nan-argv16"),
    pytest.param("problem", "train_frac", "nan", [],
                 id="problem-train_frac-nan-argv17"),
    pytest.param("problem", "margin", "nan", [],
                 id="problem-margin-nan-argv18"),
    pytest.param("problem", "lam", "nan", [],
                 id="problem-lam-nan-argv19"),
    pytest.param("problem", "spread", "inf", [],
                 id="problem-spread-inf-argv20"),
    pytest.param("problem", "sets", "-3", [],
                 id="problem-sets--3-argv21"),
    pytest.param("problem", "active", "-1", [],
                 id="problem-active--1-argv22"),
    pytest.param("problem", "family", "foo", [],
                 id="problem-family-foo-argv23"),
    pytest.param("problem", "seed", "-1", [],
                 id="problem-seed--1-argv24"),
    pytest.param("problem", "train_frac", "1", [],
                 id="problem-train_frac-1-argv25"),
    pytest.param("problem", "lam", "0", [],
                 id="problem-lam-0-argv26"),
    pytest.param("problem", "margin", "-0.5", [],
                 id="problem-margin--0.5-argv27"),
    pytest.param("problem", "m", "2", [],
                 id="problem-m-2-argv28"),
    pytest.param("solvers", "mu0", "0.5, 0.5000001", [],
                 id="solvers-mu0-0.5, 0.5000001-argv29"),  # both spp_mu0.5_g1
    pytest.param("solvers", "algorithms", "spp, spp", [],
                 id="solvers-algorithms-spp, spp-argv30"),
    pytest.param("solvers", "gamma", "1, 1.0000001", [],
                 id="solvers-gamma-1, 1.0000001-argv31"),
    pytest.param("experiment", "runs", "0", [],
                 id="experiment-runs-0-argv32"),
    pytest.param("experiment", "record_feasibility", "maybe", [],
                 id="experiment-record_feasibility-maybe-argv33"),
    pytest.param("experiment", "debug_runs", "2", [],
                 id="experiment-debug_runs-2-argv34"),
    pytest.param("experiment", "kappa_probes", "1.5", [],
                 id="experiment-kappa_probes-1.5-argv35"),
])
def test_invalid_run_keys_rejected_at_parse_time(tmp_path, monkeypatch, capsys,
                                                 section, key, value, argv):
    cfg = tmp_path / "bad.ini"
    # a problem knob is checked under a family whose generator uses it
    text = _with_family(_FAMILY_USING.get(key, "finite-sum"))
    cfg.write_text(_with_key(section, key, value, text))
    if not argv:
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
    out = tmp_path / "out"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg), *argv]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e-10", "-1", "0", "inf", "nan"])
def test_a_config_setting_the_removed_feas_tol_is_rejected(tmp_path,
                                                            monkeypatch,
                                                            capsys, value):
    # projections are certified at constraints.CERTIFICATE_TOL, which no
    # config can set: the old key is an unknown key like any other
    cfg = tmp_path / "old.ini"
    cfg.write_text(_with_key("experiment", "feas_tol", value))
    with pytest.raises(ConfigError, match="feas_tol"):
        parse_config(cfg)
    out = tmp_path / "out"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "unknown key 'feas_tol' in [experiment]" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("family, key", [("feasibility", "noise"),
                                         ("markowitz", "m")])
def test_knob_the_family_does_not_take_is_rejected(tmp_path, monkeypatch,
                                                   capsys, family, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(_with_key("problem", key, "3", _with_family(family)))
    with pytest.raises(ConfigError, match=f"{family} takes no knob '{key}'"):
        parse_config(cfg)
    out = tmp_path / "out"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


_RETURNS_CONFIG = """\
[experiment]
runs = 2
iterations = 30
workers = 1

[problem]
family = markowitz
returns_csv = {path}

[solvers]
algorithms = spp
"""


@pytest.mark.parametrize("key", ["n", "periods", "seed"])
def test_synthetic_table_knob_beside_returns_csv_is_rejected(
        tmp_path, monkeypatch, capsys, key):
    returns = tmp_path / "r.csv"
    returns.write_text("a,b,c\n1,2,0\n3,1,2\n0,2,1\n2,0,3\n1,1,1\n2,2,0\n")
    text = _RETURNS_CONFIG.format(path=returns)
    good = tmp_path / "good.ini"
    good.write_text(text)
    assert spprox.generate(parse_config(good).spec).dim == 3
    cfg = tmp_path / "bad.ini"
    cfg.write_text(_with_key("problem", key, "3", text))
    with pytest.raises(ConfigError, match=f"{key} must be left out beside "
                                          "returns_csv"):
        parse_config(cfg)
    out = tmp_path / "out"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", str(good)]) == 0
    assert len(list(out.glob("*.csv"))) == 1


@pytest.mark.parametrize("family", sorted(harness.CONFIG_TEMPLATES))
def test_every_template_runs(tmp_path, monkeypatch, capsys, family):
    assert main(["gen-config", family]) == 0
    text = capsys.readouterr().out
    for key, value in (("runs", "1"), ("iterations", "20"),
                       ("record_feasibility", "false")):
        text = _with_key("experiment", key, value, text)
    cfg = tmp_path / f"{family}.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg), "--workers", "1"]) == 0
    assert (sorted(p.stem for p in out.glob("*.csv"))
            == sorted(cell.name for cell in parse_config(cfg).cells))
    # every family's losses are quadratics: each cell states the caveat
    for meta in out.glob("*.meta.json"):
        assert (json.loads(meta.read_text())["subgradient_caveat"]
                == spprox.bounds.SUBGRADIENT_CAVEAT)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unreachable_return_target_fails_before_output(tmp_path, monkeypatch,
                                                       capsys, workers):
    # a 100% return target empties orthant + budget + return set; without
    # feasibility records no projection would notice
    text = _with_family("markowitz")
    for key, value in (("periods", "40"), ("b_policy", "1.0")):
        text = _with_key("problem", key, value, text)
    for key, value in (("record_feasibility", "false"), ("workers", workers)):
        text = _with_key("experiment", key, value, text)
    cfg = tmp_path / "infeasible.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    monkeypatch.setenv("SPPROX_OUTDIR", str(out))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "b_policy" in err and "constraint family is empty" in err
    assert not list(out.glob("*.csv"))


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nnonsense = 1\n")
    assert main(["run", str(bad)]) == 1
    assert main(["run", str(tmp_path / "missing.ini")]) == 1


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(TINY)
    target = tmp_path / "somefile"
    target.write_text("occupied")
    monkeypatch.setenv("SPPROX_OUTDIR", str(target))  # not a directory
    assert main(["run", str(cfg)]) == 2


def test_cli_estimate_kappa(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[problem]\nfamily = feasibility\nn = 4\nsets = 8\nseed = 1\n")
    monkeypatch.delenv("SPPROX_OUTDIR", raising=False)
    assert main(["estimate-kappa", str(cfg), "--probes", "40"]) == 0
    out = capsys.readouterr().out
    assert "lower bound" in out


_PLAN_CONFIG = "[problem]\nfamily = finite-sum\nm = 5\nn = 3\nseed = 2\n"
_R0_BELOW_1 = "constant-step plan assumes r0 >= 1"


def test_cli_plan(tmp_path, capsys):
    cfg = tmp_path / "p.ini"
    cfg.write_text(_PLAN_CONFIG)
    with pytest.warns(UserWarning, match=_R0_BELOW_1):  # r0 = 0.35 here
        assert main(["plan", str(cfg), "--eps", "0.01", "--gamma", "1",
                     "--kappa", "1", "--subgrad-sq", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "variable-stepsize plan (gamma=1): k=" in out
    assert "restart plan: T=" in out
    assert "convex-case plan: mu=" in out


_PLAN_LABELS = ("convex-case plan", "variable-stepsize plan (gamma=1)",
                "restart plan")


def _plan_lines(out: str) -> dict:
    """{label: the text after it} for each plan line, each label once."""
    lines = {}
    for line in out.splitlines():
        for label in _PLAN_LABELS:
            if line.startswith((f"{label}: ", f"{label} unavailable: ")):
                assert label not in lines, out
                lines[label] = line[len(label):]
    return lines


# {template: (exit code, whether r0 < 1 draws the constant-step warning)}.
# constrained-ls's variable-stepsize bound never reaches 0.1 and feasibility
# starts at its optimum (r0 = 0); neither hides the restart plan.  markowitz
# has no known optimum, so nothing is measured.
_PLAN_BY_TEMPLATE = {"constrained-ls": (0, False), "feasibility": (0, True),
                     "finite-sum": (0, True), "markowitz": (2, False),
                     "random-ls-polyhedron": (0, False)}


@pytest.mark.parametrize("family", sorted(harness.CONFIG_TEMPLATES))
def test_plan_reports_every_plan_on_every_template(tmp_path, capsys, family):
    code, warns = _PLAN_BY_TEMPLATE[family]
    assert main(["gen-config", family]) == 0
    cfg = tmp_path / f"{family}.ini"
    cfg.write_text(capsys.readouterr().out)
    with (pytest.warns(UserWarning, match=_R0_BELOW_1) if warns
          else contextlib.nullcontext()):
        assert main(["plan", str(cfg), "--eps", "0.1", "--probes", "20",
                     "--subgrad-sq", "2"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert sorted(_plan_lines(out)) == sorted(_PLAN_LABELS)
    else:
        assert "no known optimum" in err and out == ""


@pytest.mark.parametrize("command", [["estimate-kappa"],
                                     ["plan", "--eps", "0.1"]])
@pytest.mark.parametrize("probes", ["0", "-3"])
def test_a_bad_probe_count_is_a_config_error(tmp_path, monkeypatch, capsys,
                                             command, probes):
    cfg = tmp_path / "p.ini"
    cfg.write_text(_PLAN_CONFIG)
    monkeypatch.setattr("spprox.cli.generate", None)  # rejected before it
    argv = [command[0], str(cfg), *command[1:], "--probes", probes]
    assert main(argv) == 1
    assert capsys.readouterr().err == "config error: probes must be >= 1\n"


def test_plan_reports_a_plan_past_the_cap_as_unavailable(tmp_path, capsys):
    # constrained-ls: theta0 near 1 puts both strongly convex plans past it
    assert main(["gen-config", "constrained-ls"]) == 0
    cfg = tmp_path / "ls.ini"
    cfg.write_text(capsys.readouterr().out)
    assert main(["plan", str(cfg), "--eps", "0.1", "--probes", "20",
                 "--subgrad-sq", "2"]) == 0
    lines = _plan_lines(capsys.readouterr().out)
    unreachable = f" unavailable: bound never reaches epsilon within {2 ** 62}"
    assert lines["convex-case plan"].startswith(": mu=")
    assert lines["variable-stepsize plan (gamma=1)"] == unreachable
    assert lines["restart plan"] == unreachable


_SMALL_KNOBS = {"n": "4", "m": "40", "sets": "6", "periods": "60"}


@pytest.mark.filterwarnings("ignore:constant-step plan assumes")
@pytest.mark.parametrize("family", sorted(harness.CONFIG_TEMPLATES))
def test_every_template_estimates_kappa_and_plans(tmp_path, capsys, family):
    # finite-sum's one set is the whole space: its kappa is known, not probed
    text = harness.CONFIG_TEMPLATES[family]
    for key, value in _SMALL_KNOBS.items():
        if key in knob_defaults(family):
            text = _with_key("problem", key, value, text)
    cfg = tmp_path / f"{family}.ini"
    cfg.write_text(text)
    assert main(["estimate-kappa", str(cfg), "--probes", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kappa (known): 1\n" if family == "finite-sum"
                          else "kappa_hat (lower bound, 5 probes): ")
    code = main(["plan", str(cfg), "--eps", "0.1", "--probes", "5",
                 "--subgrad-sq", "2"])
    out, err = capsys.readouterr()
    if family == "markowitz":  # no known optimum: no constants to plan from
        assert code == 2 and "no known optimum" in err
    else:
        assert code == 0 and sorted(_plan_lines(out)) == sorted(_PLAN_LABELS)


@pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
def test_cli_plan_rejects_a_bad_kappa(tmp_path, capsys, value):
    cfg = tmp_path / "p.ini"
    cfg.write_text(_PLAN_CONFIG)
    assert main(["plan", str(cfg), "--eps", "0.01", "--kappa", value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "kappa" in err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"), ("--eps", "-0.1"),
    ("--subgrad-sq", "nan"), ("--subgrad-sq", "inf"), ("--subgrad-sq", "-2")])
def test_cli_plan_reports_a_bad_input_as_unavailable(tmp_path, capsys, flag,
                                                     value):
    cfg = tmp_path / "p.ini"
    cfg.write_text(_PLAN_CONFIG)
    argv = {"--eps": "0.01", "--kappa": "1", "--subgrad-sq": "4.0", flag: value}
    # the bad value is rejected before the r0 >= 1 hypothesis is checked
    assert main(["plan", str(cfg), *(s for kv in argv.items() for s in kv)]) == 0
    lines = _plan_lines(capsys.readouterr().out)
    assert sorted(lines) == sorted(_PLAN_LABELS)
    # epsilon feeds every plan, subgrad_sq only the convex-case one
    name, unavailable = {"--eps": ("epsilon", _PLAN_LABELS),
                         "--subgrad-sq": ("subgrad_sq", _PLAN_LABELS[:1])}[flag]
    for label, text in lines.items():
        if label in unavailable:
            assert text.startswith(f" unavailable: {name} = "), text
        else:
            assert text.startswith(": "), text


@pytest.mark.parametrize("flag, value", [
    ("--mu0", "-1"), ("--mu0", "nan"), ("--mu0", "inf"),
    ("--gamma", "-1"), ("--gamma", "inf")])
def test_cli_plan_rejects_a_bad_stepsize_law(tmp_path, capsys, flag, value):
    cfg = tmp_path / "p.ini"
    cfg.write_text(_PLAN_CONFIG)
    assert main(["plan", str(cfg), "--eps", "0.01", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # rejected before anything is measured
    assert "config error" in err


def test_cli_path_does_not_import_scipy():
    # the runtime is numpy-only: importing scipy.linalg alone costs about
    # 0.35 s and 26 MB in every process
    script = (
        "import sys\n"
        "import spprox.cli\n"
        "from spprox import project_intersection\n"
        "from spprox.problems import GeneratorSpec, generate\n"
        "p = generate(GeneratorSpec('constrained-ls', n=8, m=240, seed=3))\n"
        "generate(GeneratorSpec('random-ls-polyhedron', n=6, m=60, seed=3))\n"
        "generate(GeneratorSpec('markowitz', n=5, periods=60, seed=3))\n"
        "project_intersection(p.rows, p.x_star + 5.0)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = _run_python(script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_a_cli_run_needs_only_numpy(tmp_path):
    # a whole markowitz experiment through cli.main, records and all, in a
    # process where scipy is importable but never imported
    cfg = tmp_path / "m.ini"
    text = harness.CONFIG_TEMPLATES["markowitz"]
    for key, value in (("runs", "1"), ("iterations", "20"), ("workers", "1"),
                       ("output_dir", str(tmp_path / "out"))):
        text = _with_key("experiment", key, value, text)
    cfg.write_text(text)
    script = (
        "import sys\n"
        "import spprox.cli\n"
        "code = spprox.cli.main(['run', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    out = _run_python(script, str(cfg))
    assert out.returncode == 0, out.stderr
    assert len(list((tmp_path / "out").glob("*.csv"))) == 12


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this spprox."""
    src = str(Path(spprox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


# Fails run 1 (seed 5) of the cell named by argv[2], with the rest running.
FAIL_AT_SEED_5 = """\
import sys
from spprox import cli, harness
from spprox.solvers import SolverError

real_run = harness.run

def failing_run(problem, config, rng=None):
    if config.seed == 5 and config.algorithm == sys.argv[2]:
        raise SolverError("injected failure at seed 5", 7)
    return real_run(problem, config, rng)

harness.run = failing_run
sys.exit(cli.main(["run", sys.argv[1]]))
"""


# With base_seed 4 and 3 runs of spp, rspp and sgd over 2 workers, task i
# goes to share i % 2: seed 5 of rspp is task 4, in the parent's share; seed 5
# of sgd is task 7, in the pool process's share.  At 1 worker, the failure in
# the last cell comes after two cells have run.
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers inherit the patched run only by fork")
@pytest.mark.parametrize("algorithm, workers, where", [
    pytest.param("sgd", 1, "parent", id="sgd-serial"),
    pytest.param("rspp", 2, "parent", id="rspp-parent"),
    pytest.param("sgd", 2, "pool", id="sgd-pool")])
def test_worker_failure_propagates(tmp_path, monkeypatch, algorithm, workers,
                                   where):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_with_key("solvers", "algorithms", "spp, rspp, sgd",
                             _with_key("experiment", "runs", "3",
                                       _with_key("experiment", "workers",
                                                 str(workers)))))
    real_run = harness.run
    parent = os.getpid()

    def failing_run(problem, config, rng=None):
        if config.seed == 5 and config.algorithm == algorithm:
            place = "parent" if os.getpid() == parent else "pool"
            raise SolverError(f"injected failure at seed 5 in the {place}", 7)
        return real_run(problem, config, rng)

    monkeypatch.setattr(harness, "run", failing_run)
    config = parse_config(cfg)
    config.outdir = str(tmp_path / "lib")
    with pytest.raises(SolverError, match=f"seed 5 in the {where}") as err:
        run_experiment(config)
    assert err.value.iteration == 7

    monkeypatch.setenv("SPPROX_OUTDIR", str(tmp_path / "cli"))
    # times out if it hangs
    out = _run_python(FAIL_AT_SEED_5, str(cfg), algorithm)
    assert out.returncode == 2, out.stderr
    assert "injected failure at seed 5" in out.stderr
    for outdir in (tmp_path / "lib", tmp_path / "cli"):
        assert not list(outdir.glob("*.csv"))
        assert not list(outdir.glob("*.meta.json"))


# 3 cells x 3w runs over w workers: each share holds 9 runs.  The first run
# of spp (task 0) is the parent's, its second (task 1) the first pool share's.
# At 4 workers the pool has more processes than a 2-core machine has cores.
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers inherit the patched run only by fork")
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("failing_seed, where", [(4, "parent"), (5, "pool")])
def test_a_failure_stops_every_share_at_its_next_run(tmp_path, monkeypatch,
                                                     workers, failing_seed,
                                                     where):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_with_key("solvers", "algorithms", "spp, rspp, sgd",
                             _with_key("experiment", "runs", str(3 * workers),
                                       _with_key("experiment", "workers",
                                                 str(workers)))))
    log = tmp_path / "runs.log"
    real_run = harness.run
    parent = os.getpid()

    def logged_run(problem, config, rng=None):
        failing = config.seed == failing_seed and config.algorithm == "spp"
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}:{int(failing)}\n")
        if failing:
            place = "parent" if os.getpid() == parent else "pool"
            raise SolverError(f"injected failure in the {place}", 1)
        time.sleep(0.1)  # long enough for the failure to be seen
        return real_run(problem, config, rng)

    monkeypatch.setattr(harness, "run", logged_run)
    config = parse_config(cfg)
    config.outdir = str(tmp_path / "out")
    with pytest.raises(SolverError, match=f"in the {where}"):
        run_experiment(config)
    started = [line.split(":") for line in log.read_text().split()]
    (failed_in,) = [pid for pid, failing in started if failing == "1"]
    runs = Counter(pid for pid, _ in started)
    assert runs.pop(failed_in) == 1
    assert max(runs.values(), default=0) <= 3  # of the 9 in each share

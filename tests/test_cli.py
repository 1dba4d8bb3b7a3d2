import os
import subprocess
import sys
from pathlib import Path

import spprox
from spprox.cli import main

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


def test_cli_plan(tmp_path, capsys):
    cfg = tmp_path / "p.ini"
    cfg.write_text("[problem]\nfamily = finite-sum\nm = 5\nn = 3\nseed = 2\n")
    assert main(["plan", str(cfg), "--eps", "0.01", "--gamma", "1",
                 "--kappa", "1", "--subgrad-sq", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "variable-stepsize plan" in out
    assert "restart plan" in out
    assert "convex-case plan: mu=" in out


def test_cli_path_does_not_import_scipy_optimize():
    # scipy.optimize costs about 19 MB of resident memory per pool process
    script = (
        "import sys\n"
        "import spprox.cli\n"
        "from spprox import gen_constrained_ls, project_intersection\n"
        "p = gen_constrained_ls(n=8, m=240, seed=3)\n"
        "project_intersection(p.constraints, p.x_star + 5.0)\n"
        "print('scipy.optimize' in sys.modules)\n")
    src = str(Path(spprox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "False"

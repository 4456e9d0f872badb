import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import taplab
from taplab import free_energy
from taplab.cli import load_config, main
from taplab.exceptions import TapLabError
from taplab.experiments import ExperimentConfig

CFG = """
n = 50
replicates = 1
delta_grid = 1.0
max_iters = 1000
grad_tol = 1e-8
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(CFG)
    return str(path)


def run(cfg_file, out, *argv):
    return main(["--config", cfg_file, "--out", str(out), *argv])


def test_load_config_parsing(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n = 10  # comment\nsigma = 0.5\ndelta_grid = 0.6, 1.0\n"
                    "design = rademacher\n")
    cfg = load_config(path)
    assert cfg == {"n": 10, "sigma": 0.5, "delta_grid": (0.6, 1.0),
                   "design": "rademacher"}


@pytest.mark.parametrize("config, out, message", [
    (None, "out", "cannot read config file {config!r}: No such file or directory"),
    ("bogus = 1\n", "out", "unknown config key: 'bogus'"),
    ("n = many\n", "out", "config key 'n': invalid literal for int() with base 10: 'many'"),
    ("sigma = nan\n", "out", "invalid config: sigma must be positive and finite"),
    ("n = 50\n", "file/out", "cannot create output directory {out!r}: "),
], ids=["unreadable-file", "unknown-key", "bad-value", "invalid-config", "uncreatable-out"])
def test_refusal_exits_1_in_process(tmp_path, capsys, config, out, message):
    # the code a caller in the same process reads is the shell's status, and
    # the refusal is one line on stderr before --out is made
    path = tmp_path / "cfg"
    if config is not None:
        path.write_text(config)
    (tmp_path / "file").write_text("")
    out = tmp_path / out
    with pytest.raises(SystemExit) as info:
        main(["--config", str(path), "--out", str(out), "potential"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("taplab: error: " + message.format(config=str(path), out=str(out)))
    assert err.count("\n") == 1
    assert not out.exists()


def test_potential_subcommand(cfg_file, tmp_path, capsys):
    assert run(cfg_file, tmp_path, "potential", "--delta", "1.0") == 0
    lines = (tmp_path / "potential.csv").read_text().splitlines()
    assert lines[0] == "# tap-lab v1"
    assert lines[1] == "gamma,phi,phi_prime,phi_second"
    summary = json.loads((tmp_path / "potential_summary.json").read_text())
    assert set(summary) == {"gamma_stat", "gamma_alg", "regime"}
    assert json.loads((tmp_path / "manifest.json").read_text())["command"] == "potential"


def test_amp_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "amp", "--iters", "4") == 0
    lines = (tmp_path / "amp.csv").read_text().splitlines()
    assert lines[1] == "k,gamma_k,mse_empirical,mse_se,grad_norm_sq_per_p"
    assert len(lines) == 2 + 4


def test_ngd_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "ngd") == 0
    lines = (tmp_path / "ngd.csv").read_text().splitlines()
    assert lines[1] == "k,f_value,grad_norm_sq_per_p,step"
    state = json.loads((tmp_path / "ngd_state.json").read_text())
    assert set(state) == {"m", "s", "lambda", "gamma"}
    assert len(state["m"]) == 50
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stop_reason"] in {"converged", "step_floor", "max_iters"}
    assert manifest["converged"] == (manifest["stop_reason"] == "converged")
    assert isinstance(manifest["backtracks"], int) and manifest["backtracks"] >= 0
    # the TAP fit is a Newton-CG fit: its CG products are counted
    assert isinstance(manifest["hessian_matvecs"], int) and manifest["hessian_matvecs"] > 0
    assert manifest["ngd_iterations"] == 0
    assert isinstance(manifest["curvature_breaks"], int) and manifest["curvature_breaks"] >= 0
    # the MF fit is NGD, then Newton-CG: it counts both
    mf_out = tmp_path / "mf"
    assert run(cfg_file, mf_out, "ngd", "--objective", "mf") == 0
    manifest = json.loads((mf_out / "manifest.json").read_text())
    assert manifest["converged"]
    assert isinstance(manifest["ngd_iterations"], int)
    assert 0 < manifest["ngd_iterations"] < manifest["iterations"]
    assert manifest["hessian_matvecs"] > 0


@pytest.mark.parametrize("objective", ["tap", "mf"])
def test_fit_converged_at_its_first_record_took_no_ngd_direction(tmp_path, objective):
    # at sigma = 1e6 the AMP warm start is already stationary
    path = tmp_path / "noisy.txt"
    path.write_text("n = 50\nsigma = 1e6\n")
    assert run(str(path), tmp_path, "ngd", "--objective", objective) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stop_reason"] == "converged" and manifest["iterations"] == 1
    assert manifest["ngd_iterations"] == 0 and manifest["hessian_matvecs"] == 0


def test_ngd_mf_at_low_noise_takes_newton_steps(tmp_path):
    # at sigma = 0.1 most tilted covariances are singular at the handover
    # state; the mean-field fit still finishes by Newton
    path = tmp_path / "low.txt"
    path.write_text("sigma = 0.1\n")
    out = tmp_path / "out"
    assert run(str(path), out, "ngd", "--objective", "mf", "--delta", "0.6") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] and manifest["hessian_matvecs"] > 0
    assert 0 < manifest["ngd_iterations"] < manifest["iterations"]


def test_mse_sweep_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "mse-sweep") == 0
    lines = (tmp_path / "mse_sweep.csv").read_text().splitlines()
    assert lines[1] == "delta,seed,mse_tap,mse_mf,converged_tap,converged_mf"
    assert len(lines) == 3  # header x2 + 1 row


def test_calibrate_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "calibrate") == 0
    for meth in ("tap", "mf"):
        lines = (tmp_path / f"calibration_{meth}.csv").read_text().splitlines()
        assert lines[1] == "bin_lo,bin_hi,pip_mean,freq_nonzero,count"
        assert len(lines) == 12


@pytest.mark.parametrize("command, fits", [("mse-sweep", 1), ("calibrate", 1),
                                           ("universality", 4)])
def test_fits_stopped_at_max_iters_are_counted_in_the_manifest(tmp_path, command, fits):
    # one iteration records the warm start and stops there, so every fit of
    # both objectives ends at the cap: one instance, or one per design
    path = tmp_path / "cfg.txt"
    path.write_text("n = 50\nreplicates = 1\ndelta_grid = 1.0\nmax_iters = 1\n")
    assert run(str(path), tmp_path, command) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    capped = {"converged": 0, "step_floor": 0, "max_iters": fits}
    assert manifest["stop_reasons"] == {"tap": capped, "mf": capped}
    if command == "universality":  # one row per design
        lines = (tmp_path / "universality.csv").read_text().splitlines()
        assert lines[1] == "scenario,delta,seed,mse_tap,mse_mf,min_eig"
        assert len(lines) == 2 + fits


@pytest.mark.parametrize("cap, method", [(100, "dense"), (99, "lanczos")])
def test_hessian_probe_is_dense_up_to_its_limit(cfg_file, tmp_path, capsys, monkeypatch,
                                                cap, method):
    # 2p = 100 at n = 50, delta = 1: the dense probe's own size limit decides
    # when LOBPCG runs, as in the universality sweep
    monkeypatch.setattr(free_energy, "DENSE_HESSIAN_MAX_DIM", cap)
    assert run(cfg_file, tmp_path, "hessian") == 0
    report = json.loads((tmp_path / "hessian.json").read_text())
    assert set(report) == {"min_eig", "method"} and report["method"] == method
    assert json.loads(capsys.readouterr().out) == report


def test_hessian_method_is_not_a_flag(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run(cfg_file, out, "hessian", "--method", "dense")
    assert info.value.code == 2
    assert "unrecognized arguments: --method dense" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["oracle"], "enumeration guard exceeded: 3^300 states"),
    (["--config", "{spikeless}", "calibrate"], "calibration needs a prior with an atom at 0"),
    (["hessian", "--delta", "1.4"], "LOBPCG found no eigenpair of the 428-dimensional Hessian"),
    (["--config", "{low_noise}", "hessian", "--delta", "1.0"],
     "per-coordinate covariance singular in float64 on 204 of 300 coordinates"),
    # the grid's lower end, 1e-4 delta / sigma^2, is subnormal
    (["potential", "--delta", "1e-320"], "gamma = 1e-323 (sigma2 = 0.09, delta = 1e-320) leaves "),
], ids=["oracle", "calibrate", "hessian", "hessian-collapsed", "potential-subnormal-delta"])
def test_library_error_is_one_line(tmp_path, capsys, monkeypatch, argv, message):
    # 2p = 428 at delta = 1.4 is past this cap, so the hessian case probes by
    # LOBPCG; the collapsed case's covariances fail before either probe
    monkeypatch.setattr(free_energy, "DENSE_HESSIAN_MAX_DIM", 427)
    spikeless = tmp_path / "spikeless.txt"
    spikeless.write_text("prior_descriptor = point-mass:-1,0.5;1,0.25;2,0.25\n")
    low_noise = tmp_path / "low_noise.txt"
    low_noise.write_text("sigma = 0.1\n")
    out = tmp_path / "out"
    argv = [a.format(spikeless=spikeless, low_noise=low_noise) for a in argv]
    with pytest.raises(SystemExit) as info:
        main(["--out", str(out), *argv])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"taplab: error: {message}") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()
    if argv[0] == "potential":  # its grid is checked before --out is made
        assert not out.exists()


@pytest.mark.parametrize("argv, report", [(["hessian"], "hessian.json"),
                                          (["oracle", "--mode", "gaussian"], "oracle.json")])
def test_output_directory_is_created(cfg_file, tmp_path, argv, report):
    out = tmp_path / "new" / "dir"
    assert run(cfg_file, out, *argv) == 0
    assert json.loads((out / report).read_text())
    assert json.loads((out / "manifest.json").read_text())["command"] == argv[0]


def test_oracle_gaussian_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "oracle", "--mode", "gaussian") == 0
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert "log_evidence" in report and "v_star" in report


def test_oracle_enumerate_subcommand(tmp_path):
    cfg = tmp_path / "tiny.txt"
    cfg.write_text("n = 6\nreplicates = 1\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path),
                 "oracle", "--mode", "enumerate"]) == 0
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert len(report["marginal_m"]) == 6


def test_seed_flag_changes_data(cfg_file, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["--config", cfg_file, "--out", str(out1), "--seed", "1", "mse-sweep"])
    main(["--config", cfg_file, "--out", str(out2), "--seed", "2", "mse-sweep"])
    r1 = (out1 / "mse_sweep.csv").read_text()
    r2 = (out2 / "mse_sweep.csv").read_text()
    assert r1 != r2


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_config_example():
    block = _readme().split("Example config file:", 1)[1]
    return block.split("```", 2)[1]


def test_readme_names_exactly_the_config_keys(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(_readme_config_example())
    example = load_config(path)
    ExperimentConfig(**example)
    sentence = _readme().split("The other keys are", 1)[1].split(".", 1)[0]
    others = re.findall(r"`(\w+)`", sentence)
    assert not set(example) & set(others)
    assert set(example) | set(others) == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("descriptor", [None, "point-mass:-1,0.25;0,0.5;1,0.25"])
def test_readme_config_example_runs(tmp_path, descriptor):
    text = _readme_config_example()
    assert "prior_descriptor = three-point" in text
    if descriptor is not None:
        text += f"prior_descriptor = {descriptor}\n"
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path), "potential"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["prior_descriptor"] == (descriptor or "three-point")


def test_config_string_values_are_not_split(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("prior_descriptor = bernoulli-gaussian:0.5,1.0\n"
                    "delta_grid = 1\n")
    cfg = load_config(path)
    assert cfg == {"prior_descriptor": "bernoulli-gaussian:0.5,1.0",
                   "delta_grid": (1.0,)}
    assert ExperimentConfig(**cfg).prior().zero_spike_weight == 0.5
    # two atoms give a degenerate (m, s) family; the descriptor reaches the
    # prior intact and is rejected there, with the config
    path.write_text("prior_descriptor = point-mass:-1,0.5;1,0.5\n")
    with pytest.raises(SystemExit) as info:
        main(["--config", str(path), "--out", str(tmp_path / "out"), "potential"])
    assert info.value.code == 1
    assert re.search("prior_descriptor .*3 distinct support points", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir(),
                                  lambda p: p.write_bytes(b"n = \xff\n")],
                         ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_stops_with_one_line(tmp_path, make):
    path = tmp_path / "cfg"
    make(path)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "taplab.cli", "--config", str(path),
                          "--out", str(out), "potential"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith(f"taplab: error: cannot read config file {str(path)!r}: ")
    assert res.stderr.count("\n") == 1  # no traceback
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["on-a-file", "under-a-file"])
def test_output_directory_that_cannot_be_made_stops_with_one_line(tmp_path, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    env = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "taplab.cli", "--out", str(out), "potential"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith(f"taplab: error: cannot create output directory {str(out)!r}: ")
    assert res.stderr.count("\n") == 1  # no traceback
    assert blocker.read_text() == "" and sorted(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("text, message", [
    ("bogus = 1\n", "unknown config key: 'bogus'"),
    ("n = many\n", "config key 'n': "),
], ids=["unknown-key", "bad-value"])
def test_config_file_error_stops_with_one_line(tmp_path, text, message):
    # the same one line as every other error
    path = tmp_path / "cfg"
    path.write_text(text)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "taplab.cli", "--config", str(path),
                          "--out", str(out), "potential"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith(f"taplab: error: {message}")
    assert res.stderr.count("\n") == 1
    assert not out.exists()


def test_infinite_delta_grid_stops_with_one_line(tmp_path):
    # an infinite delta leaves no features: the config check names the key,
    # in one line, before --out is created
    path = tmp_path / "cfg"
    path.write_text("n = 50\ndelta_grid = inf\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "taplab.cli", "--config", str(path),
                          "--out", str(out), "mse-sweep"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("taplab: error: invalid config: delta_grid ")
    assert res.stderr.count("\n") == 1  # no traceback
    assert not out.exists()


@pytest.mark.parametrize("config, command, message", [
    ("sigma = 1e-100\n", "potential", "gamma = 1e+196 (sigma2 = 1e-200, delta = 1.0) leaves "),
    ("sigma = 1e100\n", "potential", "gamma = 1e-204 (sigma2 = 1e+200, delta = 1.0) leaves "),
    ("sigma = 1e-100\nn = 40\n", "ngd", "free-energy gradient is not finite at iteration 0"),
    ("sigma = 1e-100\nn = 40\n", "hessian", "free-energy gradient is not finite at iteration 0"),
    ("sigma = 1e-100\nn = 40\n", "amp", "free-energy gradient is not finite at iteration 1"),
    ("sigma = 1e-160\nn = 40\n", "amp", "state-evolution gamma_9 = inf is not "
     "finite (sigma2 = 1e-320, delta = 1.0)"),
], ids=["potential-tiny-noise", "potential-huge-noise", "ngd-tiny-noise", "hessian-tiny-noise",
        "amp-tiny-noise", "amp-subnormal-noise"])
def test_extreme_noise_stops_with_one_error_line(tmp_path, config, command, message):
    # the potential's grid would square gammas beyond the normal floats, the
    # first gradient of the descent (or of AMP's diagnostics) overflows, and
    # at a subnormal sigma^2 the state-evolution schedule overflows
    path = tmp_path / "cfg"
    path.write_text(config)
    env = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "taplab.cli", "--config", str(path),
                          "--out", str(tmp_path / "out"), command],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("taplab: error:")]
    assert errors == [res.stderr.splitlines()[-1]]
    assert errors[0].startswith(f"taplab: error: {message}")
    assert res.stderr.count("\n") == 1  # nothing else: no numpy warning
    if command == "potential":  # its grid is checked before --out is made
        assert not (tmp_path / "out").exists()


NO_SCIPY_SCRIPT = """
import json, sys
import numpy as np
from taplab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

config, out = sys.argv[1:]
for argv in (["ngd", "--objective", "tap"], ["ngd", "--objective", "mf"], ["amp"],
             ["mse-sweep"], ["potential", "--delta", "1.0"]):
    assert cli.main(["--config", config, "--out", out, *argv]) == 0
after_commands = scipy_modules()

from taplab.experiments import ExperimentConfig, generate_instance
from taplab.free_energy import VariationalState, min_eigenvalue
from taplab.potential import solve_gammas
from taplab.priors import three_point

prior = three_point()
profile = solve_gammas(prior, 0.09, 1.0)
model, _ = generate_instance(ExperimentConfig(n=60, replicates=1), 0, 1.0)
state = VariationalState.from_duals(prior, np.zeros(model.p), np.zeros(model.p))
eig = min_eigenvalue(model, state, prior, "dense")
print(json.dumps({"after_commands": after_commands, "after_probes": scipy_modules(),
                  "gamma_stat": profile.gamma_stat, "eig": eig.value}))
"""


def test_fit_commands_never_load_scipy(tmp_path):
    # the fit commands and the potential are numpy from end to end; scipy is
    # imported by the functions that call it, on first use, and the dense
    # Hessian probe needs scipy.linalg alone
    config = tmp_path / "cfg.txt"
    config.write_text("n = 60\nreplicates = 1\ndelta_grid = 0.8, 1.2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(config),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert report["after_commands"] == []
    # the deferred import resolves, and the guard would see it
    after_probes = set(report["after_probes"])
    assert "scipy.linalg" in after_probes
    assert not {"scipy.optimize", "scipy.sparse"} & after_probes
    assert report["gamma_stat"] > 0 and math.isfinite(report["eig"])


def test_manifest_run_time_survives_a_clock_step_back(cfg_file, tmp_path, monkeypatch):
    readings = iter(range(10**6, 0, -1))
    monkeypatch.setattr("taplab.cli.time.time", lambda: float(next(readings)))
    assert run(cfg_file, tmp_path, "amp", "--iters", "2") == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["wall_time_s"] >= 0


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n = many\n")
    with pytest.raises(TapLabError, match="'n'"):
        load_config(path)


@pytest.mark.parametrize("line, field", [("eta = 0", "eta"),  # no longer keys
                                         ("eta = 1.5", "eta"),
                                         ("amp_warm_iters = 8", "unknown config key: "
                                          "'amp_warm_iters'"),
                                         ("max_iters = 0", "max_iters"),
                                         ("grad_tol = 0", "grad_tol"),
                                         ("delta_grid = 1.0, 0", "delta_grid"),
                                         ("delta_grid = nan", "delta_grid"),
                                         ("delta_grid = 1.0, inf", "delta_grid"),
                                         ("delta_grid = 1e-300", "delta_grid"),
                                         ("seed = -1", "seed"),
                                         ("seed = 18446744073709551616", "seed"),
                                         ("sigma = nan", "sigma"),
                                         ("sigma = inf", "sigma"),
                                         ("replicates = 1048577", "replicates"),
                                         ("prior_descriptor = cauchy", "prior_descriptor"),
                                         ("prior_descriptor = point-mass:-1,nan;0,0.5;1,0.5",
                                          "prior_descriptor")])
def test_config_out_of_range_rejected_before_running(tmp_path, capsys, line, field):
    path = tmp_path / "c.txt"
    path.write_text(CFG + line + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--config", str(path), "--out", str(out), "ngd", "--objective", "mf"])
    assert info.value.code == 1
    assert re.search(field, capsys.readouterr().err)
    assert not out.exists()  # rejected before the instance is generated


@pytest.mark.parametrize("argv, flag", [(["ngd", "--delta", "0"], "--delta"),
                                        (["ngd", "--delta", "-1"], "--delta"),
                                        (["ngd", "--delta", "nan"], "--delta"),
                                        (["potential", "--delta", "0"], "--delta"),
                                        (["amp", "--iters", "0"], "--iters"),
                                        (["hessian", "--replicate", "-1"], "--replicate"),
                                        (["ngd", "--delta", "1000"], "--delta"),
                                        (["--seed", "-1", "amp"], "--seed"),
                                        (["--seed", str(2**64), "amp"], "--seed"),
                                        (["oracle", "--mode", "gaussian", "--tau2", "-1"],
                                         "--tau2"),
                                        (["potential", "--delta", "inf"], "--delta"),
                                        (["ngd", "--delta", "inf"], "--delta"),
                                        (["oracle", "--mode", "gaussian", "--tau2", "inf"],
                                         "--tau2"),
                                        (["amp", "--replicate", str(2**20)], "--replicate"),
                                        # designs past the size cap; n / delta
                                        # overflows to inf at 1e-320
                                        (["ngd", "--delta", "1e-6"], "--delta"),
                                        (["amp", "--delta", "1e-320"], "--delta")])
def test_out_of_range_flag_rejected_before_running(cfg_file, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run(cfg_file, out, *argv)
    assert info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()

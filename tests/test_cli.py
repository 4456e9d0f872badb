import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import taplab
from taplab import free_energy
from taplab.amp import amp_run
from taplab.cli import load_config, main
from taplab.exceptions import TapLabError
from taplab.experiments import ExperimentConfig
from taplab.free_energy import LinearModel, VariationalState, min_eigenvalue
from taplab.ngd import NGDConfig
from taplab.priors import Prior, bernoulli_gaussian

from helpers import make_model

# a child interpreter imports this checkout's taplab
PYTHON_ENV = dict(os.environ, PYTHONPATH=str(Path(taplab.__file__).parents[1]))
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


# Every refusal that exits 1, by id: the config file's text (None: none is
# written), the command line, the start of the one stderr line after
# "taplab: error: ", and whether --out is made before the refusal.  In the
# command line {cfg} is the config file and {tmp} the test's directory, which
# also holds an empty file; in the message {out} is the command line's --out.
REFUSALS = {
    # the config file cannot be read, or holds an unknown key or a bad value
    "unreadable-file": (None, "--config {cfg} --out {tmp}/out potential",
                        "cannot read config file {cfg!r}: No such file or directory", False),
    "directory": (None, "--config {tmp} --out {tmp}/out potential",
                  "cannot read config file {tmp!r}: ", False),
    "not-utf8": (b"n = \xff\n", "--config {cfg} --out {tmp}/out potential",
                 "cannot read config file {cfg!r}: ", False),
    "unknown-key": ("bogus = 1\n", "--config {cfg} --out {tmp}/out potential",
                    "unknown config key: 'bogus'", False),
    "bad-value": ("n = many\n", "--config {cfg} --out {tmp}/out potential",
                  "config key 'n': invalid literal for int() with base 10: 'many'", False),
    "invalid-config": ("sigma = nan\n", "--config {cfg} --out {tmp}/out potential",
                       "invalid config: sigma must be positive and finite", False),
    # two atoms give a degenerate (m, s) family: the descriptor reaches the
    # prior intact and is refused there
    "two-atom-prior": ("prior_descriptor = point-mass:-1,0.5;1,0.5\n",
                       "--config {cfg} --out {tmp}/out potential",
                       "invalid config: prior_descriptor 'point-mass:-1,0.5;1,0.5': "
                       "prior needs at least 3 distinct support points", False),
    # an infinite delta leaves no features
    "infinite-delta-grid": ("n = 50\ndelta_grid = inf\n",
                            "--config {cfg} --out {tmp}/out mse-sweep",
                            "invalid config: delta_grid entry inf: ", False),
    "out-on-a-file": (None, "--out {tmp}/file potential",
                      "cannot create output directory {out!r}: ", False),
    "out-under-a-file": ("n = 50\n", "--config {cfg} --out {tmp}/file/out potential",
                         "cannot create output directory {out!r}: ", False),
    # the potential's grid would square gammas beyond the normal floats; it
    # is checked before --out is made
    "potential-subnormal-delta": (None, "--out {tmp}/out potential --delta 1e-320",
                                  "gamma = 1e-323 (sigma2 = 0.09, delta = 1e-320) leaves ", False),
    "potential-tiny-noise": ("sigma = 1e-100\n", "--config {cfg} --out {tmp}/out potential",
                             "gamma = 1e+196 (sigma2 = 1e-200, delta = 1.0) leaves ", False),
    "potential-huge-noise": ("sigma = 1e100\n", "--config {cfg} --out {tmp}/out potential",
                             "gamma = 1e-204 (sigma2 = 1e+200, delta = 1.0) leaves ", False),
    # a subcommand's own refusal
    "oracle": (None, "--out {tmp}/out oracle", "enumeration guard exceeded: 3^300 states", True),
    "calibrate": ("prior_descriptor = point-mass:-1,0.5;1,0.25;2,0.25\n",
                  "--config {cfg} --out {tmp}/out calibrate",
                  "calibration needs a prior with an atom at 0", True),
    # 2p = 428 is past the cap the test sets, so this probe is LOBPCG's
    "hessian": (None, "--out {tmp}/out hessian --delta 1.4",
                "LOBPCG found no eigenpair of the 428-dimensional Hessian", True),
    # the covariances fail before either probe
    "hessian-collapsed": ("sigma = 0.1\n", "--config {cfg} --out {tmp}/out hessian --delta 1.0",
                          "per-coordinate covariance singular in float64 on 204 of 300 "
                          "coordinates", True),
    # the first gradient of the descent, or of AMP's diagnostics, overflows;
    # at a subnormal sigma^2 the state-evolution schedule does
    "ngd-tiny-noise": ("sigma = 1e-100\nn = 40\n", "--config {cfg} --out {tmp}/out ngd",
                       "free-energy gradient is not finite at iteration 0", True),
    "hessian-tiny-noise": ("sigma = 1e-100\nn = 40\n", "--config {cfg} --out {tmp}/out hessian",
                           "free-energy gradient is not finite at iteration 0", True),
    "amp-tiny-noise": ("sigma = 1e-100\nn = 40\n", "--config {cfg} --out {tmp}/out amp",
                       "free-energy gradient is not finite at iteration 1", True),
    "amp-subnormal-noise": ("sigma = 1e-160\nn = 40\n", "--config {cfg} --out {tmp}/out amp",
                            "state-evolution gamma_9 = inf is not finite (sigma2 = 1e-320, "
                            "delta = 1.0)", True),
    # a value out of range stops a fit before its instance is drawn
    **{line: (CFG + line + "\n", "--config {cfg} --out {tmp}/out ngd --objective mf", message,
              False) for line, message in [
        ("eta = 0", "unknown config key: 'eta'"),  # no longer a key
        ("amp_warm_iters = 8", "unknown config key: 'amp_warm_iters'"),
        ("max_iters = 0", "invalid config: max_iters must be at least 1"),
        ("grad_tol = 0", "invalid config: grad_tol must be positive"),
        ("delta_grid = 1.0, 0", "invalid config: delta_grid entry 0.0: delta must be positive"),
        ("delta_grid = nan", "invalid config: delta_grid entry nan: delta must be positive"),
        ("delta_grid = 1.0, inf", "invalid config: delta_grid entry inf: delta = inf leaves "),
        ("delta_grid = 1e-300",
         "invalid config: delta_grid entry 1e-300: delta = 1e-300 implies "),
        ("seed = -1", "invalid config: seed must be in [0, 2**64)"),
        ("seed = 18446744073709551616", "invalid config: seed must be in [0, 2**64)"),
        ("sigma = nan", "invalid config: sigma must be positive and finite"),
        ("sigma = inf", "invalid config: sigma must be positive and finite"),
        ("replicates = 1048577", "invalid config: replicates must be in [1, 1048576]"),
        ("prior_descriptor = cauchy",
         "invalid config: prior_descriptor 'cauchy': unrecognized prior kind"),
        ("prior_descriptor = point-mass:-1,nan;0,0.5;1,0.5", "invalid config: prior_descriptor "
         "'point-mass:-1,nan;0,0.5;1,0.5': prior weights must be strictly positive"),
    ]},
}


def refusal_argv(tmp_path, config, command):
    """Write the row's config file and the empty file; return the argv and
    its --out."""
    if config is not None:
        (tmp_path / "cfg").write_bytes(config if isinstance(config, bytes) else config.encode())
    (tmp_path / "file").write_text("")
    argv = [a.format(cfg=tmp_path / "cfg", tmp=tmp_path) for a in command.split()]
    return argv, argv[argv.index("--out") + 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config, command, message, made", list(REFUSALS.values()),
                         ids=list(REFUSALS))
def test_refusal_is_one_line_and_status_1(tmp_path, capsys, monkeypatch, config, command,
                                          message, made):
    # the code a caller in the same process reads is the shell's status; a
    # numpy warning would be a second line, so warnings are errors here
    monkeypatch.setattr(free_energy, "DENSE_HESSIAN_MAX_DIM", 427)
    argv, out = refusal_argv(tmp_path, config, command)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    expected = message.format(cfg=str(tmp_path / "cfg"), tmp=str(tmp_path), out=out)
    assert err.startswith(f"taplab: error: {expected}") and err.count("\n") == 1
    # the empty file is untouched, and nothing is made but an --out made
    # first, which holds no manifest
    assert (tmp_path / "file").read_text() == ""
    assert {p.name for p in tmp_path.iterdir()} - {"cfg", "file"} == ({"out"} if made else set())
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_module_refusal_is_one_line_and_status_1(tmp_path):
    # python -m taplab.cli: a fresh interpreter exits 1 with the one line
    config, command, message, _ = REFUSALS["potential-tiny-noise"]
    argv, _ = refusal_argv(tmp_path, config, command)
    res = subprocess.run([sys.executable, "-m", "taplab.cli", *argv], capture_output=True,
                         text=True, env=PYTHON_ENV, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith(f"taplab: error: {message}") and res.stderr.count("\n") == 1
    assert {p.name for p in tmp_path.iterdir()} == {"cfg", "file"}


# a call the library refuses, given a 3 x 3 model and the three-point prior
LIBRARY_REFUSALS = {
    "amp-no-iterations": lambda model, tp: amp_run(model, tp, 0),
    "eig-method": lambda model, tp: min_eigenvalue(
        model, VariationalState.from_duals(tp, np.zeros(3), np.zeros(3)), tp, method="x"),
    "ngd-grad-tol": lambda model, tp: NGDConfig(grad_tol=0),
    "zero-noise": lambda model, tp: LinearModel(X=model.X, y=model.y, sigma2=0.0),
    "two-atom-prior": lambda model, tp: Prior(locations=np.array([-1.0, 1.0]),
                                              weights=np.array([0.5, 0.5])),
    "no-slab": lambda model, tp: bernoulli_gaussian(0, 1),
    "no-rows": lambda model, tp: ExperimentConfig(n=0),
}


@pytest.mark.parametrize("refuse", list(LIBRARY_REFUSALS.values()), ids=list(LIBRARY_REFUSALS))
def test_library_refusal_is_a_taplab_error(tp, refuse):
    # main turns a TapLabError into its one line; anything else would leave
    # it as a traceback
    model, _ = make_model(np.random.default_rng(0), 3, 3, tp)
    with pytest.raises(TapLabError):
        refuse(model, tp)


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


def test_config_string_values_are_not_split(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("prior_descriptor = bernoulli-gaussian:0.5,1.0\n"
                    "delta_grid = 1\n")
    cfg = load_config(path)
    assert cfg == {"prior_descriptor": "bernoulli-gaussian:0.5,1.0",
                   "delta_grid": (1.0,)}
    assert ExperimentConfig(**cfg).prior().zero_spike_weight == 0.5


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
    res = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(config),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, env=PYTHON_ENV, timeout=120)
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

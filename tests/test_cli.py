import json
from pathlib import Path

import pytest

from taplab.cli import load_config, main
from taplab.exceptions import DomainError
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


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("bogus = 1\n")
    with pytest.raises(SystemExit):
        main(["--config", str(path), "potential"])


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


def test_mse_sweep_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "mse-sweep") == 0
    lines = (tmp_path / "mse_sweep.csv").read_text().splitlines()
    assert lines[1].startswith("delta,seed,mse_tap,mse_mf")
    assert len(lines) == 3  # header x2 + 1 row


def test_calibrate_subcommand(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path, "calibrate") == 0
    for meth in ("tap", "mf"):
        lines = (tmp_path / f"calibration_{meth}.csv").read_text().splitlines()
        assert lines[1] == "bin_lo,bin_hi,pip_mean,freq_nonzero,count"
        assert len(lines) == 12


def test_hessian_subcommand(cfg_file, tmp_path, capsys):
    assert run(cfg_file, tmp_path, "hessian", "--method", "dense") == 0
    report = json.loads((tmp_path / "hessian.json").read_text())
    assert set(report) == {"min_eig", "method", "iterations"}
    assert report["method"] == "dense"


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


def _readme_config_example():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Example config file:", 1)[1]
    return block.split("```", 2)[1]


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
                    "methods = TAP\ndelta_grid = 1\n")
    cfg = load_config(path)
    assert cfg == {"prior_descriptor": "bernoulli-gaussian:0.5,1.0",
                   "methods": ("TAP",), "delta_grid": (1.0,)}
    assert ExperimentConfig(**cfg).prior().zero_spike_weight == 0.5
    # two atoms give a degenerate (m, s) family; the descriptor reaches the
    # prior intact and is rejected there
    path.write_text("prior_descriptor = point-mass:-1,0.5;1,0.5\n")
    with pytest.raises(DomainError, match="3 distinct support points"):
        main(["--config", str(path), "--out", str(tmp_path), "potential"])


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n = many\n")
    with pytest.raises(SystemExit, match="'n'"):
        load_config(path)


@pytest.mark.parametrize("line, field", [("eta = 0", "eta"), ("eta = 1.5", "eta"),
                                         ("max_iters = 0", "max_iters"),
                                         ("grad_tol = 0", "grad_tol"),
                                         ("amp_warm_iters = 0", "amp_warm_iters")])
def test_config_out_of_range_rejected_before_running(tmp_path, line, field):
    path = tmp_path / "c.txt"
    path.write_text(CFG + line + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=field):
        main(["--config", str(path), "--out", str(out), "ngd", "--objective", "mf"])
    assert not out.exists()  # rejected before the instance is generated

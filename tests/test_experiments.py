import json
import re
import subprocess
import warnings

import numpy as np
import pytest

from taplab.experiments import (
    CSV_VERSION_HEADER,
    MAX_REPLICATES,
    ExperimentConfig,
    calibration_table,
    fit_free_energy,
    generate_instance,
    inclusion_probabilities,
    replicate_seed,
    run_calibration,
    run_mse_sweep,
    run_universality,
    stream_rng,
    write_csv,
    write_manifest,
)
from taplab.amp import amp_run
from taplab.cli import main
from taplab.exceptions import DomainError
from taplab.ngd import Objective
from taplab.priors import three_point


def small_cfg(**kw):
    base = dict(n=60, replicates=2, delta_grid=(1.0,), max_iters=2000,
                grad_tol=1e-8)
    base.update(kw)
    return ExperimentConfig(**base)


class TestGeneration:
    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_nonpositive_delta_is_a_domain_error(self, delta):
        with pytest.raises(DomainError, match="delta must be positive"):
            generate_instance(small_cfg(), 0, delta)

    @pytest.mark.parametrize("replicate", [-1, MAX_REPLICATES, 2**32])
    def test_replicate_index_out_of_range_is_a_domain_error(self, replicate):
        # at 2**32 the RNG key, and at 2**20 the recorded seed, would repeat
        # those of seed 1's replicate 0
        with pytest.raises(DomainError, match="replicate index"):
            generate_instance(small_cfg(), replicate, 1.0)

    def test_config_bounds_replicates_and_sigma(self):
        assert small_cfg(replicates=MAX_REPLICATES).replicates == MAX_REPLICATES
        with pytest.raises(ValueError, match="replicates"):
            small_cfg(replicates=MAX_REPLICATES + 1)
        # the last replicate's recorded seed stays below the next master seed's
        assert replicate_seed(0, MAX_REPLICATES - 1) < replicate_seed(1, 0)
        for sigma in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="sigma"):
                small_cfg(sigma=sigma)

    def test_config_rejects_an_empty_delta_grid(self):
        # a sweep over no delta would have no row to take its CSV header from
        with pytest.raises(ValueError, match="delta_grid"):
            small_cfg(delta_grid=())

    def test_delta_above_n_is_a_domain_error(self):
        # n = 300, delta = 1000 would draw a 300 x 0 design
        with pytest.raises(DomainError, match="no features"):
            generate_instance(ExperimentConfig(n=300), 0, 1000.0)

    @pytest.mark.parametrize("n, delta, p", [(50, 1e-300, "5e+301"), (300, 1e-3, "3e+05"),
                                             (300, 5e-324, "inf")])
    def test_design_past_the_size_bound_is_a_domain_error(self, monkeypatch, n, delta, p):
        # 1e-300 at n = 50 implies p = 5e301, more than numpy can index, and
        # 1e-3 at n = 300 a 300 x 300 000 design (0.7 GB): each is refused
        # before anything is drawn
        from taplab import experiments
        monkeypatch.setattr(experiments, "stream_rng", None)
        message = f"delta = {delta!r} implies p = floor(n / delta) = {p} features"
        with pytest.raises(DomainError, match=re.escape(message)):
            generate_instance(ExperimentConfig(n=n), 0, delta)

    def test_design_at_the_size_bound_is_drawn(self, monkeypatch):
        from taplab import experiments
        monkeypatch.setattr(experiments, "MAX_DESIGN_ENTRIES", 64 * 100)
        cfg = ExperimentConfig(n=64, delta_grid=(0.64,))  # the config checks its grid too
        model, _ = generate_instance(cfg, 0, 0.64)  # p = 100
        assert model.X.shape == (64, 100)
        with pytest.raises(DomainError, match="exceed 6400 entries"):
            generate_instance(cfg, 0, 0.63)  # p = 101

    def test_deterministic_bit_for_bit(self):
        cfg = small_cfg()
        m1, t1 = generate_instance(cfg, 0, 1.0)
        m2, t2 = generate_instance(cfg, 0, 1.0)
        assert np.array_equal(m1.X, m2.X)
        assert np.array_equal(m1.y, m2.y)
        assert np.array_equal(t1, t2)

    def test_replicates_differ(self):
        cfg = small_cfg()
        m1, _ = generate_instance(cfg, 0, 1.0)
        m2, _ = generate_instance(cfg, 1, 1.0)
        assert not np.array_equal(m1.X, m2.X)

    def test_standardized_bernoulli_column_variance(self):
        cfg = small_cfg(design="bernoulli_hetero", n=100)
        model, _ = generate_instance(cfg, 0, 1.0)
        var = model.X.var(axis=0)
        assert np.max(np.abs(var - 1.0 / model.p)) < 1e-14
        assert np.max(np.abs(model.X.mean(axis=0))) < 1e-14

    def test_bernoulli_design_with_one_column(self):
        # the column rates 0.1 + 0.8 j / (p - 1) are 0/0 at p = 1, which
        # gave an all-zero design and a RuntimeWarning
        cfg = small_cfg(design="bernoulli_hetero", n=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = generate_instance(cfg, 0, 50.0)
        assert model.p == 1
        assert model.X.var() == pytest.approx(1.0)

    def test_gaussian_opnorm_in_mp_band(self):
        cfg = small_cfg(n=500)
        model, _ = generate_instance(cfg, 0, 1.0)
        edge = 1.0 + np.sqrt(model.delta_hat)
        op = np.linalg.norm(model.X, 2)
        assert 0.9 * edge < op < 1.1 * edge

    def test_rademacher_design_entries(self):
        cfg = small_cfg(design="rademacher")
        model, _ = generate_instance(cfg, 0, 1.0)
        assert set(np.unique(np.abs(model.X))) == {1.0 / np.sqrt(model.p)}

    def test_rademacher_noise_residual_levels(self):
        cfg = small_cfg(design="rademacher_noise")
        model, truth = generate_instance(cfg, 0, 1.0)
        eps = model.y - model.X @ truth
        assert np.allclose(np.abs(eps), cfg.sigma)

    def test_stream_rng_keyed_independently(self):
        a = stream_rng(1, 0, 0).random(5)
        b = stream_rng(1, 0, 1).random(5)
        c = stream_rng(1, 0, 0).random(5)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert replicate_seed(3, 4) == (3 << 20) + 4


class TestSweeps:
    def test_mse_sweep_rows_and_low_snr_limit(self):
        cfg = small_cfg(sigma=10.0, n=200, replicates=1)  # sigma2 = 100
        rows, stop_reasons = run_mse_sweep(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == ["delta", "seed", "mse_tap", "mse_mf", "converged_tap",
                             "converged_mf"]
        # each objective's one fit is counted under its one stop reason
        assert set(stop_reasons) == {"tap", "mf"}
        assert all(sum(counts.values()) == 1 for counts in stop_reasons.values())
        var = three_point().variance
        # uninformative data: both posterior means collapse to the prior mean
        assert row["mse_tap"] == pytest.approx(var, rel=0.05)
        assert row["mse_mf"] == pytest.approx(var, rel=0.05)

    def test_low_noise_sweep_returns_rows(self):
        # at sigma = 0.1 tilted laws collapse onto one or two atoms, where
        # the entropy blocks are singular; Newton steps in the covariance
        # metric need no inverse of them
        cfg = ExperimentConfig(sigma=0.1, delta_grid=(0.6,), replicates=2)
        rows, _ = run_mse_sweep(cfg)
        assert len(rows) == 2
        for row in rows:
            assert np.isfinite(row["mse_tap"]) and np.isfinite(row["mse_mf"])

    def test_universality_gaussian_matches_mse_sweep(self):
        cfg = small_cfg()
        sweep, _ = run_mse_sweep(cfg)
        uni, _ = run_universality(cfg)  # gaussian is the first design
        for a, b in zip(sweep, uni):
            assert a["mse_tap"] == b["mse_tap"]
            assert a["mse_mf"] == b["mse_mf"]
            assert b["min_eig"] > 0

    def test_universality_probe_is_dense_up_to_its_limit(self, monkeypatch):
        # the dense probe's own size limit decides when the iterative one runs
        from taplab import experiments, free_energy
        cfg = small_cfg(replicates=1)
        methods, probe = [], experiments.min_eigenvalue

        def recorded(*args, **kwargs):
            result = probe(*args, **kwargs)
            methods.append(result.method)
            return result

        monkeypatch.setattr(experiments, "min_eigenvalue", recorded)
        p = generate_instance(cfg, 0, 1.0)[0].p
        monkeypatch.setattr(free_energy, "DENSE_HESSIAN_MAX_DIM", 2 * p)
        run_universality(cfg)
        monkeypatch.setattr(free_energy, "DENSE_HESSIAN_MAX_DIM", 2 * p - 1)
        run_universality(cfg)
        assert methods == ["dense"] * 4 + ["lanczos"] * 4

    def test_one_amp_warm_start_per_instance(self, monkeypatch):
        from taplab import experiments
        cfg = small_cfg()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return amp_run(*args, **kwargs)

        monkeypatch.setattr(experiments, "amp_run", counted)
        rows, _ = run_mse_sweep(cfg)
        # one warm start per instance, not one per objective (4 calls)
        assert len(calls) == cfg.replicates
        monkeypatch.undo()
        prior = cfg.prior()
        expected = []
        for rep in range(cfg.replicates):
            model, truth = generate_instance(cfg, rep, 1.0)
            row = {"delta": 1.0, "seed": replicate_seed(cfg.seed, rep)}
            for objective in (Objective.TAP, Objective.MF):
                trace = fit_free_energy(model, prior, cfg, objective, delta=1.0)
                row[f"mse_{objective.value}"] = \
                    float(np.sum((trace.final.m - truth) ** 2)) / model.p
                row[f"converged_{objective.value}"] = int(trace.converged)
            expected.append(row)
        assert rows == expected

    def test_fits_by_newton_and_mf_by_ngd_first(self, monkeypatch):
        from taplab import experiments, ngd
        calls = []

        def recorded(name, solver):
            def wrapped(model, prior, init, cfg):
                trace = solver(model, prior, init, cfg)
                calls.append((name, cfg.objective, trace.ngd_iterations > 0))
                return trace
            return wrapped

        monkeypatch.setattr(experiments, "newton_run",
                            recorded("newton", experiments.newton_run))
        monkeypatch.setattr(ngd, "ngd_run", recorded("ngd", ngd.ngd_run))
        cfg = small_cfg()
        run_mse_sweep(cfg)
        # TAP is Newton from the start; the mean-field fit takes NGD's
        # directions first, inside newton_run's own loop: ngd_run is never
        # called
        assert calls == [("newton", Objective.TAP, False),
                         ("newton", Objective.MF, True)] * cfg.replicates


class TestCalibration:
    def test_counts_partition_coordinates(self):
        cfg = small_cfg(n=80, replicates=3)
        tables, _ = run_calibration(cfg, delta=1.0)
        assert set(tables) == {"TAP", "MF"}
        for rows in tables.values():
            assert sum(r["count"] for r in rows) == 80 * 3

    def test_symmetric_untilted_pip(self):
        tp = three_point()
        from taplab.free_energy import VariationalState
        state = VariationalState.from_duals(tp, np.zeros(4), np.zeros(4))
        pips = inclusion_probabilities(tp, state)
        assert np.allclose(pips, 2.0 / 3.0)
        # with no atom at 0, every coordinate is nonzero
        no_zero = small_cfg(prior_descriptor="point-mass:-1,0.5;1,0.25;2,0.25").prior()
        state = VariationalState.from_duals(no_zero, np.zeros(4), np.zeros(4))
        assert np.array_equal(inclusion_probabilities(no_zero, state), np.ones(4))

    def test_binning(self):
        pips = np.array([0.05, 0.15, 0.95, 0.999, 1.0])
        nz = np.array([0, 0, 1, 1, 1])
        rows = calibration_table(pips, nz)
        assert rows[0]["count"] == 1
        assert rows[1]["count"] == 1
        assert rows[9]["count"] == 3
        assert rows[9]["freq_nonzero"] == 1.0
        assert sum(r["count"] for r in rows) == 5

    def test_rejects_prior_without_spike(self):
        cfg = small_cfg(prior_descriptor="point-mass:-1,0.5;1,0.25;2,0.25")
        with pytest.raises(ValueError):
            run_calibration(cfg, delta=1.0)


class TestPersistence:
    def test_csv_versioned_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [{"a": 1, "b": 0.5}, {"a": 2, "b": -1.25}])
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_VERSION_HEADER == "# tap-lab v1"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        # the header is the first row's keys, in its order; a row without
        # one of them raises
        write_csv(path, [{"b": 0.5, "a": 1}, {"a": 2, "b": -1.25, "c": 3}])
        assert path.read_text().splitlines()[1:] == ["b,a", "0.5,1", "-1.25,2"]
        with pytest.raises(KeyError):
            write_csv(path, [{"a": 1, "b": 0.5}, {"a": 2}])

    def test_manifest_contents(self, tmp_path):
        cfg = small_cfg()
        write_manifest(tmp_path, cfg, 1.5, extra={"command": "x"})
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["config"]["n"] == 60
        assert data["wall_time_s"] == 1.5
        assert data["command"] == "x"

    def test_git_describe_names_the_checkout_not_the_working_directory(
            self, tmp_path, monkeypatch):
        repo = tmp_path / "other"
        repo.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "x"], check=True)
        other = subprocess.run([*git, "rev-parse", "HEAD"], check=True,
                               capture_output=True, text=True).stdout.strip()
        monkeypatch.chdir(repo)
        write_manifest(tmp_path / "out", small_cfg(), 0.0, {})
        data = json.loads((tmp_path / "out" / "manifest.json").read_text())
        described = data["git_describe"]
        assert described is None or not other.startswith(described.split("-")[0])

    def test_git_timeout_records_null(self, tmp_path, monkeypatch):
        def timeout(*args, **kwargs):
            raise subprocess.TimeoutExpired(args[0], 5)

        monkeypatch.setattr(subprocess, "run", timeout)
        out = tmp_path / "out"
        assert main(["--out", str(out), "potential"]) == 0
        assert json.loads((out / "manifest.json").read_text())["git_describe"] is None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path))
        rows1, _ = run_mse_sweep(cfg)
        rows2, _ = run_mse_sweep(cfg)
        write_csv(tmp_path / "a.csv", rows1)
        write_csv(tmp_path / "b.csv", rows2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fit_free_energy_converges():
    cfg = small_cfg()
    model, _ = generate_instance(cfg, 0, 1.0)
    trace = fit_free_energy(model, three_point(), cfg, Objective.TAP, delta=1.0)
    assert trace.converged

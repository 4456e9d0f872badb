"""Each benchmark check accepts taplab's answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from taplab import experiments, free_energy, ngd, scalar  # noqa: E402
from taplab.ngd import Objective  # noqa: E402
from taplab.potential import solve_gammas  # noqa: E402
from taplab.priors import gaussian_prior, parse_prior, three_point  # noqa: E402

SIGMA2 = 0.09
PRIORS = [three_point(), parse_prior(workloads.BERNOULLI_GAUSSIAN)]


def small_fit(objective, prior=None, n=60, delta=0.8):
    prior = prior or three_point()
    cfg = experiments.ExperimentConfig(n=n, replicates=1, seed=3)
    model, truth = experiments.generate_instance(cfg, 0, delta)
    trace = experiments.fit_free_energy(model, prior, cfg, objective, delta=delta)
    return cfg, prior, model, truth, trace


def fit_problems(cfg, prior, model, state, f_values, objective):
    return checks.check_fit(model.X, model.y, model.sigma2, prior.locations, prior.weights,
                            state, f_values, cfg.grad_tol, objective is Objective.TAP)


@pytest.mark.parametrize("prior", PRIORS, ids=["3pt", "bg"])
def test_tilted_moments_agree_with_taplab(prior):
    lam = np.array([-3.0, -0.4, 0.0, 0.7, 5.0])
    gam = np.array([0.1, 2.0, 0.0, 9.0, 1.5])
    ours = checks.tilted_moments(prior.locations, prior.weights, lam, gam)
    theirs = scalar.tilted_moments_vec(prior, lam, gam)
    for a, b in zip(ours, theirs):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("objective", list(Objective))
def test_gradient_agrees_with_taplab(objective):
    prior = three_point()
    rng = np.random.default_rng(0)
    model = free_energy.LinearModel(X=rng.normal(size=(40, 50)) / np.sqrt(50),
                                    y=rng.normal(size=40), sigma2=SIGMA2)
    state = free_energy.VariationalState.from_duals(prior, rng.normal(size=50),
                                                    rng.uniform(0.5, 2.0, size=50))
    grad = free_energy.tap_gradient if objective is Objective.TAP else free_energy.mf_gradient
    gm, gs = grad(model, state)
    ours = checks.grad_norm_sq_per_p(model.X, model.y, SIGMA2, state.m, state.s, state.lam,
                                     state.gam, objective is Objective.TAP)
    assert ours == pytest.approx(float(gm @ gm + gs @ gs) / 50, rel=1e-12)


@pytest.mark.parametrize("objective", list(Objective))
def test_fit_check_rejects_nudged_states(objective):
    cfg, prior, model, _, trace = small_fit(objective)
    st = trace.final
    state = (st.m, st.s, st.lam, st.gam)
    assert fit_problems(cfg, prior, model, state, trace.f_values, objective) == []

    # duals nudged and moments kept consistent: only stationarity can notice
    lam = st.lam.copy()
    lam[0] += 1e-3
    m, s, _ = checks.tilted_moments(prior.locations, prior.weights, lam, st.gam)
    found = fit_problems(cfg, prior, model, (m, s, lam, st.gam), trace.f_values, objective)
    assert len(found) == 1 and "not stationary" in found[0]

    # moments nudged off the tilted moments of the duals
    m = st.m.copy()
    m[1] += 1e-8
    found = fit_problems(cfg, prior, model, (m, st.s, st.lam, st.gam), trace.f_values,
                         objective)
    assert any("tilted moments" in p for p in found)

    # an energy trace that rises once
    f = list(trace.f_values)
    f[len(f) // 2] = f[len(f) // 2 - 1] + 1e-9
    found = fit_problems(cfg, prior, model, state, f, objective)
    assert any("energy rose" in p for p in found)


def test_dominance_check():
    assert checks.check_dominance(1.0, [0.10, 0.12], [0.11, 0.13]) == []
    assert checks.check_dominance(1.0, [0.10, 0.14], [0.11, 0.12]) != []


def test_mmse_agrees_with_taplab_and_closed_form():
    gauss = gaussian_prior(1.0)
    for gamma in (0.3, 2.870624736026117, 11.0):
        ours = checks.mmse(gauss.locations, gauss.weights, gamma)
        assert ours == pytest.approx(scalar.mmse(gauss, gamma), rel=1e-12)
        assert ours == pytest.approx(1.0 / (1.0 + gamma), rel=1e-10)
    tp = three_point()
    assert checks.mmse(tp.locations, tp.weights, 4.0) == pytest.approx(scalar.mmse(tp, 4.0),
                                                                       rel=1e-12)


def test_gaussian_potential_check():
    root = checks.gaussian_root(1.0, SIGMA2, 1.0)
    # the root measured from solve_gammas on gaussian_prior(1.0) at delta=1
    assert root == pytest.approx(2.870624736026117, rel=1e-14)
    assert 1.0 / root - SIGMA2 == pytest.approx(1.0 / (1.0 + root), rel=1e-14)
    assert checks.check_gaussian_potential(root, root, "easy", 1.0, SIGMA2, 1.0) == []
    moved = root * (1.0 + 1e-8)
    assert len(checks.check_gaussian_potential(moved, root, "easy", 1.0, SIGMA2, 1.0)) == 1
    assert len(checks.check_gaussian_potential(root, root, "hard", 1.0, SIGMA2, 1.0)) == 1


@pytest.mark.parametrize("delta", [0.6, 1.4])
def test_discrete_potential_check(delta):
    tp = three_point()
    prof = solve_gammas(tp, SIGMA2, delta)
    args = (tp.locations, tp.weights, SIGMA2, delta)
    assert checks.check_discrete_potential(prof.gamma_stat, prof.gamma_alg, *args) == []
    moved = prof.gamma_alg * (1.0 + 1e-9)
    found = checks.check_discrete_potential(prof.gamma_stat, moved, *args)
    assert any("off the root" in p for p in found)
    assert any("state evolution" in p for p in found)


def test_min_eig_checks():
    cfg, prior, model, _, trace = small_fit(Objective.TAP, n=40)
    res = free_energy.min_eigenvalue(model, trace.final, prior, "dense")
    H = checks.dense_from_matvec(
        lambda v: free_energy.tap_hessian_matvec(model, trace.final, prior, v), 2 * model.p)
    np.testing.assert_allclose(H, free_energy.tap_hessian_dense(model, trace.final, prior),
                               rtol=1e-12, atol=1e-9)
    w = checks.eigenvalues(H)
    assert checks.check_min_eig_dense(res.value, w) == []
    assert len(checks.check_min_eig_dense(res.value * (1.0 + 1e-6), w)) == 1
    shifted = w - 2.0 * res.value  # least eigenvalue -res.value
    assert len(checks.check_min_eig_dense(-res.value, shifted)) == 1
    assert checks.check_min_eig_iter(res.value * (1.0 + 1e-9), True, res.value) == []
    assert len(checks.check_min_eig_iter(res.value * (1.0 + 1e-6), True, res.value)) == 1
    assert len(checks.check_min_eig_iter(res.value, False, res.value)) == 1


@pytest.mark.parametrize("prior", PRIORS, ids=["3pt", "bg"])
def test_dual_check(prior):
    rng = np.random.default_rng(1)
    lam = rng.uniform(*workloads.DUAL_LAM, size=200)
    gam = rng.uniform(*workloads.DUAL_GAM, size=200)
    m, s, _ = checks.tilted_moments(prior.locations, prior.weights, lam, gam)
    st = free_energy.VariationalState.from_moments(prior, m, s)
    assert checks.check_dual(st.lam, st.gam, lam, gam) == []
    bad = st.lam.copy()
    bad[7] += 1e-6
    assert len(checks.check_dual(bad, st.gam, lam, gam)) == 1


def test_symmetric_copy_does_the_same_work():
    cfg, prior, model, truth, trace = small_fit(Objective.MF)
    copy, copy_truth = workloads.symmetric_copy(model, truth, prior,
                                                np.random.default_rng(5))
    assert not np.array_equal(copy.X, model.X)
    again = experiments.fit_free_energy(copy, prior, cfg, Objective.MF, delta=0.8)
    assert abs(again.iterations - trace.iterations) <= 2
    assert np.mean((again.final.m - copy_truth) ** 2) == pytest.approx(
        np.mean((trace.final.m - truth) ** 2), rel=1e-8)


def test_tracer_counts_a_fit_and_restores_the_package():
    original = ngd.tilted_moments_vec
    tracer = tracing.Tracer()
    tracer.install()
    assert ngd.tilted_moments_vec is not original
    span = tracer.begin(tracing.OP_PREFIX + "fit_tap")
    _, _, _, _, trace = small_fit(Objective.TAP)
    tracer.finish(span)
    tracer.uninstall()
    assert ngd.tilted_moments_vec is original

    m = tracer.per_layer(rounds=1)
    assert m["ngd.ngd_run.calls"] == 1 and m["amp.amp_run.calls"] == 1
    assert m["ngd.iterations"] == trace.iterations
    assert m["ngd.stop.converged"] == 1
    assert m["ngd.candidates"] >= trace.iterations - 1
    assert 1.9 < m["ngd.tilts_per_iteration"] < 2.2
    assert m["free_energy.energy.calls"] == m["ngd.candidates"] + 1
    assert m["kernels.dual_newton.calls"] == 0
    assert 0 < m["ngd.ngd_run.self_s"] < m["ngd.ngd_run.s"]


def test_speed_clock_removes_samples_and_scales():
    with speed.SpeedClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    inside = [d for e, d in zip(clock._ends, clock._durations) if t0 <= e <= t1]
    assert len(inside) >= 2
    wall, scaled = clock.elapsed(t0, t1)
    assert wall == pytest.approx(t1 - t0 - sum(inside))
    # at reference speed the scaled time equals the wall time
    clock._durations = [speed.REF_SAMPLE_S] * len(clock._durations)
    assert clock.elapsed(t0, t1)[1] == pytest.approx(t1 - t0 - len(inside) * speed.REF_SAMPLE_S)

import numpy as np
import pytest

from taplab import kernels, ngd
from taplab.amp import amp_run
from taplab.free_energy import (
    LinearModel,
    VariationalState,
    mf_energy,
    onsager_volume,
    tap_energy,
)
from taplab.ngd import NGDConfig, Objective, StopReason, ngd_run
from taplab.oracle import gaussian_posterior
from taplab.priors import gaussian_prior, three_point
from taplab.scalar import tilted_moments_vec

SIGMA2 = 0.09


@pytest.fixture(scope="module")
def tp():
    return three_point()


def make_model(rng, n, p, prior, sigma2=SIGMA2):
    X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    beta = prior.sample(p, rng)
    y = X @ beta + rng.normal(0.0, np.sqrt(sigma2), size=n)
    return LinearModel(X=X, y=y, sigma2=sigma2), beta


def test_starts_converged_at_stationary_point():
    g = gaussian_prior(1.0)
    rng = np.random.default_rng(0)
    model, _ = make_model(rng, 300, 300, g, sigma2=1.0)
    # polish the analytic minimizer (exact only asymptotically) then restart
    oracle = gaussian_posterior(model, 1.0)
    init = VariationalState.from_moments(g, oracle.post_mean,
                                         oracle.post_mean**2 + oracle.v_star)
    warm = ngd_run(model, g, init, NGDConfig(grad_tol=1e-12, max_iters=5000))
    trace = ngd_run(model, g, warm.final, NGDConfig(grad_tol=1e-12))
    assert trace.converged
    assert trace.iterations <= 1


def test_monotone_descent_and_convergence(tp):
    rng = np.random.default_rng(1)
    model, _ = make_model(rng, 200, 200, tp)
    _, warm = amp_run(model, tp, 8, delta=1.0)
    trace = ngd_run(model, tp, warm, NGDConfig(grad_tol=1e-10))
    assert trace.converged
    f = np.array(trace.f_values)
    assert np.all(np.diff(f) <= 1e-10)
    assert trace.grad_norm_sq_per_p[-1] < 1e-10


def test_stationary_gamma_structure(tp):
    # at a TAP stationary point gamma_j is constant = (n/p)/(sigma2 + S - Q)
    rng = np.random.default_rng(2)
    model, _ = make_model(rng, 150, 150, tp)
    _, warm = amp_run(model, tp, 8, delta=1.0)
    trace = ngd_run(model, tp, warm, NGDConfig(grad_tol=1e-12))
    gam = trace.final.gam
    spread = float(np.max(gam) - np.min(gam))
    assert spread < 1e-6
    expect = model.delta_hat / onsager_volume(model, trace.final)
    assert np.max(np.abs(gam - expect)) < 1e-5


def test_determinism(tp):
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 80, 80, tp)
    _, warm = amp_run(model, tp, 8)
    t1 = ngd_run(model, tp, warm, NGDConfig(max_iters=300))
    t2 = ngd_run(model, tp, warm, NGDConfig(max_iters=300))
    assert np.array_equal(t1.final.m, t2.final.m)
    assert t1.f_values == t2.f_values


def test_mf_minimizer_gaussian_variance():
    g = gaussian_prior(1.0)
    rng = np.random.default_rng(4)
    p = 300
    model, _ = make_model(rng, p, p, g, sigma2=1.0)
    _, warm = amp_run(model, g, 8, delta=1.0)
    trace = ngd_run(model, g, warm, NGDConfig(grad_tol=1e-12, objective=Objective.MF))
    assert trace.converged
    v = trace.final.s - trace.final.m**2
    expect = 1.0 / (1.0 / 1.0 + model.delta_hat / model.sigma2)  # 1/2
    assert np.max(np.abs(v - expect)) < 0.05
    oracle = gaussian_posterior(model, 1.0)
    assert expect < oracle.v_star  # MF is overconfident

    # exact-KL ordering: MF objective at its own minimizer dominates the TAP
    # objective at the TAP minimizer
    tap_trace = ngd_run(model, g, warm, NGDConfig(grad_tol=1e-12))
    f_mf = mf_energy(model, trace.final)
    f_tap = tap_energy(model, tap_trace.final)
    assert f_mf >= f_tap


def test_config_validation():
    with pytest.raises(ValueError):
        NGDConfig(eta=0.0)
    with pytest.raises(ValueError):
        NGDConfig(eta=1.5)
    with pytest.raises(ValueError):
        NGDConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        NGDConfig(grad_tol=float("nan"))
    with pytest.raises(ValueError):
        NGDConfig(max_iters=0)
    assert NGDConfig(max_iters=1).max_iters == 1
    assert NGDConfig(eta=1.0).eta == 1.0
    assert NGDConfig(objective=Objective.MF).objective is Objective.MF


@pytest.mark.parametrize("objective, energy", [(Objective.TAP, "tap_energy"),
                                               (Objective.MF, "mf_energy")])
def test_one_tilt_per_candidate(tp, monkeypatch, objective, energy):
    # each candidate's tilt yields its moments and its logZ; the energy
    # reads the logZ from the state instead of tilting again
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 150, 200, tp)
    _, warm = amp_run(model, tp, 8)
    tilts, energies = [0], [0]

    def counted(counter, fn):
        def wrapped(*args):
            counter[0] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(kernels, "tilted_stats", counted(tilts, kernels.tilted_stats))
    monkeypatch.setattr(ngd, energy, counted(energies, getattr(ngd, energy)))
    trace = ngd_run(model, tp, warm, NGDConfig(max_iters=300, objective=objective))
    assert trace.iterations > 10
    assert tilts[0] == energies[0] - 1  # the start point is not tilted again


def test_state_logz_is_the_tilt_of_its_duals(tp):
    rng = np.random.default_rng(4)
    model, _ = make_model(rng, 120, 150, tp)
    _, warm = amp_run(model, tp, 8)
    final = ngd_run(model, tp, warm, NGDConfig(max_iters=50)).final
    dual = VariationalState.from_duals(tp, rng.uniform(-2, 2, 150),
                                       rng.uniform(-2, 2, 150))
    moments = VariationalState.from_moments(tp, dual.m, dual.s)
    for state in (dual, moments, warm, final):
        assert np.array_equal(state.logZ,
                              tilted_moments_vec(tp, state.lam, state.gam)[2])


@pytest.fixture(scope="module")
def warm3(tp):
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 150, 200, tp)
    _, warm = amp_run(model, tp, 8)
    return model, warm


def test_step_carries_over_and_doubles_at_most(tp, warm3):
    # the first line search tries eta; later ones start from the last
    # accepted step, doubled (capped at 1) after a first-try accept
    model, warm = warm3
    for objective in Objective:
        cfg = NGDConfig(objective=objective)
        trace = ngd_run(model, tp, warm, cfg)
        steps = np.array(trace.steps_used[:-1])  # the last entry is the 0.0 stop
        assert trace.converged and np.all(steps > 0)
        assert steps[0] <= cfg.eta
        assert np.all(steps <= 1.0)
        assert np.all(steps[1:] <= 2.0 * steps[:-1])
        assert np.max(steps) > cfg.eta  # the step grew
        assert np.all(np.diff(trace.f_values) <= 0.0)
        if objective is Objective.MF:
            # a fixed eta = 0.2 step took 728 iterations here; the carried step 190
            assert trace.iterations <= 300


def test_stop_reason_and_backtracks(tp, warm3, monkeypatch):
    model, warm = warm3
    capped = ngd_run(model, tp, warm, NGDConfig(max_iters=3))
    assert capped.stop_reason is StopReason.MAX_ITERS
    assert not capped.converged and capped.iterations == 3

    energies = [0]

    def counted(*args):
        energies[0] += 1
        return tap_energy(*args)

    monkeypatch.setattr(ngd, "tap_energy", counted)
    trace = ngd_run(model, tp, warm, NGDConfig())
    assert trace.stop_reason is StopReason.CONVERGED and trace.converged
    accepted = sum(1 for s in trace.steps_used if s > 0)
    assert trace.backtracks == energies[0] - 1 - accepted
    assert trace.backtracks > 0  # the carried step overshoots now and then

    # every candidate's energy is higher: 60 halvings, then the step floor
    f0 = tap_energy(model, warm)
    monkeypatch.setattr(ngd, "tap_energy",
                        lambda m, state: f0 if state is warm else f0 + 1.0)
    floor = ngd_run(model, tp, warm, NGDConfig())
    assert floor.stop_reason is StopReason.STEP_FLOOR and not floor.converged
    assert floor.steps_used == [0.0] and floor.backtracks == 60

import warnings

import numpy as np
import pytest

from taplab import amp
from taplab.amp import amp_run, se_diagnostics
from taplab.exceptions import DomainError
from taplab.free_energy import LinearModel
from taplab.priors import three_point
from taplab.scalar import mmse, tilted_moments_vec

from helpers import SIGMA2, make_model


def test_first_step_unrolled(tp):
    rng = np.random.default_rng(0)
    model, _ = make_model(rng, 50, 50, tp)
    state, vs = amp_run(model, tp, 1, delta=1.0)
    gamma1 = 1.0 / (SIGMA2 + tp.second_moment)
    # m^1 = 0, z^1 = y, so m^2 is the posterior mean of the channel
    # x = X^T y / delta at gamma_1: the tilted law at (gamma_1*x, gamma_1)
    x = model.X.T @ model.y / 1.0
    m_expect, s_expect, _ = tilted_moments_vec(tp, gamma1 * x, gamma1)
    assert np.array_equal(state.m_history[-1], m_expect)
    assert np.array_equal(vs.s, s_expect)
    assert np.array_equal(state.z_history[-1], model.y)


def test_se_schedule_shared_with_recursion(tp):
    rng = np.random.default_rng(1)
    model, _ = make_model(rng, 60, 60, tp)
    state, _ = amp_run(model, tp, 6, delta=1.0)
    seq = amp._se_schedule(tp, SIGMA2, 1.0, 6)[0]
    got = np.array([row["gamma_k"] for row in state.history])
    assert np.array_equal(got, seq)


def test_state_evolution_schedule_is_computed_once(monkeypatch):
    prior = three_point()
    rng = np.random.default_rng(6)
    model, truth = make_model(rng, 60, 60, prior)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return mmse(*args, **kwargs)

    monkeypatch.setattr(amp, "mmse", counted)
    first = amp_run(model, prior, 6, truth=truth, delta=1.0)
    assert len(calls) == 6
    again = amp_run(model, prior, 6, truth=truth, delta=1.0)
    assert len(calls) == 6
    (s1, v1), (s2, v2) = first, again
    assert s1.history == s2.history
    for name in ("m_history", "z_history"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))
    for name in ("m", "s", "lam", "gam", "logZ"):
        assert np.array_equal(getattr(v1, name), getattr(v2, name))


def test_gamma_monotone_and_determinism(tp):
    rng = np.random.default_rng(2)
    model, truth = make_model(rng, 80, 80, tp)
    s1, v1 = amp_run(model, tp, 8, truth=truth)
    s2, v2 = amp_run(model, tp, 8, truth=truth)
    gammas = [row["gamma_k"] for row in s1.history]
    assert np.all(np.diff(gammas) > -1e-10)
    assert np.array_equal(s1.m_history[-1], s2.m_history[-1])
    assert np.array_equal(v1.lam, v2.lam)


def test_variational_state_has_fresh_duals(tp):
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 40, 40, tp)
    _, vs = amp_run(model, tp, 5)
    gamma = float(vs.gam[0])
    m2, s2, _ = tilted_moments_vec(tp, gamma * (vs.lam / vs.gam), gamma)
    assert np.max(np.abs(m2 - vs.m)) < 1e-12
    assert np.max(np.abs(s2 - vs.s)) < 1e-12


def test_stationarity_decays_along_trajectory(tp):
    rng = np.random.default_rng(4)
    model, truth = make_model(rng, 1000, 1000, tp)
    state, _ = amp_run(model, tp, 10, truth=truth, delta=1.0,
                       track_gradient=True)
    grads = [row["grad_norm_sq_per_p"] for row in state.history]
    assert grads[9] < grads[1]


def test_a_tracked_gradient_that_is_not_finite_is_a_domain_error(tp):
    # at sigma2 = 1e-200 ||g||^2/p overflows at the first iterate; the
    # diagnostics stop there instead of recording inf, and numpy warns of nothing
    rng = np.random.default_rng(4)
    X = rng.normal(0.0, 1.0 / np.sqrt(40), size=(40, 40))
    model = LinearModel(X=X, y=X @ tp.sample(40, rng), sigma2=1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amp_run(model, tp, 3, delta=1.0)  # untracked, the run itself is fine
        with pytest.raises(DomainError, match="gradient is not finite at iteration 1"):
            amp_run(model, tp, 3, delta=1.0, track_gradient=True)


def test_se_diagnostics_k1_is_signal_energy(tp):
    rng = np.random.default_rng(5)
    model, truth = make_model(rng, 500, 500, tp)
    state, _ = amp_run(model, tp, 3, truth=truth, delta=1.0)
    rep = se_diagnostics(state, model, tp, truth, 1, delta=1.0)
    # V_1 = m^1 - beta0 = -beta0, so V^T V / p ~ E[beta0^2] = K_h[0,0]
    assert rep["K_h"][0, 0] == pytest.approx(tp.second_moment)
    assert abs(rep["emp_Kh"][0, 0] - tp.second_moment) < 0.05


def test_se_deviations_shrink_with_n(tp):
    devs = {}
    for n in (500, 2000):
        rng = np.random.default_rng(1)
        model, truth = make_model(rng, n, n, tp)
        state, _ = amp_run(model, tp, 5, truth=truth, delta=1.0)
        rep = se_diagnostics(state, model, tp, truth, 5, delta=1.0)
        devs[n] = max(rep["max_dev_Kh"], rep["max_dev_Kg"])
    assert devs[2000] < devs[500]
    assert devs[2000] < 0.05


def se_blocks(prior, k):
    """se_diagnostics' state-evolution blocks (K_g, K_h) after k AMP
    iterations at delta = 1."""
    rng = np.random.default_rng(7)
    model, truth = make_model(rng, 50, 50, prior)
    state, _ = amp_run(model, prior, k, truth=truth, delta=1.0)
    rep = se_diagnostics(state, model, prior, truth, k, delta=1.0)
    return rep["K_g"], rep["K_h"]


def test_se_blocks_k1_identities(tp):
    K_g, K_h = se_blocks(tp, 1)
    gamma1 = 1.0 / (SIGMA2 + tp.second_moment)
    assert K_g[0, 0] == pytest.approx(1.0 / gamma1)
    assert K_h[0, 0] == pytest.approx(tp.second_moment)


def test_se_block_diagonal_is_lagged_mmse(tp):
    K_g, K_h = se_blocks(tp, 6)
    seq = amp._se_schedule(tp, SIGMA2, 1.0, 6)[0]
    for k in range(1, 6):
        assert K_h[k, k] == pytest.approx(mmse(tp, seq[k - 1]), rel=1e-10)
    # entry (i, j) is that of gamma_{max(i, j)}
    assert np.array_equal(K_g, 1.0 / seq[np.maximum.outer(np.arange(6), np.arange(6))])


def test_se_blocks_positive_definite_k10(tp):
    K_g, K_h = se_blocks(tp, 10)
    np.linalg.cholesky(K_g)
    np.linalg.cholesky(K_h)


@pytest.mark.parametrize("k", [0, 4])
def test_se_diagnostics_rejects_k_outside_the_run(tp, k):
    rng = np.random.default_rng(7)
    model, truth = make_model(rng, 50, 50, tp)
    state, _ = amp_run(model, tp, 3, truth=truth, delta=1.0)
    with pytest.raises(ValueError, match=f"k = {k} is not between 1 and the 3 recorded"):
        se_diagnostics(state, model, tp, truth, k, delta=1.0)

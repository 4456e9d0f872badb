import tracemalloc

import numpy as np
import pytest

from taplab import kernels
from taplab.experiments import ExperimentConfig, fit_free_energy, generate_instance
from taplab.free_energy import VariationalState
from taplab.ngd import Objective
from taplab.priors import bernoulli_gaussian, gaussian_prior, three_point
from taplab.scalar import DUAL_RESIDUAL_TOL, QuadratureSpec, channel_terms


@pytest.fixture(scope="module")
def batch():
    tp = three_point()
    rng = np.random.default_rng(0)
    lam = rng.uniform(-6, 6, 500)
    gam = rng.uniform(-6, 6, 500)
    return tp.locations, tp.log_weights, lam, gam


def test_tilted_stats_reference_values(batch):
    locs, logw, _, _ = batch
    m, s, logZ, c11, c12, c22 = kernels.tilted_cov(
        locs, logw, np.array([0.0]), np.array([0.0]))
    assert m[0] == pytest.approx(0.0, abs=1e-15)
    assert s[0] == pytest.approx(2.0 / 3.0)
    assert logZ[0] == pytest.approx(0.0, abs=1e-15)
    # cov of (beta, beta^2) under uniform{-1,0,1}: var(beta)=2/3,
    # cov(beta,beta^2)=0, var(beta^2)=2/3-4/9=2/9
    assert c11[0] == pytest.approx(2.0 / 3.0)
    assert c12[0] == pytest.approx(0.0, abs=1e-15)
    assert c22[0] == pytest.approx(2.0 / 9.0)


@pytest.mark.parametrize("prior", [three_point(), bernoulli_gaussian(0.5, 1.0)],
                         ids=["3pt", "bg"])
def test_blocks_match_rows_tilted_one_at_a_time(prior):
    # a batch spanning several row blocks, the last one partial
    n = 3 * kernels.BLOCK_ROWS + 7
    rng = np.random.default_rng(5)
    lam = rng.uniform(-4, 4, n)
    gam = rng.uniform(-1, 4, n)
    locs, logw = prior.locations, prior.log_weights
    batch = kernels.tilted_cov(locs, logw, lam, gam)
    assert all(np.array_equal(b, c) for b, c in
               zip(kernels.tilted_stats(locs, logw, lam, gam), batch))
    rows = np.array([kernels.tilted_cov(locs, logw, lam[i:i + 1], gam[i:i + 1])
                     for i in range(n)])[:, :, 0].T
    # normwise: entries near 0 (m, c12) carry the rounding of the larger terms
    for b, r in zip(batch, rows):
        assert np.max(np.abs(b - r)) <= 1e-13 * np.max(np.abs(r))


def test_scalar_gam_is_shared_by_every_row(batch):
    locs, logw, lam, _ = batch
    for kernel in (kernels.tilted_stats, kernels.tilted_cov):
        shared = kernel(locs, logw, lam, 0.7)
        full = kernel(locs, logw, lam, np.full_like(lam, 0.7))
        assert all(np.array_equal(a, b) for a, b in zip(shared, full))


def _channel_reference(prior, gamma, quad):
    """(i, mmse, E[Var^2]) of the channel, one prior atom beta0 at a time."""
    z, wz = quad.nodes_weights
    a, logw = prior.locations, prior.log_weights
    info = mse = e_var2 = 0.0
    for b0, w0 in zip(a, prior.weights):
        lam = gamma * b0 + np.sqrt(gamma) * z
        ell = logw[None, :] - 0.5 * gamma * a * a + lam[:, None] * a
        top = ell.max(axis=1)
        q = np.exp(ell - top[:, None])
        Z = q.sum(axis=1)
        q /= Z[:, None]
        m = q @ a
        var = np.sum(q * (a[None, :] - m[:, None]) ** 2, axis=1)
        info += w0 * (wz @ (0.5 * gamma * b0 * b0 - top - np.log(Z)))
        mse += w0 * (wz @ (b0 - m) ** 2)
        e_var2 += w0 * (wz @ var**2)
    return info, mse, e_var2


@pytest.mark.parametrize("prior", [gaussian_prior(1.0), three_point()],
                         ids=["gauss", "3pt"])
def test_channel_terms_match_reference(prior):
    quad = QuadratureSpec()
    for gamma in (0.01, 0.1, 0.5, 1.0, 3.0, 20.0, 150.0):
        got = channel_terms(prior, gamma, quad)
        ref = _channel_reference(prior, gamma, quad)
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, rel=1e-12, abs=0)


def test_tilt_memory_stays_within_the_row_blocks():
    # 100 000 rows x 101 atoms: 81 MB per (rows x atoms) array if it were formed
    prior = gaussian_prior(1.0)
    rng = np.random.default_rng(0)
    lam = rng.uniform(-3, 3, 100_000)
    gam = rng.uniform(0, 3, 100_000)
    tracemalloc.start()
    try:
        kernels.tilted_stats(prior.locations, prior.log_weights, lam, gam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_dual_newton_roundtrip_flags(batch):
    locs, logw, lam, gam = batch
    m, s, *_ = kernels.tilted_stats(locs, logw, lam, gam)
    lam2, gam2, conv, res = kernels.dual_newton(locs, logw, m, s, 0.0, 0.0,
                                                tol=1e-14)
    assert np.all(conv)
    assert np.max(res) < 1e-14
    assert np.max(np.abs(lam2 - lam)) < 1e-8


# A mixed batch for the vectorised Newton solve: interior targets, targets
# outside the moment space of {-1, 0, 1} (s < m^2, |m| > 1), and interior
# targets whose duals lie beyond CAP, so Newton drives gam onto the clip.
CAP = 30.0


@pytest.fixture(scope="module")
def mixed():
    tp = three_point()
    rng = np.random.default_rng(1)
    lam = rng.uniform(-4, 4, 20)
    gam = rng.uniform(-4, 4, 20)
    m, s, *_ = kernels.tilted_stats(tp.locations, tp.log_weights, lam, gam)
    mt = np.concatenate([m, [0.0], [0.5, 1.2, -0.4], [0.0, 0.5]])
    st = np.concatenate([s, [2.0 / 3.0], [0.2, 1.5, 0.1], [1e-12, 1.0 - 1e-12]])
    kinds = np.array(["interior"] * 21 + ["outside"] * 3 + ["clip"] * 2)
    return tp.locations, tp.log_weights, mt, st, kinds


def _dual_newton_row(locs, logw, mt, st, lam, gam, tol=1e-10, max_iter=200, cap=CAP):
    """One row at a time: the reference the vectorised solve must reproduce."""
    def tilt(lam, gam):
        m, s, logZ, c11, c12, c22 = kernels.tilted_cov(locs, logw, [lam], [gam])
        g = -0.5 * gam * st + lam * mt - logZ[0]
        return m[0], s[0], g, c11[0], c12[0], c22[0], np.hypot(m[0] - mt, s[0] - st)

    m, s, g, c11, c12, c22, resid = tilt(lam, gam)
    for _ in range(max_iter):
        det = c11 * c22 - c12 * c12
        if resid < tol or not (det > 0 and np.isfinite(det)):
            break
        d1 = (c22 * (mt - m) - c12 * (st - s)) / det
        d2 = (-c12 * (mt - m) + c11 * (st - s)) / det
        for h in range(60):
            lam_n = np.clip(lam + 0.5**h * d1, -cap, cap)
            gam_n = np.clip(gam - 2.0 * 0.5**h * d2, -cap, cap)
            cand = tilt(lam_n, gam_n)
            if cand[2] >= g or (resid < 1e-6 and cand[6] <= 0.5 * resid):
                lam, gam = lam_n, gam_n
                m, s, g, c11, c12, c22, resid = cand
                break
        else:
            break
    return lam, gam, resid < tol, resid


def test_dual_newton_matches_row_reference(mixed):
    locs, logw, mt, st, _ = mixed
    for max_iter in (1, 200):
        batch = kernels.dual_newton(locs, logw, mt, st, 0.0, 0.0,
                                    max_iter=max_iter, cap=CAP)
        for i in range(len(mt)):
            lam, gam, conv, res = _dual_newton_row(locs, logw, mt[i], st[i], 0.0, 0.0,
                                                   max_iter=max_iter)
            assert abs(lam - batch[0][i]) <= 1e-12
            assert abs(gam - batch[1][i]) <= 1e-12
            assert conv == batch[2][i]
            assert abs(res - batch[3][i]) <= 1e-12


def test_dual_newton_drops_rows_held_on_the_clip(monkeypatch):
    # a row held on the +-cap clip accepts steps that leave (lam, gam)
    # unchanged; the batch drops it instead of repeating that step, and
    # still answers every row as the one-row reference does
    tp = three_point()
    rng = np.random.default_rng(0)
    mt = rng.uniform(-1.2, 1.2, 40)
    st = rng.uniform(0.0, 1.3, 40)
    calls = [0]
    tilt = kernels.tilted_cov

    def counted(*args):
        calls[0] += 1
        return tilt(*args)

    monkeypatch.setattr(kernels, "tilted_cov", counted)
    batch = kernels.dual_newton(tp.locations, tp.log_weights, mt, st, 0.0, 0.0,
                                max_iter=30, cap=5.0)
    assert calls[0] <= 600  # 1734 when clipped rows ran every step
    monkeypatch.undo()
    assert np.sum(np.abs(batch[1]) == 5.0) >= 10
    for i in range(len(mt)):
        row = _dual_newton_row(tp.locations, tp.log_weights, mt[i], st[i], 0.0, 0.0,
                               max_iter=30, cap=5.0)
        assert row == tuple(x[i] for x in batch)


def test_dual_newton_rows_independent(mixed):
    locs, logw, mt, st, kinds = mixed
    lam, gam, conv, res = kernels.dual_newton(locs, logw, mt, st, 0.0, 0.0, cap=CAP)
    for i in range(len(mt)):
        l1, g1, c1, r1 = kernels.dual_newton(locs, logw, mt[i:i + 1], st[i:i + 1],
                                             0.0, 0.0, cap=CAP)
        assert abs(l1[0] - lam[i]) <= 1e-12
        assert abs(g1[0] - gam[i]) <= 1e-12
        assert c1[0] == conv[i]
        assert abs(r1[0] - res[i]) <= 1e-12
    interior = kinds == "interior"
    assert np.all(conv[interior]) and np.max(res[interior]) < 1e-10
    assert not np.any(conv[~interior])
    assert np.all(np.isfinite(res)) and np.all(res[~interior] >= 1e-10)
    assert np.all(np.abs(gam[kinds == "clip"]) == CAP)


def test_dual_newton_iteration_cap(mixed):
    locs, logw, mt, st, kinds = mixed
    lam, gam, conv, res = kernels.dual_newton(locs, logw, mt, st, 0.0, 0.0,
                                              max_iter=1, cap=CAP)
    start = np.hypot(mt - 0.0, st - 2.0 / 3.0)  # residual at the untilted start
    far = start > 0.1
    assert np.sum(far & (kinds == "interior")) >= 10
    assert not np.any(conv[far])
    assert conv[20]  # the untilted target is solved before any step


def test_from_moments_reproduces_converged_tap_states():
    # at delta=1.4 the state is ill-conditioned: the solved duals differ from
    # the NGD state's by O(1) in lam while matching its moments, so the check
    # is on the moment residual, not on recovering lam
    cfg = ExperimentConfig(n=300, seed=0, replicates=1)
    prior = cfg.prior()
    for delta in (0.6, 1.0, 1.4):
        model, _ = generate_instance(cfg, 0, delta)
        trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=delta)
        assert trace.converged
        state = trace.final
        solved = VariationalState.from_moments(prior, state.m, state.s)
        assert np.max(np.abs(solved.m - state.m)) <= 1e-12
        assert np.max(np.abs(solved.s - state.s)) <= 1e-12
        m, s, *_ = kernels.tilted_stats(prior.locations, prior.log_weights,
                                        solved.lam, solved.gam)
        assert np.max(np.hypot(m - solved.m, s - solved.s)) < DUAL_RESIDUAL_TOL

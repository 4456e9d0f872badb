import numpy as np
import pytest

from taplab import kernels
from taplab.experiments import ExperimentConfig, fit_free_energy, generate_instance
from taplab.free_energy import VariationalState
from taplab.ngd import Objective
from taplab.priors import three_point
from taplab.scalar import DUAL_RESIDUAL_TOL


@pytest.fixture(scope="module")
def batch():
    tp = three_point()
    rng = np.random.default_rng(0)
    lam = rng.uniform(-6, 6, 500)
    gam = rng.uniform(-6, 6, 500)
    return tp.locations, tp.log_weights, lam, gam


def test_tilted_stats_reference_values(batch):
    locs, logw, _, _ = batch
    m, s, logZ, c11, c12, c22 = kernels.tilted_stats(
        locs, logw, np.array([0.0]), np.array([0.0]))
    assert m[0] == pytest.approx(0.0, abs=1e-15)
    assert s[0] == pytest.approx(2.0 / 3.0)
    assert logZ[0] == pytest.approx(0.0, abs=1e-15)
    # cov of (beta, beta^2) under uniform{-1,0,1}: var(beta)=2/3,
    # cov(beta,beta^2)=0, var(beta^2)=2/3-4/9=2/9
    assert c11[0] == pytest.approx(2.0 / 3.0)
    assert c12[0] == pytest.approx(0.0, abs=1e-15)
    assert c22[0] == pytest.approx(2.0 / 9.0)


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
        m, s, logZ, c11, c12, c22 = kernels.tilted_stats(locs, logw, [lam], [gam])
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
    tilt = kernels.tilted_stats

    def counted(*args):
        calls[0] += 1
        return tilt(*args)

    monkeypatch.setattr(kernels, "tilted_stats", counted)
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

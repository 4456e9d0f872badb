import warnings

import numpy as np
import pytest

from taplab import kernels
from taplab.exceptions import DegenerateTiltError, DomainError
from taplab.free_energy import VariationalState
from taplab.priors import bernoulli_gaussian, gaussian_prior, parse_prior
from taplab.scalar import (
    DUAL_RESIDUAL_TOL,
    channel_terms,
    dual_solve_vec,
    gamma_envelopes,
    mmse,
    project_interior,
    tilted_cov_vec,
    tilted_moments_vec,
)

from helpers import neg_entropy


def tilt(prior, lam, gam):
    """(m, s, logZ) of one tilted law, as floats."""
    return tuple(float(x[0]) for x in tilted_moments_vec(prior, lam, gam))


def cov_matrix(prior, lam, gam):
    c11, c12, c22 = (float(x[0]) for x in tilted_cov_vec(prior, lam, gam))
    return np.array([[c11, c12], [c12, c22]])


def dual(prior, m, s):
    """(lam, gam) of the tilted law with moments (m, s), as floats."""
    lam, gam, _, _, _ = dual_solve_vec(prior, [m], [s])
    return float(lam[0]), float(gam[0])


def envelopes(prior, m):
    lower, upper = gamma_envelopes(prior, m)
    return float(lower), float(upper)


class TestTiltedMoments:
    def test_untilted_prior_moments(self, tp):
        m, s, logZ = tilt(tp, 0.0, 0.0)
        assert m == pytest.approx(0.0, abs=1e-14)
        assert s == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert logZ == pytest.approx(0.0, abs=1e-14)

    def test_strong_positive_tilt(self, tp):
        # 3-term sum: (e^10 - e^-10) / (e^10 + 1 + e^-10)
        m, _, _ = tilt(tp, 10.0, 0.0)
        expect = (np.exp(10) - np.exp(-10)) / (np.exp(10) + 1 + np.exp(-10))
        assert m == pytest.approx(expect, rel=1e-12)
        assert abs(m - 0.9999546) < 1e-6

    def test_cov_matrix_is_psd(self, tp):
        vals = np.linalg.eigvalsh(cov_matrix(tp, 1.3, -0.4))
        assert vals[0] > -1e-14

    def test_extreme_tilt_stays_finite(self, tp):
        m, _, logZ = tilt(tp, 1e6, 1e6)
        assert np.isfinite(logZ)
        assert -1.0 <= m <= 1.0

    @pytest.mark.parametrize("entry", [
        lambda p, lam, gam: tilted_moments_vec(p, lam, gam),
        lambda p, lam, gam: tilted_moments_vec(p, lam, gam, cov=True),
        tilted_cov_vec,
    ], ids=["moments", "moments-cov", "cov"])
    def test_every_tilt_entry_rejects_a_nan_dual(self, tp, entry):
        # every tilt, with or without its covariances, passes the one check
        with pytest.raises(DegenerateTiltError):
            entry(tp, [np.nan], [1.0])


class TestGammaRegion:
    def test_interior_point(self, tp):
        lower, upper = envelopes(tp, 0.5)
        assert tp.support_lo < 0.5 < tp.support_hi
        assert lower < 0.7 < upper

    def test_upper_envelope_is_boundary(self, tp):
        # the chord through the support endpoints: s = 1 on {-1, 0, 1}
        assert envelopes(tp, 0.5)[1] == 1.0

    def test_mean_outside_support(self, tp):
        # past the support the envelopes cross: no s is admissible at m = 1.5
        lower, upper = envelopes(tp, 1.5)
        assert 1.5 > tp.support_hi
        assert lower > upper

    def test_lower_envelope_between_atoms(self, tp):
        # for support {-1,0,1} and m in (0,1) the lower envelope is s = m
        lower, _ = envelopes(tp, 0.5)
        assert lower == 0.5  # (0.5, 0.5) is on the boundary
        assert 0.49 < lower  # (0.5, 0.49) is outside

    def test_project_interior_restores_membership(self, tp):
        m, s = project_interior(tp, [0.5, 0.9], [1.3, 0.1])
        lower, upper = gamma_envelopes(tp, m)
        assert np.all((tp.support_lo < m) & (m < tp.support_hi))
        assert np.all((lower < s) & (s < upper))

    def test_project_interior_moves_at_least_one_ulp(self, tp):
        # at m = 1 - 2e-9 the envelope gap is 2e-9, and a relative nudge of it
        # (4e-18) is below one ulp of s = 1: s must still leave the upper
        # envelope, and the duals there must solve
        m, s = project_interior(tp, [1.5], [1.0])
        lower, upper = gamma_envelopes(tp, m)
        assert (tp.support_lo < m) & (m < tp.support_hi)
        assert (lower < s) & (s < upper)
        state = VariationalState.from_moments(tp, [1.5], [1.0])
        assert np.array_equal(state.m, m) and np.array_equal(state.s, s)
        assert np.all(np.isfinite(state.lam)) and np.all(np.isfinite(state.gam))


class TestDualSolve:
    def test_roundtrip_single(self, tp):
        m, s, _ = tilt(tp, 0.3, 1.2)
        lam, gam = dual(tp, m, s)
        assert lam == pytest.approx(0.3, abs=1e-8)
        assert gam == pytest.approx(1.2, abs=1e-8)

    def test_untilted_moments_give_zero_duals(self, tp):
        lam, gam = dual(tp, 0.0, 2.0 / 3.0)
        assert abs(lam) < 1e-8
        assert abs(gam) < 1e-8

    def test_gamma_diverges_toward_upper_envelope(self, tp):
        g90 = dual(tp, 0.0, 0.90)[1]
        g99 = dual(tp, 0.0, 0.99)[1]
        assert g99 < g90 < 0.0

    def _assert_solved_inside(self, tp, st):
        assert np.all((tp.support_lo < st.m) & (st.m < tp.support_hi))
        assert np.all(np.isfinite(st.lam)) and np.all(np.isfinite(st.gam))
        m, s, logZ = tilted_moments_vec(tp, st.lam, st.gam)
        assert np.hypot(m - st.m, s - st.s)[0] < DUAL_RESIDUAL_TOL
        assert logZ[0] == st.logZ[0]

    def test_rejects_boundary(self, tp):
        # (0.5, 1.0) lies on the upper envelope, where the duals diverge:
        # from_moments does not keep it but solves at a point moved inside
        st = VariationalState.from_moments(tp, [0.5], [1.0])
        assert st.s[0] < 1.0
        self._assert_solved_inside(tp, st)

    def test_rejects_exterior(self, tp):
        # (1.5, 1.0) lies outside the support: no tilted law has these
        # moments, so the raw dual solve fails and from_moments moves m inside
        assert not dual_solve_vec(tp, [1.5], [1.0])[3][0]
        st = VariationalState.from_moments(tp, [1.5], [1.0])
        assert st.m[0] < 1.0
        self._assert_solved_inside(tp, st)

    def test_roundtrip_random_batch(self, tp, monkeypatch):
        rng = np.random.default_rng(7)
        lam = rng.uniform(-8.0, 8.0, 200)
        gam = rng.uniform(-8.0, 8.0, 200)
        m, s, _ = tilted_moments_vec(tp, lam, gam)
        # extreme tilts make the moment map poorly conditioned; a near
        # machine-precision moment residual is needed for 1e-8 in dual space
        monkeypatch.setattr("taplab.scalar.DUAL_RESIDUAL_TOL", 1e-14)
        lam2, gam2, _, conv, _ = dual_solve_vec(tp, m, s)
        assert np.all(conv)
        assert np.max(np.abs(lam2 - lam)) < 1e-8
        assert np.max(np.abs(gam2 - gam)) < 1e-8

    def test_roundtrip_quadrature_prior(self, monkeypatch):
        # positive-gamma region only: negative tilts of a quadrature prior
        # concentrate on the outermost node (|location| ~ 19) where the
        # moment map is hopelessly ill-conditioned and never visited
        bg = bernoulli_gaussian(0.5, 1.0)
        rng = np.random.default_rng(3)
        lam = rng.uniform(-4.0, 4.0, 50)
        gam = rng.uniform(0.05, 4.0, 50)
        m, s, _ = tilted_moments_vec(bg, lam, gam)
        monkeypatch.setattr("taplab.scalar.DUAL_RESIDUAL_TOL", 1e-13)
        lam2, gam2, _, conv, _ = dual_solve_vec(bg, m, s)
        assert np.all(conv)
        assert np.max(np.abs(lam2 - lam)) < 1e-7

    @staticmethod
    def _retry_batch():
        # from (0, 0) alone, 13 of these rows end unsolved (gamma near -1,
        # mass on the outermost quadrature nodes)
        bg = bernoulli_gaussian(0.5, 1.0)
        rng = np.random.default_rng(0)
        lam = rng.normal(0.0, 1.0, 2000)
        gam = rng.uniform(-1.0, 3.0, 2000)
        m, s, _ = tilted_moments_vec(bg, lam, gam)
        return bg, lam, gam, m, s

    def test_from_moments_retries_from_the_moment_match(self):
        bg, lam, gam, m, s = self._retry_batch()
        state = VariationalState.from_moments(bg, m, s)
        np.testing.assert_allclose(state.lam, lam, rtol=1e-7, atol=0)
        np.testing.assert_allclose(state.gam, gam, rtol=1e-7, atol=0)

    def test_from_moments_keeps_the_logz_of_its_solve(self, monkeypatch):
        # the dual solve returns the logZ of the duals it accepts, those of
        # the moment-match retry included, and from_moments keeps it
        # instead of tilting the solved duals again
        bg, _, _, m, s = self._retry_batch()
        events = []
        tilted_stats, dual_newton = kernels.tilted_stats, kernels.dual_newton

        def tilt(*args, **kwargs):
            events.append("tilt")
            return tilted_stats(*args, **kwargs)

        def solve(*args, **kwargs):
            out = dual_newton(*args, **kwargs)
            events.append("solved")
            return out

        monkeypatch.setattr(kernels, "tilted_stats", tilt)
        monkeypatch.setattr(kernels, "dual_newton", solve)
        state = VariationalState.from_moments(bg, m, s)
        monkeypatch.undo()
        assert events.count("solved") == 2  # the retry ran
        assert events[-1] == "solved"
        assert np.array_equal(state.logZ, tilted_moments_vec(bg, state.lam, state.gam)[2])

    def test_mean_monotone_in_lambda(self, tp):
        lam = np.linspace(-6.0, 6.0, 101)
        for gamma in (-2.0, 0.0, 3.0):
            m, _, _ = tilted_moments_vec(tp, lam, np.full_like(lam, gamma))
            assert np.all(np.diff(m) > 0)

    def test_jacobian_matches_covariance(self, tp):
        # d(m,s)/d(lam, -gam/2) is the covariance of (beta, beta^2)
        lam, gam = 0.7, -0.9
        cov = cov_matrix(tp, lam, gam)
        h = 1e-6
        jac = np.empty((2, 2))
        for j, (dl, dg) in enumerate([(h, 0.0), (0.0, -2.0 * h)]):
            up = tilt(tp, lam + dl, gam + dg)
            dn = tilt(tp, lam - dl, gam - dg)
            jac[0, j] = (up[0] - dn[0]) / (2.0 * h)
            jac[1, j] = (up[1] - dn[1]) / (2.0 * h)
        rel = np.abs(jac - cov) / (1.0 + np.abs(cov))
        assert rel.max() < 1e-5


class TestNegEntropy:
    def test_zero_at_prior_moments(self, tp):
        assert abs(neg_entropy(tp, 0.0, 2.0 / 3.0)) < 1e-12

    def test_positive_and_matches_direct_kl(self, tp):
        val = neg_entropy(tp, 0.5, 0.7)
        assert val > 0
        lam, gam = dual(tp, 0.5, 0.7)
        # direct KL sum over the three atoms
        w = np.exp(-0.5 * gam * tp.locations**2 + lam * tp.locations)
        q = tp.weights * w
        q = q / q.sum()
        kl = float(np.sum(q * np.log(q / tp.weights)))
        assert val == pytest.approx(kl, rel=1e-10)

    def test_gradient_is_dual_pair(self, tp):
        m, s = 0.3, 0.6
        lam, gam = dual(tp, m, s)
        h = 1e-6
        gm = (neg_entropy(tp, m + h, s) - neg_entropy(tp, m - h, s)) / (2 * h)
        gs = (neg_entropy(tp, m, s + h) - neg_entropy(tp, m, s - h)) / (2 * h)
        assert gm == pytest.approx(lam, rel=1e-5, abs=1e-5)
        assert gs == pytest.approx(-0.5 * gam, rel=1e-5, abs=1e-5)

    def test_midpoint_convexity(self, tp):
        rng = np.random.default_rng(11)
        lam = rng.uniform(-5, 5, 80)
        gam = rng.uniform(-5, 5, 80)
        m, s, _ = tilted_moments_vec(tp, lam, gam)
        for i in range(0, 80, 2):
            lhs = neg_entropy(tp, 0.5 * (m[i] + m[i + 1]), 0.5 * (s[i] + s[i + 1]))
            rhs = 0.5 * (neg_entropy(tp, m[i], s[i]) + neg_entropy(tp, m[i + 1], s[i + 1]))
            assert lhs <= rhs + 1e-10


class TestDenoise:
    # the posterior-mean denoiser of the channel x = beta + N(0, 1/gamma) is
    # the tilted law at (gamma*x, gamma)
    def test_symmetric_prior_at_zero(self, tp):
        m, s, _ = tilted_moments_vec(tp, np.zeros(3), 2.5)
        assert np.max(np.abs(m)) < 1e-14
        expect = tilt(tp, 0.0, 2.5)[1]
        assert np.allclose(s, expect)

    def test_monotone_in_x(self, tp):
        x = np.linspace(-5, 5, 41)
        m, _, _ = tilted_moments_vec(tp, 2.0 * x, 2.0)
        assert np.all(np.diff(m) > 0)
        assert 0.0 < m[-1] < 1.0

    def test_zero_snr_returns_prior_mean(self, tp):
        x = np.array([-3.0, 0.0, 7.0])
        m, s, _ = tilted_moments_vec(tp, 0.0 * x, 0.0)
        assert np.allclose(m, tp.mean)
        assert np.allclose(s, tp.second_moment)


class TestMMSE:
    def test_zero_snr_is_prior_variance(self, tp):
        assert mmse(tp, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_negative_gamma_is_a_domain_error(self, tp):
        with pytest.raises(DomainError):
            mmse(tp, -0.1)

    def test_strong_channel_resolves_atoms(self, tp):
        assert mmse(tp, 1e6) < 1e-3

    def test_gaussian_conjugacy(self):
        g = gaussian_prior(1.0)
        for gamma in (0.3, 1.0, 4.0):
            assert mmse(g, gamma) == pytest.approx(1.0 / (1.0 + gamma), abs=1e-6)

    def test_channel_terms_reject_an_overflowing_tilt(self):
        # the error alone: no numpy overflow warning on the way to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTiltError):
                channel_terms(parse_prior("bernoulli-gaussian:0.5,1.0"), 1e307)

    def test_monotone_nonincreasing_and_bounded(self, tp):
        grid = np.geomspace(1e-3, 1e2, 60)
        vals = np.array([mmse(tp, g) for g in grid])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 0)
        assert np.all(vals <= tp.second_moment + 1e-12)

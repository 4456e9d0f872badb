import numpy as np
import pytest

from taplab.exceptions import NotInDomainError
from taplab.priors import bernoulli_gaussian, gaussian_prior, three_point
from taplab.scalar import (
    DualPair,
    MomentPair,
    Region,
    dual_solve,
    dual_solve_vec,
    denoise,
    gamma_region,
    mmse,
    neg_entropy,
    project_interior,
    tilted_cov_vec,
    tilted_moments_vec,
)


@pytest.fixture(scope="module")
def tp():
    return three_point()


def tilt(prior, lam, gam):
    """(m, s, logZ) of one tilted law, as floats."""
    return tuple(float(x[0]) for x in tilted_moments_vec(prior, lam, gam))


def cov_matrix(prior, lam, gam):
    c11, c12, c22 = (float(x[0]) for x in tilted_cov_vec(prior, lam, gam))
    return np.array([[c11, c12], [c12, c22]])


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


class TestGammaRegion:
    def test_interior_point(self, tp):
        assert gamma_region(tp, MomentPair(0.5, 0.7)) is Region.INTERIOR

    def test_upper_envelope_is_boundary(self, tp):
        assert gamma_region(tp, MomentPair(0.5, 1.0)) is Region.BOUNDARY

    def test_mean_outside_support(self, tp):
        assert gamma_region(tp, MomentPair(1.5, 1.0)) is Region.EXTERIOR

    def test_lower_envelope_between_atoms(self, tp):
        # for support {-1,0,1} and m in (0,1) the lower envelope is s = m
        assert gamma_region(tp, MomentPair(0.5, 0.5)) is Region.BOUNDARY
        assert gamma_region(tp, MomentPair(0.5, 0.49)) is Region.EXTERIOR

    def test_project_interior_restores_membership(self, tp):
        from taplab.scalar import gamma_envelopes
        m, s = project_interior(tp, [0.5, 0.9], [1.3, 0.1])
        lower, upper = gamma_envelopes(tp, m)
        assert np.all((tp.support_lo < m) & (m < tp.support_hi))
        assert np.all((lower < s) & (s < upper))
        for mj, sj in zip(m, s):
            assert gamma_region(tp, MomentPair(mj, sj)) is not Region.EXTERIOR


class TestDualSolve:
    def test_roundtrip_single(self, tp):
        m, s, _ = tilt(tp, 0.3, 1.2)
        back = dual_solve(tp, MomentPair(m, s))
        assert back.lam == pytest.approx(0.3, abs=1e-8)
        assert back.gamma == pytest.approx(1.2, abs=1e-8)

    def test_untilted_moments_give_zero_duals(self, tp):
        d = dual_solve(tp, MomentPair(0.0, 2.0 / 3.0))
        assert abs(d.lam) < 1e-8
        assert abs(d.gamma) < 1e-8

    def test_gamma_diverges_toward_upper_envelope(self, tp):
        g90 = dual_solve(tp, MomentPair(0.0, 0.90)).gamma
        g99 = dual_solve(tp, MomentPair(0.0, 0.99)).gamma
        assert g99 < g90 < 0.0

    def test_rejects_boundary(self, tp):
        with pytest.raises(NotInDomainError):
            dual_solve(tp, MomentPair(0.5, 1.0))

    def test_rejects_exterior(self, tp):
        with pytest.raises(NotInDomainError):
            dual_solve(tp, MomentPair(1.5, 1.0))

    def test_roundtrip_random_batch(self, tp):
        rng = np.random.default_rng(7)
        lam = rng.uniform(-8.0, 8.0, 200)
        gam = rng.uniform(-8.0, 8.0, 200)
        m, s, _ = tilted_moments_vec(tp, lam, gam)
        # extreme tilts make the moment map poorly conditioned; a near
        # machine-precision moment residual is needed for 1e-8 in dual space
        lam2, gam2, conv, _ = dual_solve_vec(tp, m, s, tol=1e-14)
        assert np.all(conv)
        assert np.max(np.abs(lam2 - lam)) < 1e-8
        assert np.max(np.abs(gam2 - gam)) < 1e-8

    def test_roundtrip_quadrature_prior(self):
        # positive-gamma region only: negative tilts of a quadrature prior
        # concentrate on the outermost node (|location| ~ 19) where the
        # moment map is hopelessly ill-conditioned and never visited
        bg = bernoulli_gaussian(0.5, 1.0)
        rng = np.random.default_rng(3)
        lam = rng.uniform(-4.0, 4.0, 50)
        gam = rng.uniform(0.05, 4.0, 50)
        m, s, _ = tilted_moments_vec(bg, lam, gam)
        lam2, gam2, conv, _ = dual_solve_vec(bg, m, s, tol=1e-13)
        assert np.all(conv)
        assert np.max(np.abs(lam2 - lam)) < 1e-7

    def test_mean_monotone_in_lambda(self, tp):
        lam = np.linspace(-6.0, 6.0, 101)
        for gamma in (-2.0, 0.0, 3.0):
            m, _, _ = tilted_moments_vec(tp, lam, np.full_like(lam, gamma))
            assert np.all(np.diff(m) > 0)

    def test_jacobian_matches_covariance(self, tp):
        # d(m,s)/d(lam, -gam/2) is the covariance of (beta, beta^2)
        d = DualPair(0.7, -0.9)
        cov = cov_matrix(tp, d.lam, d.gamma)
        h = 1e-6
        jac = np.empty((2, 2))
        for j, (dl, dg) in enumerate([(h, 0.0), (0.0, -2.0 * h)]):
            up = tilt(tp, d.lam + dl, d.gamma + dg)
            dn = tilt(tp, d.lam - dl, d.gamma - dg)
            jac[0, j] = (up[0] - dn[0]) / (2.0 * h)
            jac[1, j] = (up[1] - dn[1]) / (2.0 * h)
        rel = np.abs(jac - cov) / (1.0 + np.abs(cov))
        assert rel.max() < 1e-5


class TestNegEntropy:
    def test_zero_at_prior_moments(self, tp):
        assert abs(neg_entropy(tp, MomentPair(0.0, 2.0 / 3.0))) < 1e-12

    def test_positive_and_matches_direct_kl(self, tp):
        val = neg_entropy(tp, MomentPair(0.5, 0.7))
        assert val > 0
        d = dual_solve(tp, MomentPair(0.5, 0.7))
        # direct KL sum over the three atoms
        w = np.exp(-0.5 * d.gamma * tp.locations**2 + d.lam * tp.locations)
        q = tp.weights * w
        q = q / q.sum()
        kl = float(np.sum(q * np.log(q / tp.weights)))
        assert val == pytest.approx(kl, rel=1e-10)

    def test_gradient_is_dual_pair(self, tp):
        mp = MomentPair(0.3, 0.6)
        d = dual_solve(tp, mp)
        h = 1e-6
        gm = (neg_entropy(tp, MomentPair(mp.m + h, mp.s))
              - neg_entropy(tp, MomentPair(mp.m - h, mp.s))) / (2 * h)
        gs = (neg_entropy(tp, MomentPair(mp.m, mp.s + h))
              - neg_entropy(tp, MomentPair(mp.m, mp.s - h))) / (2 * h)
        assert gm == pytest.approx(d.lam, rel=1e-5, abs=1e-5)
        assert gs == pytest.approx(-0.5 * d.gamma, rel=1e-5, abs=1e-5)

    def test_midpoint_convexity(self, tp):
        rng = np.random.default_rng(11)
        lam = rng.uniform(-5, 5, 80)
        gam = rng.uniform(-5, 5, 80)
        m, s, _ = tilted_moments_vec(tp, lam, gam)
        for i in range(0, 80, 2):
            x = MomentPair(m[i], s[i])
            y = MomentPair(m[i + 1], s[i + 1])
            mid = MomentPair(0.5 * (x.m + y.m), 0.5 * (x.s + y.s))
            lhs = neg_entropy(tp, mid)
            rhs = 0.5 * (neg_entropy(tp, x) + neg_entropy(tp, y))
            assert lhs <= rhs + 1e-10


class TestDenoise:
    def test_symmetric_prior_at_zero(self, tp):
        m, s = denoise(tp, np.zeros(3), 2.5)
        assert np.max(np.abs(m)) < 1e-14
        expect = tilt(tp, 0.0, 2.5)[1]
        assert np.allclose(s, expect)

    def test_monotone_in_x(self, tp):
        x = np.linspace(-5, 5, 41)
        m, _ = denoise(tp, x, 2.0)
        assert np.all(np.diff(m) > 0)
        assert 0.0 < m[-1] < 1.0

    def test_zero_snr_returns_prior_mean(self, tp):
        m, s = denoise(tp, np.array([-3.0, 0.0, 7.0]), 0.0)
        assert np.allclose(m, tp.mean)
        assert np.allclose(s, tp.second_moment)


class TestMMSE:
    def test_zero_snr_is_prior_variance(self, tp):
        assert mmse(tp, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_strong_channel_resolves_atoms(self, tp):
        assert mmse(tp, 1e6) < 1e-3

    def test_gaussian_conjugacy(self):
        g = gaussian_prior(1.0)
        for gamma in (0.3, 1.0, 4.0):
            assert mmse(g, gamma) == pytest.approx(1.0 / (1.0 + gamma), abs=1e-6)

    def test_monotone_nonincreasing_and_bounded(self, tp):
        grid = np.geomspace(1e-3, 1e2, 60)
        vals = np.array([mmse(tp, g) for g in grid])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 0)
        assert np.all(vals <= tp.second_moment + 1e-12)

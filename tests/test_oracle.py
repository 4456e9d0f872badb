import numpy as np
import pytest

from taplab.exceptions import DomainError
from taplab.free_energy import LinearModel
from taplab.oracle import (
    enumerate_posterior,
    gaussian_posterior,
    mc_evidence,
    mp_vstar,
)
from taplab.priors import three_point


class TestGaussianOracle:
    def test_scalar_closed_form(self):
        model = LinearModel(X=np.array([[1.0]]), y=np.array([1.0]), sigma2=1.0)
        oracle = gaussian_posterior(model, 1.0)
        assert oracle.Sigma[0, 0] == pytest.approx(0.5)
        assert oracle.post_mean[0] == pytest.approx(0.5)
        expect = -0.5 * (np.log(2 * np.pi) + np.log(2.0) + 0.5)
        assert oracle.log_evidence == pytest.approx(expect, rel=1e-12)

    def test_vstar_golden_ratio(self):
        assert mp_vstar(1.0, 1.0, 1.0) == pytest.approx((np.sqrt(5) - 1) / 2,
                                                        abs=1e-12)

    def test_vstar_self_consistency(self):
        for tau2, sigma2, delta in [(1.0, 1.0, 1.0), (2.0, 0.09, 0.7),
                                    (0.5, 4.0, 1.3)]:
            v = mp_vstar(tau2, sigma2, delta)
            gamma = delta / (sigma2 + v)
            assert v == pytest.approx(tau2 / (1.0 + gamma * tau2), abs=1e-12)

    def test_sigma_diag_concentrates_to_vstar(self):
        gaps = {}
        for p in (200, 800):
            rng = np.random.default_rng(0)
            X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(p, p))
            y = rng.normal(size=p)
            oracle = gaussian_posterior(LinearModel(X=X, y=y, sigma2=1.0), 1.0)
            gaps[p] = abs(np.mean(np.diag(oracle.Sigma)) - oracle.v_star)
        assert gaps[800] < gaps[200]

    def test_logdet_identity_two_ways(self):
        rng = np.random.default_rng(1)
        n, p, tau2, sigma2 = 12, 7, 1.3, 0.4
        X = rng.normal(size=(n, p)) / np.sqrt(p)
        y = rng.normal(size=n)
        oracle = gaussian_posterior(LinearModel(X=X, y=y, sigma2=sigma2), tau2)
        # direct n x n evaluation
        K = tau2 * X @ X.T + sigma2 * np.eye(n)
        sign, logdet = np.linalg.slogdet(K)
        quad = float(y @ np.linalg.solve(K, y))
        expect = -0.5 * (n * np.log(2 * np.pi) + logdet + quad)
        assert oracle.log_evidence == pytest.approx(expect, abs=1e-8)

    @pytest.mark.parametrize("tau2", [-1.0, 0.0, -0.001, float("inf"), float("nan")])
    def test_rejects_nonpositive_tau2(self, tau2):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 7)) / np.sqrt(7)
        model = LinearModel(X=X, y=rng.normal(size=12), sigma2=0.01)
        with pytest.raises(DomainError, match="tau2"):
            gaussian_posterior(model, tau2)


class TestEnumeration:
    def test_univariate_matches_scalar_posterior(self):
        tp = three_point()
        model = LinearModel(X=np.array([[2.0], [1.0]]),
                            y=np.array([1.5, 0.5]), sigma2=0.5)
        log_ev, m, s = enumerate_posterior(model, tp)
        loglik = np.array([
            -0.5 * np.sum((model.y - model.X[:, 0] * b) ** 2) / model.sigma2
            for b in tp.locations])
        w = tp.weights * np.exp(loglik - loglik.max())
        w /= w.sum()
        assert m[0] == pytest.approx(float(w @ tp.locations), rel=1e-12)
        assert s[0] == pytest.approx(float(w @ tp.locations**2), rel=1e-12)

    def test_flat_likelihood_returns_prior_moments(self):
        tp = three_point()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4, 4)) / 2.0
        model = LinearModel(X=X, y=rng.normal(size=4), sigma2=1e6)
        _, m, s = enumerate_posterior(model, tp)
        assert np.max(np.abs(m - tp.mean)) < 1e-4
        assert np.max(np.abs(s - tp.second_moment)) < 1e-4

    def test_guard_refuses_large_p(self):
        tp = three_point()
        X = np.zeros((2, 20))
        with pytest.raises(ValueError):
            enumerate_posterior(LinearModel(X=X, y=np.zeros(2), sigma2=1.0), tp)

    def test_matches_monte_carlo(self):
        tp = three_point()
        rng = np.random.default_rng(3)
        p, n = 6, 6
        X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
        beta = tp.sample(p, rng)
        y = X @ beta + rng.normal(0.0, 0.5, size=n)
        model = LinearModel(X=X, y=y, sigma2=0.25)
        log_ev, _, _ = enumerate_posterior(model, tp)
        est, se = mc_evidence(model, tp, 200_000, np.random.default_rng(4))
        assert abs(np.exp(log_ev) - est) < 3.0 * se

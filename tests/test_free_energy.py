import numpy as np
import pytest

from taplab.free_energy import (
    LinearModel,
    VariationalState,
    mf_energy,
    mf_gradient,
    min_eigenvalue,
    onsager_volume,
    tap_energy,
    tap_gradient,
    tap_hessian_dense,
    tap_hessian_matvec,
)
from taplab.experiments import ExperimentConfig, fit_free_energy, generate_instance
from taplab.ngd import Objective
from taplab.oracle import gaussian_posterior
from taplab.priors import gaussian_prior, three_point
from taplab.scalar import tilted_cov_vec


@pytest.fixture(scope="module")
def tp():
    return three_point()


def random_model(rng, n, p, sigma2=0.09, prior=None):
    prior = prior or three_point()
    X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    beta = prior.sample(p, rng)
    y = X @ beta + rng.normal(0.0, np.sqrt(sigma2), size=n)
    return LinearModel(X=X, y=y, sigma2=sigma2), beta


def random_state(prior, p, rng, scale=2.0):
    lam = rng.uniform(-scale, scale, p)
    gam = rng.uniform(-scale, scale, p)
    return VariationalState.from_duals(prior, lam, gam)


class TestEnergies:
    def test_null_state_closed_form(self, tp):
        rng = np.random.default_rng(0)
        model, _ = random_model(rng, 30, 20)
        state = VariationalState.null_state(tp, 20)
        n, s2 = model.n, model.sigma2
        expect = (0.5 * n * np.log(2 * np.pi * s2)
                  + float(model.y @ model.y) / (2 * s2)
                  + 0.5 * n * np.log1p(tp.variance / s2))
        assert tap_energy(model, state) == pytest.approx(expect, rel=1e-12)

    def test_onsager_gap_formula_and_ordering(self, tp):
        rng = np.random.default_rng(1)
        model, _ = random_model(rng, 25, 18)
        for _ in range(10):
            state = random_state(tp, 18, rng)
            gap = tap_energy(model, state) - mf_energy(model, state)
            x = (onsager_volume(model, state) - model.sigma2) / model.sigma2
            expect = 0.5 * model.n * (np.log1p(x) - x)
            assert gap == pytest.approx(expect, rel=1e-9, abs=1e-9)
            assert gap <= 1e-12  # mf >= tap always

    def test_state_from_moments_roundtrip(self, tp):
        rng = np.random.default_rng(5)
        st = random_state(tp, 12, rng)
        st2 = VariationalState.from_moments(tp, st.m, st.s)
        assert np.max(np.abs(st2.lam - st.lam)) < 1e-7
        assert np.max(np.abs(st2.gam - st.gam)) < 1e-7


class TestGradients:
    def test_tap_gradient_finite_difference(self, tp):
        rng = np.random.default_rng(42)
        for _ in range(5):
            p = int(rng.integers(10, 21))
            model, _ = random_model(rng, 2 * p, p)
            state = random_state(tp, p, rng)
            gm, gs = tap_gradient(model, state)
            h = 1e-6
            for j in (0, p // 2, p - 1):
                for which, g in (("m", gm[j]), ("s", gs[j])):
                    def f(t):
                        m = state.m.copy()
                        s = state.s.copy()
                        if which == "m":
                            m[j] += t
                        else:
                            s[j] += t
                        st = VariationalState.from_moments(tp, m, s, project=False)
                        return tap_energy(model, st)
                    fd = (f(h) - f(-h)) / (2 * h)
                    assert abs(fd - g) / (1.0 + abs(g)) < 1e-5

    def test_mf_gradient_finite_difference(self, tp):
        rng = np.random.default_rng(9)
        p = 12
        model, _ = random_model(rng, 18, p)
        state = random_state(tp, p, rng)
        gm, gs = mf_gradient(model, state)
        h = 1e-6
        for j in (0, 5, 11):
            m = state.m.copy()
            m[j] += h
            up = mf_energy(model, VariationalState.from_moments(tp, m, state.s,
                                                               project=False))
            m[j] -= 2 * h
            dn = mf_energy(model, VariationalState.from_moments(tp, m, state.s,
                                                               project=False))
            assert (up - dn) / (2 * h) == pytest.approx(gm[j], rel=1e-4, abs=1e-5)

    def test_gaussian_minimizer_is_stationary(self):
        # analytic TAP minimizer under a Gaussian prior: m = posterior mean,
        # s = m^2 + v*
        g = gaussian_prior(1.0)
        rng = np.random.default_rng(2)
        p = 200
        model, _ = random_model(rng, p, p, sigma2=1.0, prior=g)
        oracle = gaussian_posterior(model, 1.0)
        m = oracle.post_mean
        s = m**2 + oracle.v_star
        state = VariationalState.from_moments(g, m, s, project=False)
        gm, gs = tap_gradient(model, state)
        norm = np.sqrt(float(gm @ gm + gs @ gs))
        assert norm / np.sqrt(p) < 1e-2  # finite-size, exact only as p -> inf


class TestHessian:
    def test_dense_matches_matvec(self, tp):
        rng = np.random.default_rng(3)
        p = 30
        model, _ = random_model(rng, 40, p)
        state = random_state(tp, p, rng)
        H = tap_hessian_dense(model, state, tp)
        for _ in range(10):
            v = rng.standard_normal(2 * p)
            hv = tap_hessian_matvec(model, state, tp, v)
            assert np.max(np.abs(H @ v - hv)) < 1e-10

    def test_dense_symmetry(self, tp):
        rng = np.random.default_rng(4)
        p = 20
        model, _ = random_model(rng, 30, p)
        state = random_state(tp, p, rng)
        H = tap_hessian_dense(model, state, tp)
        assert np.max(np.abs(H - H.T)) < 1e-10

    def test_dense_matches_gradient_finite_difference(self, tp):
        rng = np.random.default_rng(6)
        p, n = 10, 15
        model, _ = random_model(rng, n, p)
        state = random_state(tp, p, rng, scale=1.0)
        H = tap_hessian_dense(model, state, tp)
        h = 1e-5

        def grad_at(m, s):
            st = VariationalState.from_moments(tp, m, s, project=False)
            gm, gs = tap_gradient(model, st)
            return np.concatenate([gm, gs])

        cols = []
        for j in range(2 * p):
            dm = np.zeros(p)
            ds = np.zeros(p)
            if j < p:
                dm[j] = h
            else:
                ds[j - p] = h
            up = grad_at(state.m + dm, state.s + ds)
            dn = grad_at(state.m - dm, state.s - ds)
            cols.append((up - dn) / (2 * h))
        Hfd = np.column_stack(cols)
        rel = np.abs(Hfd - H) / (1.0 + np.abs(H))
        assert rel.max() < 1e-4

    def test_dense_and_lanczos_agree(self, tp):
        rng = np.random.default_rng(8)
        p = 100
        model, _ = random_model(rng, 100, p)
        state = random_state(tp, p, rng)
        a = min_eigenvalue(model, state, tp, method="dense")
        b = min_eigenvalue(model, state, tp, method="lanczos")
        assert a.value == pytest.approx(b.value, abs=1e-6)
        assert min_eigenvalue(model, state, tp, method="lanczos").value == b.value

    def test_low_snr_global_convexity(self, tp):
        # (n/p)/sigma2 small: the Hessian is positive definite everywhere
        rng = np.random.default_rng(12)
        p = 40
        model, _ = random_model(rng, 40, p, sigma2=100.0)
        for _ in range(5):
            state = random_state(tp, p, rng)
            res = min_eigenvalue(model, state, tp, method="dense")
            assert res.value > 0

    def test_converged_state_with_near_singular_covariance(self, tp):
        # the converged three-point TAP state at delta=1.4 (n=300, seed 0,
        # replicate 0) is interior, but some coordinates put almost all mass
        # on two atoms: c11 ~ 8e-7 and det ~ 1.4e-22.  Covariances formed from
        # raw moments (s - m^2, ...) cancelled to det = 0 there, and both
        # min_eigenvalue methods raised DomainError.
        cfg = ExperimentConfig(n=300, seed=0, replicates=1)
        model, _ = generate_instance(cfg, 0, 1.4)
        trace = fit_free_energy(model, tp, cfg, Objective.TAP, delta=1.4)
        assert trace.converged
        state = trace.final
        c11, c12, c22 = tilted_cov_vec(tp, state.lam, state.gam)
        det = c11 * c22 - c12 * c12
        assert np.min(det) > 0
        res = min_eigenvalue(model, state, tp, method="dense")
        # the 2x2 blocks reach 5.8e15, so the smallest eigenvalue is resolved
        # only to about eps * ||H||: check the sign at that resolution
        scale = np.linalg.norm(tap_hessian_dense(model, state, tp), 2)
        assert res.converged and np.isfinite(res.value)
        assert res.value > -1e-15 * scale

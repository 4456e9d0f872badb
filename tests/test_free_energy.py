import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from taplab.free_energy import (
    DENSE_HESSIAN_MAX_DIM,
    LinearModel,
    _apply_blocks,
    _entropy_hessian_blocks,
    _entropy_sum,
    _k_product,
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
from taplab.exceptions import DomainError, NoConvergenceError
from taplab.experiments import ExperimentConfig, fit_free_energy, generate_instance
from taplab.ngd import Objective
from taplab.oracle import gaussian_posterior
from taplab.priors import gaussian_prior, parse_prior, three_point
from taplab.scalar import DUAL_CAP, tilted_cov_vec


@pytest.fixture(scope="module")
def tp():
    return three_point()


def random_model(rng, n, p, sigma2=0.09, prior=None):
    prior = prior or three_point()
    X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    beta = prior.sample(p, rng)
    y = X @ beta + rng.normal(0.0, np.sqrt(sigma2), size=n)
    return LinearModel(X=X, y=y, sigma2=sigma2), beta


def converged_tap_state(prior, delta):
    """The model (n=300, seed 0, replicate 0) and its converged TAP state."""
    cfg = ExperimentConfig(n=300, seed=0, replicates=1)
    model, _ = generate_instance(cfg, 0, delta)
    trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=delta)
    assert trace.converged
    return model, trace.final


def random_state(prior, p, rng, scale=2.0):
    lam = rng.uniform(-scale, scale, p)
    gam = rng.uniform(-scale, scale, p)
    return VariationalState.from_duals(prior, lam, gam)


class TestEnergies:
    def test_null_state_closed_form(self, tp):
        rng = np.random.default_rng(0)
        model, _ = random_model(rng, 30, 20)
        state = VariationalState.from_duals(tp, np.zeros(20), np.zeros(20))  # untilted
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
            V = onsager_volume(model, state)
            x = (V - model.sigma2) / model.sigma2
            expect = 0.5 * model.n * (np.log1p(x) - x)
            assert gap == pytest.approx(expect, rel=1e-9, abs=1e-9)
            assert gap <= 1e-12  # mf >= tap always
            # the gradients differ only through 1/V against 1/sigma^2
            coef = model.delta_hat * (1.0 / model.sigma2 - 1.0 / V)
            gap_m, gap_s = (t - f for t, f in zip(tap_gradient(model, state),
                                                  mf_gradient(model, state)))
            np.testing.assert_allclose(gap_m, coef * state.m, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(gap_s, -0.5 * coef, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("sigma2", [0.0, float("inf"), float("nan")])
    def test_model_rejects_nonpositive_or_nonfinite_sigma2(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            LinearModel(X=np.eye(3), y=np.ones(3), sigma2=sigma2)

    def test_state_from_moments_roundtrip(self, tp):
        rng = np.random.default_rng(5)
        st = random_state(tp, 12, rng)
        st2 = VariationalState.from_moments(tp, st.m, st.s)
        assert np.max(np.abs(st2.lam - st.lam)) < 1e-7
        assert np.max(np.abs(st2.gam - st.gam)) < 1e-7


    @pytest.mark.parametrize("objective", list(Objective))
    def test_passed_residual_gives_the_same_bits(self, tp, objective):
        # NGD hands each state's y - X m to its energy and gradient; without
        # it they form the same residual themselves
        cfg = ExperimentConfig(n=100, seed=0, replicates=1)
        model, _ = generate_instance(cfg, 0, 1.0)
        state = fit_free_energy(model, tp, cfg, objective, delta=1.0).final
        resid = model.y - model.X @ state.m
        for energy in (tap_energy, mf_energy):
            assert energy(model, state, resid) == energy(model, state)
        for gradient in (tap_gradient, mf_gradient):
            for with_r, without in zip(gradient(model, state, resid), gradient(model, state)):
                assert np.array_equal(with_r, without)


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
                        st = VariationalState.from_moments(tp, m, s)
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
            up = mf_energy(model, VariationalState.from_moments(tp, m, state.s))
            m[j] -= 2 * h
            dn = mf_energy(model, VariationalState.from_moments(tp, m, state.s))
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
        state = VariationalState.from_moments(g, m, s)
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

    @pytest.mark.parametrize("descriptor, delta", [
        ("three-point", 0.6), ("three-point", 1.4), ("bernoulli-gaussian:0.5,1.0", 1.0),
    ])
    def test_dense_equals_the_sum_of_dense_terms(self, descriptor, delta):
        # the in-place fill gives the bits of the sum of the dense terms it
        # replaced, at converged states (n=300; 2p=1000 at delta=0.6)
        prior = parse_prior(descriptor)
        model, state = converged_tap_state(prior, delta)
        p, m = model.p, state.m
        d_mm, d_ms, d_ss = _entropy_hessian_blocks(prior, state)[0]
        V = onsager_volume(model, state)
        ratio = model.n / model.p
        H_mm = model.X.T @ model.X / model.sigma2
        H_mm -= (ratio / V) * np.eye(p)
        H_mm -= (2.0 * ratio / (p * V * V)) * np.outer(m, m)
        H_mm += np.diag(d_mm)
        H_ms = (ratio / (p * V * V)) * np.outer(m, np.ones(p)) + np.diag(d_ms)
        H_ss = -(0.5 * ratio / (p * V * V)) * np.ones((p, p)) + np.diag(d_ss)
        H = tap_hessian_dense(model, state, prior)
        assert H.flags.f_contiguous
        assert np.array_equal(H, np.block([[H_mm, H_ms], [H_ms.T, H_ss]]))

    def test_dense_probe_holds_one_hessian(self, tp):
        # eigvalsh overwrites the Fortran-ordered Hessian instead of copying
        # it, and the Hessian is built with no p x p temporary: the probe's
        # peak is one Hessian and LAPACK's workspace (1.13x here), not two
        # Hessians (2.04x with the dense terms stacked by np.block)
        model, state = converged_tap_state(tp, 0.6)
        dim = 2 * model.p
        expected = min_eigenvalue(model, state, tp, method="dense").value  # imports scipy
        tracemalloc.start()
        try:
            value = min_eigenvalue(model, state, tp, method="dense").value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 1.2 * 8 * dim * dim

    def test_dense_past_its_cap_is_a_domain_error(self, tp):
        rng = np.random.default_rng(5)
        p = DENSE_HESSIAN_MAX_DIM // 2 + 1
        model, _ = random_model(rng, 5, p)
        state = random_state(tp, p, rng)
        with pytest.raises(DomainError, match=f"dense Hessian limited to 2p <= "
                                              f"{DENSE_HESSIAN_MAX_DIM}$"):
            tap_hessian_dense(model, state, tp)

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
            st = VariationalState.from_moments(tp, m, s)
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

    def test_mf_matvec_matches_gradient_finite_difference(self, tp):
        # mean-field fixes V at sigma^2: no rank-one terms, -(n/p)/sigma^2 on m;
        # the Hessian is K + D, the data-and-volume product plus the entropy blocks
        rng = np.random.default_rng(6)
        p, n = 10, 15
        model, _ = random_model(rng, n, p)
        state = random_state(tp, p, rng, scale=1.0)
        D = _entropy_hessian_blocks(tp, state)[0]
        K = _k_product(model, state, False)
        H = np.column_stack([K(e, np.empty(2 * p)) + _apply_blocks(D, e)
                             for e in np.eye(2 * p)])
        h = 1e-5

        def grad_at(m, s):
            st = VariationalState.from_moments(tp, m, s)
            gm, gs = mf_gradient(model, st)
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
        assert np.max(np.abs(H - H.T)) < 1e-10

    def test_dense_and_lanczos_agree(self, tp):
        rng = np.random.default_rng(8)
        p = 100
        model, _ = random_model(rng, 100, p)
        state = random_state(tp, p, rng)
        a = min_eigenvalue(model, state, tp, method="dense")
        b = min_eigenvalue(model, state, tp, method="lanczos")
        assert a.value == pytest.approx(b.value, abs=1e-6)
        assert min_eigenvalue(model, state, tp, method="lanczos").value == b.value

    def test_lanczos_without_an_eigenvalue_raises(self, tp, monkeypatch):
        rng = np.random.default_rng(8)
        model, _ = random_model(rng, 30, 20)
        state = random_state(tp, 20, rng)

        def no_eigenpair(A, X, **kwargs):  # returns its start vector
            return np.ones(1), X

        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", no_eigenpair)
        with pytest.raises(NoConvergenceError,
                           match=r"40-dimensional Hessian in 2000 iterations \(residual"):
            min_eigenvalue(model, state, tp, method="lanczos")

    def test_lanczos_at_converged_ill_conditioned_state(self, tp):
        # the converged three-point TAP state at delta=1.0 (n=300, seed 0,
        # replicate 0): cond(H) ~ 4e8, all of it in the 2x2 entropy blocks
        model, state = converged_tap_state(tp, 1.0)
        ref = np.linalg.eigvalsh(tap_hessian_dense(model, state, tp))[0]
        res = min_eigenvalue(model, state, tp, method="lanczos")
        assert res.converged and abs(res.value - ref) <= 1e-7
        assert min_eigenvalue(model, state, tp, method="lanczos").value == res.value

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
        model, state = converged_tap_state(tp, 1.4)
        c11, c12, c22 = tilted_cov_vec(tp, state.lam, state.gam)
        det = c11 * c22 - c12 * c12
        assert np.min(det) > 0
        res = min_eigenvalue(model, state, tp, method="dense")
        # the 2x2 blocks reach 5.8e15, so the smallest eigenvalue is resolved
        # only to about eps * ||H||: check the sign at that resolution
        scale = np.linalg.norm(tap_hessian_dense(model, state, tp), 2)
        assert res.converged and np.isfinite(res.value)
        assert res.value > -1e-15 * scale
        # rounding in the products, about eps * ||H||, keeps LOBPCG's residual
        # above its bound, and the probe says so
        with pytest.raises(NoConvergenceError, match="428-dimensional"):
            min_eigenvalue(model, state, tp, method="lanczos")

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_collapsed_tilted_laws_are_named(self, tp, method):
        # sigma = 0.1, delta = 1.0 (n=300, seed 0, replicate 0): the final TAP
        # state is interior, but most tilted laws sit on one or two atoms, so
        # det C is 0 in float64 and D = C^-1, which both probes form, does not
        # exist; the error counts those coordinates and names the cause
        cfg = ExperimentConfig(sigma=0.1, n=300, seed=0, replicates=1)
        model, _ = generate_instance(cfg, 0, 1.0)
        state = fit_free_energy(model, tp, cfg, Objective.TAP, delta=1.0).final
        with pytest.raises(DomainError, match=r"singular in float64 on 204 of 300 "
                           r"coordinates \(tilted laws collapsed onto one or two atoms\)"):
            min_eigenvalue(model, state, tp, method=method)


@pytest.mark.parametrize("desc", ["three-point", "bernoulli-gaussian:0.5,1.0"])
def test_entropy_sum_is_within_the_summation_error_bound(desc):
    # numpy's pairwise sum of the p entropy terms is within gamma_{p-1}
    # sum|t_i| of the exactly rounded sum (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2002, sec. 4.2), on fitted TAP and mean-field
    # states and on states whose duals sit on the edges of the dual box
    cfg = ExperimentConfig(prior_descriptor=desc, n=300)
    prior = cfg.prior()
    states = []
    for delta in (0.6, 1.0, 1.4):
        model, _ = generate_instance(cfg, 0, delta)
        states += [fit_free_energy(model, prior, cfg, objective, delta=delta).final
                   for objective in Objective]
    rng = np.random.default_rng(9)
    lam, gam = rng.uniform(-3, 3, 300), rng.uniform(0.5, 5, 300)
    lam[::3] = rng.choice([-DUAL_CAP, DUAL_CAP], 100)
    gam[::4] = rng.choice([-DUAL_CAP, DUAL_CAP], 75)
    states.append(VariationalState.from_duals(prior, lam, gam))
    for state in states:
        terms = -0.5 * state.gam * state.s + state.lam * state.m - state.logZ
        p = len(terms)
        u = np.finfo(np.float64).eps / 2
        gamma = (p - 1) * u / (1 - (p - 1) * u)
        exact = math.fsum(terms)
        assert abs(_entropy_sum(state) - exact) <= gamma * math.fsum(np.abs(terms))

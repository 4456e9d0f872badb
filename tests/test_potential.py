import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from taplab import kernels, potential
from taplab.exceptions import DomainError, NoBracketError, NoConvergenceError
from taplab.potential import (
    _brent,
    Regime,
    gamma_sequence,
    mutual_information,
    phi,
    phi_prime,
    phi_second,
    se_covariance_blocks,
    solve_gammas,
)
from taplab.priors import gaussian_prior, parse_prior, point_mass_prior, three_point
from taplab.scalar import mmse

SIGMA2 = 0.09  # sigma = 0.3
# priors and deltas whose grids and Brent roots are checked bit for bit
FIVE_PRIORS = [
    ("three-point", (0.6, 1.0, 1.4)),
    ("point-mass:-2,0.25;-1,0.25;1,0.25;2,0.25", (0.6, 1.0, 1.4)),
    ("point-mass:-1,0.2;0,0.5;2,0.3", (0.6, 1.0, 1.4)),
    ("bernoulli-gaussian:1.0,1.0", (1.0,)),
    ("bernoulli-gaussian:0.5,1.0", (1.0,)),
]
FIVE_PRIOR_IDS = ["3pt", "4pt-even", "3pt-asym", "gaussian", "bg"]


@pytest.fixture(scope="module")
def tp():
    return three_point()


class TestMutualInformation:
    def test_vanishes_at_zero_snr(self, tp):
        assert mutual_information(tp, 0.0) == 0.0
        assert mutual_information(tp, 1e-8) < 1e-7

    def test_gaussian_closed_form(self):
        g = gaussian_prior(1.0)
        for gamma in (0.2, 1.0, 5.0):
            assert mutual_information(g, gamma) == pytest.approx(
                0.5 * np.log1p(gamma), abs=1e-6)

    def test_i_prime_is_half_mmse(self, tp):
        h = 1e-5
        num = (mutual_information(tp, 1.0 + h)
               - mutual_information(tp, 1.0 - h)) / (2 * h)
        assert num == pytest.approx(0.5 * mmse(tp, 1.0), abs=1e-4)


class TestPhiDerivatives:
    def test_rejects_nonpositive_gamma(self, tp):
        with pytest.raises(DomainError):
            phi(tp, SIGMA2, 1.0, 0.0)
        with pytest.raises(DomainError):
            phi_prime(tp, SIGMA2, 1.0, -1.0)
        calls = (lambda g: mmse(tp, g), lambda g: mutual_information(tp, g),
                 lambda g: phi(tp, SIGMA2, 1.0, g), lambda g: phi_prime(tp, SIGMA2, 1.0, g),
                 lambda g: phi_second(tp, SIGMA2, 1.0, g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            for call in calls:
                for gamma in (float("nan"), float("inf")):
                    with pytest.raises(DomainError, match="gamma"):
                        call(gamma)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_solve_gammas_rejects_nonpositive_delta(self, tp, delta):
        with pytest.raises(DomainError, match="delta must be positive"):
            solve_gammas(tp, SIGMA2, delta)

    @pytest.mark.parametrize("fn", [phi, phi_prime, phi_second, solve_gammas],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("sigma2, delta, name", [
        (sigma2, 1.0, "sigma2") for sigma2 in (0.0, -0.09, float("nan"), float("inf"))
    ] + [(SIGMA2, delta, "delta") for delta in (0.0, -1.0, float("nan"), float("inf"))])
    def test_rejects_a_noise_or_ratio_that_is_not_positive_and_finite(
            self, tp, fn, sigma2, delta, name):
        args = (tp, sigma2, delta) + ((1.0,) if fn is not solve_gammas else ())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
                fn(*args)

    def test_phi_prime_two_ways(self, tp, monkeypatch):
        # numerical derivative of phi vs the closed I-MMSE formula; the FD
        # step scales with gamma since phi''' ~ delta/gamma^3, and the finer
        # quadrature keeps discretization noise below the FD resolution: the
        # error is 2.1e-6 with the 61-node rule and 4.2e-8 with 201 nodes
        monkeypatch.setattr("taplab.scalar.QUAD_NODES", 201)
        for gamma in np.geomspace(1e-3, 1e2, 12):
            h = 5e-5 * gamma
            fd = (phi(tp, SIGMA2, 1.0, gamma + h)
                  - phi(tp, SIGMA2, 1.0, gamma - h)) / (2 * h)
            assert fd == pytest.approx(phi_prime(tp, SIGMA2, 1.0, gamma),
                                       abs=1e-6, rel=1e-6)

    def test_phi_second_vs_finite_difference(self, tp):
        h = 1e-5
        fd = (phi_prime(tp, SIGMA2, 1.0, 1.0 + h)
              - phi_prime(tp, SIGMA2, 1.0, 1.0 - h)) / (2 * h)
        an = phi_second(tp, SIGMA2, 1.0, 1.0)
        assert abs(fd - an) / abs(an) < 1e-4

    def test_phi_second_gaussian_closed_form(self):
        g = gaussian_prior(1.0)
        for gamma in (0.5, 2.0):
            expect = 0.5 * (1.0 / gamma**2 - 1.0 / (1.0 + gamma) ** 2)
            assert phi_second(g, 1.0, 1.0, gamma) == pytest.approx(expect, abs=1e-6)

    def test_phi_second_large_gamma_limit(self, tp):
        gamma = 1e4
        assert phi_second(tp, SIGMA2, 1.0, gamma) == pytest.approx(
            0.5 / gamma**2, rel=1e-3)
        assert phi_second(tp, SIGMA2, 1.0, gamma) > 0


class TestSolveGammas:
    def test_gaussian_fixed_point_is_golden_ratio(self):
        g = gaussian_prior(1.0)
        profile = solve_gammas(g, 1.0, 1.0)
        expect = (np.sqrt(5.0) - 1.0) / 2.0  # delta/(sigma2+v*), v*=(sqrt5-1)/2
        assert profile.gamma_stat == pytest.approx(expect, abs=1e-6)
        assert profile.gamma_alg == pytest.approx(expect, abs=1e-6)
        assert profile.regime is Regime.EASY

    def test_gamma_alg_bounds_and_stationarity(self, tp):
        profile = solve_gammas(tp, SIGMA2, 1.0)
        gamma1 = 1.0 / (SIGMA2 + tp.second_moment)
        assert profile.gamma_alg >= gamma1
        assert profile.gamma_alg <= profile.gamma_stat + 1e-12
        # mmse(gamma_stat) = delta/gamma_stat - sigma2
        lhs = mmse(tp, profile.gamma_stat)
        rhs = 1.0 / profile.gamma_stat - SIGMA2
        assert abs(lhs - rhs) < 1e-6

    def test_easy_regime_at_low_delta(self, tp):
        profile = solve_gammas(tp, SIGMA2, 0.5)
        assert profile.regime is Regime.EASY

    def test_imms_consistency_on_grid(self, tp):
        profile = solve_gammas(tp, SIGMA2, 1.0)
        direct = np.array([0.5 * (SIGMA2 - 1.0 / g + mmse(tp, g))
                           for g in profile.gamma_grid])
        assert np.max(np.abs(profile.phi_prime - direct)) < 1e-8
        # the grid arrays equal the pointwise phi and phi''
        for g, f, f2 in zip(profile.gamma_grid, profile.phi, profile.phi_second):
            assert f == phi(tp, SIGMA2, 1.0, g)
            assert f2 == phi_second(tp, SIGMA2, 1.0, g)

    @pytest.mark.parametrize("descriptor, deltas", FIVE_PRIORS, ids=FIVE_PRIOR_IDS)
    def test_grid_equals_the_pointwise_calls(self, descriptor, deltas):
        # the grid is tilted in chunks of whole gammas, and a pointwise call
        # tilts one gamma's rows: equal because the kernels pad every block to
        # a multiple of 8 rows, so a row's bits never depend on its batch
        prior = parse_prior(descriptor)
        for delta in deltas:
            profile = solve_gammas(prior, SIGMA2, delta)
            for g, f, f1, f2 in zip(profile.gamma_grid, profile.phi,
                                    profile.phi_prime, profile.phi_second):
                assert f == phi(prior, SIGMA2, delta, g)
                assert f1 == phi_prime(prior, SIGMA2, delta, g)
                assert f2 == phi_second(prior, SIGMA2, delta, g)

    def test_grid_is_tilted_in_a_few_bounded_calls(self, tp, monkeypatch):
        # whole gammas share a kernel call (13 calls here, against about 410
        # when each grid point had its own), but a call's rows stay near 16
        # row blocks: the whole Gaussian grid in one call peaks near 42 MB
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return tilted_stats(*args, **kwargs)

        tilted_stats = kernels.tilted_stats
        monkeypatch.setattr(kernels, "tilted_stats", counting)
        solve_gammas(tp, SIGMA2, 1.0)
        assert len(calls) <= 60
        monkeypatch.undo()
        gauss = gaussian_prior(1.0)
        solve_gammas(gauss, SIGMA2, 1.0)  # builds the quadrature rows
        tracemalloc.start()
        try:
            solve_gammas(gauss, SIGMA2, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_schedule_is_kept_per_prior(self):
        # equal locations, different weights: each prior has its own schedule
        a, b = point_mass_prior([(-1, 0.25), (0, 0.5), (1, 0.25)]), three_point()
        seq_a = gamma_sequence(a, SIGMA2, 1.0, 5)
        seq_b = gamma_sequence(b, SIGMA2, 1.0, 5)
        assert not np.array_equal(seq_a, seq_b)
        assert np.array_equal(seq_a, gamma_sequence(a, SIGMA2, 1.0, 5))
        assert np.array_equal(seq_b, gamma_sequence(three_point(), SIGMA2, 1.0, 5))

    def test_recursion_converges_to_gamma_alg(self, tp):
        profile = solve_gammas(tp, SIGMA2, 1.0)
        seq = gamma_sequence(tp, SIGMA2, 1.0, 200)
        assert np.all(np.diff(seq) > -1e-10)
        assert abs(seq[-1] - profile.gamma_alg) < 1e-8


class TestBrent:
    @pytest.mark.parametrize("descriptor, deltas", FIVE_PRIORS, ids=FIVE_PRIOR_IDS)
    def test_equals_scipy_on_the_brackets_of_solve_gammas(self, descriptor, deltas,
                                                          monkeypatch):
        calls = []

        def recording(*args):
            calls.append(args)
            return _brent(*args)

        monkeypatch.setattr(potential, "_brent", recording)
        prior = parse_prior(descriptor)
        for delta in deltas:
            solve_gammas(prior, SIGMA2, delta)
        assert len(calls) >= len(deltas)
        for f, a, b, xtol, rtol in calls:
            assert _brent(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x - 1.0, 1.0, 2.0),  # a root at the left end
        (lambda x: x - 1.0, 0.0, 1.0),  # a root at the right end
        (lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0),  # bisection only
        (lambda x: 2.0 * x - 1.0, 3.0, 0.0),  # one interpolation step
        (lambda x: math.exp(x) - 2.0, 0.0, 2.0),  # extrapolation and delta steps
        # extrapolation, rejected steps, bisection and delta steps
        (lambda x: x**9 - 0.5, 0.01, 1.0),
        (lambda x: math.atan(1e6 * (x - 1 / 3)), 0.0, 1.0),
    ], ids=["left-end", "right-end", "bisect", "interpolate", "extrapolate",
            "rejected-steps", "steep"])
    def test_equals_scipy_on_every_branch(self, f, a, b):
        for xtol, rtol in ((1e-14, 1e-14), (1e-6, 1e-10)):
            assert _brent(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)

    def test_no_sign_change_is_no_bracket(self):
        with pytest.raises(NoBracketError):
            _brent(lambda x: x, 1.0, 2.0, 1e-14, 1e-14)

    def test_nan_phi_prime_is_a_domain_error(self, tp, monkeypatch):
        monkeypatch.setattr(potential, "phi_prime", lambda *args: float("nan"))
        with pytest.raises(DomainError, match="nan"):
            solve_gammas(tp, SIGMA2, 1.0)

    def test_spent_budget_is_no_convergence(self, tp, monkeypatch):
        # a triple root (phi' cubed) defeats the superlinear steps: 100
        # iterations do not reach the tolerance
        phi_prime_ = potential.phi_prime
        monkeypatch.setattr(potential, "phi_prime", lambda *args: phi_prime_(*args) ** 3)
        with pytest.raises(NoConvergenceError, match="in 100 iterations"):
            solve_gammas(tp, SIGMA2, 1.0)


class TestSECovariances:
    def test_k1_identities(self, tp):
        se = se_covariance_blocks(tp, SIGMA2, 1.0, 1)
        gamma1 = 1.0 / (SIGMA2 + tp.second_moment)
        assert se.K_g[0, 0] == pytest.approx(1.0 / gamma1)
        assert se.K_h[0, 0] == pytest.approx(tp.second_moment)

    def test_diagonal_is_lagged_mmse(self, tp):
        se = se_covariance_blocks(tp, SIGMA2, 1.0, 6)
        seq = gamma_sequence(tp, SIGMA2, 1.0, 6)
        for k in range(1, 6):
            assert se.K_h[k, k] == pytest.approx(mmse(tp, seq[k - 1]), rel=1e-10)

    def test_positive_definite_k10(self, tp):
        se = se_covariance_blocks(tp, SIGMA2, 1.0, 10)
        np.linalg.cholesky(se.K_g)
        np.linalg.cholesky(se.K_h)

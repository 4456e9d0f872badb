import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from taplab import amp, kernels, potential
from taplab.exceptions import DomainError, NoBracketError, NoConvergenceError
from taplab.potential import (
    Regime,
    phi,
    phi_prime,
    phi_second,
    solve_gammas,
)
from taplab.priors import gaussian_prior, parse_prior, point_mass_prior, three_point
from taplab.scalar import channel_terms, mmse

SIGMA2 = 0.09  # sigma = 0.3
# priors and deltas whose grids are checked bit for bit against the pointwise
# calls, and whose roots against scipy's brentq to its tolerance
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


def mutual_information(prior, gamma):
    """i(gamma) of the scalar channel, the first of its channel terms."""
    return channel_terms(prior, gamma)[0]


class TestMutualInformation:
    def test_vanishes_at_zero_snr(self, tp):
        assert abs(mutual_information(tp, 0.0)) < 1e-15
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

    @pytest.mark.parametrize("gamma", [1e-200, 1.49e-154, 1.35e154, 1e200])
    def test_rejects_a_gamma_whose_square_is_not_a_normal_float(self, tp, gamma):
        # phi'' divides by gamma^2, which overflows or vanishes outside the range
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            for fn in (phi, phi_prime, phi_second):
                with pytest.raises(DomainError, match=re.escape(f"gamma = {gamma!r}")):
                    fn(tp, SIGMA2, 1.0, gamma)
        for gamma in (potential._GAMMA_MIN, potential._GAMMA_MAX):  # the ends are in
            assert math.isfinite(phi_second(tp, SIGMA2, 1.0, gamma))

    @pytest.mark.parametrize("sigma2, delta", [(1e-200, 1.0), (1e200, 1.0), (SIGMA2, 1e-300)])
    def test_solve_gammas_rejects_a_grid_beyond_the_normal_floats(self, tp, sigma2, delta):
        # the grid spans 1e-4 to 10 times delta/sigma2
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            with pytest.raises(DomainError,
                               match=re.escape(f"(sigma2 = {sigma2!r}, delta = {delta!r})")):
                solve_gammas(tp, sigma2, delta)

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

    @pytest.mark.parametrize("delta, regime", [(1.0, Regime.EASY), (0.6, Regime.HARD)])
    def test_low_noise_regime_is_not_degenerate(self, tp, delta, regime):
        # phi''(gamma_stat) is about sigma^4/(2 delta), 5e-9 and 8.3e-9 here,
        # which an absolute curvature bound of 1e-8 called degenerate; relative
        # to the data term delta/(2 gamma^2) it is 1.000 at both deltas
        profile = solve_gammas(tp, 1e-4, delta)
        curv = phi_second(tp, 1e-4, delta, profile.gamma_stat)
        assert curv / (0.5 * delta / profile.gamma_stat**2) == pytest.approx(1.0, abs=1e-3)
        assert profile.regime is regime

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
        seq_a = amp._se_schedule(a, SIGMA2, 1.0, 5)[0]
        seq_b = amp._se_schedule(b, SIGMA2, 1.0, 5)[0]
        assert not np.array_equal(seq_a, seq_b)
        assert amp._se_schedule(a, SIGMA2, 1.0, 5)[0] is seq_a
        assert np.array_equal(seq_b, amp._se_schedule(three_point(), SIGMA2, 1.0, 5)[0])

    def test_schedule_that_overflows_is_a_domain_error(self, tp):
        # at sigma2 = 1e-320 mmse underflows to 0 and delta/sigma2 overflows
        # at gamma_9; the schedule stops there, naming sigma2, and numpy
        # warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(amp._se_schedule(tp, 1e-320, 1.0, 8)[0]))
            with pytest.raises(DomainError,
                               match=r"gamma_9 = inf is not finite \(sigma2 = 1e-320, "):
                amp._se_schedule(tp, 1e-320, 1.0, 9)

    def test_recursion_converges_to_gamma_alg(self, tp):
        profile = solve_gammas(tp, SIGMA2, 1.0)
        seq = amp._se_schedule(tp, SIGMA2, 1.0, 200)[0]
        assert np.all(np.diff(seq) > -1e-10)
        assert abs(seq[-1] - profile.gamma_alg) < 1e-8


def _flips(profile):
    """Indices i of the grid steps [gamma_i, gamma_{i+1}] where phi' changes sign."""
    sign = np.sign(profile.phi_prime)
    return np.flatnonzero(sign[:-1] * sign[1:] < 0)


@pytest.fixture()
def phi_prime_gammas(monkeypatch):
    """The gammas at which solve_gammas calls phi_prime, in call order."""
    gammas = []

    def recording(prior, sigma2, delta, gamma):
        gammas.append(gamma)
        return phi_prime_(prior, sigma2, delta, gamma)

    phi_prime_ = potential.phi_prime
    monkeypatch.setattr(potential, "phi_prime", recording)
    return gammas


class TestIllinois:
    @pytest.mark.parametrize("descriptor, deltas", FIVE_PRIORS, ids=FIVE_PRIOR_IDS)
    def test_roots_are_brentq_roots_to_tolerance(self, descriptor, deltas, monkeypatch):
        calls = []

        def recording(*args):
            calls.append((args, illinois(*args)))
            return calls[-1][1]

        illinois = potential._illinois
        monkeypatch.setattr(potential, "_illinois", recording)
        prior = parse_prior(descriptor)
        for delta in deltas:
            profile = solve_gammas(prior, SIGMA2, delta)
            brackets = [(profile.gamma_grid[i], profile.phi_prime[i],
                         profile.gamma_grid[i + 1], profile.phi_prime[i + 1])
                        for i in _flips(profile)]
            # each bracket is started from the grid's own phi' at its ends
            assert [args[1:] for args, _ in calls] == brackets
            for (f, a, _, b, _), root in calls:
                ref = brentq(f, a, b, xtol=1e-14, rtol=1e-14)
                assert abs(root - ref) <= 1e-14 + 1e-14 * abs(ref)
                assert abs(f(root)) < 1e-15
            calls.clear()

    @pytest.mark.parametrize("descriptor, deltas", FIVE_PRIORS, ids=FIVE_PRIOR_IDS)
    def test_no_phi_prime_call_at_a_bracket_end(self, descriptor, deltas, phi_prime_gammas):
        prior = parse_prior(descriptor)
        for delta in deltas:
            profile = solve_gammas(prior, SIGMA2, delta)
            flips = _flips(profile)
            ends = set(profile.gamma_grid[flips]) | set(profile.gamma_grid[flips + 1])
            gammas = set(phi_prime_gammas)
            assert len(flips) >= 1 and len(gammas) == len(phi_prime_gammas) >= 1
            assert ends.isdisjoint(gammas)
            phi_prime_gammas.clear()

    def test_a_secant_step_shorter_than_the_tolerance_is_lengthened(self, tp, phi_prime_gammas):
        # at sigma2 = 0.01 and delta = 1 the secant steps reach |phi'| near
        # 1e-20, and the next ones fall short of an ulp of gamma: taken as
        # they are, they evaluate one gamma again and again (12 calls here)
        assert len(_flips(solve_gammas(tp, 0.01, 1.0))) == 1
        assert len(set(phi_prime_gammas)) == len(phi_prime_gammas) <= 6

    def test_a_bracket_within_the_tolerance_takes_no_call(self, tp, phi_prime_gammas):
        # at sigma2 = 1e60 the grid steps are near 3e-62 wide, far inside the
        # absolute xtol of 1e-14: the better grid end is the root as it stands
        profile = solve_gammas(tp, 1e60, 1.0)
        assert len(_flips(profile)) == 1 and phi_prime_gammas == []
        assert profile.gamma_stat in profile.gamma_grid

    @pytest.mark.parametrize("f, a, b, calls", [
        (lambda x: 2.0 * x - 1.0, 3.0, 0.0, 1),  # one secant step
        (lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0, 50),  # a jump: halvings only
        # convex: plain regula falsi keeps one end and takes 50 and 28 calls
        (lambda x: math.exp(x) - 2.0, 0.0, 2.0, 12),
        (lambda x: x**9 - 0.5, 0.01, 1.0, 13),
        (lambda x: math.atan(1e6 * (x - 1 / 3)), 0.0, 1.0, 25),  # steep at the root
    ], ids=["linear", "jump", "exp", "ninth-power", "steep"])
    def test_lands_within_tolerance_of_brentq(self, f, a, b, calls):
        xs = []

        def counting(x):
            xs.append(x)
            return f(x)

        root = potential._illinois(counting, a, f(a), b, f(b))
        ref = brentq(f, a, b, xtol=1e-14, rtol=1e-14)
        assert abs(root - ref) <= 1e-14 + 1e-14 * abs(ref)
        assert len(xs) <= calls

    def test_no_sign_change_is_no_bracket(self, tp, monkeypatch):
        # a grid that stops short of every root brackets no minimum
        monkeypatch.setattr(potential, "GRID_HI", 1e-3)
        with pytest.raises(NoBracketError, match="no local minimum"):
            solve_gammas(tp, SIGMA2, 1.0)

    def test_nan_phi_prime_is_a_domain_error(self, tp, monkeypatch):
        monkeypatch.setattr(potential, "phi_prime", lambda *args: float("nan"))
        with pytest.raises(DomainError, match="nan"):
            solve_gammas(tp, SIGMA2, 1.0)

    def test_spent_budget_is_no_convergence(self, tp, monkeypatch):
        # at a root of order five (phi' to the fifth power) the regula falsi
        # converges only linearly: 100 steps do not reach the tolerance
        phi_prime_ = potential.phi_prime
        monkeypatch.setattr(potential, "phi_prime", lambda *args: phi_prime_(*args) ** 5)
        with pytest.raises(NoConvergenceError, match="in 100 iterations"):
            solve_gammas(tp, SIGMA2, 1.0)

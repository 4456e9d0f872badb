"""The scalar replica-symmetric potential and its fixed points.

phi(gamma) = sigma^2*gamma/2 - (delta/2)*log(gamma/(2*pi*delta)) + i(gamma),
with i(gamma) the mutual information of the scalar channel
lam = gamma*beta0 + sqrt(gamma)*z.  Its stationary points are the roots of
mmse(gamma) = delta/gamma - sigma^2; the global minimizer gamma_stat sets the
asymptotic evidence and Bayes risk, and the smallest local minimizer gamma_alg
is the limit of the AMP signal-to-noise recursion.  That recursion is
deterministic in (prior, sigma^2, delta): its schedule is computed once per
(sigma^2, delta, length) and kept on the prior, and AMP reads its Onsager
coefficients and denoiser strengths from it.  The state-evolution
covariances of the recursion are the reference of the AMP diagnostics.
``solve_gammas`` scans phi on a grid of gamma whose channel terms come from
a few batched tilts of whole gammas (``scalar._channel_terms_grid``); the
pointwise ``phi``, ``phi_prime`` and ``phi_second`` are one-gamma calls of it.
Its roots are refined by ``_brent``, a port of scipy's ``brentq``, so the
module loads no scipy at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NoBracketError, NoConvergenceError
from .priors import Prior
from .scalar import _channel_terms_grid, channel_terms, mmse

# solve_gammas scans phi' on GRID_POINTS log-spaced values of gamma between
# GRID_LO and GRID_HI times delta/sigma^2
GRID_POINTS = 400
GRID_LO = 1e-4
GRID_HI = 10.0
# gamma_alg within this relative distance of gamma_stat counts as the same root
EASY_REL_TOL = 1e-6
# phi'' at gamma_stat at or below this is degenerate, and so are two minima
# whose phi values are closer than DEGENERATE_TIE_TOL
DEGENERATE_CURV_TOL = 1e-8
DEGENERATE_TIE_TOL = 1e-9


class Regime(enum.Enum):
    EASY = "easy"
    HARD = "hard"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class PotentialProfile:
    gamma_grid: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    phi_second: np.ndarray
    gamma_stat: float
    gamma_alg: float
    regime: Regime


def mutual_information(prior: Prior, gamma: float) -> float:
    """i(gamma) = E[gamma*beta0^2/2 - log E_beta exp(-gamma*beta^2/2 + lam*beta)]
    with lam = gamma*beta0 + sqrt(gamma)*z."""
    if gamma == 0.0:
        return 0.0
    return channel_terms(prior, gamma)[0]


def _check_noise_and_ratio(sigma2: float, delta: float) -> None:
    """Raise a DomainError naming sigma2 or delta unless both are positive
    and finite."""
    for name, value in (("sigma2", sigma2), ("delta", delta)):
        if not 0 < value < math.inf:  # also rejects nan
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def phi(prior: Prior, sigma2: float, delta: float, gamma: float) -> float:
    _check_noise_and_ratio(sigma2, delta)
    if gamma <= 0:
        raise DomainError("phi requires gamma > 0")
    info = mutual_information(prior, gamma)  # first: it rejects a non-finite gamma
    return (0.5 * sigma2 * gamma
            - 0.5 * delta * np.log(gamma / (2.0 * np.pi * delta))
            + info)


def phi_prime(prior: Prior, sigma2: float, delta: float, gamma: float) -> float:
    """First derivative via the I-MMSE relation."""
    _check_noise_and_ratio(sigma2, delta)
    if gamma <= 0:
        raise DomainError("phi_prime requires gamma > 0")
    return 0.5 * (sigma2 - delta / gamma + mmse(prior, gamma))


def phi_second(prior: Prior, sigma2: float, delta: float, gamma: float) -> float:
    """Second derivative: (delta/gamma^2 - E[Var(beta0 | channel)^2]) / 2."""
    _check_noise_and_ratio(sigma2, delta)
    if gamma <= 0:
        raise DomainError("phi_second requires gamma > 0")
    return 0.5 * (delta / gamma**2 - channel_terms(prior, gamma)[2])


def _se_schedule(prior: Prior, sigma2: float, delta: float, k: int):
    """Read-only (gamma_1..gamma_k, mmse(gamma_1)..mmse(gamma_{k-1})) of the
    state-evolution recursion, computed on the first call for (sigma2, delta,
    k) and kept on the prior: it depends on neither the data nor the
    replicate."""
    key = (sigma2, delta, k)
    schedule = prior._se_schedules.get(key)
    if schedule is None:
        gammas, mmses = np.empty(k), np.empty(k - 1)
        g = delta / (sigma2 + prior.second_moment)
        gammas[0] = g
        for i in range(1, k):
            mmses[i - 1] = mmse(prior, g)
            g = delta / (sigma2 + mmses[i - 1])
            gammas[i] = g
        gammas.setflags(write=False)
        mmses.setflags(write=False)
        schedule = prior._se_schedules[key] = (gammas, mmses)
    return schedule


def gamma_sequence(prior: Prior, sigma2: float, delta: float, k: int) -> np.ndarray:
    """State-evolution recursion gamma_{k+1} = delta/(sigma2 + mmse(gamma_k)),
    started from gamma_1 = delta/(sigma2 + E[beta0^2])."""
    return _se_schedule(prior, sigma2, delta, k)[0].copy()


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent, Algorithms for Minimization Without Derivatives, 1973,
    ch. 4).  A step for step port of scipy's C ``brentq``: the same inverse
    interpolation, extrapolation and bisection branches, the tolerance
    2*delta = xtol + rtol*|x| and the budget of 100 iterations, so its roots
    are scipy's bit for bit.  A non-finite f is a DomainError and a spent
    budget a NoConvergenceError."""
    maxiter = 100

    def call(x):
        fx = float(f(x))
        if not math.isfinite(fx):
            raise DomainError(f"root finder got f({x!r}) = {fx!r}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoBracketError(f"f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0 and (fpre < 0) != (fcur < 0):  # fpre is never 0 here
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NoConvergenceError(f"Brent's method found no root in [{a!r}, {b!r}] "
                             f"in {maxiter} iterations")


def solve_gammas(prior: Prior, sigma2: float, delta: float) -> PotentialProfile:
    """Locate all stationary points of phi on the grid and classify the regime.

    Stationary points are found as sign changes of phi' (Brent-refined);
    gamma_stat is the phi-minimizing local minimum, gamma_alg the smallest one.
    """
    _check_noise_and_ratio(sigma2, delta)
    scale = delta / sigma2
    grid = np.geomspace(GRID_LO * scale, GRID_HI * scale, GRID_POINTS)
    # one channel evaluation of the whole grid, tilted in chunks of whole
    # gammas, serves phi, phi' and phi''
    info, mse, e_var2 = _channel_terms_grid(prior, grid)
    phi_g = (0.5 * sigma2 * grid
             - 0.5 * delta * np.log(grid / (2.0 * np.pi * delta)) + info)
    dphi_g = 0.5 * (sigma2 - delta / grid + mse)
    ddphi_g = 0.5 * (delta / grid**2 - e_var2)

    sign = np.sign(dphi_g)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    roots = []
    for i in flips:
        r = _brent(lambda g: phi_prime(prior, sigma2, delta, g),
                   float(grid[i]), float(grid[i + 1]), 1e-14, 1e-14)
        roots.append((r, dphi_g[i] < 0))  # upward crossing => local minimum
    # grid points that are exact roots
    for i in np.flatnonzero(sign == 0):
        roots.append((grid[i], True))
    minima = sorted(r for r, is_min in roots if is_min)
    if not minima:
        raise NoBracketError("no local minimum of phi bracketed on the grid")

    vals = [phi(prior, sigma2, delta, g) for g in minima]
    order = np.argsort(vals)
    gamma_stat = minima[order[0]]
    gamma_alg = minima[0]

    regime = Regime.EASY if abs(gamma_alg - gamma_stat) < EASY_REL_TOL * gamma_stat \
        else Regime.HARD
    curv = phi_second(prior, sigma2, delta, gamma_stat)
    if curv <= DEGENERATE_CURV_TOL:
        regime = Regime.DEGENERATE
    if len(minima) >= 2:
        v = sorted(vals)
        if v[1] - v[0] < DEGENERATE_TIE_TOL:
            # near-tied minima: Assumption-2 style genericity fails; report the
            # smaller gamma and flag rather than guess
            gamma_stat = min(minima[order[0]], minima[order[1]])
            regime = Regime.DEGENERATE

    return PotentialProfile(
        gamma_grid=grid, phi=phi_g, phi_prime=dphi_g, phi_second=ddphi_g,
        gamma_stat=float(gamma_stat), gamma_alg=float(gamma_alg), regime=regime,
    )


@dataclass(frozen=True)
class SECovariances:
    K_g: np.ndarray
    K_h: np.ndarray


def se_covariance_blocks(prior: Prior, sigma2: float, delta: float,
                         k: int) -> SECovariances:
    """Upper-left k x k blocks of the state-evolution covariances.

    K_g[i][j] = 1/gamma_{max(i,j)};  K_h[i][j] = delta/gamma_{max(i,j)} - sigma^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seq = gamma_sequence(prior, sigma2, delta, k)
    idx = np.maximum.outer(np.arange(k), np.arange(k))
    K_g = 1.0 / seq[idx]
    K_h = delta / seq[idx] - sigma2
    return SECovariances(K_g=K_g, K_h=K_h)

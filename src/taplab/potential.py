"""The scalar replica-symmetric potential and its fixed points.

phi(gamma) = sigma^2*gamma/2 - (delta/2)*log(gamma/(2*pi*delta)) + i(gamma),
with i(gamma) the mutual information of the scalar channel
lam = gamma*beta0 + sqrt(gamma)*z.  Its stationary points are the roots of
mmse(gamma) = delta/gamma - sigma^2; the global minimizer gamma_stat sets the
asymptotic evidence and Bayes risk, and the smallest local minimizer gamma_alg
is the limit of the AMP signal-to-noise recursion, whose schedule ``amp``
keeps.  ``_phi_terms`` states phi, phi' and phi'' once, on an array of gamma
whose channel terms come from a few batched tilts of whole gammas
(``scalar._channel_terms_grid``): ``solve_gammas`` scans it on a grid, and the
pointwise ``phi``, ``phi_prime`` and ``phi_second`` are one-gamma calls of it.
Each grid step where phi' changes sign is refined by the Illinois regula
falsi (``_illinois``), started from the grid's own phi' at both ends, so the
module loads no scipy at all.  Every gamma, of the grid or passed, must be a
float whose square is a normal float: phi'' divides by gamma^2.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NoBracketError, NoConvergenceError
from .priors import Prior
from .scalar import _channel_terms_grid

# solve_gammas scans phi' on GRID_POINTS log-spaced values of gamma between
# GRID_LO and GRID_HI times delta/sigma^2
GRID_POINTS = 400
GRID_LO = 1e-4
GRID_HI = 10.0
# gamma_alg within this relative distance of gamma_stat counts as the same root
EASY_REL_TOL = 1e-6
# phi'' at gamma_stat at or below DEGENERATE_CURV_TOL times the data term of
# phi'', delta/(2 gamma^2), is degenerate (relative, since phi'' at a clean
# minimum scales as that term, of order sigma^4/delta), and so are two minima
# whose phi values are closer than DEGENERATE_TIE_TOL
DEGENERATE_CURV_TOL = 1e-8
DEGENERATE_TIE_TOL = 1e-9
# gamma and gamma^2 are normal floats exactly on [_GAMMA_MIN, _GAMMA_MAX]
_GAMMA_MIN = math.sqrt(sys.float_info.min)
_GAMMA_MAX = math.sqrt(sys.float_info.max)


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


def _check_args(sigma2: float, delta: float, *gammas: float) -> None:
    """Raise a DomainError naming sigma2 or delta unless both are positive
    and finite, or naming a gamma unless it and its square are normal
    floats."""
    for name, value in (("sigma2", sigma2), ("delta", delta)):
        if not 0 < value < math.inf:  # also rejects nan
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    for gamma in gammas:
        if not _GAMMA_MIN <= gamma <= _GAMMA_MAX:  # also rejects nan
            raise DomainError(f"gamma = {gamma!r} (sigma2 = {sigma2!r}, delta = {delta!r}) "
                              f"leaves [{_GAMMA_MIN:.4g}, {_GAMMA_MAX:.4g}], where gamma^2 "
                              f"is a normal float")


def _phi_terms(prior: Prior, sigma2: float, delta: float, gammas: np.ndarray):
    """(phi, phi', phi'') arrays at the gammas, from one channel evaluation
    of their rows (``scalar._channel_terms_grid``)."""
    info, mse, e_var2 = _channel_terms_grid(prior, gammas)
    return (0.5 * sigma2 * gammas - 0.5 * delta * np.log(gammas / (2.0 * np.pi * delta)) + info,
            0.5 * (sigma2 - delta / gammas + mse),
            0.5 * (delta / gammas**2 - e_var2))


def phi(prior: Prior, sigma2: float, delta: float, gamma: float) -> float:
    """The potential at one gamma."""
    _check_args(sigma2, delta, gamma)
    return float(_phi_terms(prior, sigma2, delta, np.array([gamma], dtype=float))[0][0])


def phi_prime(prior: Prior, sigma2: float, delta: float, gamma: float) -> float:
    """First derivative via the I-MMSE relation."""
    _check_args(sigma2, delta, gamma)
    return float(_phi_terms(prior, sigma2, delta, np.array([gamma], dtype=float))[1][0])


def phi_second(prior: Prior, sigma2: float, delta: float, gamma: float) -> float:
    """Second derivative: (delta/gamma^2 - E[Var(beta0 | channel)^2]) / 2."""
    _check_args(sigma2, delta, gamma)
    return float(_phi_terms(prior, sigma2, delta, np.array([gamma], dtype=float))[2][0])


def _illinois(f, a: float, fa: float, b: float, fb: float,
              xtol: float = 1e-14, rtol: float = 1e-14) -> float:
    """Root of f in [a, b] from f(a) and f(b) of opposite signs, by the
    Illinois modified regula falsi (Dowell & Jarratt, BIT 11, 1971).  Each
    step evaluates f at the secant root c of the bracket and replaces the
    end whose f has the sign of f(c); an end kept twice in a row has its f
    halved, so that both ends close in.  A secant step shorter than half the
    tolerance xtol + rtol*|x| becomes a step of that length, as in Brent's
    method, so a converged end is confirmed from the other side in one
    call.  Once the bracket is narrower than the tolerance, the end with the
    smaller |f| is returned.  The one division, by f(b) - f(a), is never by
    zero, since the two differ in sign.  A non-finite f is a DomainError and
    a budget of 100 steps spent a NoConvergenceError."""
    kept = False  # whether the last step kept a
    for _ in range(100):
        tol = xtol + rtol * abs(b)
        if abs(b - a) < tol or fb == 0:
            return b if abs(fb) <= abs(fa) else a
        c = b - fb * (b - a) / (fb - fa)
        if abs(c - b) < tol / 2:  # too short a step: test a's side of b instead
            c = b + math.copysign(tol / 2, a - b)
        fc = float(f(c))
        if not math.isfinite(fc):
            raise DomainError(f"root finder got f({c!r}) = {fc!r}")
        if (fc < 0) == (fb < 0):
            if kept:  # a is kept a second time running
                fa /= 2
            kept = True
        else:
            a, fa, kept = b, fb, False
        b, fb = c, fc
    raise NoConvergenceError(f"regula falsi found no root in 100 iterations: {sorted((a, b))}")


def _grid(sigma2: float, delta: float) -> np.ndarray:
    """The GRID_POINTS log-spaced gammas from GRID_LO to GRID_HI times
    delta/sigma2 that ``solve_gammas`` scans, after ``_check_args`` of sigma2
    and delta and of the grid's ends."""
    _check_args(sigma2, delta)
    scale = delta / sigma2
    _check_args(sigma2, delta, GRID_LO * scale, GRID_HI * scale)
    return np.geomspace(GRID_LO * scale, GRID_HI * scale, GRID_POINTS)


def solve_gammas(prior: Prior, sigma2: float, delta: float) -> PotentialProfile:
    """Locate all stationary points of phi on the grid and classify the regime.

    Stationary points are found as sign changes of phi' (refined by
    ``_illinois``); gamma_stat is the phi-minimizing local minimum, gamma_alg
    the smallest one.  A sigma2 and delta that put the grid's ends (GRID_LO
    and GRID_HI times delta/sigma2) where a square is not a normal float are
    a DomainError.
    """
    grid = _grid(sigma2, delta)
    phi_g, dphi_g, ddphi_g = _phi_terms(prior, sigma2, delta, grid)

    sign = np.sign(dphi_g)
    roots = []
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        # started from the grid's phi' at both ends, which equal phi_prime's
        r = _illinois(lambda g: phi_prime(prior, sigma2, delta, g), float(grid[i]),
                      float(dphi_g[i]), float(grid[i + 1]), float(dphi_g[i + 1]))
        roots.append((r, dphi_g[i] < 0))  # upward crossing => local minimum
    roots += [(grid[i], True) for i in np.flatnonzero(sign == 0)]  # exact roots on the grid
    minima = sorted(r for r, is_min in roots if is_min)
    if not minima:
        raise NoBracketError("no local minimum of phi bracketed on the grid")

    vals = [phi(prior, sigma2, delta, g) for g in minima]
    order = np.argsort(vals)
    gamma_stat = minima[order[0]]
    gamma_alg = minima[0]

    regime = Regime.EASY if abs(gamma_alg - gamma_stat) < EASY_REL_TOL * gamma_stat \
        else Regime.HARD
    curv_scale = 0.5 * delta / gamma_stat**2
    if phi_second(prior, sigma2, delta, gamma_stat) <= DEGENERATE_CURV_TOL * curv_scale:
        regime = Regime.DEGENERATE
    if len(minima) >= 2 and vals[order[1]] - vals[order[0]] < DEGENERATE_TIE_TOL:
        # near-tied minima: Assumption-2 style genericity fails; report the
        # smaller gamma and flag rather than guess
        gamma_stat = min(minima[order[0]], minima[order[1]])
        regime = Regime.DEGENERATE

    return PotentialProfile(
        gamma_grid=grid, phi=phi_g, phi_prime=dphi_g, phi_second=ddphi_g,
        gamma_stat=float(gamma_stat), gamma_alg=float(gamma_alg), regime=regime,
    )

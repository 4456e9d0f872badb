"""The scalar replica-symmetric potential and its fixed points.

phi(gamma) = sigma^2*gamma/2 - (delta/2)*log(gamma/(2*pi*delta)) + i(gamma),
with i(gamma) the mutual information of the scalar channel
lam = gamma*beta0 + sqrt(gamma)*z.  Its stationary points are the roots of
mmse(gamma) = delta/gamma - sigma^2; the global minimizer gamma_stat sets the
asymptotic evidence and Bayes risk, and the smallest local minimizer gamma_alg
is the limit of the AMP signal-to-noise recursion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .exceptions import DomainError, NoBracketError
from .priors import Prior
from .scalar import QuadratureSpec, channel_terms, mmse


class Regime(enum.Enum):
    EASY = "easy"
    HARD = "hard"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced gamma grid; bounds default relative to delta/sigma^2."""

    n_points: int = 400
    lo_factor: float = 1e-4
    hi_factor: float = 10.0

    def build(self, sigma2: float, delta: float) -> np.ndarray:
        scale = delta / sigma2
        return np.geomspace(self.lo_factor * scale, self.hi_factor * scale,
                            self.n_points)


@dataclass(frozen=True)
class PotentialProfile:
    gamma_grid: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    phi_second: np.ndarray
    gamma_stat: float
    gamma_alg: float
    regime: Regime
    prior: Prior
    sigma2: float
    delta: float
    quad: QuadratureSpec


def mutual_information(prior: Prior, gamma: float,
                       quad: QuadratureSpec = QuadratureSpec()) -> float:
    """i(gamma) = E[gamma*beta0^2/2 - log E_beta exp(-gamma*beta^2/2 + lam*beta)]
    with lam = gamma*beta0 + sqrt(gamma)*z."""
    if gamma < 0:
        raise DomainError("gamma must be nonnegative")
    if gamma == 0.0:
        return 0.0
    return channel_terms(prior, gamma, quad)[0]


def phi(prior: Prior, sigma2: float, delta: float, gamma: float,
        quad: QuadratureSpec = QuadratureSpec()) -> float:
    if gamma <= 0:
        raise DomainError("phi requires gamma > 0")
    return (0.5 * sigma2 * gamma
            - 0.5 * delta * np.log(gamma / (2.0 * np.pi * delta))
            + mutual_information(prior, gamma, quad))


def phi_prime(prior: Prior, sigma2: float, delta: float, gamma: float,
              quad: QuadratureSpec = QuadratureSpec()) -> float:
    """First derivative via the I-MMSE relation."""
    if gamma <= 0:
        raise DomainError("phi_prime requires gamma > 0")
    return 0.5 * (sigma2 - delta / gamma + mmse(prior, gamma, quad))


def phi_second(prior: Prior, sigma2: float, delta: float, gamma: float,
               quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Second derivative: (delta/gamma^2 - E[Var(beta0 | channel)^2]) / 2."""
    if gamma <= 0:
        raise DomainError("phi_second requires gamma > 0")
    return 0.5 * (delta / gamma**2 - channel_terms(prior, gamma, quad)[2])


def gamma_sequence(prior: Prior, sigma2: float, delta: float, k: int,
                   quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """State-evolution recursion gamma_{k+1} = delta/(sigma2 + mmse(gamma_k)),
    started from gamma_1 = delta/(sigma2 + E[beta0^2])."""
    seq = np.empty(k)
    g = delta / (sigma2 + prior.second_moment)
    seq[0] = g
    for i in range(1, k):
        g = delta / (sigma2 + mmse(prior, g, quad))
        seq[i] = g
    return seq


def solve_gammas(prior: Prior, sigma2: float, delta: float,
                 quad: QuadratureSpec = QuadratureSpec(),
                 grid_spec: GridSpec = GridSpec(),
                 easy_rel_tol: float = 1e-6,
                 degenerate_curv_tol: float = 1e-8,
                 degenerate_tie_tol: float = 1e-9) -> PotentialProfile:
    """Locate all stationary points of phi on the grid and classify the regime.

    Stationary points are found as sign changes of phi' (Brent-refined);
    gamma_stat is the phi-minimizing local minimum, gamma_alg the smallest one.
    """
    grid = grid_spec.build(sigma2, delta)
    # one channel evaluation per grid point serves phi, phi' and phi''
    info, mse, e_var2 = np.array([channel_terms(prior, g, quad) for g in grid]).T
    phi_g = (0.5 * sigma2 * grid
             - 0.5 * delta * np.log(grid / (2.0 * np.pi * delta)) + info)
    dphi_g = 0.5 * (sigma2 - delta / grid + mse)
    ddphi_g = 0.5 * (delta / grid**2 - e_var2)

    sign = np.sign(dphi_g)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    roots = []
    for i in flips:
        r = brentq(lambda g: phi_prime(prior, sigma2, delta, g, quad),
                   grid[i], grid[i + 1], xtol=1e-14, rtol=1e-14)
        roots.append((r, dphi_g[i] < 0))  # upward crossing => local minimum
    # grid points that are exact roots
    for i in np.flatnonzero(sign == 0):
        roots.append((grid[i], True))
    minima = sorted(r for r, is_min in roots if is_min)
    if not minima:
        raise NoBracketError("no local minimum of phi bracketed on the grid")

    vals = [phi(prior, sigma2, delta, g, quad) for g in minima]
    order = np.argsort(vals)
    gamma_stat = minima[order[0]]
    gamma_alg = minima[0]

    regime = Regime.EASY if abs(gamma_alg - gamma_stat) < easy_rel_tol * gamma_stat \
        else Regime.HARD
    curv = phi_second(prior, sigma2, delta, gamma_stat, quad)
    if curv <= degenerate_curv_tol:
        regime = Regime.DEGENERATE
    if len(minima) >= 2:
        v = sorted(vals)
        if v[1] - v[0] < degenerate_tie_tol:
            # near-tied minima: Assumption-2 style genericity fails; report the
            # smaller gamma and flag rather than guess
            gamma_stat = min(minima[order[0]], minima[order[1]])
            regime = Regime.DEGENERATE

    return PotentialProfile(
        gamma_grid=grid, phi=phi_g, phi_prime=dphi_g, phi_second=ddphi_g,
        gamma_stat=float(gamma_stat), gamma_alg=float(gamma_alg), regime=regime,
        prior=prior, sigma2=sigma2, delta=delta, quad=quad,
    )


@dataclass(frozen=True)
class SECovariances:
    K_g: np.ndarray
    K_h: np.ndarray
    gamma_seq: np.ndarray


def se_covariance_blocks(prior: Prior, sigma2: float, delta: float, k: int,
                         quad: QuadratureSpec = QuadratureSpec()) -> SECovariances:
    """Upper-left k x k blocks of the state-evolution covariances.

    K_g[i][j] = 1/gamma_{max(i,j)};  K_h[i][j] = delta/gamma_{max(i,j)} - sigma^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seq = gamma_sequence(prior, sigma2, delta, k, quad)
    idx = np.maximum.outer(np.arange(k), np.arange(k))
    K_g = 1.0 / seq[idx]
    K_h = delta / seq[idx] - sigma2
    return SECovariances(K_g=K_g, K_h=K_h, gamma_seq=seq)


def se_covariances(profile: PotentialProfile, k: int) -> SECovariances:
    return se_covariance_blocks(profile.prior, profile.sigma2, profile.delta,
                                k, profile.quad)

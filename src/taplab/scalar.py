"""Scalar (per-coordinate) machinery of the two-parameter exponential family.

The tilted law at natural parameters (lam, gam) reweights the prior by
exp(-gam*beta^2/2 + lam*beta).  This module provides the moment map, its
inverse (dual solve), the negative entropy, the posterior-mean denoiser,
the scalar-channel quadrature, and membership tests for the moment space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .exceptions import DegenerateTiltError, NotInDomainError
from .priors import Prior

DUAL_CAP = 1e6
DUAL_RESIDUAL_TOL = 1e-10
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class DualPair:
    lam: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.gamma)):
            raise ValueError("dual parameters must be finite")


@dataclass(frozen=True)
class MomentPair:
    m: float
    s: float


@dataclass(frozen=True)
class TiltedSummary:
    m: float
    s: float
    log_partition: float
    cov_matrix: np.ndarray  # 2x2 covariance of (beta, beta^2)


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite rule for expectations over the channel noise z ~ N(0,1)."""

    n_nodes: int = 61

    @property
    def nodes_weights(self):
        return _hermegauss_cached(self.n_nodes)


@lru_cache(maxsize=32)
def _hermegauss_cached(n_nodes):
    z, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return z, w / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# tilted moments and entropy
# ---------------------------------------------------------------------------

def tilted_moments_vec(prior: Prior, lam, gam):
    """Batched (m, s, logZ) of the tilted laws; logZ relative to the prior."""
    m, s, logZ, _, _, _ = kernels.tilted_stats(prior.locations, prior.log_weights, lam, gam)
    if not np.all(np.isfinite(logZ)):
        raise DegenerateTiltError("tilted log-partition overflowed")
    return m, s, logZ


def tilted_cov_vec(prior: Prior, lam, gam):
    """Batched covariance entries (c11, c12, c22) of (beta, beta^2)."""
    _, _, _, c11, c12, c22 = kernels.tilted_stats(prior.locations, prior.log_weights, lam, gam)
    return c11, c12, c22


def tilted_moments(prior: Prior, dual: DualPair) -> TiltedSummary:
    m, s, logZ, c11, c12, c22 = kernels.tilted_stats(
        prior.locations, prior.log_weights, dual.lam, dual.gamma
    )
    if not np.isfinite(logZ[0]):
        raise DegenerateTiltError(f"degenerate tilt at {dual}")
    cov = np.array([[c11[0], c12[0]], [c12[0], c22[0]]])
    return TiltedSummary(m=float(m[0]), s=float(s[0]), log_partition=float(logZ[0]),
                         cov_matrix=cov)


# ---------------------------------------------------------------------------
# moment space
# ---------------------------------------------------------------------------

def gamma_envelopes(prior: Prior, m):
    """Lower/upper envelopes of admissible s at first moment m.

    Lower: (a(m)+b(m))*m - a(m)*b(m) with a(m), b(m) the neighboring support
    atoms; upper: same expression with the global support endpoints.
    """
    m = np.asarray(m, dtype=np.float64)
    locs = prior.locations
    lo, hi = prior.support_lo, prior.support_hi
    idx_b = np.searchsorted(locs, m, side="left")  # smallest atom >= m
    idx_a = np.searchsorted(locs, m, side="right") - 1  # largest atom <= m
    idx_b = np.clip(idx_b, 0, len(locs) - 1)
    idx_a = np.clip(idx_a, 0, len(locs) - 1)
    a = locs[idx_a]
    b = locs[idx_b]
    lower = (a + b) * m - a * b
    upper = (lo + hi) * m - lo * hi
    return lower, upper


def gamma_region(prior: Prior, mp: MomentPair, tol: float = BOUNDARY_TOL) -> Region:
    """Classify (m, s) against the moment space of the tilted family."""
    m, s = mp.m, mp.s
    lo, hi = prior.support_lo, prior.support_hi
    if m < lo - tol or m > hi + tol:
        return Region.EXTERIOR
    lower, upper = gamma_envelopes(prior, m)
    lower, upper = float(lower), float(upper)
    margins = (m - lo, hi - m, s - lower, upper - s)
    if min(margins) > tol:
        return Region.INTERIOR
    if min(margins) >= -tol:
        return Region.BOUNDARY
    return Region.EXTERIOR


def project_interior(prior: Prior, m, s, eps_frac: float = 1e-9):
    """Project (m, s) vectors onto the interior of the moment space.

    Moves s inside the envelope gap (and m inside the support) by a relative
    nudge of eps_frac; used as the optimizer boundary policy.
    """
    m = np.array(m, dtype=np.float64, copy=True)
    s = np.array(s, dtype=np.float64, copy=True)
    lo, hi = prior.support_lo, prior.support_hi
    width = hi - lo
    np.clip(m, lo + eps_frac * width, hi - eps_frac * width, out=m)
    lower, upper = gamma_envelopes(prior, m)
    gap = upper - lower
    eps = eps_frac * gap
    np.clip(s, lower + eps, upper - eps, out=s)
    return m, s


# ---------------------------------------------------------------------------
# dual solve
# ---------------------------------------------------------------------------

def dual_solve_vec(prior: Prior, m, s, lam0=0.0, gam0=0.0,
                   tol: float = DUAL_RESIDUAL_TOL, max_iter: int = 200):
    """Batched inverse moment map.  Returns (lam, gam, converged, residual)."""
    return kernels.dual_newton(prior.locations, prior.log_weights, m, s,
                               lam0, gam0, tol=tol, max_iter=max_iter, cap=DUAL_CAP)


def dual_solve(prior: Prior, mp: MomentPair, init: DualPair | None = None,
               tol: float = DUAL_RESIDUAL_TOL, max_iter: int = 200,
               full_output: bool = False):
    """Unique (lam, gamma) with tilted moments (m, s); damped Newton.

    Raises NotInDomainError off the interior.  On iteration exhaustion the
    best iterate is returned with converged=False in the info dict (ask for
    full_output to see it).
    """
    if gamma_region(prior, mp) is not Region.INTERIOR:
        raise NotInDomainError(f"({mp.m}, {mp.s}) is not interior to the moment space")
    lam0 = init.lam if init is not None else 0.0
    gam0 = init.gamma if init is not None else 0.0
    lam, gam, conv, res = dual_solve_vec(prior, [mp.m], [mp.s], lam0, gam0,
                                         tol=tol, max_iter=max_iter)
    dual = DualPair(float(lam[0]), float(gam[0]))
    if full_output:
        return dual, {"converged": bool(conv[0]), "residual": float(res[0])}
    return dual


# ---------------------------------------------------------------------------
# entropy, denoiser, mmse
# ---------------------------------------------------------------------------

def neg_entropy(prior: Prior, mp: MomentPair) -> float:
    """KL divergence from the prior to the tilted law with moments (m, s)."""
    dual = dual_solve(prior, mp)
    _, _, logZ = tilted_moments_vec(prior, dual.lam, dual.gamma)
    return float(-0.5 * dual.gamma * mp.s + dual.lam * mp.m - logZ[0])


def denoise(prior: Prior, x, gamma: float):
    """Posterior-mean denoiser of the scalar channel: moments at (gamma*x, gamma)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    lam = gamma * x
    gam = np.full_like(x, gamma)
    m, s, _ = tilted_moments_vec(prior, lam, gam)
    return m, s


def channel_terms(prior: Prior, gamma: float, quad: QuadratureSpec = QuadratureSpec()):
    """(i(gamma), mmse(gamma), E[Var(beta0 | channel)^2]) of the channel
    lam = gamma*beta0 + sqrt(gamma)*z from one tilt of the (atoms x nodes)
    grid: exact sum over prior atoms, Gauss-Hermite over z."""
    z, wz = quad.nodes_weights
    b0 = prior.locations
    lam = (gamma * b0[:, None] + np.sqrt(gamma) * z[None, :]).ravel()
    gam = np.full_like(lam, gamma)
    m, _, logZ, c11, _, _ = kernels.tilted_stats(b0, prior.log_weights, lam, gam)
    if not np.all(np.isfinite(logZ)):
        raise DegenerateTiltError("tilted log-partition overflowed")
    grid = (len(b0), len(z))
    info = float(prior.weights @ (0.5 * gamma * b0**2 - logZ.reshape(grid) @ wz))
    sq = (b0[:, None] - m.reshape(grid)) ** 2
    mse = float(prior.weights @ (sq @ wz))
    e_var2 = float(prior.weights @ ((c11.reshape(grid) ** 2) @ wz))
    return info, mse, e_var2


def mmse(prior: Prior, gamma: float, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Bayes risk in the channel lam = gamma*beta0 + sqrt(gamma)*z."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return prior.variance
    return channel_terms(prior, gamma, quad)[1]

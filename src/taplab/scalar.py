"""Scalar (per-coordinate) machinery of the two-parameter exponential family.

The tilted law at natural parameters (lam, gam) reweights the prior by
exp(-gam*beta^2/2 + lam*beta).  This module provides the batched moment map
and its inverse (dual solve), the envelopes of the moment space and the
projection into its interior, and the scalar-channel quadrature behind the
MMSE and the mutual information.

Two accuracies are fixed here and read at call time: the channel noise is
integrated by the QUAD_NODES-point Gauss-Hermite rule, and a dual solve has
converged once its moment residual is below DUAL_RESIDUAL_TOL.  The
channel quadrature rows a prior keeps are keyed by QUAD_NODES, so a new node
count builds its own rows; the state-evolution schedules a prior keeps (see
``amp``) are computed with the rule in force at the time and are not
keyed by it.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .exceptions import DegenerateTiltError, DomainError
from .priors import Prior, _gauss_hermite_standard_normal

DUAL_CAP = 1e6
DUAL_RESIDUAL_TOL = 1e-10
INTERIOR_EPS_FRAC = 1e-9  # relative nudge of project_interior
QUAD_NODES = 61  # Gauss-Hermite nodes over the channel noise z ~ N(0,1)
# channel quadrature rows lighter than this are dropped: the dropped mass is
# below 4e-29 on the priors here, and every summand is bounded by a power of
# the support width (or gamma times it), so no term moves by an ulp
CHANNEL_WEIGHT_FLOOR = 1e-30


# ---------------------------------------------------------------------------
# tilted moments
# ---------------------------------------------------------------------------

def tilted_moments_vec(prior: Prior, lam, gam, cov: bool = False):
    """Batched (m, s, logZ) of the tilted laws; logZ relative to the prior.
    ``gam`` is one value per row or a scalar shared by every row.  With
    ``cov``, (m, s, logZ, c) with c the (3, rows) covariance entries of
    ``tilted_cov_vec``, all from one tilt of the one kernel, so m, s and
    logZ are those of the call without ``cov``, bit for bit.  Every tilt of
    the package passes here, and raises DegenerateTiltError when a
    log-partition is not finite (an overflow or a NaN dual)."""
    out = kernels.tilted_stats(prior._tilt_basis, prior._tilt_powers, lam, gam, cov=cov,
                               bound=prior._tilt_bound)
    if not np.isfinite(out[2]).all():
        raise DegenerateTiltError("tilted log-partition is not finite")
    return out


def tilted_cov_vec(prior: Prior, lam, gam):
    """Batched covariance entries of (beta, beta^2): a (3, rows) array of
    c11, c12, c22."""
    return tilted_moments_vec(prior, lam, gam, cov=True)[3]


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


def _clip_inside(x, lo, hi):
    """x clipped into (lo, hi), INTERIOR_EPS_FRAC of the width and at least
    one ulp away from each end."""
    eps = INTERIOR_EPS_FRAC * (hi - lo)
    return np.clip(x, np.maximum(lo + eps, np.nextafter(lo, np.inf)),
                   np.minimum(hi - eps, np.nextafter(hi, -np.inf)))


def project_interior(prior: Prior, m, s):
    """Project (m, s) vectors onto the interior of the moment space.

    Moves m inside the support and then s inside the envelope gap at that m,
    each by a relative nudge of INTERIOR_EPS_FRAC and by at least one ulp:
    the boundary policy of ``VariationalState.from_moments``.
    """
    m = _clip_inside(np.asarray(m, dtype=np.float64), prior.support_lo, prior.support_hi)
    lower, upper = gamma_envelopes(prior, m)
    s = _clip_inside(np.asarray(s, dtype=np.float64), lower, upper)
    return m, s


# ---------------------------------------------------------------------------
# dual solve
# ---------------------------------------------------------------------------

def dual_solve_vec(prior: Prior, m, s):
    """Batched inverse moment map, Newton from (lam, gam) = (0, 0).

    Rows left unconverged are solved again from the Gaussian moment match
    lam = m/v, gam = 1/v - 1/Var(prior) with v = s - m^2, and keep whichever
    solve has the smaller residual.  Returns (lam, gam, logZ, converged,
    residual), logZ that of the duals returned.
    """
    def solve(mt, st, lam0, gam0):
        return kernels.dual_newton(prior._tilt_basis, prior._tilt_powers, mt, st,
                                   lam0, gam0, tol=DUAL_RESIDUAL_TOL, max_iter=200,
                                   cap=DUAL_CAP, bound=prior._tilt_bound)

    lam, gam, logZ, conv, res = solve(m, s, 0.0, 0.0)
    m = np.broadcast_to(np.asarray(m, dtype=np.float64), conv.shape)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), conv.shape)
    v = s - m * m
    retry = np.flatnonzero(~conv & (v > 0))
    if retry.size:
        vr = v[retry]
        lam0 = np.clip(m[retry] / vr, -DUAL_CAP, DUAL_CAP)
        gam0 = np.clip(1.0 / vr - 1.0 / prior.variance, -DUAL_CAP, DUAL_CAP)
        again = solve(m[retry], s[retry], lam0, gam0)
        better = again[4] < res[retry]
        for full, part in zip((lam, gam, logZ, conv, res), again):
            full[retry[better]] = part[better]
    return lam, gam, logZ, conv, res


# ---------------------------------------------------------------------------
# scalar channel
# ---------------------------------------------------------------------------

def _channel_grid(prior: Prior):
    """Read-only rows (b0, z, w) of the channel quadrature at QUAD_NODES
    Gauss-Hermite nodes: prior atom b0, noise node z and joint weight w.

    Built on the first call for the node count and kept on the prior.  A
    mirror-symmetric prior keeps only the first half of the N = atoms x nodes
    rows, with doubled weight: row r mirrors row N-1-r, the tilt at -lam is
    the mirror image of the tilt at lam, and each summand of
    ``channel_terms`` is unchanged by the mirror.  When N is odd the centre
    row is its own mirror and keeps its weight.  Rows of weight below
    CHANNEL_WEIGHT_FLOOR are dropped.
    """
    grid = prior._channel_grids.get(QUAD_NODES)
    if grid is None:
        z, wz = _gauss_hermite_standard_normal(QUAD_NODES)
        locs, w = prior.locations, prior.weights
        b0 = np.repeat(locs, len(z))
        zs = np.tile(z, len(locs))
        wr = np.outer(w, wz).ravel()
        if np.array_equal(locs, -locs[::-1]) and np.array_equal(w, w[::-1]):
            odd = wr.size % 2
            half = wr.size // 2 + odd
            b0, zs, wr = b0[:half], zs[:half], 2.0 * wr[:half]
            if odd:
                wr[-1] /= 2.0
        keep = wr >= CHANNEL_WEIGHT_FLOOR
        grid = tuple(a[keep] for a in (b0, zs, wr))
        for a in grid:
            a.setflags(write=False)
        prior._channel_grids[QUAD_NODES] = grid
    return grid


def channel_terms(prior: Prior, gamma: float):
    """(i(gamma), mmse(gamma), E[Var(beta0 | channel)^2]) of the channel
    lam = gamma*beta0 + sqrt(gamma)*z from one tilt of the quadrature rows
    (see ``_channel_grid``): exact sum over prior atoms, Gauss-Hermite over
    z.  gamma must be nonnegative and finite."""
    if not 0 <= gamma < np.inf:  # also rejects nan
        raise DomainError(f"gamma must be nonnegative and finite, got {gamma!r}")
    terms = _channel_terms_grid(prior, np.array([gamma], dtype=float))
    return tuple(float(x) for x in terms[:, 0])


def _channel_terms_grid(prior: Prior, gammas: np.ndarray) -> np.ndarray:
    """(3, len(gammas)) array of ``channel_terms`` at each nonnegative,
    finite gamma.

    The rows of whole gammas are tilted together, about 16 * BLOCK_ROWS rows
    per kernel call, so that a grid of small priors does not pay the per-call
    cost once per gamma.  A row's tilt does not depend on the batch it is in
    (see ``kernels``), so a grid value equals the pointwise call, the
    one-gamma call of ``channel_terms``, bit for bit.  The summands are
    formed for the whole chunk; each sum is its own dot product over one
    gamma's rows, as a matrix-vector product over the chunk would give the
    sums other bits than a one-gamma call."""
    b0, z, w = _channel_grid(prior)
    per_call = max(1, 16 * kernels.BLOCK_ROWS // len(w))
    out = np.empty((3, len(gammas)))
    for lo in range(0, len(gammas), per_call):
        g = gammas[lo:lo + per_call]
        # a tilt that overflows is a DegenerateTiltError, without the numpy
        # warnings on the way to it
        with np.errstate(over="ignore", invalid="ignore"):
            lam = (g[:, None] * b0 + np.sqrt(g)[:, None] * z).ravel()
            m, s, logZ = tilted_moments_vec(prior, lam, np.repeat(g, len(w)))
        m, s, logZ = (a.reshape(len(g), len(w)) for a in (m, s, logZ))
        var = s - m * m
        terms = (0.5 * g[:, None] * b0 * b0 - logZ, (b0 - m) ** 2, var * var)
        out[:, lo:lo + len(g)] = [[w @ row for row in t] for t in terms]
    return out


def mmse(prior: Prior, gamma: float) -> float:
    """Bayes risk in the channel lam = gamma*beta0 + sqrt(gamma)*z."""
    if gamma == 0.0:
        return prior.variance
    return channel_terms(prior, gamma)[1]

"""Numeric kernels for the scalar exponential-family channel.

Everything here operates on the atomic representation of the prior:
locations ``locs`` and log-weights ``logw`` (normalized so that the
weights sum to 1).  The tilted law at natural parameters ``(lam, gam)``
reweights atom ``a`` by ``exp(-gam*a**2/2 + lam*a)``.

There are two tilt kernels.  ``tilted_stats`` gives the moments (m, s) and
the log-partition, which is all NGD, AMP and the channel quadrature read;
``tilted_cov`` adds the covariance of (beta, beta^2), which the dual solve
and the Hessian blocks need.  Both walk the rows in blocks of ``BLOCK_ROWS``,
so a batch of any size works in one cache-sized (atoms x block) buffer: one
BLAS product forms the log-weights of a block there, they are shifted by
their row maximum and exponentiated in place, and one more product against
``[1, a, a^2]`` gives Z, sum(w*a) and sum(w*a^2).  Only per-row vectors are
divided by Z; no normalised (rows x atoms) matrix is formed on the moments
path.

``dual_newton`` inverts the moment map for a batch of rows; each Newton step
and each line-search candidate of the rows still iterating is evaluated by
one ``tilted_cov`` call.
"""

from __future__ import annotations

import numpy as np

# There is one implementation, in numpy.  The benchmark's run metadata
# (perfbench/run.py) records this flag, so it stays as a constant.
USE_NUMBA = False

# Rows per block: 512 rows of a 101-atom prior fill a 400 kB buffer, which
# stays in cache across the passes over it (measured best among 256-2048).
BLOCK_ROWS = 512

# Shifted log-weights are held at or above this floor.  numpy's exp took 8 to
# 160 times as long on arguments whose result underflows to a subnormal or to
# zero (x86-64, AVX2), and a weight of e^-700 (1e-304) next to the largest
# weight, 1, changes no sum: on the 400-point Gaussian potential grid the
# floor halved the time and left every output bit unchanged.
LOG_WEIGHT_FLOOR = -700.0


def _tilt_blocks(locs, logw, lam, gam):
    """Yield (rows, w, Z, m, s, logZ) for each block of rows, where ``w[j, i]``
    is the weight of atom j in row i of the block relative to the row's
    largest, Z = sum_j w[j, i], and (m, s, logZ) are the block's moments and
    log-partition.  ``w`` is a view into one buffer that the next block
    overwrites."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    gam = np.asarray(gam, dtype=np.float64)
    powers = np.array([np.ones_like(locs), locs, locs * locs])
    # ell = logw - gam*a^2/2 + lam*a as one product [logw, -a^2/2, a] @ [1; gam; lam]
    coef = np.array([logw, -0.5 * powers[2], locs]).T
    width = min(lam.size, BLOCK_ROWS)
    duals = np.ones((3, width))
    buf = np.empty((len(locs), width))
    for lo in range(0, lam.size, BLOCK_ROWS):
        rows = slice(lo, min(lo + BLOCK_ROWS, lam.size))
        r = rows.stop - lo
        duals[1, :r] = gam[rows] if gam.ndim else gam
        duals[2, :r] = lam[rows]
        w = buf[:, :r]
        np.matmul(coef, duals[:, :r], out=w)
        M = w.max(axis=0)
        w -= M
        np.maximum(w, LOG_WEIGHT_FLOOR, out=w)
        np.exp(w, out=w)
        Z, s1, s2 = powers @ w
        yield rows, w, Z, s1 / Z, s2 / Z, M + np.log(Z)


def tilted_stats(locs, logw, lam, gam):
    """(m, s, logZ) of the tilted atomic law for a batch of (lam, gam) rows.

    ``gam`` holds one value per row or is a scalar shared by every row.
    logZ is the log-partition relative to the untilted prior.
    """
    out = np.empty((3, np.size(lam)))
    for rows, _, _, *moments in _tilt_blocks(locs, logw, lam, gam):
        out[:, rows] = moments
    m, s, logZ = out
    return m, s, logZ


def tilted_cov(locs, logw, lam, gam):
    """(m, s, logZ, c11, c12, c22): ``tilted_stats`` plus the covariance
    matrix of (beta, beta^2) under the tilted law, from centred moments
    sum p*(a-m)^2, sum p*(a-m)*(a^2-s) and sum p*(a^2-s)^2."""
    out = np.empty((6, np.size(lam)))
    for rows, w, Z, m, s, logZ in _tilt_blocks(locs, logw, lam, gam):
        w /= Z
        da = locs[:, None] - m
        dq = (locs * locs)[:, None] - s
        pa = w * da
        w *= dq
        out[:, rows] = m, s, logZ, (pa * da).sum(axis=0), (pa * dq).sum(axis=0), \
            (w * dq).sum(axis=0)
    return tuple(out)


def dual_newton(locs, logw, mt, st, lam0, gam0, tol=1e-10, max_iter=200, cap=1e6):
    """Damped Newton inversion of the moment map, vectorised over rows.

    Maximizes g(lam, gam) = -gam*st/2 + lam*mt - logZ(lam, gam) for each
    target pair (mt, st).  Every row takes at most ``max_iter`` Newton steps
    and leaves the batch once its residual is below ``tol``, its Hessian
    determinant is not positive and finite, 60 step halvings fail, or the
    step it accepts leaves its (lam, gam) unchanged bit for bit (a row held
    on the +-cap clip): its next step would repeat that one.
    Returns (lam, gam, converged, residual).
    """
    mt = np.atleast_1d(np.asarray(mt, dtype=np.float64))
    st = np.atleast_1d(np.asarray(st, dtype=np.float64))
    lam = np.broadcast_to(np.asarray(lam0, dtype=np.float64), mt.shape).copy()
    gam = np.broadcast_to(np.asarray(gam0, dtype=np.float64), mt.shape).copy()
    m, s, logZ, c11, c12, c22 = tilted_cov(locs, logw, lam, gam)
    g = -0.5 * gam * st + lam * mt - logZ
    resid = np.hypot(m - mt, s - st)
    rows = np.flatnonzero(~(resid < tol))
    for _ in range(max_iter):
        det = c11[rows] * c22[rows] - c12[rows] * c12[rows]
        ok = (det > 0) & np.isfinite(det)
        rows, det = rows[ok], det[ok]
        if rows.size == 0:
            break
        r1 = mt[rows] - m[rows]
        r2 = st[rows] - s[rows]
        d1 = (c22[rows] * r1 - c12[rows] * r2) / det
        d2 = (-c12[rows] * r1 + c11[rows] * r2) / det
        # every row still searching has been rejected the same number of
        # times, so one step length serves them all
        search = np.arange(rows.size)
        stalled = np.zeros(rows.size, dtype=bool)
        alpha = 1.0
        for _ in range(60):
            j = rows[search]
            lam_n = np.clip(lam[j] + alpha * d1[search], -cap, cap)
            gam_n = np.clip(gam[j] - 2.0 * alpha * d2[search], -cap, cap)
            m_n, s_n, logZ_n, a11, a12, a22 = tilted_cov(locs, logw, lam_n, gam_n)
            g_n = -0.5 * gam_n * st[j] + lam_n * mt[j] - logZ_n
            resid_n = np.hypot(m_n - mt[j], s_n - st[j])
            # accept on objective increase; near the optimum g goes flat at
            # float precision, so fall back to residual contraction there
            acc = (g_n >= g[j]) | ((resid[j] < 1e-6) & (resid_n <= 0.5 * resid[j]))
            k = j[acc]
            stalled[search[acc]] = (lam_n[acc] == lam[k]) & (gam_n[acc] == gam[k])
            lam[k], gam[k], m[k], s[k] = lam_n[acc], gam_n[acc], m_n[acc], s_n[acc]
            c11[k], c12[k], c22[k] = a11[acc], a12[acc], a22[acc]
            g[k], resid[k] = g_n[acc], resid_n[acc]
            search = search[~acc]
            if search.size == 0:
                break
            alpha *= 0.5
        stalled[search] = True  # 60 halvings failed
        rows = rows[~stalled & ~(resid[rows] < tol)]
    return lam, gam, resid < tol, resid

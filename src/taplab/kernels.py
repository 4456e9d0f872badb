"""Numeric kernels for the scalar exponential-family channel.

Everything here operates on the atomic representation of the prior:
locations ``locs`` and log-weights ``logw`` (normalized so that the
weights sum to 1).  The tilted law at natural parameters ``(lam, gam)``
reweights atom ``a`` by ``exp(-gam*a**2/2 + lam*a)``.

``tilted_stats`` evaluates a batch of rows as one (rows x atoms) numpy
pass.  ``dual_newton`` inverts the moment map for a batch of rows; each
Newton step and each line-search candidate of the rows still iterating is
evaluated by one ``tilted_stats`` call.
"""

from __future__ import annotations

import numpy as np

# There is one implementation, in numpy.  The benchmark's run metadata
# (perfbench/run.py) records this flag, so it stays as a constant.
USE_NUMBA = False


def tilted_stats(locs, logw, lam, gam):
    """Moments of the tilted atomic law for a batch of (lam, gam) pairs.

    Returns (m, s, logZ, c11, c12, c22) where logZ is the log-partition
    relative to the untilted prior and (c11, c12, c22) are the entries of
    the covariance matrix of (beta, beta^2) under the tilted law.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    gam = np.atleast_1d(np.asarray(gam, dtype=np.float64))
    a = locs[None, :]
    ell = logw[None, :] - 0.5 * gam[:, None] * a * a + lam[:, None] * a
    M = ell.max(axis=1)
    w = np.exp(ell - M[:, None])
    Z = w.sum(axis=1)
    logZ = M + np.log(Z)
    p = w / Z[:, None]
    m = p @ locs
    s = p @ (locs * locs)
    t3 = p @ (locs**3)
    t4 = p @ (locs**4)
    c11 = s - m * m
    c12 = t3 - m * s
    c22 = t4 - s * s
    return m, s, logZ, c11, c12, c22


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
    m, s, logZ, c11, c12, c22 = tilted_stats(locs, logw, lam, gam)
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
            m_n, s_n, logZ_n, a11, a12, a22 = tilted_stats(locs, logw, lam_n, gam_n)
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

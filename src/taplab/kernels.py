"""Numeric kernels for the scalar exponential-family channel.

Everything here operates on the atomic representation of the prior through
two small matrices that ``Prior`` builds once: the (atoms x 3) basis
``[logw, -a^2/2, a]`` (log-weights normalized so that the weights sum to 1)
and the (3 x atoms) powers ``[1, a, a^2]``.  The tilted law at natural
parameters ``(lam, gam)`` reweights atom ``a`` by ``exp(-gam*a**2/2 + lam*a)``.

There is one tilt kernel, ``tilted_stats``.  It gives the moments (m, s)
and the log-partition, which is all NGD, AMP and the channel quadrature
read, and with ``cov`` also the covariance of (beta, beta^2), which the dual
solve, the Hessian blocks and Newton-CG need.  It walks the rows in blocks
of ``BLOCK_ROWS``, so a batch of any size works in cache-sized (atoms x
block) arrays: one BLAS product of the basis forms the log-weights of a
block, they are shifted by their row maximum and exponentiated in place, and
one more product against the powers gives Z, sum(w*a) and sum(w*a^2).  Only
per-row vectors are divided by Z; no normalised (rows x atoms) matrix is
formed unless ``cov`` asks for the centred sums, which the same block then
forms from its m and s.  So a covariance tilt's m, s and logZ are those of
a moments-only tilt, bit for bit: they are the same code.  Each block
writes its results straight into its rows of the output arrays, so a batch
that fits one block, as every tilt of a descent at p <= BLOCK_ROWS does,
pays for one step of the walk and nothing more: on three-point most of such
a call is numpy's fixed cost per operation, and the walk keeps the number of
operations at what the arithmetic needs.

A row's bits never depend on its batch.  Each call pads its batch with
untilted rows (lam = gam = 0) to a multiple of 8 rows, forms every per-row
quantity over the padded width (the log-weight product, the row maximum, the
exponentials, Z and the moment sums, and the three centred reductions of
``cov``), writes it into an output of the padded width and returns views
of the batch's own rows.  BLOCK_ROWS is a multiple of 8, so every block a
row can fall in is too.  Without the padding a row's bits did depend on the
width of its block: with OpenBLAS 0.3.31 (Haswell kernels), on the 101-atom
priors, 255 of the block widths 1..512 gave some row other bits than the
512-wide block, each of them 1-4 mod 8, and the centred reductions moved
with the width as well; on three-point no width did.  So a row tilted
alone equals the same row in any batch, a grid value of the channel
quadrature (``scalar._channel_terms_grid``) equals its pointwise call, and a
row of a dual solve equals the row solved alone, with the one exception that
the atom window below makes.

A block tilts only its window of atoms.  With c the prior's heaviest atom,
ell_j - ell_c = (logw_j - logw_c) + gam (a_c^2 - a_j^2)/2 + lam (a_j - a_c)
is linear in (gam, lam), so over the ranges of gam and lam among the
block's own rows (not its padding) it has an upper bound U_j, and a row's
largest log-weight is at least its ell_c.  An atom with U_j below
-WINDOW_MARGIN = -100 thus weighs less than e^-100 (4e-44) of the largest
weight in every row of the block.  The window is the contiguous range of
atoms outside of which every atom is such an atom, and the log-weight
product, the row maximum, the floor, the exponentials, the moment product
and the centred sums of ``cov`` run over it alone.  At the fits of a
Bernoulli-Gaussian sweep (n = 300, sigma = 0.3) a block's window held 40 to
96 of the 101 atoms, 55 on average.  Priors of fewer than WINDOW_MIN_ATOMS
= 9 atoms, three-point among them, are walked whole: the bound costs more
than it could save there.  A bound that is not finite (a NaN or an
overflowing dual) keeps every atom, so such a row still reaches the check
on the log-partition in ``scalar.tilted_moments_vec``.  The bound's rows
depend on the prior alone, so ``Prior`` forms them once beside its basis
(``_bound_rows``), every tilt of the package passes them in, and a block
reduces only its gam and lam to their ends, into one small array.  A call
without them walks every block whole.

No bit moves with the window, and so a row's bits do not depend on the
window its block gives it.  The products it keeps have the bits of the whole
products: on the 101-atom priors, at block widths 8 to 512, every slice of
at least two atoms gave the log-weights of the whole product, and the moment
product over a slice the sums of the whole one with zeros outside it.  A
one-atom product takes another BLAS path, whose log-weights can differ in
the last bit, so a window holds at least two atoms.  The atoms it leaves out
would add less than e^-100 of the largest term to every sum, and Z >= 1, so
their share is far below half an ulp of any sum that is not itself that
small.  The exception is a row collapsed onto one atom: there m - a and
s - a^2 (m and s themselves where the atom is 0) and the covariances are
made of such weights alone (below 1e-200 in the rows checked; the whole
walk made them of the floor's e^-700 weights), and these can take other
bits in another batch.  Its log-partition, and every output of a row that has not
collapsed, cannot.

``dual_newton`` inverts the moment map for a batch of rows; each Newton step
and each line-search candidate of the rows still iterating is evaluated by
one covariance tilt.
"""

from __future__ import annotations

import math

import numpy as np

# There is one implementation, in numpy.  The benchmark's run metadata
# (perfbench/run.py) records this flag, so it stays as a constant.
USE_NUMBA = False

# Rows per block: 512 rows of a 101-atom prior fill a 400 kB buffer, which
# stays in cache across the passes over it (measured best among 256-2048).
# A multiple of 8, as every block is (see the module docstring).
BLOCK_ROWS = 512

# Shifted log-weights are held at or above this floor.  numpy's exp took 8 to
# 160 times as long on arguments whose result underflows to a subnormal or to
# zero (x86-64, AVX2), and a weight of e^-700 (1e-304) next to the largest
# weight, 1, changes no sum: on the 400-point Gaussian potential grid the
# floor halved the time and left every output bit unchanged.
LOG_WEIGHT_FLOOR = -700.0

# A block tilts only the atoms of its window: those whose log-weight is not
# provably below the block's row maxima by WINDOW_MARGIN or more in every row
# of the block (see the module docstring).  Priors of at most
# WINDOW_MIN_ATOMS - 1 atoms, three-point among them, are walked whole: the
# bound costs more than it can save there.
WINDOW_MARGIN = 100.0
WINDOW_MIN_ATOMS = 9


def tilted_stats(basis, powers, lam, gam, cov=False, bound=None):
    """(m, s, logZ) of the tilted atomic law for a batch of (lam, gam) rows,
    and with ``cov`` also the (3, rows) array of c11, c12, c22, the
    covariance matrix of (beta, beta^2) under the tilted law, from centred
    moments sum p*(a-m)^2, sum p*(a-m)*(a^2-s) and sum p*(a^2-s)^2.

    ``basis`` and ``powers`` are the prior's tilt matrices, and ``bound``
    the rows of its atom window's bound (``_bound_rows``); without them
    every block is walked whole.  ``gam`` holds one value per row or is a
    scalar shared by every row.  logZ is the log-partition relative to the
    untilted prior.
    """
    lam = np.asarray(lam, dtype=np.float64).ravel()
    n = lam.size
    # the (3, width) duals [1; gam; lam], padded with untilted rows to a
    # width that is a multiple of 8 (see the module docstring)
    duals = np.zeros((3, -(-n // 8) * 8))
    duals[0] = 1.0
    duals[1, :n] = gam
    duals[2, :n] = lam
    out = np.empty((3, duals.shape[1]))
    if cov:
        c = np.empty((3, duals.shape[1]))
        a, a2 = powers[1:, :, None]
    j0, j1 = 0, len(basis)
    for lo in range(0, n, BLOCK_ROWS):
        block = out[:, lo:lo + BLOCK_ROWS]
        if bound is not None:
            j0, j1 = _atom_window(bound, duals[1:, lo:min(lo + BLOCK_ROWS, n)])
        # ell = logw - gam*a^2/2 + lam*a as one product basis @ [1; gam; lam];
        # w[j, i] becomes the weight of atom j in row i relative to the row's
        # largest
        w = basis[j0:j1] @ duals[:, lo:lo + BLOCK_ROWS]
        M = np.maximum.reduce(w, axis=0)
        w -= M
        np.maximum(w, LOG_WEIGHT_FLOOR, out=w)
        np.exp(w, out=w)
        sums = powers[:, j0:j1] @ w  # Z, sum(w*a), sum(w*a^2)
        Z = sums[0]
        np.divide(sums[1], Z, out=block[0])
        np.divide(sums[2], Z, out=block[1])
        logZ = np.log(Z, out=block[2])
        logZ += M
        if cov:
            cb = c[:, lo:lo + BLOCK_ROWS]
            w /= Z
            da = a[j0:j1] - block[0]
            dq = a2[j0:j1] - block[1]
            pa = w * da
            w *= dq
            # each product overwrites a factor that no later one reads; a
            # product's bits do not depend on its operands' order
            da *= pa
            np.add.reduce(da, axis=0, out=cb[0])
            pa *= dq
            np.add.reduce(pa, axis=0, out=cb[1])
            dq *= w
            np.add.reduce(dq, axis=0, out=cb[2])
            del da, dq, pa
        # free the block's (atoms x block) temporaries before the next block
        # forms its own, so that a call holds one block's worth at a time
        del w
    moments = out[0, :n], out[1, :n], out[2, :n]
    return (*moments, c[:, :n]) if cov else moments


def _bound_rows(basis):
    """The (atoms x 5) rows [logw_j - logw_c, q_j-, d_j-, q_j+, d_j+] of the
    window bound for ``basis``, with c its heaviest atom, q_j = (a_c^2 -
    a_j^2)/2, d_j = a_j - a_c, and x- and x+ the parts min(x, 0) and
    max(x, 0); None for a basis of fewer than WINDOW_MIN_ATOMS atoms, which
    is walked whole.  ``Prior`` forms them once, beside its basis."""
    if len(basis) < WINDOW_MIN_ATOMS:
        return None
    rel = basis - basis[np.argmax(basis[:, 0])]
    rows = np.hstack([rel[:, :1], np.minimum(rel[:, 1:], 0.0), np.maximum(rel[:, 1:], 0.0)])
    rows.setflags(write=False)
    return rows


def _atom_window(bound, gam_lam):
    """(j0, j1): the atoms j0 <= j < j1 of a block whose rows' (gam, lam)
    are the columns of ``gam_lam``; every atom outside has a log-weight
    below each row's maximum by more than WINDOW_MARGIN.

    ell_j - ell_c = (logw_j - logw_c) + gam q_j + lam d_j (see
    ``_bound_rows``, whose rows ``bound`` is) is linear in (gam, lam), so
    over the block's ranges of gam and lam it is at most U_j = (logw_j -
    logw_c) + q_j- gam_min + d_j- lam_min + q_j+ gam_max + d_j+ lam_max, and
    a row's maximum is at least its ell_c.  A bound that is not finite (a
    NaN or overflowing dual) keeps every atom.  The window holds at least
    two atoms: a one-atom product takes another BLAS path, whose
    log-weights differ from the whole product's in the last bit."""
    # [1, gam_min, lam_min, gam_max, lam_max], reduced in place
    ends = np.empty(5)
    ends[0] = 1.0
    np.minimum.reduce(gam_lam, axis=1, out=ends[1:3])
    np.maximum.reduce(gam_lam, axis=1, out=ends[3:])
    upper = bound @ ends
    atoms = len(upper)
    if not math.isfinite(upper.sum()):
        return 0, atoms
    kept = np.flatnonzero(upper >= -WINDOW_MARGIN)  # c is among them
    j0, j1 = int(kept[0]), int(kept[-1]) + 1
    if j1 - j0 < 2:
        j0, j1 = (j0, j1 + 1) if j1 < atoms else (j0 - 1, j1)
    return j0, j1


def dual_newton(basis, powers, mt, st, lam0, gam0, *, tol, max_iter, cap, bound=None):
    """Damped Newton inversion of the moment map, vectorised over rows.

    Maximizes g(lam, gam) = -gam*st/2 + lam*mt - logZ(lam, gam) for each
    target pair (mt, st).  Every row takes at most ``max_iter`` Newton steps
    and leaves the batch once its residual is below ``tol``, its Hessian
    determinant is not positive and finite, 60 step halvings fail, or the
    step it accepts neither raises g nor lowers the residual: such a step
    (of a row held on the +-cap clip, or one where g is flat at float
    precision) makes no progress, and the next would make none either.
    Returns (lam, gam, logZ, converged, residual), logZ that of the duals
    returned.  ``bound`` is passed on to every tilt.
    """
    mt = np.atleast_1d(np.asarray(mt, dtype=np.float64))
    st = np.atleast_1d(np.asarray(st, dtype=np.float64))
    lam = np.broadcast_to(np.asarray(lam0, dtype=np.float64), mt.shape).copy()
    gam = np.broadcast_to(np.asarray(gam0, dtype=np.float64), mt.shape).copy()
    m, s, logZ, c = tilted_stats(basis, powers, lam, gam, cov=True, bound=bound)
    c11, c12, c22 = c
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
            m_n, s_n, logZ_n, c_n = tilted_stats(basis, powers, lam_n, gam_n, cov=True,
                                                 bound=bound)
            g_n = -0.5 * gam_n * st[j] + lam_n * mt[j] - logZ_n
            resid_n = np.hypot(m_n - mt[j], s_n - st[j])
            # accept on objective increase; near the optimum g goes flat at
            # float precision, so fall back to residual contraction there
            acc = (g_n >= g[j]) | ((resid[j] < 1e-6) & (resid_n <= 0.5 * resid[j]))
            k = j[acc]
            stalled[search[acc]] = (g_n[acc] <= g[k]) & (resid_n[acc] >= resid[k])
            lam[k], gam[k], m[k], s[k] = lam_n[acc], gam_n[acc], m_n[acc], s_n[acc]
            logZ[k], c[:, k] = logZ_n[acc], c_n[:, acc]
            g[k], resid[k] = g_n[acc], resid_n[acc]
            search = search[~acc]
            if search.size == 0:
                break
            alpha *= 0.5
        stalled[search] = True  # 60 halvings failed
        rows = rows[~stalled & ~(resid[rows] < tol)]
    return lam, gam, logZ, resid < tol, resid

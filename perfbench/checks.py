"""Correctness checks for the benchmark, written apart from taplab.

Nothing here imports taplab: every reference value is recomputed from the
raw inputs (design, response, prior atoms) with plain numpy, so a check
cannot pass because it shares a bug with the code it checks.  Each check
returns a list of problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import numpy as np

# Gauss-Hermite order of the scalar-channel expectations: the order of the
# program's default rule, since solve_gammas locates the roots of the equation
# that this rule discretizes.  (121 nodes move the three-point root residual
# at delta=1.4 to 4.6e-7, the quadrature error of the 61-node rule.)
HERMITE_NODES = 61


def tilted_moments(locs, weights, lam, gam):
    """(m, s, logZ) of the prior tilted by exp(-gam*b^2/2 + lam*b), logZ
    relative to the prior, by log-sum-exp over the atoms."""
    locs = np.asarray(locs, dtype=np.float64)
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    gam = np.atleast_1d(np.asarray(gam, dtype=np.float64))
    ell = np.log(weights)[None, :] + lam[:, None] * locs - 0.5 * gam[:, None] * locs**2
    top = ell.max(axis=1)
    w = np.exp(ell - top[:, None])
    z = w.sum(axis=1)
    prob = w / z[:, None]
    return prob @ locs, prob @ locs**2, top + np.log(z)


def grad_norm_sq_per_p(X, y, sigma2, m, s, lam, gam, tap: bool) -> float:
    """||grad F||^2 / p of the TAP (tap=True) or naive mean-field energy.

    F = sum_j(-h_j) + ||y - X m||^2 / (2 sigma2) + (n/2) g(S - Q) with
    S = mean(s), Q = mean(m^2), g(u) = log(1 + u/sigma2) for TAP and
    u/sigma2 for MF; d(-h_j)/dm_j = lam_j and d(-h_j)/ds_j = -gam_j/2.
    """
    n, p = X.shape
    slope = 1.0 / (sigma2 + np.mean(s) - np.mean(m * m)) if tap else 1.0 / sigma2
    grad_m = lam - X.T @ (y - X @ m) / sigma2 - (n / p) * slope * m
    grad_s = -0.5 * gam + 0.5 * (n / p) * slope
    return float(grad_m @ grad_m + grad_s @ grad_s) / p


def check_fit(X, y, sigma2, locs, weights, state, f_values, grad_tol, tap):
    """Stationarity, moment/dual consistency and monotone descent of one fit.

    ``state`` is (m, s, lam, gam) of the returned minimizer and ``f_values``
    the energy trace, one value per iteration.
    """
    m, s, lam, gam = (np.asarray(a, dtype=np.float64) for a in state)
    problems = []
    gn = grad_norm_sq_per_p(X, y, sigma2, m, s, lam, gam, tap)
    if not gn < grad_tol * (1.0 + 1e-6):
        problems.append(f"not stationary: ||grad||^2/p = {gn:.3e} >= {grad_tol:.1e}")
    m_ref, s_ref, _ = tilted_moments(locs, weights, lam, gam)
    scale = float(np.max(np.abs(locs)))
    err = max(float(np.max(np.abs(m - m_ref))) / scale,
              float(np.max(np.abs(s - s_ref))) / scale**2)
    if not err < 1e-10:
        problems.append(f"(m, s) differ from the tilted moments of (lam, gam) by {err:.3e}")
    rises = np.flatnonzero(np.diff(np.asarray(f_values, dtype=np.float64)) > 0)
    if len(rises):
        problems.append(f"energy rose at {len(rises)} iterations (first at {rises[0] + 1})")
    return problems


def check_dominance(delta, mse_tap, mse_mf):
    """The paper's claim at one delta: mean TAP MSE <= mean MF MSE."""
    a, b = float(np.mean(mse_tap)), float(np.mean(mse_mf))
    if not a <= b:
        return [f"delta={delta:g}: mean TAP MSE {a:.6f} > mean MF MSE {b:.6f}"]
    return []


def mmse(locs, weights, gamma, n_nodes=HERMITE_NODES):
    """Bayes risk of the channel lam = gamma*b0 + sqrt(gamma)*z, b0 ~ prior:
    exact sum over atoms, Gauss-Hermite over z."""
    locs = np.asarray(locs, dtype=np.float64)
    z, wz = np.polynomial.hermite_e.hermegauss(n_nodes)
    wz = wz / np.sqrt(2.0 * np.pi)
    lam = (gamma * locs[:, None] + np.sqrt(gamma) * z[None, :]).ravel()
    m, _, _ = tilted_moments(locs, weights, lam, np.full_like(lam, gamma))
    sq = (locs[:, None] - m.reshape(len(locs), len(z))) ** 2
    return float(weights @ (sq @ wz))


def gaussian_root(tau2, sigma2, delta):
    """Positive root of delta/gamma - sigma2 = tau2/(1 + gamma*tau2)."""
    a = sigma2 * tau2
    b = sigma2 + tau2 - delta * tau2
    return (-b + np.sqrt(b * b + 4.0 * a * delta)) / (2.0 * a)


def check_gaussian_potential(gamma_stat, gamma_alg, regime, tau2, sigma2, delta):
    root = gaussian_root(tau2, sigma2, delta)
    problems = []
    for name, g in (("gamma_stat", gamma_stat), ("gamma_alg", gamma_alg)):
        if not abs(g - root) <= 1e-10 * root:
            problems.append(f"{name} = {g!r}, closed-form root {root!r}")
    if regime != "easy":
        problems.append(f"regime {regime!r}, expected 'easy'")
    return problems


def se_limit(locs, weights, sigma2, delta, max_iter=100_000, rtol=1e-14):
    """Limit of gamma_{k+1} = delta / (sigma2 + mmse(gamma_k)) from
    gamma_1 = delta / (sigma2 + E b0^2)."""
    g = delta / (sigma2 + float(weights @ np.asarray(locs) ** 2))
    for _ in range(max_iter):
        g_next = delta / (sigma2 + mmse(locs, weights, g))
        if abs(g_next - g) <= rtol * g:
            return g_next
        g = g_next
    raise RuntimeError("state-evolution recursion did not settle")


def check_discrete_potential(gamma_stat, gamma_alg, locs, weights, sigma2, delta):
    """Each returned gamma is a root of delta/gamma - sigma2 = mmse(gamma), and
    gamma_alg is the limit of the state-evolution recursion."""
    problems = []
    for name, g in (("gamma_stat", gamma_stat), ("gamma_alg", gamma_alg)):
        resid = delta / g - sigma2 - mmse(locs, weights, g)
        if not abs(resid) <= 1e-11:
            problems.append(f"{name} = {g!r} is off the root: residual {resid:.3e}")
    limit = se_limit(locs, weights, sigma2, delta)
    if not abs(gamma_alg - limit) <= 1e-10 * limit:
        problems.append(f"gamma_alg = {gamma_alg!r}, state evolution settles at {limit!r}")
    return problems


def dense_from_matvec(matvec, dim):
    """The matrix of a linear map, one column per unit vector."""
    out = np.empty((dim, dim))
    e = np.zeros(dim)
    for j in range(dim):
        e[j] = 1.0
        out[:, j] = matvec(e)
        e[j] = 0.0
    return out


def eigenvalues(H):
    """Ascending eigenvalues of the symmetric part of H."""
    return np.linalg.eigvalsh(0.5 * (H + H.T))


def check_min_eig_dense(value, w):
    """The dense probe equals the least of the eigenvalues ``w`` of the Hessian
    built apart from the probe, and is positive.  Round-off allowance scales
    with the spectral radius."""
    tol = 1e-14 * float(np.max(np.abs(w)))
    problems = []
    if not abs(value - w[0]) <= tol:
        problems.append(f"dense min eigenvalue {value!r} != eigvalsh {w[0]!r} (tol {tol:.1e})")
    if not value > 0:
        problems.append(f"TAP Hessian not positive definite: min eigenvalue {value!r}")
    return problems


def check_min_eig_iter(value, converged, dense_value):
    problems = []
    if not converged:
        problems.append("iterative probe reports converged=False")
    if not abs(value - dense_value) <= 1e-7 * max(1.0, abs(dense_value)):
        problems.append(f"iterative min eigenvalue {value!r} != dense {dense_value!r}")
    return problems


def check_dual(lam, gam, lam_true, gam_true):
    """from_moments returns the (lam, gam) that generated its input moments."""
    err = max(float(np.max(np.abs(lam - lam_true) / (1.0 + np.abs(lam_true)))),
              float(np.max(np.abs(gam - gam_true) / (1.0 + np.abs(gam_true)))))
    if not err <= 1e-7:
        return [f"duals differ from the generating ones by {err:.3e} (relative)"]
    return []

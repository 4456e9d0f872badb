"""Independent ground-truth computations used to validate everything else:
Gaussian-prior closed forms, the Marchenko-Pastur variance fixed point, exact
evidence/marginals by enumeration for tiny discrete instances, and a
Monte Carlo evidence estimate.  The two exact posteriors import scipy on
first use, so importing this module (as the CLI does) does not load it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .free_energy import LinearModel
from .priors import Prior


@dataclass(frozen=True)
class GaussianOracle:
    tau2: float
    Sigma: np.ndarray
    post_mean: np.ndarray
    log_evidence: float
    v_star: float


def mp_vstar(tau2: float, sigma2: float, delta: float) -> float:
    """Unique positive root of 1/v = 1/tau^2 + delta/(sigma^2 + v)."""
    # clears to v^2 + (sigma^2 + delta*tau^2 - tau^2) v - tau^2 sigma^2 = 0
    b = sigma2 + delta * tau2 - tau2
    return 0.5 * (-b + np.sqrt(b * b + 4.0 * tau2 * sigma2))


def gaussian_posterior(model: LinearModel, tau2: float) -> GaussianOracle:
    """Exact posterior and evidence under a N(0, tau2) prior."""
    if not 0 < tau2 < np.inf:  # also rejects nan
        raise DomainError(f"prior variance tau2 must be positive and finite, got {tau2!r}")
    import scipy.linalg  # not at module scope: see free_energy.min_eigenvalue

    X, y, sigma2 = model.X, model.y, model.sigma2
    n, p = model.n, model.p
    A = X.T @ X / sigma2 + np.eye(p) / tau2
    cf = scipy.linalg.cho_factor(A)
    Sigma = scipy.linalg.cho_solve(cf, np.eye(p))
    mean = scipy.linalg.cho_solve(cf, X.T @ y / sigma2)
    # logdet(tau2*X*X^T + sigma2*I) = n log sigma2 + logdet((tau2/sigma2) X^T X + I)
    # SPD for tau2 > 0, so the sign is +1
    _, logdet_p = np.linalg.slogdet((tau2 / sigma2) * (X.T @ X) + np.eye(p))
    logdet = n * np.log(sigma2) + logdet_p
    # y^T (tau2 X X^T + sigma2 I)^{-1} y via the same p x p factorization:
    # (tau2 X X^T + sigma2 I)^{-1} y = (y - X mean) / sigma2 (Woodbury)
    Kinv_y = (y - X @ mean) / sigma2
    quad = float(y @ Kinv_y)
    log_evidence = -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
    v = mp_vstar(tau2, sigma2, model.delta_hat)
    return GaussianOracle(tau2=tau2, Sigma=Sigma, post_mean=mean,
                          log_evidence=float(log_evidence), v_star=float(v))


def enumerate_posterior(model: LinearModel, prior: Prior,
                        p_max_guard: int = 12, chunk: int = 1 << 16):
    """Exact evidence and posterior marginal moments by summing over the full
    atomic support grid.  Guarded: (#atoms)^p must stay below 1e8.

    Returns (log_evidence, marginal_m, marginal_s).
    """
    from scipy.special import logsumexp  # not at module scope: see free_energy.min_eigenvalue

    if prior.sampler != ("atoms",):
        raise DomainError("enumeration needs an explicit discrete prior")
    n, p = model.n, model.p
    A = len(prior.locations)
    total = A**p
    if p > p_max_guard or total > 10**8:
        raise DomainError(f"enumeration guard exceeded: {A}^{p} states")
    locs = prior.locations
    logw = prior.log_weights
    X, y, sigma2 = model.X, model.y, model.sigma2

    # streaming logsumexp accumulators across chunks
    chunk_logZ = []
    chunk_log_m_num = []  # signed first-moment numerators, per coordinate
    chunk_sign_m = []
    chunk_log_s_num = []
    base = np.array([A**j for j in range(p)], dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // base[None, :]) % A
        B = locs[digits]  # (chunk, p)
        resid = y[None, :] - B @ X.T
        loglik = -0.5 * np.sum(resid**2, axis=1) / sigma2
        logpri = logw[digits].sum(axis=1)
        logpost = loglik + logpri
        chunk_logZ.append(logsumexp(logpost))
        lse_m, sgn_m = logsumexp(logpost[:, None], b=B, axis=0,
                                 return_sign=True)
        chunk_log_m_num.append(lse_m)
        chunk_sign_m.append(sgn_m)
        chunk_log_s_num.append(logsumexp(logpost[:, None], b=B * B, axis=0))
    logZ_rel = logsumexp(np.array(chunk_logZ))
    m_num, m_sgn = logsumexp(np.array(chunk_log_m_num), axis=0,
                             b=np.array(chunk_sign_m), return_sign=True)
    s_num = logsumexp(np.array(chunk_log_s_num), axis=0)
    marginal_m = m_sgn * np.exp(m_num - logZ_rel)
    marginal_s = np.exp(s_num - logZ_rel)
    log_evidence = float(logZ_rel - 0.5 * n * np.log(2.0 * np.pi * sigma2))
    return log_evidence, marginal_m, marginal_s


def mc_evidence(model: LinearModel, prior: Prior, n_samples: int,
                rng: np.random.Generator):
    """Monte-Carlo estimate of the evidence P(y) = E_P0[N(y; X beta, sigma2 I)].

    Returns (estimate, standard_error) on the probability scale.
    """
    n, p = model.n, model.p
    X, y, sigma2 = model.X, model.y, model.sigma2
    vals = np.empty(n_samples)
    const = (2.0 * np.pi * sigma2) ** (-0.5 * n)
    step = 1 << 14
    for start in range(0, n_samples, step):
        size = min(step, n_samples - start)
        B = np.column_stack([prior.sample(size, rng) for _ in range(p)])
        resid = y[None, :] - B @ X.T
        vals[start:start + size] = const * np.exp(
            -0.5 * np.sum(resid**2, axis=1) / sigma2)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return est, se

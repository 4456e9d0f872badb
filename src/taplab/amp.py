"""Approximate message passing with Onsager correction, plus state-evolution
diagnostics comparing empirical iterate covariances with their deterministic
predictions.

The state-evolution recursion gamma_{k+1} = delta/(sigma^2 + mmse(gamma_k)),
started from gamma_1 = delta/(sigma^2 + E[beta0^2]), is deterministic in
(prior, sigma^2, delta): ``_se_schedule`` computes it once per (sigma^2,
delta, length) and keeps it on the prior, so every replicate fitted under one
prior object shares it.  AMP reads its Onsager coefficients and denoiser
strengths from it, and ``se_diagnostics`` its covariance blocks.

Each iteration k forms one residual z_k = y - X m_k + b_k z_{k-1}, with the
Onsager coefficient b_k = gamma_{k-1} mmse(gamma_{k-1}) / delta and b_1 = 0,
denoises m_k + X^T z_k / delta at gamma_k, and records one history row, a
row of ``taplab amp``'s amp.csv.  A fit's warm start is
``experiments.AMP_WARM_ITERS`` of these iterations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError
from .free_energy import LinearModel, VariationalState, _grad_norm_sq_per_p, tap_gradient
from .priors import Prior
from .scalar import mmse


def _se_schedule(prior: Prior, sigma2: float, delta: float, k: int):
    """Read-only (gamma_1..gamma_k, mmse(gamma_1)..mmse(gamma_{k-1})) of the
    state-evolution recursion, computed on the first call for (sigma2, delta,
    k) and kept on the prior: it depends on neither the data nor the
    replicate.  A gamma that overflows (mmse underflows to 0 at a tiny
    sigma2) is a DomainError naming sigma2 and delta."""
    key = (sigma2, delta, k)
    schedule = prior._se_schedules.get(key)
    if schedule is None:
        gammas, mmses = np.empty(k), np.empty(k - 1)
        g = delta / (sigma2 + prior.second_moment)
        with np.errstate(over="ignore"):  # entered once per schedule, not per gamma
            for i in range(k):
                if not g < math.inf:  # also rejects nan
                    raise DomainError(f"state-evolution gamma_{i + 1} = {float(g)!r} is not "
                                      f"finite (sigma2 = {sigma2!r}, delta = {delta!r})")
                gammas[i] = g
                if i < k - 1:
                    mmses[i] = mmse(prior, g)
                    g = delta / (sigma2 + mmses[i])
        gammas.setflags(write=False)
        mmses.setflags(write=False)
        schedule = prior._se_schedules[key] = (gammas, mmses)
    return schedule


@dataclass
class AMPState:
    """Trajectory record of an AMP run of T iterations.

    ``history`` holds one row per iteration k = 1..T, so T = len(history),
    keyed by the columns of ``taplab amp``'s amp.csv in their order: ``k``,
    the signal-to-noise ``gamma_k`` of its denoise, ``mse_empirical`` when
    the truth is given, the state-evolution MSE ``mse_se``, and
    ``grad_norm_sq_per_p`` when the gradient is tracked.  ``m_history``
    holds the first-moment iterates m^1 = 0, m^2, ..., m^{T+1} and
    ``z_history`` the residuals z^1..z^T, each the array the iteration made,
    uncopied: m^{T+1} is the ``m`` of the VariationalState that ``amp_run``
    returns beside this, which also holds the last iterate's second moments.
    """

    history: list = field(default_factory=list)
    m_history: list = field(default_factory=list)
    z_history: list = field(default_factory=list)


@np.errstate(over="ignore")  # a tracked gradient that overflows is one DomainError
def amp_run(model: LinearModel, prior: Prior, T: int,
            truth: np.ndarray | None = None,
            delta: float | None = None,
            track_gradient: bool = False) -> tuple[AMPState, VariationalState]:
    """Run T AMP iterations.

    delta is the asymptotic aspect ratio used in the iteration and the
    state-evolution recursion; defaults to n/p of the realized model.
    Returns the trajectory and the final iterate as a VariationalState.
    With ``track_gradient``, a TAP gradient whose ||g||^2/p is not finite
    is a DomainError naming its iteration k.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if delta is None:
        delta = model.delta_hat
    X, y, sigma2 = model.X, model.y, model.sigma2
    n, p = model.n, model.p

    # gamma_1..gamma_{T+1} and mmse(gamma_1)..mmse(gamma_T)
    gammas, mmses = _se_schedule(prior, sigma2, delta, T + 1)
    z_prev = np.zeros(n)
    m_k = np.zeros(p)
    history = []
    m_hist = [m_k]
    z_hist = []
    for k in range(1, T + 1):
        gamma_k = float(gammas[k - 1])
        # Onsager coefficient from deterministic state evolution; at k = 1,
        # where m_k and z_prev are zeros, the term vanishes
        b = gammas[k - 2] * mmses[k - 2] / delta if k > 1 else 0.0
        z_k = y - X @ m_k + b * z_prev
        x = m_k + X.T @ z_k / delta
        # posterior-mean denoiser: the tilted law at (gamma_k*x, gamma_k)
        var_state = VariationalState.from_duals(prior, gamma_k * x,
                                                np.full_like(x, gamma_k))

        row = {"k": k, "gamma_k": gamma_k}
        if truth is not None:
            row["mse_empirical"] = float(np.sum((var_state.m - truth) ** 2)) / p
        row["mse_se"] = float(mmses[k - 1])
        if track_gradient:
            gm, gs = tap_gradient(model, var_state)
            row["grad_norm_sq_per_p"] = _grad_norm_sq_per_p(gm, gs, k)
        history.append(row)

        # z_k and var_state.m are new arrays that nothing writes to
        z_hist.append(z_k)
        m_hist.append(var_state.m)
        z_prev = z_k
        m_k = var_state.m

    state = AMPState(history=history, m_history=m_hist, z_history=z_hist)
    return state, var_state


def se_diagnostics(amp_state: AMPState, model: LinearModel, prior: Prior,
                   truth: np.ndarray, k: int,
                   delta: float | None = None) -> dict:
    """Compare empirical covariances of the AMP error/residual trajectories
    with the state-evolution blocks K_h and delta*K_g."""
    if not 1 <= k <= len(amp_state.history):
        raise ValueError(f"k = {k!r} is not between 1 and the "
                         f"{len(amp_state.history)} recorded iterations")
    if delta is None:
        delta = model.delta_hat
    p, n = model.p, model.n
    V = np.column_stack([amp_state.m_history[i] - truth for i in range(k)])
    R = np.column_stack([-amp_state.z_history[i] for i in range(k)])
    # K_g[i][j] = 1/gamma_{max(i,j)},  K_h[i][j] = delta/gamma_{max(i,j)} - sigma^2
    gammas = _se_schedule(prior, model.sigma2, delta, k)[0]
    gamma_ij = gammas[np.maximum.outer(np.arange(k), np.arange(k))]
    K_g = 1.0 / gamma_ij
    K_h = delta / gamma_ij - model.sigma2
    dev_h = float(np.max(np.abs(V.T @ V / p - K_h)))
    dev_g = float(np.max(np.abs(R.T @ R / n - delta * K_g)))
    return {"k": k, "max_dev_Kh": dev_h, "max_dev_Kg": dev_g,
            "K_h": K_h, "K_g": K_g,
            "emp_Kh": V.T @ V / p, "emp_Kg": R.T @ R / n}

"""Approximate message passing with Onsager correction, plus state-evolution
diagnostics comparing empirical iterate covariances with their deterministic
predictions.

The Onsager coefficients and denoiser strengths come from the
state-evolution schedule of ``potential``, which is computed once per
(prior, sigma^2, delta, T) and kept on the prior, so every replicate fitted
under one prior object shares it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .free_energy import LinearModel, VariationalState, _grad_norm_sq_per_p, tap_gradient
from .potential import _se_schedule, se_covariance_blocks
from .priors import Prior


@dataclass
class AMPState:
    """Trajectory record of an AMP run of T iterations.

    ``history`` holds one row per iteration k = 1..T, so T = len(history):
    the signal-to-noise ``gamma`` of its denoise, the state-evolution MSE
    ``mse_se`` and, when asked for, ``mse_empirical`` and
    ``grad_norm_sq_per_p``.  ``m_history`` holds the first-moment iterates
    m^1 = 0, m^2, ..., m^{T+1} and ``z_history`` the residuals z^1..z^T.  The
    last iterate's second moments are those of the VariationalState that
    ``amp_run`` returns beside this.
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
    m_hist = [m_k.copy()]
    z_hist = []
    for k in range(1, T + 1):
        gamma_k = float(gammas[k - 1])
        if k == 1:
            z_k = y - X @ m_k  # the Onsager term vanishes
        else:
            # Onsager coefficient from deterministic state evolution
            b = gammas[k - 2] * mmses[k - 2] / delta
            z_k = y - X @ m_k + b * z_prev
        x = m_k + X.T @ z_k / delta
        # posterior-mean denoiser: the tilted law at (gamma_k*x, gamma_k)
        var_state = VariationalState.from_duals(prior, gamma_k * x,
                                                np.full_like(x, gamma_k))

        row = {"k": k, "gamma": gamma_k, "mse_se": float(mmses[k - 1])}
        if truth is not None:
            row["mse_empirical"] = float(np.sum((var_state.m - truth) ** 2)) / p
        if track_gradient:
            gm, gs = tap_gradient(model, var_state)
            row["grad_norm_sq_per_p"] = _grad_norm_sq_per_p(gm, gs, k)
        history.append(row)

        z_hist.append(z_k.copy())
        m_hist.append(var_state.m.copy())
        z_prev = z_k
        m_k = var_state.m

    state = AMPState(history=history, m_history=m_hist, z_history=z_hist)
    return state, var_state


def se_diagnostics(amp_state: AMPState, model: LinearModel, prior: Prior,
                   truth: np.ndarray, k: int,
                   delta: float | None = None) -> dict:
    """Compare empirical covariances of the AMP error/residual trajectories
    with the state-evolution blocks K_h and delta*K_g."""
    if k > len(amp_state.history):
        raise ValueError("k exceeds the number of recorded iterations")
    if delta is None:
        delta = model.delta_hat
    p, n = model.p, model.n
    V = np.column_stack([amp_state.m_history[i] - truth for i in range(k)])
    R = np.column_stack([-amp_state.z_history[i] for i in range(k)])
    se = se_covariance_blocks(prior, model.sigma2, delta, k)
    dev_h = float(np.max(np.abs(V.T @ V / p - se.K_h)))
    dev_g = float(np.max(np.abs(R.T @ R / n - delta * se.K_g)))
    return {"k": k, "max_dev_Kh": dev_h, "max_dev_Kg": dev_g,
            "K_h": se.K_h, "K_g": se.K_g,
            "emp_Kh": V.T @ V / p, "emp_Kg": R.T @ R / n}

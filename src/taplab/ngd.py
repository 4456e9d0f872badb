"""Natural gradient descent on the TAP or mean-field free energy.

The iteration steps in the dual coordinates (lam, -gam/2) by the moment-space
gradient and maps back through the tilted-moment map, which is equivalent to a
Bregman gradient step for the relative-entropy divergence.  The moment map
keeps every iterate strictly interior, so no projection is needed along the
way; backtracking on the step size enforces monotone descent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .free_energy import (
    LinearModel,
    VariationalState,
    mf_energy,
    mf_gradient,
    tap_energy,
    tap_gradient,
)
from .priors import Prior
from .scalar import DUAL_CAP, tilted_moments_vec


class Objective(enum.Enum):
    TAP = "tap"
    MF = "mf"


@dataclass(frozen=True)
class NGDConfig:
    eta: float = 0.2
    max_iters: int = 20000
    grad_tol: float = 1e-10  # stop when ||grad||^2 / p < grad_tol
    backtracking: bool = True
    objective: Objective = Objective.TAP

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class NGDTrace:
    f_values: list = field(default_factory=list)
    grad_norm_sq_per_p: list = field(default_factory=list)
    steps_used: list = field(default_factory=list)
    final: VariationalState | None = None
    converged: bool = False
    iterations: int = 0
    clip_events: int = 0


def ngd_run(model: LinearModel, prior: Prior, init: VariationalState,
            cfg: NGDConfig = NGDConfig()) -> NGDTrace:
    """Minimize the configured free energy starting from an interior state."""
    if cfg.objective is Objective.TAP:
        energy, gradient = tap_energy, tap_gradient
    else:
        energy, gradient = mf_energy, mf_gradient

    trace = NGDTrace()
    state = init
    f_cur = energy(model, state)
    p = model.p
    for it in range(cfg.max_iters):
        gm, gs = gradient(model, state)
        gn = float(gm @ gm + gs @ gs) / p
        trace.f_values.append(f_cur)
        trace.grad_norm_sq_per_p.append(gn)
        if gn < cfg.grad_tol:
            trace.converged = True
            trace.steps_used.append(0.0)
            break
        step = cfg.eta
        accepted = False
        for _ in range(60):
            lam_new = state.lam - step * gm
            gam_new = state.gam + 2.0 * step * gs
            clipped = np.any(np.abs(lam_new) > DUAL_CAP) \
                or np.any(np.abs(gam_new) > DUAL_CAP)
            if clipped:
                trace.clip_events += 1
                np.clip(lam_new, -DUAL_CAP, DUAL_CAP, out=lam_new)
                np.clip(gam_new, -DUAL_CAP, DUAL_CAP, out=gam_new)
            m_new, s_new, logZ_new = tilted_moments_vec(prior, lam_new, gam_new)
            cand = VariationalState(m_new, s_new, lam_new, gam_new, logZ_new)
            f_new = energy(model, cand)
            if not cfg.backtracking or f_new <= f_cur:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no decrease even at the smallest step: local numeric floor
            trace.steps_used.append(0.0)
            break
        state = cand
        f_cur = f_new
        trace.steps_used.append(step)
    trace.final = state
    trace.iterations = len(trace.steps_used)
    return trace


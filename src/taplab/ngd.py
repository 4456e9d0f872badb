"""Natural gradient descent on the TAP or mean-field free energy.

The iteration steps in the dual coordinates (lam, -gam/2) by the moment-space
gradient and maps back through the tilted-moment map, which is equivalent to a
Bregman gradient step for the relative-entropy divergence.  The moment map
keeps every iterate strictly interior, so no projection is needed along the
way; backtracking on the step size enforces monotone descent.

The step carries over between iterations.  The first line search tries
``eta``; each later one starts from the step the previous iteration accepted,
doubled (capped at 1) when that iteration accepted its first candidate.  A
candidate whose energy rises is rejected and the step halved, at most 60
times; when all 60 are rejected the run stops at the step floor.
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
    eta: float = 0.2  # first trial step
    max_iters: int = 20000
    grad_tol: float = 1e-10  # stop when ||grad||^2 / p < grad_tol
    objective: Objective = Objective.TAP

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not self.grad_tol > 0:  # also rejects nan
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class StopReason(enum.Enum):
    CONVERGED = "converged"
    STEP_FLOOR = "step_floor"  # 60 halvings found no decrease
    MAX_ITERS = "max_iters"


@dataclass
class NGDTrace:
    f_values: list = field(default_factory=list)
    grad_norm_sq_per_p: list = field(default_factory=list)
    steps_used: list = field(default_factory=list)
    final: VariationalState | None = None
    converged: bool = False
    stop_reason: StopReason = StopReason.MAX_ITERS
    iterations: int = 0
    backtracks: int = 0  # rejected candidates
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
    step = cfg.eta
    for _ in range(cfg.max_iters):
        gm, gs = gradient(model, state)
        gn = float(gm @ gm + gs @ gs) / p
        trace.f_values.append(f_cur)
        trace.grad_norm_sq_per_p.append(gn)
        if gn < cfg.grad_tol:
            trace.converged = True
            trace.stop_reason = StopReason.CONVERGED
            trace.steps_used.append(0.0)
            break
        for tries in range(60):
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
            if f_new <= f_cur:
                break
            trace.backtracks += 1
            step *= 0.5
        else:
            # no decrease even at the smallest step: local numeric floor
            trace.stop_reason = StopReason.STEP_FLOOR
            trace.steps_used.append(0.0)
            break
        state = cand
        f_cur = f_new
        trace.steps_used.append(step)
        if tries == 0:
            step = min(1.0, 2.0 * step)
    trace.final = state
    trace.iterations = len(trace.steps_used)
    return trace


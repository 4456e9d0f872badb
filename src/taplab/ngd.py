"""Natural gradient descent and truncated Newton-CG on the free energies.

Both solvers are one line-search loop that differs only in its search
direction (Nocedal & Wright, Numerical Optimization, 2006, ch. 3).  Each
iteration records the energy and ||grad F||^2/p of the current iterate and
stops there once that is below ``grad_tol``; otherwise it takes a direction
and backtracks along it.  The loop steps in the dual coordinates
(lam, -gam/2) and maps back through the tilted-moment map, which keeps every
iterate strictly interior, so no projection is needed along the way;
backtracking on the step size enforces monotone descent.

``ngd_run`` (TAP or mean-field) steps by the moment-space gradient, which is
a Bregman gradient step for the relative-entropy divergence.  The step
carries over between iterations.  The first line search tries FIRST_STEP;
each later one starts from the step the previous iteration accepted, doubled
(capped at 1) when that iteration accepted its first candidate.

``newton_run`` steps by the dual Newton direction.  Write the Hessian as
H = D + K, with D the entropy's 2x2 blocks and K the data-fit and volume part;
the tilted covariances are C = D^-1.  The dual step u = D z of the Newton
system H z = grad F solves (I + K C) u = grad F, which is self-adjoint in the
inner product <x, y>_C = x' C y, so CG in that inner product needs products
with C and K only and builds the iterates of CG on H z = grad F preconditioned
by C (Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 9.2).  CG
stops at the relative residual min(FORCING_MAX, sqrt(||grad F||)) (Eisenstat
& Walker, SIAM J. Sci. Comput. 1996).  Each line search starts from the full
step.  When CG meets negative curvature on its first direction, u = grad F,
NGD's own direction.  Where a tilted law has collapsed onto one or two atoms,
C is singular in float64 and D does not exist.  CG in the C inner product
does not see C's null directions, on which I + K C acts as the identity, so
the step adds the residual on exactly those coordinates (det C <= 0); where
C = 0 this solves their equations.

TAP is strongly convex near the AMP warm start, so a TAP fit is Newton from
the start.  Mean-field has no such guarantee, and Newton from the warm start
can reach another minimizer: a mean-field fit runs ``ngd_run`` until
||grad F||^2/p < MF_NEWTON_ENTRY_GRAD, where NGD has chosen the basin.  If
that phase converged, ``newton_run`` reopens its trace (the handover state's
record is dropped, and the loop records that state again as its first
iteration) and continues it in the same loop with Newton directions, so the
fit has one trace.

In both, a candidate whose energy does not fall is rejected and the step
halved, at most 60 times; when all 60 are rejected the run stops at the step
floor, which is also where a run ends once the energy stops changing in
float64.  Every iterate whose energy is recorded counts as an iteration,
including the last, which takes no step.  A candidate that leaves the dual
box |lam|, |gam| <= DUAL_CAP is clipped onto it and counted as a clip event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .free_energy import (
    LinearModel,
    VariationalState,
    _apply_blocks,
    _hessian_matvec,
    mf_energy,
    mf_gradient,
    tap_energy,
    tap_gradient,
)
from .priors import Prior
from .scalar import DUAL_CAP, tilted_cov_vec, tilted_moments_vec

# NGD's first trial step; later line searches start from the step carried over
FIRST_STEP = 0.2
# CG stops once ||r|| <= min(FORCING_MAX, sqrt(||g||)) * ||g||, or after
# CG_ITERS_PER_COORDINATE * p iterations (the dimension of the Newton system)
FORCING_MAX = 0.5
CG_ITERS_PER_COORDINATE = 2
# a mean-field fit hands over from NGD to Newton once ||g||^2 / p falls below
# this; entering at 1e-3 or 1e-4 moved some fits to another minimizer
MF_NEWTON_ENTRY_GRAD = 1e-6


class Objective(enum.Enum):
    TAP = "tap"
    MF = "mf"


@dataclass(frozen=True)
class NGDConfig:
    max_iters: int = 20000
    grad_tol: float = 1e-10  # stop when ||grad||^2 / p < grad_tol
    objective: Objective = Objective.TAP

    def __post_init__(self):
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
    steps_used: list = field(default_factory=list)  # 0.0 for a record with no step
    final: VariationalState | None = None
    stop_reason: StopReason = StopReason.MAX_ITERS
    backtracks: int = 0  # rejected candidates
    clip_events: int = 0
    hessian_matvecs: int = 0  # CG products of newton_run; 0 for NGD
    ngd_iterations: int = 0  # of ``iterations``, those of a mean-field fit's NGD phase

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @property
    def iterations(self) -> int:
        return len(self.steps_used)


def _descend(model, prior, cfg, trace, state, newton, f_cur=None):
    """Continue ``trace`` from ``state``, whose energy is ``f_cur`` (computed
    when None), until ``trace`` holds ``cfg.max_iters`` iterations: NGD
    directions with the step carried over, or Newton directions from the full
    step, each followed by a backtracking line search."""
    tap = cfg.objective is Objective.TAP
    energy, gradient = (tap_energy, tap_gradient) if tap else (mf_energy, mf_gradient)
    if f_cur is None:
        f_cur = energy(model, state)
    step = FIRST_STEP
    for _ in range(cfg.max_iters - len(trace.steps_used)):
        gm, gs = gradient(model, state)
        gn = float(gm @ gm + gs @ gs) / model.p
        trace.f_values.append(f_cur)
        trace.grad_norm_sq_per_p.append(gn)
        if gn < cfg.grad_tol:
            trace.stop_reason = StopReason.CONVERGED
            trace.steps_used.append(0.0)
            break
        if newton:
            dm, ds = _newton_direction(model, prior, state, gm, gs, tap, trace)
            step = 1.0
        else:
            dm, ds = gm, gs
        # try the duals (lam - step*dm, gam + 2*step*ds), halving the step
        # until the energy falls
        for tries in range(60):
            lam = state.lam - step * dm
            gam = state.gam + 2.0 * step * ds
            if max(np.abs(lam).max(), np.abs(gam).max()) > DUAL_CAP:
                trace.clip_events += 1
                np.clip(lam, -DUAL_CAP, DUAL_CAP, out=lam)
                np.clip(gam, -DUAL_CAP, DUAL_CAP, out=gam)
            m, s, logZ = tilted_moments_vec(prior, lam, gam)
            cand = VariationalState(m, s, lam, gam, logZ)
            f_new = energy(model, cand)
            if f_new < f_cur:
                break
            trace.backtracks += 1
            step *= 0.5
        else:  # no decrease even at the smallest step: local numeric floor
            trace.stop_reason = StopReason.STEP_FLOOR
            trace.steps_used.append(0.0)
            break
        trace.steps_used.append(step)
        state, f_cur = cand, f_new
        if tries == 0:
            step = min(1.0, 2.0 * step)
    trace.final = state
    return trace


def ngd_run(model: LinearModel, prior: Prior, init: VariationalState,
            cfg: NGDConfig) -> NGDTrace:
    """Minimize the configured free energy starting from an interior state."""
    trace = _descend(model, prior, cfg, NGDTrace(), init, newton=False)
    trace.ngd_iterations = trace.iterations
    return trace


def _newton_direction(model, prior, state, gm, gs, tap, trace):
    """Dual direction u, an inexact solution of (I + K C) u = g by CG in the
    inner product of the tilted covariances C, completed on the coordinates
    whose C is singular."""
    cov = tilted_cov_vec(prior, state.lam, state.gam)
    p = model.p
    g = np.concatenate([gm, gs])
    g_norm = float(np.linalg.norm(g))
    tol = min(FORCING_MAX, np.sqrt(g_norm)) * g_norm
    u = np.zeros(2 * p)
    r, q = g.copy(), g
    Cr = Cq = _apply_blocks(cov, r)
    rCr = float(r @ Cr)
    for k in range(CG_ITERS_PER_COORDINATE * p):
        Aq = q + _hessian_matvec(model, state, Cq, tap)
        trace.hessian_matvecs += 1
        curv = float(Cq @ Aq)
        if not curv > 0:
            if k == 0:
                return gm, gs  # u = g: NGD's direction
            break  # keep the iterate built on positive curvature
        alpha = rCr / curv
        u += alpha * q
        r -= alpha * Aq
        if np.linalg.norm(r) <= tol:
            break
        Cr = _apply_blocks(cov, r)
        rCr, rCr_prev = float(r @ Cr), rCr
        beta = rCr / rCr_prev
        q = r + beta * q
        Cq = Cr + beta * Cq
    # where det C <= 0, CG cannot see C's null direction, on which I + K C is
    # the identity: add the residual there (exact where C = 0)
    c11, c12, c22 = cov
    collapsed = np.tile(c11 * c22 - c12 * c12 <= 0, 2)
    u[collapsed] += r[collapsed]
    return u[:p], u[p:]


def newton_run(model: LinearModel, prior: Prior, init: VariationalState,
               cfg: NGDConfig) -> NGDTrace:
    """Minimize the configured free energy by truncated Newton-CG from an
    interior state, such as the AMP warm start; a mean-field fit runs NGD
    first (``ngd_run``) and stops where that phase stops unless it
    converged."""
    if cfg.objective is Objective.TAP:
        return _descend(model, prior, cfg, NGDTrace(), init, newton=True)
    entry = replace(cfg, grad_tol=max(cfg.grad_tol, MF_NEWTON_ENTRY_GRAD))
    trace = ngd_run(model, prior, init, entry)
    if not trace.converged:
        return trace
    # reopen the run at the handover state, which the loop records again
    f_cur = trace.f_values.pop()
    trace.grad_norm_sq_per_p.pop()
    trace.steps_used.pop()
    trace.stop_reason = StopReason.MAX_ITERS
    return _descend(model, prior, cfg, trace, trace.final, newton=True, f_cur=f_cur)

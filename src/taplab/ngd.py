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
stops at the relative residual min(cap, sqrt(||grad F||)) (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 1982; Eisenstat & Walker, SIAM J. Sci. Comput.
1996), with the cap TAP_FORCING_MAX = 0.02 on TAP and MF_FORCING_MAX = 0.5 on
mean-field.  TAP is strongly convex in a neighbourhood of the minimizer that
AMP reaches, and on a 101-atom prior the tilts of one Newton iteration cost
about 15 CG products, so solving each system to 2 % buys a fit 4-6 Newton
iterations instead of 8-10.  Mean-field keeps the loose cap: nothing shows it
convex where a fit hands over to Newton, and a cap of 0.1 moved a gated
handover to another minimizer.  Each line search starts from the full
step.  When CG meets negative curvature on its first direction, u = grad F,
NGD's own direction; when it meets it later, u is CG's iterate before it.
The trace counts both in ``curvature_breaks``.  Where a tilted law has
collapsed onto one or two atoms, C is singular in float64 and D does not
exist.  CG in the C inner product does not see C's null directions, on
which I + K C acts as the identity, so the step adds the residual on
exactly those coordinates (det C <= 0); where C = 0 this solves their
equations.

TAP is strongly convex near the AMP warm start, so a TAP fit is Newton from
the start.  Mean-field has no such guarantee, and Newton from the warm start
can reach another minimizer, so a mean-field fit starts with NGD directions
in the same loop.  The first time ||grad F||^2/p falls below each of
MF_PROBE_GRADS, it probes the curvature: it computes the Newton direction
with CG held for at least PROBE_CG_ITERS = 20 steps.  CG in the C inner
product is Lanczos on S = I + C^1/2 K C^1/2, which has the inertia of H
where D exists, and its curvatures are all positive exactly when every Ritz
value of its tridiagonal is (Saad 2003, sec. 6.7.3); a non-positive one is
a vector w with w' S w <= 0, which proves S is not positive definite.  Then
that iteration takes NGD's direction with the carried step, and NGD goes
on.  A probe that meets no such curvature proves nothing, but the loop
switches to Newton for good, and the probe's direction is its first step.
Below MF_NEWTON_ENTRY_GRAD it switches without a probe.  Why 20 steps: on
the 210 mean-field fits of the acceptance sweeps (``tools/mf_gate.py``), a
20-step probe ends every fit where a 40-step one does (max|dm| 3.1e-4) with
a fifth fewer products, while a 10-step probe passes at an indefinite state
of one fit (three-point, n = 500, delta = 1, replicate 1), which then ends
at another minimizer (max|dm| 0.91).

In both, a candidate whose energy does not fall is rejected and the step
halved, at most 60 times; when all 60 are rejected the run stops at the step
floor, which is also where a run ends once the energy stops changing in
float64.  Every iterate whose energy is recorded counts as an iteration,
including the last, which takes no step.  A candidate that leaves the dual
box |lam|, |gam| <= DUAL_CAP is clipped onto it and counted as a clip event.
An iterate whose ||g||^2/p is not finite (the gradient overflows at a tiny
sigma^2) stops the run with a DomainError: no step can follow it.  The loop
runs with numpy's overflow warnings off, entered once per run, so that error
is all a caller sees; a candidate whose energy overflows is rejected like any
other whose energy does not fall.

What an iteration costs, with X the n x p design: each candidate is one tilt
and one product X m, for the residual y - X m that its energy reads; the
accepted candidate's residual goes on to the next gradient, which adds one
product X' r.  Each CG step of a Newton direction is two more, X v and X' (X v).
Once a fit is in Newton mode, each candidate's one tilt also gives its
covariances C (``tilted_moments_vec`` with ``cov``, whose m, s and logZ are
those of the tilt without it: one kernel computes both), and the accepted
candidate's C goes on to the next Newton direction, so a direction tilts C
itself only where the fit enters Newton: TAP's first step and each
mean-field probe.
At the sizes fitted here (p of a few hundred) a tilt or a CG step is mostly
numpy's fixed cost per operation, so a Newton direction forms the K
product's constants at its state once (``free_energy._k_product``) and
allocates its vectors once; each CG step then updates them in place, with
the arithmetic of the allocating code, bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError
from .free_energy import (
    LinearModel,
    VariationalState,
    _apply_blocks,
    _grad_norm_sq_per_p,
    _k_product,
    mf_energy,
    mf_gradient,
    tap_energy,
    tap_gradient,
)
from .priors import Prior
from .scalar import DUAL_CAP, tilted_cov_vec, tilted_moments_vec

# NGD's first trial step; later line searches start from the step carried over
FIRST_STEP = 0.2
# CG stops once ||r|| <= min(cap, sqrt(||g||)) * ||g||, or after
# CG_ITERS_PER_COORDINATE * p iterations (the dimension of the Newton system).
# TAP's cap is tight: TAP is strongly convex near the AMP warm start, and on a
# 101-atom prior one Newton iteration's tilts cost about 15 CG products.
# Mean-field's stays 0.5: nothing shows it convex where it hands over, and a
# cap of 0.1 moved a gated handover to another minimizer (max|dm| 0.77)
TAP_FORCING_MAX = 0.02
MF_FORCING_MAX = 0.5
CG_ITERS_PER_COORDINATE = 2
# a mean-field fit hands over from NGD to Newton at the first iterate below one
# of MF_PROBE_GRADS where CG, held for PROBE_CG_ITERS steps, meets no
# non-positive curvature, or once ||g||^2 / p falls below MF_NEWTON_ENTRY_GRAD;
# handing over at 1e-3 without the probe moved some fits to another minimizer,
# and so did a probe of 10 steps (one of 210), where 20 and 40 move none
MF_NEWTON_ENTRY_GRAD = 1e-6
MF_PROBE_GRADS = (1e-3, 1e-4, 1e-5)
PROBE_CG_ITERS = 20


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
            raise DomainError("grad_tol must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")


class StopReason(enum.Enum):
    CONVERGED = "converged"
    STEP_FLOOR = "step_floor"  # 60 halvings found no decrease
    MAX_ITERS = "max_iters"


@dataclass
class NGDTrace:
    """What a descent did, one record per iteration in the three series.

    The series are float64 arrays once the descent returns (lists while it
    runs): a sweep keeps every trace it makes, and an array holds a value in
    8 bytes where a list holds a float object and a pointer to it.

    ``curvature_breaks`` counts the Newton directions whose CG met
    non-positive curvature, TAP's or mean-field's after the switch: those
    that fell back to NGD's direction on CG's first step and those that kept
    CG's iterate from before a later break.  A failed curvature probe, which
    only keeps a mean-field fit on NGD, is not counted."""

    f_values: np.ndarray = field(default_factory=list)
    grad_norm_sq_per_p: np.ndarray = field(default_factory=list)
    steps_used: np.ndarray = field(default_factory=list)  # 0.0 for a record with no step
    final: VariationalState | None = None
    stop_reason: StopReason = StopReason.MAX_ITERS
    backtracks: int = 0  # rejected candidates
    clip_events: int = 0
    hessian_matvecs: int = 0  # CG products of newton_run; 0 for NGD
    # NGD directions taken: the iterations before the switch to Newton that
    # took a step, so 0 for a fit that converges at its first record
    ngd_iterations: int = 0
    curvature_breaks: int = 0  # see the docstring

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @property
    def iterations(self) -> int:
        return len(self.steps_used)


@np.errstate(over="ignore")  # a gradient that overflows is one DomainError
def _descend(model, prior, cfg, state, entry, probes=()):
    """Descend from ``state`` for at most ``cfg.max_iters`` iterations: NGD
    directions with the step carried over, then, from the first iterate with
    ||g||^2/p below ``entry`` or below one of ``probes`` where the curvature
    probe passes, Newton directions from the full step.  Each direction is
    followed by a backtracking line search."""
    tap = cfg.objective is Objective.TAP
    energy, gradient = (tap_energy, tap_gradient) if tap else (mf_energy, mf_gradient)
    trace = NGDTrace()
    # the data residual y - X m, formed once per candidate for its energy;
    # the accepted candidate's goes on to its gradient
    resid = model.y - model.X @ state.m
    f_cur = energy(model, state, resid)
    newton = False
    cov = None  # ``state``'s tilted covariances, once a Newton candidate gave them
    step = FIRST_STEP
    for _ in range(cfg.max_iters):
        gm, gs = gradient(model, state, resid)
        # no step can follow an overflowed or NaN gradient
        gn = _grad_norm_sq_per_p(gm, gs, trace.iterations)
        trace.f_values.append(f_cur)
        trace.grad_norm_sq_per_p.append(gn)
        if gn < cfg.grad_tol:
            trace.stop_reason = StopReason.CONVERGED
            trace.steps_used.append(0.0)
            break
        direction = None  # NGD's
        if newton:
            direction = _newton_direction(model, prior, state, gm, gs, tap, trace, cov=cov)
        elif gn < entry or any(gn < gate for gate in probes):
            probe = gn >= entry
            probes = [gate for gate in probes if gate <= gn]  # each gate probes once
            direction = _newton_direction(model, prior, state, gm, gs, tap, trace,
                                          PROBE_CG_ITERS if probe else 1)
            # a probe that met non-positive curvature keeps NGD's direction
            newton = direction is not None or not probe
        if newton:
            step = 1.0
        dm, ds = (gm, gs) if direction is None else direction
        # try the duals (lam - step*dm, gam + 2*step*ds), halving the step
        # until the energy falls
        for tries in range(60):
            lam = state.lam - step * dm
            gam = state.gam + 2.0 * step * ds
            if max(np.abs(lam).max(), np.abs(gam).max()) > DUAL_CAP:
                trace.clip_events += 1
                np.clip(lam, -DUAL_CAP, DUAL_CAP, out=lam)
                np.clip(gam, -DUAL_CAP, DUAL_CAP, out=gam)
            # a Newton candidate's tilt also gives its covariances, which
            # the next direction reads if it is accepted
            m, s, logZ, *cand_cov = tilted_moments_vec(prior, lam, gam, cov=newton)
            cand = VariationalState(m, s, lam, gam, logZ)
            cand_resid = model.y - model.X @ m
            f_new = energy(model, cand, cand_resid)
            if f_new < f_cur:
                break
            trace.backtracks += 1
            step *= 0.5
        else:  # no decrease even at the smallest step: local numeric floor
            trace.stop_reason = StopReason.STEP_FLOOR
            trace.steps_used.append(0.0)
            break
        trace.steps_used.append(step)
        if not newton:
            trace.ngd_iterations += 1
        state, resid, f_cur = cand, cand_resid, f_new
        cov = cand_cov[0] if cand_cov else None
        if tries == 0:
            step = min(1.0, 2.0 * step)
    trace.f_values, trace.grad_norm_sq_per_p, trace.steps_used = (
        np.array(x, dtype=np.float64)
        for x in (trace.f_values, trace.grad_norm_sq_per_p, trace.steps_used))
    trace.final = state
    return trace


def ngd_run(model: LinearModel, prior: Prior, init: VariationalState,
            cfg: NGDConfig) -> NGDTrace:
    """Minimize the configured free energy starting from an interior state."""
    return _descend(model, prior, cfg, init, entry=0.0)


def _newton_direction(model, prior, state, gm, gs, tap, trace, min_iters=1, cov=None):
    """Dual direction u, an inexact solution of (I + K C) u = g by CG in the
    inner product of the tilted covariances C, completed on the coordinates
    whose C is singular.  C is ``cov``, the state's covariances when its
    tilt gave them, or else tilted here.  CG runs at least ``min_iters``
    steps unless its residual vanishes; None when it meets non-positive
    curvature within them, which proves I + C^1/2 K C^1/2 is not positive
    definite."""
    if cov is None:
        cov = tilted_cov_vec(prior, state.lam, state.gam)
    product = _k_product(model, state, tap)
    p = model.p
    g = np.concatenate([gm, gs])
    g_norm = math.sqrt(g @ g)
    tol = min(TAP_FORCING_MAX if tap else MF_FORCING_MAX, np.sqrt(g_norm)) * g_norm
    # the solve's vectors, allocated here and updated in place; the residual
    # r and the direction q are stacked with C r and C q, so that one
    # operation updates a pair
    u = np.zeros(2 * p)
    rs, qs = np.empty((2, 2, 2 * p))
    r, Cr = rs
    q, Cq = qs
    r[:] = g
    _apply_blocks(cov, r, Cr)
    qs[:] = rs
    Aq, step = np.empty((2, 2 * p))
    rCr = float(r @ Cr)
    for k in range(CG_ITERS_PER_COORDINATE * p):
        Aq = product(Cq, Aq)
        Aq += q
        trace.hessian_matvecs += 1
        curv = float(Cq @ Aq)
        if not curv > 0:
            if rCr > 0:  # rCr = 0: the residual vanished, which is no curvature
                if min_iters == 1 or k >= min_iters:  # not a failed probe
                    trace.curvature_breaks += 1
                if k < min_iters:
                    return None
            break  # keep the iterate built on positive curvature
        alpha = rCr / curv
        u += np.multiply(q, alpha, out=step)
        r -= np.multiply(Aq, alpha, out=step)
        if math.sqrt(r @ r) <= tol and k + 1 >= min_iters:
            break
        _apply_blocks(cov, r, Cr)
        rCr, rCr_prev = float(r @ Cr), rCr
        qs *= rCr / rCr_prev  # q = r + beta q, C q = C r + beta C q
        qs += rs
    # where det C <= 0, CG cannot see C's null direction, on which I + K C is
    # the identity: add the residual there (exact where C = 0)
    c11, c12, c22 = cov
    collapsed = np.tile(c11 * c22 - c12 * c12 <= 0, 2)
    u[collapsed] += r[collapsed]
    return u[:p], u[p:]


def newton_run(model: LinearModel, prior: Prior, init: VariationalState,
               cfg: NGDConfig) -> NGDTrace:
    """Minimize the configured free energy by truncated Newton-CG from an
    interior state, such as the AMP warm start; a mean-field fit takes NGD
    directions until its curvature probe passes or ||g||^2/p falls below
    MF_NEWTON_ENTRY_GRAD."""
    if cfg.objective is Objective.TAP:
        return _descend(model, prior, cfg, init, entry=math.inf)
    return _descend(model, prior, cfg, init, MF_NEWTON_ENTRY_GRAD, MF_PROBE_GRADS)

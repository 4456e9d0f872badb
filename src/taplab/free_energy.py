"""TAP and naive mean-field free energies with gradients and Hessians.

State layout throughout: per-coordinate first/second moments (m, s) with the
fresh (lam, gam, logZ) of the tilted laws that produced them.  Both energies
are the data fit plus the entropy sum plus a volume term, and differ only
there: TAP's is (n/2) log(V/sigma^2) in the Onsager volume
V = sigma^2 + S(s) - Q(m), and mean-field's is its linearisation
(n/2) (V - sigma^2)/sigma^2, so its gradient is TAP's with V fixed at sigma^2.
The Hessian is H = D + K: D the entropy's per-coordinate 2x2 blocks, K the
data fit X^T X / sigma^2 and the volume terms (TAP's include rank-one terms).
The matrix-free K product serves mean-field too, whose K lacks the rank-one
terms.  ``_k_product`` forms its constants at a state once and writes each
product into a caller's buffer, which Newton-CG reuses across its steps.
D enters only where a Hessian is asked for (``tap_hessian_matvec``,
``tap_hessian_dense`` and the eigenvalue probe).  H's scale sits in D, so the
tilted covariances C = D^-1 precondition the LOBPCG probe, and Newton-CG
works with C and K alone (see ``ngd``), so it never inverts a 2x2 block.
The entropy sum is numpy's pairwise sum of its p terms, not an exactly
rounded one.  The error of a sum of p terms in any order is at most
gamma_{p-1} sum|t_i|, gamma_k = k u/(1 - k u) with u the unit roundoff
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2),
and the sum is then added to the data fit and the volume term, so the energy
is rounded at ulp(F) whatever the order: over the 40 fits of a three-point
sweep, the pairwise and the exactly rounded sums gave energies at most one
ulp of F apart, and each of the 420 fits of ``tools/mf_gate.py`` took the
same descent path with either.  An exactly rounded sum
(``math.fsum``) buys nothing there and costs about 8 % of a three-point
sweep's time (perfbench ``sweep-3pt``, 2-core x86-64).
``min_eigenvalue`` imports scipy on first use, ``scipy.linalg`` alone for
the dense probe and ``scipy.sparse.linalg`` for LOBPCG; the energies and
gradients a fit calls never load it.  ``tap_hessian_dense`` fills one
Fortran-ordered array in place, which the dense probe lets LAPACK overwrite,
so the probe holds one Hessian, not two.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, NoConvergenceError
from .priors import Prior
from .scalar import dual_solve_vec, tilted_cov_vec, tilted_moments_vec

DENSE_HESSIAN_MAX_DIM = 8000
EIG_RESIDUAL_MAX = 1e-8  # bound on ||Hx - theta x|| for the unit x LOBPCG returns
EIG_MAXITER = 2000


@dataclass(frozen=True)
class LinearModel:
    X: np.ndarray
    y: np.ndarray
    sigma2: float
    # the energies' constant 0.5 n log(2 pi sigma^2), formed once
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise DomainError("X must be n x p and y length n")
        if not 0 < self.sigma2 < np.inf:  # also rejects nan
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_log_norm",
                           0.5 * X.shape[0] * np.log(2.0 * np.pi * self.sigma2))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def delta_hat(self) -> float:
        return self.n / self.p


@dataclass(frozen=True)
class VariationalState:
    """Moments (m, s) with the fresh (lam, gam, logZ) of their tilted laws."""

    m: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    gam: np.ndarray
    logZ: np.ndarray
    # S(s) - Q(m) = V - sigma^2, formed once: the energy, the gradient and the
    # Hessian at a state all read it
    _sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = len(self.m)
        object.__setattr__(self, "_sq", float(np.add.reduce(self.s) / p
                                              - np.add.reduce(self.m**2) / p))

    @classmethod
    def from_duals(cls, prior: Prior, lam, gam) -> "VariationalState":
        lam = np.asarray(lam, dtype=np.float64)
        gam = np.asarray(gam, dtype=np.float64)
        m, s, logZ = tilted_moments_vec(prior, lam, gam)
        return cls(m=m, s=s, lam=lam, gam=gam, logZ=logZ)

    @classmethod
    def from_moments(cls, prior: Prior, m, s) -> "VariationalState":
        """Solve the duals for exactly the given moments.  Every coordinate
        must solve to DUAL_RESIDUAL_TOL, else DomainError: a point outside
        the moment space has no duals, and one on or near its boundary,
        where a law collapses onto one or two atoms, solves at large duals
        or not at all."""
        m = np.asarray(m, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64)
        lam, gam, logZ, conv, res = dual_solve_vec(prior, m, s)
        if not np.all(conv):
            worst = float(np.max(res))
            raise DomainError(f"dual solve failed on {np.sum(~conv)} coordinates "
                              f"(worst residual {worst:.3e})")
        return cls(m=m, s=s, lam=lam, gam=gam, logZ=logZ)


def onsager_volume(model: LinearModel, state: VariationalState) -> float:
    """V = sigma^2 + S(s) - Q(m)."""
    return model.sigma2 + state._sq


def _entropy_sum(state: VariationalState) -> float:
    terms = -0.5 * state.gam * state.s + state.lam * state.m - state.logZ
    # numpy's pairwise sum, within gamma_{p-1} sum|t_i| of the exact one
    # (see the module docstring): the energy that adds it is rounded at its
    # own ulp anyway
    return float(np.add.reduce(terms))


def _energy(model: LinearModel, state: VariationalState, tap: bool, resid=None) -> float:
    if resid is None:
        resid = model.y - model.X @ state.m
    n, sq = model.n, state._sq  # V - sigma^2
    if tap:
        ratio = sq / model.sigma2
        if ratio <= -1.0:
            raise DomainError("Onsager volume is nonpositive")
        volume = 0.5 * n * np.log1p(ratio)
    else:
        volume = 0.5 * n * sq / model.sigma2
    return (model._log_norm + _entropy_sum(state)
            + float(resid @ resid) / (2.0 * model.sigma2) + volume)


def _gradient(model: LinearModel, state: VariationalState, tap: bool, resid=None):
    """(grad_m, grad_s) at a state with fresh duals; mean-field fixes V = sigma^2."""
    if resid is None:
        resid = model.y - model.X @ state.m
    V = onsager_volume(model, state) if tap else model.sigma2
    if V <= 0:
        raise DomainError("Onsager volume is nonpositive")
    ratio = model.n / model.p
    grad_m = state.lam - model.X.T @ resid / model.sigma2 - ratio * state.m / V
    grad_s = 0.5 * ratio / V - 0.5 * state.gam
    return grad_m, grad_s


def _grad_norm_sq_per_p(gm, gs, iteration) -> float:
    """||g||^2/p of the gradient (gm, gs), or a DomainError naming
    ``iteration`` when it is not finite (the gradient overflows at a tiny
    sigma^2).  Its callers silence numpy's overflow warning once per run."""
    gn = float(gm @ gm + gs @ gs) / len(gm)
    if not math.isfinite(gn):
        raise DomainError(f"free-energy gradient is not finite at iteration "
                          f"{iteration}: ||g||^2/p = {gn!r}")
    return gn


# ``resid`` is the state's data residual y - X m when the caller has formed it
# (``ngd`` forms it once per candidate); without it, it is formed here
def tap_energy(model: LinearModel, state: VariationalState, resid=None) -> float:
    return _energy(model, state, tap=True, resid=resid)


def mf_energy(model: LinearModel, state: VariationalState, resid=None) -> float:
    return _energy(model, state, tap=False, resid=resid)


def tap_gradient(model: LinearModel, state: VariationalState, resid=None):
    return _gradient(model, state, tap=True, resid=resid)


def mf_gradient(model: LinearModel, state: VariationalState, resid=None):
    return _gradient(model, state, tap=False, resid=resid)


def _entropy_hessian_blocks(prior: Prior, state: VariationalState):
    """Per-coordinate 2x2 Hessian of the entropy sum, (d_mm, d_ms, d_ss), and
    the covariance (c11, c12, c22) of (beta, beta^2) under the tilted law
    that it inverts, each as a (3, p) array."""
    c11, c12, c22 = cov = tilted_cov_vec(prior, state.lam, state.gam)
    det = c11 * c22 - c12 * c12
    singular = ~(np.isfinite(det) & (det > 0))
    if singular.any():
        raise DomainError(f"per-coordinate covariance singular in float64 on "
                          f"{singular.sum()} of {len(det)} coordinates (tilted laws "
                          "collapsed onto one or two atoms)")
    return np.array([c22 / det, -c12 / det, c11 / det]), cov


def _apply_blocks(blocks, v: np.ndarray, out=None) -> np.ndarray:
    """Apply per-coordinate symmetric 2x2 blocks, [[a_i, b_i], [b_i, c_i]] at
    coordinate i, to the 2p-vector v = (v_m, v_s): (a v_m + b v_s,
    b v_m + c v_s).  ``blocks`` is the (3, p) array of rows a, b, c; the
    result goes into the 2p-vector ``out`` when one is given."""
    p = blocks.shape[1]
    if out is None:
        out = np.empty(2 * p)
    # rows [a; b] times v_m plus rows [b; c] times v_s
    np.add(blocks[:2] * v[:p], blocks[1:] * v[p:], out=out.reshape(2, p))
    return out


def _volume_constants(model: LinearModel, state: VariationalState, tap: bool):
    """K's volume constants at ``state``, (n/(pV), n/(p^2 V^2)): the diagonal
    and TAP's rank-one weight, with V the Onsager volume, or sigma^2 for
    mean-field."""
    V = onsager_volume(model, state) if tap else model.sigma2
    ratio = model.n / model.p
    return ratio / V, ratio / (model.p * V * V)


def _k_product(model: LinearModel, state: VariationalState, tap: bool):
    """The product with K, the Hessian's data-fit and volume part (H = D + K),
    at ``state``, as ``product(v, out)``: it writes K v into the 2p-vector
    ``out`` and returns it.  The state's volume constants are formed here
    once.  TAP's rank-one volume terms are never materialized; mean-field
    fixes V at sigma^2, so it has none."""
    X, sigma2, m = model.X, model.sigma2, state.m
    p = model.p
    diag, w = _volume_constants(model, state, tap)
    Xv = np.empty(model.n)

    def product(v, out):
        vm, vs = v[:p], v[p:]
        out_m, out_s = out[:p], out[p:]
        np.matmul(X.T, np.matmul(X, vm, out=Xv), out=out_m)
        out_m /= sigma2
        out_m -= diag * vm
        out_s.fill(0.0)
        if tap:
            mdot = float(m @ vm)
            ssum = float(np.add.reduce(vs))
            out_m -= 2.0 * w * mdot * m
            out_m += w * ssum * m
            out_s += w * mdot - 0.5 * w * ssum
        return out

    return product


def tap_hessian_matvec(model: LinearModel, state: VariationalState, prior: Prior,
                       v: np.ndarray, _blocks=None) -> np.ndarray:
    if _blocks is None:
        _blocks = _entropy_hessian_blocks(prior, state)[0]
    Kv = _k_product(model, state, True)(v, np.empty(2 * model.p))
    return Kv + _apply_blocks(_blocks, v)


def tap_hessian_dense(model: LinearModel, state: VariationalState,
                      prior: Prior) -> np.ndarray:
    p = model.p
    if 2 * p > DENSE_HESSIAN_MAX_DIM:
        raise DomainError(f"dense Hessian limited to 2p <= {DENSE_HESSIAN_MAX_DIM}")
    d_mm, d_ms, d_ss = _entropy_hessian_blocks(prior, state)[0]
    diag, w = _volume_constants(model, state, True)
    m = state.m
    # one Fortran-ordered array, filled block by block in place, so that
    # eigvalsh can overwrite it instead of copying it; each entry gets the
    # operations, in the same order, of the sum of dense terms (identity,
    # outer products, diagonals) that the tests compare it with, less the
    # additions of zero off the diagonal
    H = np.empty((2 * p, 2 * p), order="F")
    H_mm, H_ms, H_ss = H[:p, :p], H[:p, p:], H[p:, p:]
    np.matmul(model.X.T, model.X, out=H_mm)
    H_mm /= model.sigma2
    np.einsum("ii->i", H_mm)[:] -= diag
    # the rank-one m-m term is formed in the m-s block, which is filled next
    np.multiply.outer(m, m, out=H_ms)
    H_ms *= 2.0 * w
    H_mm -= H_ms
    np.einsum("ii->i", H_mm)[:] += d_mm
    H_ms[:] = (w * m)[:, None]
    np.einsum("ii->i", H_ms)[:] += d_ms
    H_ss[:] = -(0.5 * w)
    np.einsum("ii->i", H_ss)[:] += d_ss
    H[p:, :p] = H_ms.T
    return H


@dataclass(frozen=True)
class EigResult:
    """The smallest eigenvalue of the TAP Hessian and the ``method`` that
    found it; ``converged`` is True for every result returned (a probe that
    misses raises)."""

    value: float
    converged: bool
    method: str


def min_eigenvalue(model: LinearModel, state: VariationalState, prior: Prior,
                   method: str | None = None) -> EigResult:
    """Smallest eigenvalue of the TAP Hessian.

    With no ``method``, it probes 'dense' while 2p <= DENSE_HESSIAN_MAX_DIM
    and 'lanczos' past it.  'lanczos' runs LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 2001) on the matrix-free Hessian, preconditioned by the tilted
    covariances, from a fixed-seed vector, so repeated calls agree bit for
    bit.  It returns the Rayleigh quotient theta of a unit x with
    ||Hx - theta x|| <= EIG_RESIDUAL_MAX, within that of an eigenvalue, or
    raises NoConvergenceError.
    """
    if method is None:
        method = "dense" if 2 * model.p <= DENSE_HESSIAN_MAX_DIM else "lanczos"
    if method not in ("dense", "lanczos"):
        raise DomainError("method must be 'dense' or 'lanczos'")
    # scipy is imported where it is called, so that a fit never loads it and
    # the dense probe loads no scipy.sparse
    # (guarded by tests/test_cli.py::test_fit_commands_never_load_scipy)
    if method == "dense":
        import scipy.linalg

        H = tap_hessian_dense(model, state, prior)  # ours to overwrite
        val = scipy.linalg.eigvalsh(H, overwrite_a=True, subset_by_index=[0, 0])[0]
        return EigResult(value=float(val), converged=True, method=method)
    import scipy.sparse.linalg

    dim = 2 * model.p
    blocks, cov = _entropy_hessian_blocks(prior, state)

    def mv(v):
        return tap_hessian_matvec(model, state, prior, np.ravel(v), _blocks=blocks)

    def operator(f):  # LinearOperator hands f (dim, 1) columns
        return scipy.sparse.linalg.LinearOperator((dim, dim), matvec=f, dtype=np.float64)

    x0 = np.random.default_rng(0).standard_normal((dim, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a miss raises below
        _, vecs = scipy.sparse.linalg.lobpcg(
            operator(mv), x0, M=operator(lambda r: _apply_blocks(cov, np.ravel(r))),
            tol=EIG_RESIDUAL_MAX, maxiter=EIG_MAXITER, largest=False)
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    Hx = mv(x)
    theta = float(x @ Hx)
    residual = float(np.linalg.norm(Hx - theta * x))
    if not residual <= EIG_RESIDUAL_MAX:
        raise NoConvergenceError(f"LOBPCG found no eigenpair of the {dim}-dimensional "
                                 f"Hessian in {EIG_MAXITER} iterations "
                                 f"(residual {residual:.1e})")
    return EigResult(value=theta, converged=True, method=method)

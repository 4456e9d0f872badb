"""Atomic prior representations.

Continuous priors are discretized once, up front, by Gauss-Hermite quadrature
of their continuous component; after that every scalar expectation in the
package is an exact finite sum over atoms.  The only approximation is the
quadrature itself, which is testable against Gaussian closed forms.

A prior also holds what every fit under it shares: the two small matrices of
the tilt kernels, built once here, and the channel quadrature rows and
state-evolution schedules that ``scalar`` and ``amp`` compute on first
use and keep on the prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .exceptions import DomainError

DEFAULT_QUAD_NODES = 101


@lru_cache(maxsize=32)
def _gauss_hermite_standard_normal(n_nodes: int):
    """Nodes and weights for E_{z~N(0,1)}[f(z)] ~= sum_i w_i f(z_i)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return nodes, weights / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Prior:
    """Finite atomic measure standing in for the coordinate prior.

    ``zero_spike_weight`` is the prior mass at exactly 0 that belongs to a
    discrete spike (as opposed to quadrature nodes of a continuous component
    that happen to land at 0).  It is what posterior inclusion probabilities
    condition on.
    """

    locations: np.ndarray
    weights: np.ndarray
    zero_spike_weight: float = 0.0
    # sampling recipe for drawing exact (non-quadrature) signals: ("atoms",)
    # for an explicit discrete prior, ("bernoulli-gaussian", sparsity,
    # variance) for a quadrature of a continuous one
    sampler: tuple = ("atoms",)
    log_weights: np.ndarray = field(init=False, repr=False)
    # the tilt kernels' (atoms x 3) basis [logw, -a^2/2, a] and (3 x atoms)
    # powers [1, a, a^2], and the rows of the atom window's bound (None on a
    # prior too small for a window); see kernels
    _tilt_basis: np.ndarray = field(init=False, repr=False, compare=False)
    _tilt_powers: np.ndarray = field(init=False, repr=False, compare=False)
    _tilt_bound: np.ndarray | None = field(init=False, repr=False, compare=False)
    # state-evolution schedules by (sigma2, delta, k); see amp
    _se_schedules: dict = field(init=False, repr=False, compare=False,
                                default_factory=dict)
    # channel quadrature rows by Gauss-Hermite node count; see scalar
    _channel_grids: dict = field(init=False, repr=False, compare=False,
                                 default_factory=dict)

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if locs.ndim != 1 or w.shape != locs.shape:
            raise ValueError("locations and weights must be 1-d arrays of equal length")
        if not np.all(np.isfinite(locs)):
            raise ValueError("prior locations must be finite")
        if not np.all(w > 0):  # also rejects nan
            raise ValueError("prior weights must be strictly positive")
        # sort the locations and merge duplicates, adding their weights
        locs, inverse = np.unique(locs, return_inverse=True)
        w = np.bincount(inverse, weights=w)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior weights must sum to 1, got {w.sum()!r}")
        if len(locs) < 3:
            raise ValueError("prior needs at least 3 distinct support points")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)
        logw = np.log(w)
        powers = np.array([np.ones_like(locs), locs, locs * locs])
        basis = np.array([logw, -0.5 * powers[2], locs]).T
        for name, arr in (("locations", locs), ("weights", w), ("log_weights", logw),
                          ("_tilt_basis", basis), ("_tilt_powers", powers)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_tilt_bound", kernels._bound_rows(basis))

    @property
    def support_lo(self) -> float:
        return float(self.locations[0])

    @property
    def support_hi(self) -> float:
        return float(self.locations[-1])

    @property
    def mean(self) -> float:
        return float(self.weights @ self.locations)

    @property
    def second_moment(self) -> float:
        return float(self.weights @ self.locations**2)

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2

    def zero_spike_fraction_of_atom(self) -> float:
        """Fraction of the weight of the atom at 0 attributable to the spike."""
        idx = np.flatnonzero(self.locations == 0.0)
        if len(idx) == 0 or self.zero_spike_weight == 0.0:
            return 0.0
        return self.zero_spike_weight / float(self.weights[idx[0]])

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw iid signal coordinates, sampling continuous parts exactly."""
        if self.sampler[0] == "bernoulli-gaussian":
            _, sparsity, variance = self.sampler
            mask = rng.random(size) < sparsity
            out = np.zeros(size)
            out[mask] = rng.normal(0.0, np.sqrt(variance), size=int(mask.sum()))
            return out
        return rng.choice(self.locations, size=size, p=self.weights)


def three_point() -> Prior:
    """Uniform on {-1, 0, 1}."""
    return point_mass_prior([(-1.0, 1.0 / 3.0), (0.0, 1.0 / 3.0), (1.0, 1.0 / 3.0)])


def point_mass_prior(pairs) -> Prior:
    locs = np.array([v for v, _ in pairs], dtype=np.float64)
    w = np.array([wt for _, wt in pairs], dtype=np.float64)
    spike0 = float(w[locs == 0.0].sum())
    return Prior(locations=locs, weights=w, zero_spike_weight=spike0)


def bernoulli_gaussian(sparsity: float, variance: float) -> Prior:
    """(1 - sparsity) * delta_0 + sparsity * N(0, variance), via quadrature."""
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must be in (0, 1]")
    if not variance > 0:  # also rejects nan
        raise ValueError("variance must be positive")
    nodes, w = _gauss_hermite_standard_normal(DEFAULT_QUAD_NODES)
    locs = nodes * np.sqrt(variance)
    weights = w * sparsity
    if sparsity < 1.0:
        locs = np.append(locs, 0.0)
        weights = np.append(weights, 1.0 - sparsity)
    weights = weights / weights.sum()  # absorb quadrature round-off
    return Prior(
        locations=locs,
        weights=weights,
        zero_spike_weight=(1.0 - sparsity),
        sampler=("bernoulli-gaussian", sparsity, variance),
    )


def gaussian_prior(variance: float) -> Prior:
    """N(0, variance) as a pure quadrature prior."""
    return bernoulli_gaussian(1.0, variance)


def parse_prior(descriptor: str) -> Prior:
    """Parse the CLI prior descriptors.

    Grammar: ``three-point``, ``point-mass:<v1,w1;v2,w2;...>``,
    ``bernoulli-gaussian:<sparsity>,<variance>``.  A bad descriptor raises
    DomainError naming it and the cause.
    """
    text = descriptor.strip()
    try:
        if text == "three-point":
            return three_point()
        if text.startswith("point-mass:"):
            body = text[len("point-mass:"):]
            pairs = []
            for chunk in body.split(";"):
                v, w = chunk.split(",")
                pairs.append((float(v), float(w)))
            return point_mass_prior(pairs)
        if text.startswith("bernoulli-gaussian:"):
            body = text[len("bernoulli-gaussian:"):]
            sparsity, variance = (float(x) for x in body.split(","))
            return bernoulli_gaussian(sparsity, variance)
        raise ValueError("unrecognized prior kind")
    except ValueError as err:
        raise DomainError(f"prior descriptor {descriptor!r}: {err}") from err

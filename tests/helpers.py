"""Builders that several test modules share: a Gaussian-design linear model,
the negative entropy of a tilted law, and the n = 300 instance at seed 0,
replicate 0 with its AMP warm start or its converged TAP state."""

import numpy as np

from taplab.amp import amp_run
from taplab.experiments import AMP_WARM_ITERS, ExperimentConfig, fit_free_energy, generate_instance
from taplab.free_energy import LinearModel
from taplab.ngd import Objective
from taplab.scalar import dual_solve_vec, tilted_moments_vec

SIGMA2 = 0.09  # sigma = 0.3


def make_model(rng, n, p, prior, sigma2=SIGMA2):
    """A model with an iid N(0, 1/p) design, a signal drawn from ``prior`` and
    N(0, sigma2) noise, drawn from ``rng`` in that order; and the signal."""
    X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    beta = prior.sample(p, rng)
    y = X @ beta + rng.normal(0.0, np.sqrt(sigma2), size=n)
    return LinearModel(X=X, y=y, sigma2=sigma2), beta


def neg_entropy(prior, m, s):
    """KL divergence from the prior to the tilted law with moments (m, s)."""
    lam, gam, _, _, _ = dual_solve_vec(prior, [m], [s])
    logZ = tilted_moments_vec(prior, lam[0], gam[0])[2][0]
    return float(-0.5 * gam[0] * s + lam[0] * m - logZ)


def instance(delta, sigma=0.3, desc="three-point"):
    """The config and model of the n = 300 instance at seed 0, replicate 0,
    under the prior descriptor ``desc``."""
    cfg = ExperimentConfig(prior_descriptor=desc, sigma=sigma, n=300, seed=0, replicates=1)
    return cfg, generate_instance(cfg, 0, delta)[0]


def warm_start(sigma, delta, desc="three-point"):
    """The instance's model, its prior and its AMP warm start."""
    cfg, model = instance(delta, sigma, desc)
    prior = cfg.prior()
    _, warm = amp_run(model, prior, AMP_WARM_ITERS, delta=delta)
    return model, prior, warm


def converged_tap_state(prior, delta):
    """The three-point instance's model and its converged TAP state under
    ``prior``."""
    cfg, model = instance(delta)
    trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=delta)
    assert trace.converged
    return model, trace.final

"""SHA-256 digests of what the descent, the potential, the dual solve and the
dense Hessian probe compute, so that a change meant to move no bit can be
checked against its parent commit: run this on both checkouts and compare
the lines.

    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py           # n = 300
    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py --n 40    # smoke run

It imports taplab from the ``src/`` of the checkout it lives in, and prints
one line per group, the group's name and its digest:

- ``fits <prior> <objective>``, for three-point and
  ``bernoulli-gaussian:0.5,1.0`` and for ``tap`` and ``mf``: every
  ``NGDTrace`` field of that objective's fits (``fit_free_energy``), final
  (m, s, lam, gam, logZ) included, of ``ExperimentConfig`` instances at
  sigma = 0.3, master seed 0 and the default delta grid; 4 replicates per
  delta on three-point and 1 on Bernoulli-Gaussian, as the sweep benchmarks.
  One line per objective shows a change that moves only one of them;
- ``potential``: grid, phi, phi', phi'', gamma_stat, gamma_alg and regime of
  ``solve_gammas`` on three-point, ``bernoulli-gaussian:0.5,1.0`` and two
  ``point-mass`` priors at each delta of the grid, and on the unit Gaussian at
  delta = 1, all at sigma^2 = 0.09 (these do not depend on ``--n``);
- ``dual_solve``: the state (m, s, lam, gam, logZ) that
  ``VariationalState.from_moments`` solves on 2 000 rows of three-point and
  of Bernoulli-Gaussian, whose moments are taplab's tilt of lam ~ U(-2, 2),
  gam ~ U(0.1, 4) drawn from a fixed seed (this line does not depend on
  ``--n`` either).  The dual solve re-tilts ever smaller subsets of its
  rows, so this line also covers the tilt kernels at batch widths that no
  fit uses;
- ``min_eigenvalue``: the dense minimum eigenvalue of the TAP Hessian at the
  converged TAP state of replicate 0 of three-point and Bernoulli-Gaussian at
  delta 0.6, 1.0 and 1.4.

Floats are hashed as their float64 bytes (arrays) or ``float.hex`` (scalars),
everything else as its ``repr``, each item followed by a separator byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taplab.experiments import ExperimentConfig, fit_free_energy, generate_instance  # noqa: E402
from taplab.free_energy import VariationalState, min_eigenvalue  # noqa: E402
from taplab.ngd import Objective  # noqa: E402
from taplab.potential import solve_gammas  # noqa: E402
from taplab.priors import gaussian_prior, parse_prior  # noqa: E402

SIGMA = 0.3
THREE_POINT = "three-point"
BERNOULLI_GAUSSIAN = "bernoulli-gaussian:0.5,1.0"
POTENTIAL_PRIORS = (THREE_POINT, BERNOULLI_GAUSSIAN,
                    "point-mass:-2,0.25;-1,0.25;1,0.25;2,0.25",
                    "point-mass:-1,0.2;0,0.5;2,0.3")
PROBE_DELTAS = (0.6, 1.0, 1.4)
DUAL_ROWS = 2000


def _feed(h, *items):
    for x in items:
        if isinstance(x, VariationalState):
            _feed(h, x.m, x.s, x.lam, x.gam, x.logZ)
            continue
        if isinstance(x, float):
            data = float.hex(x).encode()
        elif isinstance(x, (np.ndarray, list)):
            data = np.ascontiguousarray(x, dtype=np.float64).tobytes()
        else:
            data = repr(x).encode()
        h.update(data + b"\x1f")


def _config(prior_descriptor, n, replicates):
    return ExperimentConfig(prior_descriptor=prior_descriptor, sigma=SIGMA, n=n,
                            replicates=replicates, seed=0)


def fits_digests(prior_descriptor, n, replicates):
    """{objective: digest of its fits}."""
    cfg = _config(prior_descriptor, n, replicates)
    prior = cfg.prior()
    hashes = {objective: hashlib.sha256() for objective in Objective}
    for delta in cfg.delta_grid:
        for rep in range(replicates):
            model, _ = generate_instance(cfg, rep, delta)
            for objective, h in hashes.items():
                trace = fit_free_energy(model, prior, cfg, objective, delta=delta)
                for f in dataclasses.fields(trace):
                    _feed(h, f.name, getattr(trace, f.name))
    return {objective: h.hexdigest() for objective, h in hashes.items()}


def potential_digest(deltas):
    h = hashlib.sha256()
    cases = [(parse_prior(d), delta) for d in POTENTIAL_PRIORS for delta in deltas]
    for prior, delta in cases + [(gaussian_prior(1.0), 1.0)]:
        prof = solve_gammas(prior, SIGMA**2, delta)
        _feed(h, prof.gamma_grid, prof.phi, prof.phi_prime, prof.phi_second,
              prof.gamma_stat, prof.gamma_alg, prof.regime.value)
    return h.hexdigest()


def dual_solve_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(0)
    for desc in (THREE_POINT, BERNOULLI_GAUSSIAN):
        prior = parse_prior(desc)
        tilted = VariationalState.from_duals(prior, rng.uniform(-2, 2, DUAL_ROWS),
                                             rng.uniform(0.1, 4, DUAL_ROWS))
        _feed(h, VariationalState.from_moments(prior, tilted.m, tilted.s))
    return h.hexdigest()


def min_eigenvalue_digest(n):
    h = hashlib.sha256()
    for desc in (THREE_POINT, BERNOULLI_GAUSSIAN):
        cfg = _config(desc, n, 1)
        prior = cfg.prior()
        for delta in PROBE_DELTAS:
            model, _ = generate_instance(cfg, 0, delta)
            state = fit_free_energy(model, prior, cfg, Objective.TAP, delta=delta).final
            _feed(h, min_eigenvalue(model, state, prior, "dense").value)
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=300, help="rows of every design")
    args = parser.parse_args()
    deltas = ExperimentConfig().delta_grid
    for desc, replicates in ((THREE_POINT, 4), (BERNOULLI_GAUSSIAN, 1)):
        for objective, digest in fits_digests(desc, args.n, replicates).items():
            print("fits", desc, objective.value, digest)
    print("potential", potential_digest(deltas))
    print("dual_solve", dual_solve_digest())
    print("min_eigenvalue", min_eigenvalue_digest(args.n))


if __name__ == "__main__":
    main()

"""The benchmark's workloads: inputs made from the seed, the operations of one
round, and the checks of their outputs.

Each workload is a closed loop with one caller: an operation starts when the
previous one has returned.  Operations look taplab functions up through their
modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks
from taplab import experiments, free_energy, potential, priors
from taplab.ngd import Objective

SIGMA = 0.3
N = 300
DELTAS = (0.6, 0.8, 1.0, 1.2, 1.4)
PROBE_DELTAS = (0.6, 1.0, 1.4)
THREE_POINT = "three-point"
BERNOULLI_GAUSSIAN = "bernoulli-gaussian:0.5,1.0"
# the program's own instances are keyed by this master seed (the CLI default);
# see README "Inputs" for why --seed transforms them instead of re-drawing them
INSTANCE_SEED = 0
DUAL_P = 2000
DUAL_LAM = (-2.0, 2.0)
DUAL_GAM = (0.1, 4.0)
# per-workload operation times, reported by name (and per layer when traced)
OP_TIMES = ("sweep_s", "fit_tap_s", "fit_mf_s", "potential_gauss_s", "potential_3pt_s",
            "hessian_dense_s", "hessian_iter_s", "dual_solve_s")


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    key: object = None  # what the check needs to find this op's inputs
    steady: bool = True  # False: its time is left out of round_s


def _config(prior_descriptor, replicates=1):
    return experiments.ExperimentConfig(prior_descriptor=prior_descriptor, sigma=SIGMA,
                                        n=N, delta_grid=DELTAS, replicates=replicates,
                                        seed=INSTANCE_SEED)


def symmetric_copy(model, truth, prior, rng):
    """An equivalent instance: rows and columns permuted, and columns with
    their signal coordinate negated when the prior is symmetric.  The
    posterior is the same up to the relabelling, so a fit does the same work."""
    n, p = model.X.shape
    rows, cols = rng.permutation(n), rng.permutation(p)
    locs, w = prior.locations, prior.weights
    symmetric = np.allclose(locs, -locs[::-1], rtol=0, atol=1e-12) \
        and np.allclose(w, w[::-1], rtol=1e-12, atol=0)
    signs = rng.choice([-1.0, 1.0], size=p) if symmetric else np.ones(p)
    X = model.X[rows][:, cols] * signs
    return (free_energy.LinearModel(X=X, y=model.y[rows], sigma2=model.sigma2),
            truth[cols] * signs)


class Sweep:
    """TAP and MF fits over the delta grid, as ``run_mse_sweep`` makes them."""

    def __init__(self, prior_descriptor, replicates):
        self.prior_descriptor = prior_descriptor
        self.replicates = replicates

    def setup(self, seed):
        cfg = _config(self.prior_descriptor, self.replicates)
        prior = cfg.prior()
        instances = []
        for i, delta in enumerate(DELTAS):
            for rep in range(self.replicates):
                model, truth = experiments.generate_instance(cfg, rep, delta)
                rng = np.random.default_rng([seed, i, rep])
                instances.append((delta, rep) + symmetric_copy(model, truth, prior, rng))
        return SimpleNamespace(cfg=cfg, prior=prior, instances=instances)

    def ops(self, inp):
        out = []
        for delta, rep, model, truth in inp.instances:
            for objective in (Objective.TAP, Objective.MF):
                def call(model=model, objective=objective, delta=delta):
                    return experiments.fit_free_energy(model, inp.prior, inp.cfg,
                                                       objective, delta=delta)
                out.append(Op("fit_" + objective.value, f"delta={delta:g} rep={rep}",
                              call, key=(delta, rep, model, truth, objective)))
        return out

    def check(self, inp, results):
        problems = []
        mse = {}
        for op, trace in results:
            delta, rep, model, truth, objective = op.key
            st = trace.final
            tap = objective is Objective.TAP
            for msg in checks.check_fit(model.X, model.y, model.sigma2,
                                        inp.prior.locations, inp.prior.weights,
                                        (st.m, st.s, st.lam, st.gam), trace.f_values,
                                        inp.cfg.grad_tol, tap):
                problems.append(f"{op.kind} {op.label}: {msg}")
            mse.setdefault(delta, ([], []))[0 if tap else 1].append(
                float(np.mean((st.m - truth) ** 2)))
        for delta, (tap_mse, mf_mse) in mse.items():
            problems += checks.check_dominance(delta, tap_mse, mf_mse)
        return problems

    @staticmethod
    def breakdown(rounds):
        """The sweep's own figures: whole sweep, and one fit of each kind."""
        def fits(kind):
            return [r.scaled for rnd in rounds for r in rnd if r.op.kind == kind]
        iters = [sum(r.out.iterations for r in rnd if r.out is not None) for rnd in rounds]
        return {"sweep_s": (statistics.median(sum(r.scaled for r in rnd) for rnd in rounds),
                            "s"),
                "fit_tap_s": (statistics.median(fits("fit_tap")), "s"),
                "fit_mf_s": (statistics.median(fits("fit_mf")), "s"),
                "ngd_iterations": (statistics.median(iters), "count")}


class Landscape:
    """Potential stationary points, Hessian probes at converged TAP states, and
    dual solves.  No NGD runs in the timed part."""

    def setup(self, seed):
        three = priors.three_point()
        bg = priors.parse_prior(BERNOULLI_GAUSSIAN)
        probes = []
        for desc, prior in ((THREE_POINT, three), (BERNOULLI_GAUSSIAN, bg)):
            cfg = _config(desc)
            for delta in PROBE_DELTAS:
                model, _ = experiments.generate_instance(cfg, 0, delta)
                trace = experiments.fit_free_energy(model, prior, cfg, Objective.TAP,
                                                    delta=delta)
                probes.append((f"{desc} delta={delta:g}", prior, model, trace.final))
        rng = np.random.default_rng(seed)
        duals = []
        for desc, prior in ((THREE_POINT, three), (BERNOULLI_GAUSSIAN, bg)):
            lam = rng.uniform(*DUAL_LAM, size=DUAL_P)
            gam = rng.uniform(*DUAL_GAM, size=DUAL_P)
            m, s, _ = checks.tilted_moments(prior.locations, prior.weights, lam, gam)
            duals.append((desc, prior, m, s, lam, gam))
        return SimpleNamespace(gauss=priors.gaussian_prior(1.0), three=three,
                               probes=probes, duals=duals)

    def ops(self, inp):
        sigma2 = SIGMA**2
        out = [Op("potential_gauss", "tau2=1 delta=1",
                  lambda: potential.solve_gammas(inp.gauss, sigma2, 1.0))]
        for delta in DELTAS:
            out.append(Op("potential_3pt", f"delta={delta:g}",
                          lambda delta=delta: potential.solve_gammas(inp.three, sigma2, delta),
                          key=delta))
        for kind, method in (("hessian_dense", "dense"), ("hessian_iter", "lanczos")):
            for i, (label, prior, model, state) in enumerate(inp.probes):
                # ARPACK draws a fresh random start vector on every call, so
                # the iterative probe's time is not steady run to run
                out.append(Op(kind, label,
                              lambda a=(model, state, prior), method=method:
                              free_energy.min_eigenvalue(*a, method=method),
                              key=i, steady=method == "dense"))
        for i, (desc, prior, m, s, _, _) in enumerate(inp.duals):
            out.append(Op("dual_solve", f"{desc} p={DUAL_P}",
                          lambda prior=prior, m=m, s=s:
                          free_energy.VariationalState.from_moments(prior, m, s), key=i))
        return out

    def check(self, inp, results):
        sigma2 = SIGMA**2
        problems = []
        ref_min_eig = {}
        done = {op.kind: [] for op, _ in results}
        for op, out in results:
            done[op.kind].append((op, out))
        for op, prof in done.get("potential_gauss", []):
            problems += [f"{op.kind} {op.label}: {msg}" for msg in
                         checks.check_gaussian_potential(prof.gamma_stat, prof.gamma_alg,
                                                         prof.regime.value, 1.0, sigma2, 1.0)]
        for op, prof in done.get("potential_3pt", []):
            problems += [f"{op.kind} {op.label}: {msg}" for msg in
                         checks.check_discrete_potential(
                             prof.gamma_stat, prof.gamma_alg, inp.three.locations,
                             inp.three.weights, sigma2, op.key)]
        for op, res in done.get("hessian_dense", []):
            _, prior, model, state = inp.probes[op.key]
            H = checks.dense_from_matvec(
                lambda v: free_energy.tap_hessian_matvec(model, state, prior, v), 2 * model.p)
            w = checks.eigenvalues(H)
            ref_min_eig[op.key] = float(w[0])
            problems += [f"{op.kind} {op.label}: {msg}"
                         for msg in checks.check_min_eig_dense(res.value, w)]
        for op, res in done.get("hessian_iter", []):
            if op.key not in ref_min_eig:
                problems.append(f"{op.kind} {op.label}: no dense reference to compare with")
                continue
            problems += [f"{op.kind} {op.label}: {msg}" for msg in
                         checks.check_min_eig_iter(res.value, res.converged,
                                                   ref_min_eig[op.key])]
        for op, st in done.get("dual_solve", []):
            _, _, _, _, lam, gam = inp.duals[op.key]
            problems += [f"{op.kind} {op.label}: {msg}"
                         for msg in checks.check_dual(st.lam, st.gam, lam, gam)]
        return problems

    @staticmethod
    def breakdown(rounds):
        """Per-round totals of each kind of operation, failed calls included."""
        out = {}
        for kind in ("potential_gauss", "potential_3pt", "hessian_dense", "hessian_iter",
                     "dual_solve"):
            per_round = [sum(r.scaled for r in rnd if r.op.kind == kind)
                         for rnd in rounds]
            out[kind + "_s"] = (statistics.median(per_round), "s")
        return out


WORKLOADS = {
    "sweep-3pt": lambda: Sweep(THREE_POINT, replicates=4),
    "sweep-bg": lambda: Sweep(BERNOULLI_GAUSSIAN, replicates=1),
    "landscape": Landscape,
}

"""Experiment orchestration: data generation (including misspecified designs),
the MSE / calibration / universality sweeps, and CSV persistence.

Reproducibility contract: every random draw comes from a counter-based
generator keyed by (master seed, replicate, stream tag), so a single CSV row
can be regenerated in isolation and results do not depend on execution order.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .amp import amp_run
from .exceptions import DomainError
from .free_energy import LinearModel, VariationalState, min_eigenvalue
from .ngd import NGDConfig, Objective, StopReason, newton_run
from .priors import Prior, parse_prior

CSV_VERSION_HEADER = "# tap-lab v1"

DESIGNS = ("gaussian", "rademacher", "rademacher_noise", "bernoulli_hetero")

# stream tags for the counter-based RNG
_STREAM_DESIGN = 0
_STREAM_TRUTH = 1
_STREAM_NOISE = 2
# replicate indices lie in [0, MAX_REPLICATES): the per-replicate seed holds a
# replicate in 20 bits and the RNG key in 32, so a larger index would alias a
# replicate of another master seed
MAX_REPLICATES = 2**20
# the largest n x p design an instance may draw: 2**24 entries are 128 MiB of
# float64, four times the n = p = 2000 design of the largest test
MAX_DESIGN_ENTRIES = 2**24
# the AMP iterations of every fit's warm start
AMP_WARM_ITERS = 8


@dataclass(frozen=True)
class ExperimentConfig:
    prior_descriptor: str = "three-point"
    sigma: float = 0.3
    n: int = 300
    delta_grid: tuple = (0.6, 0.8, 1.0, 1.2, 1.4)
    design: str = "gaussian"
    replicates: int = 20
    seed: int = 0
    output_dir: str = "out"
    max_iters: int = NGDConfig.max_iters
    grad_tol: float = NGDConfig.grad_tol

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:  # the high 64 bits of a Philox key
            raise ValueError("seed must be in [0, 2**64)")
        if not 1 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(f"replicates must be in [1, {MAX_REPLICATES}]")
        if not 0 < self.sigma < math.inf:  # also rejects nan
            raise ValueError("sigma must be positive and finite")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if not self.delta_grid:  # a sweep writes at least one row
            raise ValueError("delta_grid must hold at least one delta")
        for delta in self.delta_grid:
            try:
                _feature_count(self.n, delta)
            except DomainError as exc:
                raise ValueError(f"delta_grid entry {delta!r}: {exc}") from None
        try:
            self.prior()
        except DomainError as exc:  # parse_prior's, raised from the cause
            raise ValueError(f"prior_descriptor {self.prior_descriptor!r}: "
                             f"{exc.__cause__}") from None
        self.ngd_config(Objective.TAP)  # range-checks max_iters and grad_tol

    @property
    def sigma2(self) -> float:
        return self.sigma**2

    def prior(self) -> Prior:
        return parse_prior(self.prior_descriptor)

    def ngd_config(self, objective: Objective) -> NGDConfig:
        return NGDConfig(max_iters=self.max_iters, grad_tol=self.grad_tol,
                         objective=objective)


def stream_rng(master_seed: int, replicate: int, tag: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replicate, stream)."""
    key = (int(master_seed) << 64) | (int(replicate) << 32) | int(tag)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Stable per-replicate seed recorded in CSV rows."""
    return int(master_seed) * MAX_REPLICATES + int(replicate)


def _feature_count(n: int, delta: float) -> int:
    """p = floor(n / delta) features at aspect ratio delta, refused with a
    DomainError unless 1 <= p and the n x p design has at most
    MAX_DESIGN_ENTRIES entries."""
    if not delta > 0:  # also rejects nan
        raise DomainError(f"delta must be positive, got {delta!r}")
    ratio = n / delta  # inf where it overflows
    if ratio < 1:
        raise DomainError(f"delta = {delta!r} leaves no features at n = {n} (n / delta < 1)")
    if ratio >= MAX_DESIGN_ENTRIES // n + 1:
        raise DomainError(f"delta = {delta!r} implies p = floor(n / delta) = {ratio:.4g} "
                          f"features at n = {n}: the n x p design would exceed "
                          f"{MAX_DESIGN_ENTRIES} entries")
    return int(ratio)


def generate_instance(cfg: ExperimentConfig, replicate_index: int,
                      delta: float) -> tuple[LinearModel, np.ndarray]:
    """Design, signal, and response for one replicate at aspect ratio delta."""
    if not 0 <= replicate_index < MAX_REPLICATES:
        raise DomainError(f"replicate index must be in [0, {MAX_REPLICATES}), "
                          f"got {replicate_index!r}")
    n = cfg.n
    p = _feature_count(n, delta)
    prior = cfg.prior()
    rng_x = stream_rng(cfg.seed, replicate_index, _STREAM_DESIGN)
    rng_b = stream_rng(cfg.seed, replicate_index, _STREAM_TRUTH)
    rng_e = stream_rng(cfg.seed, replicate_index, _STREAM_NOISE)

    if cfg.design in ("gaussian", "rademacher_noise"):
        X = rng_x.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    elif cfg.design == "rademacher":
        X = rng_x.choice([-1.0, 1.0], size=(n, p)) / np.sqrt(p)
    else:  # bernoulli_hetero
        q = 0.1 + 0.8 * np.arange(p) / max(p - 1, 1)
        X = (rng_x.random((n, p)) < q[None, :]).astype(np.float64)
        mu = X.mean(axis=0, keepdims=True)
        sd = X.std(axis=0, keepdims=True)
        # a constant column carries no signal; make it exactly zero
        sd[sd == 0.0] = 1.0
        X = (X - mu) / (sd * np.sqrt(p))

    truth = prior.sample(p, rng_b)
    if cfg.design == "rademacher_noise":
        eps = cfg.sigma * rng_e.choice([-1.0, 1.0], size=n)
    else:
        eps = rng_e.normal(0.0, cfg.sigma, size=n)
    y = X @ truth + eps
    return LinearModel(X=X, y=y, sigma2=cfg.sigma2), truth


def _fit(model: LinearModel, prior: Prior, cfg: ExperimentConfig,
         objectives, delta: float | None) -> dict:
    """One AMP warm start, then each objective fitted from that start by
    ``newton_run`` (mean-field: NGD, then Newton)."""
    _, warm = amp_run(model, prior, AMP_WARM_ITERS, delta=delta)
    return {objective: newton_run(model, prior, warm, cfg.ngd_config(objective))
            for objective in objectives}


def fit_free_energy(model: LinearModel, prior: Prior, cfg: ExperimentConfig,
                    objective: Objective, delta: float | None = None):
    """AMP warm start followed by the requested objective's fit."""
    return _fit(model, prior, cfg, (objective,), delta)[objective]


def _sweep(cfg: ExperimentConfig, deltas):
    """(delta, replicate, model, truth, {objective: trace}) for each instance,
    TAP and MF fitted from one shared AMP warm start."""
    prior = cfg.prior()
    for delta in deltas:
        for rep in range(cfg.replicates):
            model, truth = generate_instance(cfg, rep, delta)
            yield delta, rep, model, truth, _fit(model, prior, cfg, tuple(Objective), delta)


def _count_stops(stop_reasons, traces):
    """Add each trace's stop reason to ``stop_reasons``, which maps an
    objective's value to a count of every stop reason."""
    for objective, trace in traces.items():
        counts = stop_reasons.setdefault(objective.value,
                                         dict.fromkeys((r.value for r in StopReason), 0))
        counts[trace.stop_reason.value] += 1


def _mse(trace, truth) -> float:
    return float(np.sum((trace.final.m - truth) ** 2)) / len(truth)


def inclusion_probabilities(prior: Prior, state: VariationalState) -> np.ndarray:
    """PIP_j = tilted probability of a nonzero coordinate, from the converged
    dual cache (lam*, gam*)."""
    idx = np.flatnonzero(prior.locations == 0.0)
    if len(idx) == 0:
        return np.ones_like(state.m)
    p_zero_atom = np.exp(prior.log_weights[idx[0]] - state.logZ)
    frac = prior.zero_spike_fraction_of_atom()
    return 1.0 - p_zero_atom * frac


def calibration_table(pips: np.ndarray, nonzero: np.ndarray) -> list[dict]:
    """Ten equal PIP bins on [0, 1] with pooled empirical nonzero frequencies."""
    edges = np.linspace(0.0, 1.0, 11)
    rows = []
    idx = np.clip(np.digitize(pips, edges[1:-1]), 0, 9)
    for b in range(10):
        mask = idx == b
        count = int(mask.sum())
        rows.append({
            "bin_lo": float(edges[b]),
            "bin_hi": float(edges[b + 1]),
            "pip_mean": float(pips[mask].mean()) if count else float("nan"),
            "freq_nonzero": float(nonzero[mask].mean()) if count else float("nan"),
            "count": count,
        })
    return rows


def run_mse_sweep(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """MSE of the TAP and MF posterior-mean estimators per delta and
    replicate, as (rows, stop_reasons).

    Each row's keys are its CSV columns, in order: delta, seed, mse_tap,
    mse_mf, converged_tap, converged_mf.  ``stop_reasons`` counts each
    objective's stop reasons over its fits, such as {"tap": {"converged":
    20, "step_floor": 0, "max_iters": 0}, "mf": {...}}.
    """
    rows, stop_reasons = [], {}
    for delta, rep, _, truth, traces in _sweep(cfg, cfg.delta_grid):
        _count_stops(stop_reasons, traces)
        tap, mf = traces[Objective.TAP], traces[Objective.MF]
        rows.append({"delta": float(delta), "seed": replicate_seed(cfg.seed, rep),
                     "mse_tap": _mse(tap, truth), "mse_mf": _mse(mf, truth),
                     "converged_tap": int(tap.converged),
                     "converged_mf": int(mf.converged)})
    return rows, stop_reasons


def run_calibration(cfg: ExperimentConfig, delta: float) -> tuple[dict, dict]:
    """Calibration rows for TAP and MF at a single delta, keyed by
    ``Objective.name``, as (tables, stop_reasons); the stop reasons as for
    ``run_mse_sweep``.

    Pools coordinates across replicates and bins them by estimated PIP.
    """
    prior = cfg.prior()
    if prior.zero_spike_weight == 0.0:
        raise DomainError("calibration needs a prior with an atom at 0")
    pips = {objective.name: [] for objective in Objective}
    nonzero, stop_reasons = [], {}
    for _, _, _, truth, traces in _sweep(cfg, (delta,)):
        nonzero.append(truth != 0.0)
        _count_stops(stop_reasons, traces)
        for objective, trace in traces.items():
            pips[objective.name].append(inclusion_probabilities(prior, trace.final))
    nonzero = np.concatenate(nonzero)
    return {name: calibration_table(np.concatenate(pp), nonzero)
            for name, pp in pips.items()}, stop_reasons


def run_universality(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """MSE sweep plus Hessian minimum eigenvalue across design scenarios, as
    (rows, stop_reasons); the stop reasons as for ``run_mse_sweep``, over
    every scenario."""
    prior = cfg.prior()
    rows, stop_reasons = [], {}
    for design in DESIGNS:
        sweep = _sweep(replace(cfg, design=design), cfg.delta_grid)
        for delta, rep, model, truth, traces in sweep:
            _count_stops(stop_reasons, traces)
            tap = traces[Objective.TAP]
            rows.append({"scenario": design, "delta": float(delta),
                         "seed": replicate_seed(cfg.seed, rep),
                         "mse_tap": _mse(tap, truth),
                         "mse_mf": _mse(traces[Objective.MF], truth),
                         "min_eig": min_eigenvalue(model, tap.final, prior).value})
    return rows, stop_reasons


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_csv(path, rows):
    """Write ``rows`` (at least one) under the version line and a header of
    the first row's keys, in its order; every row must hold each of them."""
    columns = list(rows[0])
    with open(path, "w") as fh:
        fh.write(CSV_VERSION_HEADER + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in columns) + "\n")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_manifest(out_dir, cfg: ExperimentConfig, wall_time_s: float, extra: dict):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(cfg),
        "git_describe": _git_describe(),
        "wall_time_s": wall_time_s,
        **extra,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _git_describe():
    """``git describe`` of the taplab checkout this module runs from, whatever
    the working directory; None outside a checkout."""
    root = Path(__file__).resolve().parents[2]
    # never look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              env=env, capture_output=True, text=True, timeout=5,
                              check=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):  # a nonzero exit included
        return None

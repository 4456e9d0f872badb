"""Experiment orchestration: data generation (including misspecified designs),
the MSE / calibration / universality sweeps, and CSV persistence.

Reproducibility contract: every random draw comes from a counter-based
generator keyed by (master seed, replicate, stream tag), so a single CSV row
can be regenerated in isolation and results do not depend on execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .amp import amp_run
from .free_energy import LinearModel, VariationalState, min_eigenvalue
from .ngd import NGDConfig, Objective, ngd_run
from .priors import Prior, parse_prior

CSV_VERSION_HEADER = "# tap-lab v1"

DESIGNS = ("gaussian", "rademacher", "rademacher_noise", "bernoulli_hetero")

# stream tags for the counter-based RNG
_STREAM_DESIGN = 0
_STREAM_TRUTH = 1
_STREAM_NOISE = 2


@dataclass(frozen=True)
class ExperimentConfig:
    prior_descriptor: str = "three-point"
    sigma: float = 0.3
    n: int = 300
    delta_grid: tuple = (0.6, 0.8, 1.0, 1.2, 1.4)
    design: str = "gaussian"
    replicates: int = 20
    seed: int = 0
    methods: tuple = ("TAP", "MF")
    output_dir: str = "out"
    amp_warm_iters: int = 8
    eta: float = 0.2
    max_iters: int = 20000
    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.sigma <= 0 or self.n < 1:
            raise ValueError("sigma and n must be positive")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.max_iters < 1 or self.amp_warm_iters < 1:
            raise ValueError("max_iters and amp_warm_iters must be >= 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")

    @property
    def sigma2(self) -> float:
        return self.sigma**2

    def prior(self) -> Prior:
        return parse_prior(self.prior_descriptor)


def stream_rng(master_seed: int, replicate: int, tag: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replicate, stream)."""
    key = (int(master_seed) << 64) | (int(replicate) << 32) | int(tag)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Stable per-replicate seed recorded in CSV rows."""
    return (int(master_seed) << 20) + int(replicate)


def generate_instance(cfg: ExperimentConfig, replicate_index: int,
                      delta: float) -> tuple[LinearModel, np.ndarray]:
    """Design, signal, and response for one replicate at aspect ratio delta."""
    n = cfg.n
    p = int(math.floor(n / delta))
    prior = cfg.prior()
    rng_x = stream_rng(cfg.seed, replicate_index, _STREAM_DESIGN)
    rng_b = stream_rng(cfg.seed, replicate_index, _STREAM_TRUTH)
    rng_e = stream_rng(cfg.seed, replicate_index, _STREAM_NOISE)

    if cfg.design in ("gaussian", "rademacher_noise"):
        X = rng_x.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    elif cfg.design == "rademacher":
        X = rng_x.choice([-1.0, 1.0], size=(n, p)) / np.sqrt(p)
    else:  # bernoulli_hetero
        q = 0.1 + 0.8 * np.arange(p) / (p - 1)
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


def fit_free_energy(model: LinearModel, prior: Prior, cfg: ExperimentConfig,
                    objective: Objective, delta: float | None = None):
    """AMP warm start followed by NGD on the requested objective."""
    _, warm = amp_run(model, prior, cfg.amp_warm_iters, delta=delta)
    ngd_cfg = NGDConfig(eta=cfg.eta, max_iters=cfg.max_iters,
                        grad_tol=cfg.grad_tol, objective=objective)
    return ngd_run(model, prior, warm, ngd_cfg)


def inclusion_probabilities(prior: Prior, state: VariationalState) -> np.ndarray:
    """PIP_j = tilted probability of a nonzero coordinate, from the converged
    dual cache (lam*, gam*)."""
    idx = np.flatnonzero(prior.locations == 0.0)
    if len(idx) == 0:
        return np.ones(state.p)
    p_zero_atom = np.exp(prior.log_weights[idx[0]] - state.logZ)
    frac = prior.zero_spike_fraction_of_atom()
    return 1.0 - p_zero_atom * frac


@dataclass
class CalibrationTable:
    """Ten equal PIP bins on [0, 1] with pooled empirical nonzero frequencies."""

    rows: list = field(default_factory=list)

    @classmethod
    def from_pools(cls, pips: np.ndarray, nonzero: np.ndarray) -> "CalibrationTable":
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
        return cls(rows=rows)

    @property
    def total_count(self) -> int:
        return sum(r["count"] for r in self.rows)


def run_mse_sweep(cfg: ExperimentConfig, deltas=None) -> list[dict]:
    """MSE of the TAP and MF posterior-mean estimators per delta and replicate."""
    if not {"TAP", "MF"} <= set(cfg.methods):
        raise ValueError("mse sweep needs both TAP and MF in methods")
    prior = cfg.prior()
    rows = []
    for delta in (deltas if deltas is not None else cfg.delta_grid):
        for rep in range(cfg.replicates):
            model, truth = generate_instance(cfg, rep, delta)
            row = {"delta": float(delta),
                   "seed": replicate_seed(cfg.seed, rep)}
            for objective, key in ((Objective.TAP, "mse_tap"),
                                   (Objective.MF, "mse_mf")):
                trace = fit_free_energy(model, prior, cfg, objective, delta=delta)
                m = trace.final.m
                row[key] = float(np.sum((m - truth) ** 2)) / model.p
                row[f"converged_{key[4:]}"] = int(trace.converged)
            rows.append(row)
    return rows


def run_calibration(cfg: ExperimentConfig, delta: float = 1.0) -> dict:
    """Calibration tables for each configured method at a single delta.

    Pools coordinates across replicates and bins them by estimated PIP.
    """
    prior = cfg.prior()
    if prior.zero_spike_weight == 0.0:
        raise ValueError("calibration needs a prior with an atom at 0")
    pools = {meth: ([], []) for meth in cfg.methods}
    for rep in range(cfg.replicates):
        model, truth = generate_instance(cfg, rep, delta)
        for meth in cfg.methods:
            objective = Objective.TAP if meth == "TAP" else Objective.MF
            trace = fit_free_energy(model, prior, cfg, objective, delta=delta)
            pips = inclusion_probabilities(prior, trace.final)
            pools[meth][0].append(pips)
            pools[meth][1].append(truth != 0.0)
    return {meth: CalibrationTable.from_pools(np.concatenate(pp),
                                              np.concatenate(nz))
            for meth, (pp, nz) in pools.items()}


def run_universality(cfg: ExperimentConfig, deltas=None,
                     designs=DESIGNS) -> list[dict]:
    """MSE sweep plus Hessian minimum eigenvalue across design scenarios."""
    prior = cfg.prior()
    rows = []
    for design in designs:
        sub = ExperimentConfig(**{**asdict(cfg), "design": design})
        for delta in (deltas if deltas is not None else cfg.delta_grid):
            for rep in range(cfg.replicates):
                model, truth = generate_instance(sub, rep, delta)
                row = {"scenario": design, "delta": float(delta),
                       "seed": replicate_seed(cfg.seed, rep)}
                tap_trace = fit_free_energy(model, prior, sub, Objective.TAP,
                                            delta=delta)
                mf_trace = fit_free_energy(model, prior, sub, Objective.MF,
                                           delta=delta)
                row["mse_tap"] = float(np.sum((tap_trace.final.m - truth) ** 2)) / model.p
                row["mse_mf"] = float(np.sum((mf_trace.final.m - truth) ** 2)) / model.p
                method = "dense" if 2 * model.p <= 4000 else "lanczos"
                row["min_eig"] = min_eigenvalue(model, tap_trace.final, prior,
                                                method).value
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_csv(path, fieldnames, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(CSV_VERSION_HEADER + "\n")
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in fieldnames) + "\n")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_manifest(out_dir, cfg: ExperimentConfig, wall_time_s: float,
                   extra: dict | None = None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(cfg),
        "git_describe": _git_describe(),
        "wall_time_s": wall_time_s,
    }
    if extra:
        manifest.update(extra)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _git_describe():
    import subprocess

    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, check=False,
        ).stdout.strip() or None
    except OSError:
        return None

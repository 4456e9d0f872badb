"""Command-line interface.

Subcommands: potential, amp, ngd, mse-sweep, calibrate, universality,
hessian, oracle.  Global flags: --config <file> (key = value lines mirroring
ExperimentConfig), --seed, --out.  Outputs are versioned CSV files plus a
JSON run manifest.  BLAS threads follow OMP_NUM_THREADS /
OPENBLAS_NUM_THREADS, which take effect only when set before launch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .amp import amp_run
from .experiments import (
    ExperimentConfig,
    fit_free_energy,
    generate_instance,
    run_calibration,
    run_mse_sweep,
    run_universality,
    write_csv,
    write_manifest,
)
from .free_energy import min_eigenvalue
from .ngd import Objective
from .oracle import enumerate_posterior, gaussian_posterior
from .potential import solve_gammas


def load_config(path) -> dict:
    """Parse a key = value config file; '#' starts a comment.

    Each value is typed by the ExperimentConfig field it sets: a tuple field
    is split on commas, any other value is cast to the type of the field's
    default, so a str value is never split.
    """
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in defaults:
            raise SystemExit(f"unknown config key: {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                out[key] = tuple(type(default[0])(v.strip()) for v in value.split(","))
            else:
                out[key] = type(default)(value.strip())
        except ValueError as exc:
            raise SystemExit(f"config key {key!r}: {exc}") from None
    return out


def build_config(args) -> ExperimentConfig:
    overrides = {}
    if args.config:
        overrides.update(load_config(args.config))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    try:
        return ExperimentConfig(**overrides)
    except ValueError as exc:
        raise SystemExit(f"invalid config: {exc}") from None


def cmd_potential(cfg, args):
    prior = cfg.prior()
    profile = solve_gammas(prior, cfg.sigma2, args.delta)
    out = Path(cfg.output_dir)
    rows = [{"gamma": g, "phi": f, "phi_prime": d1, "phi_second": d2}
            for g, f, d1, d2 in zip(profile.gamma_grid, profile.phi,
                                    profile.phi_prime, profile.phi_second)]
    write_csv(out / "potential.csv", ["gamma", "phi", "phi_prime", "phi_second"],
              rows)
    summary = {"gamma_stat": profile.gamma_stat, "gamma_alg": profile.gamma_alg,
               "regime": profile.regime.value}
    (out / "potential_summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))
    return {}


def cmd_amp(cfg, args):
    prior = cfg.prior()
    model, truth = generate_instance(cfg, args.replicate, args.delta)
    state, _ = amp_run(model, prior, args.iters, truth=truth,
                       delta=args.delta, track_gradient=True)
    rows = [{"k": r["k"], "gamma_k": r["gamma"],
             "mse_empirical": r.get("mse_empirical", float("nan")),
             "mse_se": r["mse_se"],
             "grad_norm_sq_per_p": r.get("grad_norm_sq_per_p", float("nan"))}
            for r in state.history]
    write_csv(Path(cfg.output_dir) / "amp.csv",
              ["k", "gamma_k", "mse_empirical", "mse_se", "grad_norm_sq_per_p"],
              rows)
    return {"iterations": args.iters}


def cmd_ngd(cfg, args):
    prior = cfg.prior()
    model, _ = generate_instance(cfg, args.replicate, args.delta)
    objective = Objective.MF if args.objective == "mf" else Objective.TAP
    trace = fit_free_energy(model, prior, cfg, objective, delta=args.delta)
    rows = [{"k": k, "f_value": f, "grad_norm_sq_per_p": g, "step": s}
            for k, (f, g, s) in enumerate(zip(trace.f_values,
                                              trace.grad_norm_sq_per_p,
                                              trace.steps_used))]
    out = Path(cfg.output_dir)
    write_csv(out / "ngd.csv", ["k", "f_value", "grad_norm_sq_per_p", "step"],
              rows)
    final = {"m": trace.final.m.tolist(), "s": trace.final.s.tolist(),
             "lambda": trace.final.lam.tolist(), "gamma": trace.final.gam.tolist()}
    (out / "ngd_state.json").write_text(json.dumps(final))
    return {"converged": trace.converged, "stop_reason": trace.stop_reason.value,
            "iterations": trace.iterations, "backtracks": trace.backtracks}


def cmd_mse_sweep(cfg, args):
    rows = run_mse_sweep(cfg)
    write_csv(Path(cfg.output_dir) / "mse_sweep.csv",
              ["delta", "seed", "mse_tap", "mse_mf", "converged_tap",
               "converged_mf"], rows)
    return {"rows": len(rows)}


def cmd_calibrate(cfg, args):
    tables = run_calibration(cfg, delta=args.delta)
    for meth, table in tables.items():
        write_csv(Path(cfg.output_dir) / f"calibration_{meth.lower()}.csv",
                  ["bin_lo", "bin_hi", "pip_mean", "freq_nonzero", "count"],
                  table.rows)
    return {"methods": sorted(tables)}


def cmd_universality(cfg, args):
    rows = run_universality(cfg)
    write_csv(Path(cfg.output_dir) / "universality.csv",
              ["scenario", "delta", "seed", "mse_tap", "mse_mf", "min_eig"],
              rows)
    return {"rows": len(rows)}


def cmd_hessian(cfg, args):
    prior = cfg.prior()
    model, _ = generate_instance(cfg, args.replicate, args.delta)
    trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=args.delta)
    res = min_eigenvalue(model, trace.final, prior, method=args.method)
    report = {"min_eig": res.value, "method": res.method,
              "iterations": res.iterations}
    (Path(cfg.output_dir) / "hessian.json").write_text(json.dumps(report))
    print(json.dumps(report))
    return report


def cmd_oracle(cfg, args):
    prior = cfg.prior()
    model, truth = generate_instance(cfg, args.replicate, args.delta)
    report = {}
    if args.mode == "gaussian":
        oracle = gaussian_posterior(model, args.tau2)
        report = {"log_evidence": oracle.log_evidence, "v_star": oracle.v_star,
                  "mean_diag_Sigma": float(np.mean(np.diag(oracle.Sigma)))}
    else:
        log_ev, m, s = enumerate_posterior(model, prior)
        report = {"log_evidence": log_ev, "marginal_m": m.tolist(),
                  "marginal_s": s.tolist()}
    (Path(cfg.output_dir) / "oracle.json").write_text(json.dumps(report))
    print(json.dumps({k: v for k, v in report.items()
                      if not isinstance(v, list)}))
    return {}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="taplab")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("potential", help="replica-symmetric potential profile")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("amp", help="single AMP trajectory")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--iters", type=int, default=10)
    sp.set_defaults(func=cmd_amp)

    sp = sub.add_parser("ngd", help="AMP warm start + NGD minimization")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--objective", choices=["tap", "mf"], default="tap")
    sp.set_defaults(func=cmd_ngd)

    sp = sub.add_parser("mse-sweep", help="TAP vs MF MSE over the delta grid")
    sp.set_defaults(func=cmd_mse_sweep)

    sp = sub.add_parser("calibrate", help="PIP calibration tables")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("universality", help="MSE + Hessian across designs")
    sp.set_defaults(func=cmd_universality)

    sp = sub.add_parser("hessian", help="minimum Hessian eigenvalue at the minimizer")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--method", choices=["dense", "lanczos"], default="dense")
    sp.set_defaults(func=cmd_hessian)

    sp = sub.add_parser("oracle", help="exact reference computations")
    sp.add_argument("--mode", choices=["gaussian", "enumerate"],
                    default="enumerate")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--tau2", type=float, default=1.0)
    sp.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    cfg = build_config(args)
    t0 = time.time()
    extra = args.func(cfg, args)
    write_manifest(cfg.output_dir, cfg, time.time() - t0,
                   extra={"command": args.command, **(extra or {})})
    return 0


if __name__ == "__main__":
    sys.exit(main())

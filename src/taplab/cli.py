"""Command-line interface.

Subcommands: potential, amp, ngd, mse-sweep, calibrate, universality,
hessian, oracle.  Global flags: --config <file> (key = value lines mirroring
ExperimentConfig), --seed, --out.  Outputs are versioned CSV files plus a
JSON run manifest.  BLAS threads follow OMP_NUM_THREADS /
OPENBLAS_NUM_THREADS, which take effect only when set before launch.

Every refusal after the flags parse (a bad config file or value, an output
directory that cannot be made, a TapLabError from a subcommand) is a
TapLabError that ``main`` turns into one ``taplab: error:`` line and
status 1; a bad flag is argparse's usage error, status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .amp import amp_run
from .experiments import (
    MAX_REPLICATES,
    ExperimentConfig,
    _feature_count,
    fit_free_energy,
    generate_instance,
    run_calibration,
    run_mse_sweep,
    run_universality,
    write_csv,
    write_manifest,
)
from .exceptions import DomainError, TapLabError
from .free_energy import min_eigenvalue
from .ngd import Objective
from .oracle import enumerate_posterior, gaussian_posterior
from .potential import _grid, solve_gammas


def _bounded(cast, ok, what):
    """argparse type: ``cast`` the text and require ``ok`` of the value, so a
    bad value stops with a usage error that names the flag."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not ok(value):  # nan fails every comparison
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


_positive = _bounded(float, lambda v: 0 < v < math.inf, "positive and finite")
_iters = _bounded(int, lambda v: v >= 1, "at least 1")
_replicate = _bounded(int, lambda v: 0 <= v < MAX_REPLICATES, f"in [0, {MAX_REPLICATES})")
_seed = _bounded(int, lambda v: 0 <= v < 2**64, "in [0, 2**64)")


def load_config(path) -> dict:
    """Parse a key = value config file; '#' starts a comment.

    Each value is typed by the ExperimentConfig field it sets: a tuple field
    is split on commas, any other value is cast to the type of the field's
    default, so a str value is never split.  A file that cannot be read, an
    unknown key or a bad value is a TapLabError.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise TapLabError(f"cannot read config file {str(path)!r}: {reason}") from None
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in defaults:
            raise TapLabError(f"unknown config key: {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                out[key] = tuple(type(default[0])(v.strip()) for v in value.split(","))
            else:
                out[key] = type(default)(value.strip())
        except ValueError as exc:
            raise TapLabError(f"config key {key!r}: {exc}") from None
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
        raise TapLabError(f"invalid config: {exc}") from None


def cmd_potential(cfg, args):
    prior = cfg.prior()
    profile = solve_gammas(prior, cfg.sigma2, args.delta)
    out = Path(cfg.output_dir)
    rows = [{"gamma": g, "phi": f, "phi_prime": d1, "phi_second": d2}
            for g, f, d1, d2 in zip(profile.gamma_grid, profile.phi,
                                    profile.phi_prime, profile.phi_second)]
    write_csv(out / "potential.csv", rows)
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
    write_csv(Path(cfg.output_dir) / "amp.csv", state.history)
    return {"iterations": args.iters}


def cmd_ngd(cfg, args):
    prior = cfg.prior()
    model, _ = generate_instance(cfg, args.replicate, args.delta)
    trace = fit_free_energy(model, prior, cfg, Objective(args.objective),
                            delta=args.delta)
    rows = [{"k": k, "f_value": f, "grad_norm_sq_per_p": g, "step": s}
            for k, (f, g, s) in enumerate(zip(trace.f_values,
                                              trace.grad_norm_sq_per_p,
                                              trace.steps_used))]
    out = Path(cfg.output_dir)
    write_csv(out / "ngd.csv", rows)
    final = {"m": trace.final.m.tolist(), "s": trace.final.s.tolist(),
             "lambda": trace.final.lam.tolist(), "gamma": trace.final.gam.tolist()}
    (out / "ngd_state.json").write_text(json.dumps(final))
    return {"converged": trace.converged, "stop_reason": trace.stop_reason.value,
            "iterations": trace.iterations, "backtracks": trace.backtracks,
            "ngd_iterations": trace.ngd_iterations,
            "hessian_matvecs": trace.hessian_matvecs,
            "curvature_breaks": trace.curvature_breaks}


def cmd_mse_sweep(cfg, args):
    rows, stop_reasons = run_mse_sweep(cfg)
    write_csv(Path(cfg.output_dir) / "mse_sweep.csv", rows)
    return {"rows": len(rows), "stop_reasons": stop_reasons}


def cmd_calibrate(cfg, args):
    tables, stop_reasons = run_calibration(cfg, delta=args.delta)
    for meth, rows in tables.items():
        write_csv(Path(cfg.output_dir) / f"calibration_{meth.lower()}.csv", rows)
    return {"methods": sorted(tables), "stop_reasons": stop_reasons}


def cmd_universality(cfg, args):
    rows, stop_reasons = run_universality(cfg)
    write_csv(Path(cfg.output_dir) / "universality.csv", rows)
    return {"rows": len(rows), "stop_reasons": stop_reasons}


def cmd_hessian(cfg, args):
    prior = cfg.prior()
    model, _ = generate_instance(cfg, args.replicate, args.delta)
    trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=args.delta)
    probe = min_eigenvalue(model, trace.final, prior)
    report = {"min_eig": probe.value, "method": probe.method}
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
    parser.add_argument("--seed", type=_seed, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags shared by subcommands: --delta, and the instance's --replicate
    delta = argparse.ArgumentParser(add_help=False)
    delta.add_argument("--delta", type=_positive, default=1.0)
    instance = argparse.ArgumentParser(add_help=False, parents=[delta])
    instance.add_argument("--replicate", type=_replicate, default=0)

    sp = sub.add_parser("potential", parents=[delta],
                        help="replica-symmetric potential profile")
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("amp", parents=[instance], help="single AMP trajectory")
    sp.add_argument("--iters", type=_iters, default=10)
    sp.set_defaults(func=cmd_amp)

    sp = sub.add_parser("ngd", parents=[instance],
                        help="AMP warm start + TAP (Newton-CG) or MF (NGD, then Newton-CG) fit")
    sp.add_argument("--objective", choices=["tap", "mf"], default="tap")
    sp.set_defaults(func=cmd_ngd)

    sp = sub.add_parser("mse-sweep", help="TAP vs MF MSE over the delta grid")
    sp.set_defaults(func=cmd_mse_sweep)

    sp = sub.add_parser("calibrate", parents=[delta], help="PIP calibration tables")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("universality", help="MSE + Hessian across designs")
    sp.set_defaults(func=cmd_universality)

    sp = sub.add_parser("hessian", parents=[instance],
                        help="minimum Hessian eigenvalue at the minimizer")
    sp.set_defaults(func=cmd_hessian)

    sp = sub.add_parser("oracle", parents=[instance], help="exact reference computations")
    sp.add_argument("--mode", choices=["gaussian", "enumerate"],
                    default="enumerate")
    sp.add_argument("--tau2", type=_positive, default=1.0)
    sp.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        # potential scans a grid of gamma whose squares must be normal floats;
        # every other subcommand with --delta draws an n x floor(n/delta) design
        if args.command == "potential":
            _grid(cfg.sigma2, args.delta)
        elif getattr(args, "delta", None) is not None:
            try:
                _feature_count(cfg.n, args.delta)
            except DomainError as exc:  # a usage error, status 2
                parser.error(f"argument --delta: {exc}")
        try:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # under a file, or on one
            raise TapLabError(f"cannot create output directory {cfg.output_dir!r}: "
                              f"{exc.strerror}") from None
        t0 = time.perf_counter()
        extra = args.func(cfg, args)
    except TapLabError as exc:
        parser.exit(1, f"{parser.prog}: error: {exc}\n")
    write_manifest(cfg.output_dir, cfg, time.perf_counter() - t0,
                   {"command": args.command, **extra})
    return 0


if __name__ == "__main__":
    sys.exit(main())

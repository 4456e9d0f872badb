"""A parent-versus-change gate for the fitted answers, mean-field above all,
and for the bits of every answer the acceptance tests read: compute them on
each checkout, save them, and compare the two files.

    OPENBLAS_NUM_THREADS=1 python3 tools/mf_gate.py save parent.json   # on the parent
    OPENBLAS_NUM_THREADS=1 python3 tools/mf_gate.py save change.json   # on the change
    python3 tools/mf_gate.py compare parent.json change.json
    python3 tools/mf_gate.py save smoke.json --n 40 --replicates 1     # smoke run

``save`` imports taplab from the ``src/`` of the checkout it lives in and
writes four groups of records, as JSON, whose floats read back exactly:

- ``fit``: one per TAP and per MF fit of the acceptance tests' instances,
  fitted through ``experiments._sweep`` (one AMP warm start per instance,
  then TAP and MF by ``newton_run``), at master seed 0: at sigma = 0.3,
  test_5's two sweeps (three-point and ``bernoulli-gaussian:0.5,1.0``,
  n = 300, 20 replicates at each delta of the default grid) and test_6's
  (three-point, n = 500, delta = 1, 10 replicates), 210 instances and 420
  fits; at low noise, where TAP's CG meets negative curvature and fits stop
  at the step floor, three-point at sigma = 0.2 and at sigma = 0.1 (n = 300,
  4 replicates at each delta of the default grid) and test_10's hard regime
  (three-point, sigma = 0.1, n = 500, delta = 0.6, 6 replicates), 46
  instances and 92 fits.  A sweep is named by its test, prior, sigma and n.
  Each holds the final m, the final energy, the stop reason,
  ``iterations``, ``ngd_iterations``, ``hessian_matvecs``,
  ``curvature_breaks``, the MSE, a SHA-256 over every ``NGDTrace`` field,
  final state included, and a ``path_sha256`` over ``steps_used``,
  ``grad_norm_sq_per_p`` and the final state: the descent's path without
  its energies;
- ``potential``: gamma_stat, gamma_alg, regime and a SHA-256 of every
  field of the profile (grid, phi, phi', phi'', both gammas and the regime)
  that ``solve_gammas`` returns at sigma^2 = 0.09 on POTENTIAL_PRIORS at
  each delta of the default grid and on the unit Gaussian at delta = 1, 21
  profiles;
- ``dual_solve``: a SHA-256 of the state (m, s, lam, gam, logZ) that
  ``VariationalState.from_moments`` solves on 2 000 rows of three-point and
  of Bernoulli-Gaussian, whose moments are taplab's tilt of lam ~ U(-2, 2),
  gam ~ U(0.1, 4) drawn from a fixed seed.  The dual solve re-tilts ever
  smaller subsets of its rows, so this also covers the tilt kernel at batch
  widths that no fit uses;
- ``min_eigenvalue``: the dense minimum eigenvalue of the TAP Hessian, and
  its SHA-256, at the final TAP state of replicate 0 of both test_5 sweeps
  at each of PROBE_DELTAS, taken from the fits above.  The low-noise sweeps
  take none: where a TAP state's tilted laws collapse onto atoms, the
  Hessian needs the inverse of a singular covariance and the probe raises
  DomainError.

It also records its own wall time: one ``time`` record per sweep (its fits
and probes) and one for the potential and dual-solve records together.

``--n`` and ``--replicates`` shrink the fits and the probes' instances; the
potential and dual-solve records do not depend on them.  A hash feeds each
field's name and value in order; floats are hashed as their float64 bytes
(arrays and lists) or ``float.hex`` (scalars), everything else as its
``repr``, each item followed by a separator byte.

``compare A B`` prints, per sweep and objective, how many fits are
bit-identical by their hash and how many path-identical by their path hash,
how many moved (max|m_B - m_A| > MOVE_TOL), the largest max|m_B - m_A|, the
largest rise and the largest |change| of the final energy from A to B, the
stop reasons that changed, each side's count of each stop reason
(``converged``, ``step_floor``, ``max_iters``) and the totals of
iterations, NGD iterations, Hessian products and CG's curvature breaks; per
sweep and delta, whether the mean TAP MSE is at most the mean MF MSE in A
and in B; and per other group, how many records are bit-identical, the
largest change of gamma_stat, gamma_alg and the minimum eigenvalue relative
to A's, and every regime that changed; then each side's wall time per
``time`` record, so that a change that makes fits cheaper shows it in the
same run that shows its bits.  Times do not enter the gate, and a file
saved without them compares with times shown as "-".  It exits 1 when
a fit moved, a final energy rose by more than ENERGY_RISE_TOL, a stop reason
changed or a dominance verdict flipped, and 2 when the two files do not hold
the same records, or when they lack a group or, at some sweep and delta,
the fits of an objective; a bit change alone is reported and fails nothing.
A change that reorders only the arithmetic of the energies keeps every fit
path-identical while its energies, and so its hashes, move by ulps.
MOVE_TOL separates another minimizer (moves of 0.8-1 in m were seen) from
the stopping error of two converged fits of one minimizer (a few 1e-4).
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taplab.experiments import ExperimentConfig, _mse, _sweep  # noqa: E402
from taplab.free_energy import VariationalState, min_eigenvalue  # noqa: E402
from taplab.ngd import Objective, StopReason  # noqa: E402
from taplab.potential import solve_gammas  # noqa: E402
from taplab.priors import parse_prior  # noqa: E402

MOVE_TOL = 1e-3
ENERGY_RISE_TOL = 1e-8
# (test, prior, sigma, n, replicates, deltas): test_5's two sweeps, test_6's,
# three-point at low noise, and test_10's hard regime; None is the default
# delta grid
SWEEPS = (("test_5", "three-point", 0.3, 300, 20, None),
          ("test_5", "bernoulli-gaussian:0.5,1.0", 0.3, 300, 20, None),
          ("test_6", "three-point", 0.3, 500, 10, (1.0,)),
          ("low_noise", "three-point", 0.2, 300, 4, None),
          ("low_noise", "three-point", 0.1, 300, 4, None),
          ("test_10", "three-point", 0.1, 500, 6, (0.6,)))
COUNTS = ("iterations", "ngd_iterations", "hessian_matvecs", "curvature_breaks")
POTENTIAL_PRIORS = ("three-point", "bernoulli-gaussian:0.5,1.0",
                    "point-mass:-2,0.25;-1,0.25;1,0.25;2,0.25",
                    "point-mass:-1,0.2;0,0.5;2,0.3")
PROBE_DELTAS = (0.6, 1.0, 1.4)
OTHER_GROUPS = ("potential", "dual_solve", "min_eigenvalue")  # the records besides fits
DUAL_ROWS = 2000


def _sha256(*items):
    """SHA-256 of ``items``; a VariationalState is its m, s, lam, gam, logZ."""
    h = hashlib.sha256()
    for x in items:
        for y in (x.m, x.s, x.lam, x.gam, x.logZ) if isinstance(x, VariationalState) else (x,):
            if isinstance(y, float):
                data = float.hex(y).encode()
            elif isinstance(y, (np.ndarray, list)):
                data = np.ascontiguousarray(y, dtype=np.float64).tobytes()
            else:
                data = repr(y).encode()
            h.update(data + b"\x1f")
    return h.hexdigest()


def _digest(obj):
    """SHA-256 of the name and value of every field of the dataclass ``obj``."""
    return _sha256(*(x for f in dataclasses.fields(obj) for x in (f.name, getattr(obj, f.name))))


def fit_records(n=None, replicates=None):
    """The fit and min_eigenvalue records of every sweep; ``n`` and
    ``replicates``, when given, replace every sweep's n and cap its
    replicates."""
    records = []
    for test, desc, sigma, sweep_n, sweep_replicates, deltas in SWEEPS:
        start = time.perf_counter()
        cfg = ExperimentConfig(prior_descriptor=desc, sigma=sigma, n=n or sweep_n,
                               replicates=min(replicates or sweep_replicates, sweep_replicates))
        sweep, prior = f"{test} {desc} sigma={sigma:g} n={cfg.n}", cfg.prior()
        for delta, rep, model, truth, traces in _sweep(cfg, deltas or cfg.delta_grid):
            for objective, trace in traces.items():
                records.append(dict(
                    group="fit", sweep=sweep, delta=float(delta), replicate=rep,
                    objective=objective.value, energy=float(trace.f_values[-1]),
                    stop=trace.stop_reason.value,
                    **{c: getattr(trace, c) for c in COUNTS},
                    mse=_mse(trace, truth), sha256=_digest(trace),
                    path_sha256=_sha256(trace.steps_used, trace.grad_norm_sq_per_p,
                                        trace.final),
                    m=trace.final.m.tolist()))
            if test == "test_5" and rep == 0 and delta in PROBE_DELTAS:
                state = traces[Objective.TAP].final
                value = float(min_eigenvalue(model, state, prior, "dense").value)
                records.append(dict(group="min_eigenvalue", sweep=sweep, delta=float(delta),
                                    lambda_min=value, sha256=_sha256(value)))
        records.append(dict(group="time", sweep=sweep, seconds=time.perf_counter() - start))
    return records


def landscape_records():
    """The potential and dual_solve records."""
    start = time.perf_counter()
    cfg = ExperimentConfig()  # sigma^2 = 0.09 and the default delta grid
    cases = [(desc, delta) for desc in POTENTIAL_PRIORS for delta in cfg.delta_grid]
    records = []
    for desc, delta in cases + [("bernoulli-gaussian:1.0,1.0", 1.0)]:  # the unit Gaussian
        prof = solve_gammas(parse_prior(desc), cfg.sigma2, delta)
        records.append(dict(group="potential", prior=desc, delta=delta,
                            gamma_stat=prof.gamma_stat, gamma_alg=prof.gamma_alg,
                            regime=prof.regime.value, sha256=_digest(prof)))
    rng = np.random.default_rng(0)
    for desc in ("three-point", "bernoulli-gaussian:0.5,1.0"):
        prior = parse_prior(desc)
        lam, gam = rng.uniform(-2, 2, DUAL_ROWS), rng.uniform(0.1, 4, DUAL_ROWS)
        tilted = VariationalState.from_duals(prior, lam, gam)
        state = VariationalState.from_moments(prior, tilted.m, tilted.s)
        records.append(dict(group="dual_solve", prior=desc, sha256=_sha256(state)))
    records.append(dict(group="time", sweep="potential and dual_solve",
                        seconds=time.perf_counter() - start))
    return records


def _key(record):
    return tuple(record.get(k) for k in ("group", "sweep", "prior", "delta", "replicate",
                                         "objective"))


def _incomplete(keys):
    """Why records of ``keys`` cannot be compared: a group without records,
    or a sweep and delta without fits of both objectives; None when they
    can."""
    missing = [g for g in ("fit", *OTHER_GROUPS) if not any(k[0] == g for k in keys)]
    if missing:
        return f"no {', '.join(missing)} records"
    objectives = {}
    for k in keys:
        if k[0] == "fit":
            objectives.setdefault((k[1], k[3]), set()).add(k[5])
    for (sweep, delta), found in objectives.items():
        if found != {"tap", "mf"}:
            return f"{sweep} delta={delta:g} has only {', '.join(sorted(found))} fits"
    return None


def _dominance(records):
    """{(sweep, delta): mean TAP MSE <= mean MF MSE}."""
    mse = {}
    for r in records:
        by_objective = mse.setdefault((r["sweep"], r["delta"]), {})
        by_objective.setdefault(r["objective"], []).append(r["mse"])
    return {k: bool(np.mean(v["tap"]) <= np.mean(v["mf"])) for k, v in mse.items()}


def compare(a_records, b_records):
    """Print the comparison of B against A and return the exit status."""
    a = {_key(r): r for r in a_records if r["group"] != "time"}
    b = {_key(r): r for r in b_records if r["group"] != "time"}
    if a.keys() != b.keys():
        print("not comparable: the two files hold different records")
        return 2
    reason = _incomplete(a)
    if reason:
        print(f"not comparable: {reason}")
        return 2
    failed = False
    fits = [k for k in a if k[0] == "fit"]
    for sweep, objective in dict.fromkeys((k[1], k[5]) for k in fits):  # in saved order
        keys = [k for k in fits if k[1] == sweep and k[5] == objective]
        dm = [float(np.max(np.abs(np.subtract(b[k]["m"], a[k]["m"])))) for k in keys]
        identical, path_identical = (sum(a[k][h] == b[k][h] for k in keys)
                                     for h in ("sha256", "path_sha256"))
        moved = sum(not d <= MOVE_TOL for d in dm)  # nan counts as moved
        df = [b[k]["energy"] - a[k]["energy"] for k in keys]
        stops = sum(a[k]["stop"] != b[k]["stop"] for k in keys)
        print(f"{sweep} {objective}: {len(keys)} fits, {identical} bit-identical, "
              f"{path_identical} path-identical, "
              f"{moved} moved (max|dm| {max(dm):.2e}), largest energy rise {max(df):.2e}, "
              f"largest |dF| {max(map(abs, df)):.2e}, {stops} stop reasons changed")
        stop_counts = [Counter(records[k]["stop"] for k in keys) for records in (a, b)]
        print(f"{sweep} {objective}: stop reasons " + ", ".join(
            f"{s.value} {stop_counts[0][s.value]} -> {stop_counts[1][s.value]}"
            for s in StopReason))
        print(f"{sweep} {objective}: " + ", ".join(
            f"{name} {sum(a[k][name] for k in keys)} -> {sum(b[k][name] for k in keys)}"
            for name in COUNTS))
        failed |= moved > 0 or not max(df) <= ENERGY_RISE_TOL or stops > 0
    dom_a, dom_b = (_dominance(records[k] for k in fits) for records in (a, b))
    for (sweep, delta), before in dom_a.items():
        after = dom_b[sweep, delta]
        print(f"TAP MSE <= MF MSE, {sweep} delta={delta:g}: {before} -> {after}")
        failed |= before != after
    for group in OTHER_GROUPS:
        keys = [k for k in a if k[0] == group]
        identical = sum(a[k]["sha256"] == b[k]["sha256"] for k in keys)
        print(f"{group}: {len(keys)} records, {identical} bit-identical" + "".join(
            f", largest relative change of {name} "
            f"{max(abs(b[k][name] - a[k][name]) / abs(a[k][name]) for k in keys):.2e}"
            for name in ("gamma_stat", "gamma_alg", "lambda_min") if name in a[keys[0]]))
        for k in keys:
            if a[k].get("regime") != b[k].get("regime"):
                print(f"{group} {k[2]} delta={k[3]:g}: "
                      f"regime {a[k]['regime']} -> {b[k]['regime']}")
    times = [{r["sweep"]: f"{r['seconds']:.2f} s" for r in records if r["group"] == "time"}
             for records in (a_records, b_records)]
    for part in dict.fromkeys([*times[0], *times[1]]):
        print(f"save time, {part}: {times[0].get(part, '-')} -> {times[1].get(part, '-')}")
    print("gate: " + ("FAIL" if failed else "pass"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    save = sub.add_parser("save", help="compute every record and write them")
    save.add_argument("out", help="output file (JSON)")
    save.add_argument("--n", type=int, help="rows of every design (default: each sweep's)")
    save.add_argument("--replicates", type=int, help="at most this many replicates per sweep")
    cmp = sub.add_parser("compare", help="compare the records of B against A")
    cmp.add_argument("files", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.command == "save":
        records = fit_records(args.n, args.replicates) + landscape_records()
        Path(args.out).write_text(json.dumps(records))  # its floats read back exactly
        return 0
    return compare(*(json.loads(Path(path).read_text()) for path in args.files))


if __name__ == "__main__":
    sys.exit(main())

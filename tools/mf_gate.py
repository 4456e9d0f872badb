"""A parent-versus-change gate for the fitted answers, mean-field above all:
fit the acceptance sweeps' instances on each checkout, save every fit, and
compare the two files.

    OPENBLAS_NUM_THREADS=1 python3 tools/mf_gate.py save parent.npz   # on the parent
    OPENBLAS_NUM_THREADS=1 python3 tools/mf_gate.py save change.npz   # on the change
    python3 tools/mf_gate.py compare parent.npz change.npz
    python3 tools/mf_gate.py save smoke.npz --n 40 --replicates 1     # smoke run

``save`` imports taplab from the ``src/`` of the checkout it lives in and
fits, through ``experiments._sweep`` (one AMP warm start per instance, then
TAP and MF by ``newton_run``), the instances of the acceptance tests: test_5's
two sweeps (three-point and ``bernoulli-gaussian:0.5,1.0``, n = 300, 20
replicates at each delta of the default grid) and test_6's (three-point,
n = 500, delta = 1, 10 replicates), 210 instances in all.  For each TAP and
MF fit it records the final m, the final energy, the stop reason,
``iterations``, ``ngd_iterations``, ``hessian_matvecs`` and the MSE.

``compare A B`` prints, per objective, how many fits are bit-identical in m,
how many moved (max|m_B - m_A| > MOVE_TOL), the largest max|m_B - m_A|, the
largest rise of the final energy from A to B, the stop reasons that changed
and the totals of iterations, NGD iterations and Hessian products; then,
per sweep and delta, whether the mean TAP MSE is at most the mean MF MSE in
A and in B.  It exits 1 when a fit moved, a final energy rose by more than
ENERGY_RISE_TOL, a stop reason changed or a dominance verdict flipped, and
2 when the two files do not hold the same fits.  MOVE_TOL separates another
minimizer (moves of 0.8-1 in m were seen) from the stopping error of two
converged fits of one minimizer (a few 1e-4).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taplab.experiments import ExperimentConfig, _mse, _sweep  # noqa: E402

MOVE_TOL = 1e-3
ENERGY_RISE_TOL = 1e-8
# (test, prior, n, replicates, deltas): test_5's two sweeps and test_6's;
# None is the default delta grid
SWEEPS = (("test_5", "three-point", 300, 20, None),
          ("test_5", "bernoulli-gaussian:0.5,1.0", 300, 20, None),
          ("test_6", "three-point", 500, 10, (1.0,)))
COUNTS = ("iterations", "ngd_iterations", "hessian_matvecs")


def fit_records(n=None, replicates=None):
    """One record per fit of every sweep; ``n`` and ``replicates``, when
    given, replace every sweep's n and cap its replicates."""
    records = []
    for test, desc, sweep_n, sweep_replicates, deltas in SWEEPS:
        cfg = ExperimentConfig(prior_descriptor=desc, n=n or sweep_n,
                               replicates=min(replicates or sweep_replicates,
                                              sweep_replicates))
        sweep = f"{test} {desc} n={cfg.n}"
        for delta, rep, _, truth, traces in _sweep(cfg, deltas or cfg.delta_grid):
            for objective, trace in traces.items():
                records.append({"sweep": sweep, "delta": float(delta), "replicate": rep,
                                "objective": objective.value,
                                "energy": float(trace.f_values[-1]),
                                "stop": trace.stop_reason.value,
                                **{name: getattr(trace, name) for name in COUNTS},
                                "mse": _mse(trace, truth), "m": trace.final.m})
    return records


def dump(records, path):
    """Write the records to ``path``: their final m as arrays, the rest as
    JSON, whose floats read back exactly."""
    meta = [{k: v for k, v in r.items() if k != "m"} for r in records]
    with open(path, "wb") as f:
        np.savez_compressed(f, meta=np.array(json.dumps(meta)),
                            **{f"m{i}": r["m"] for i, r in enumerate(records)})


def load(path):
    with np.load(path) as data:
        records = json.loads(str(data["meta"]))
        for i, r in enumerate(records):
            r["m"] = data[f"m{i}"]
    return records


def _key(record):
    return record["sweep"], record["delta"], record["replicate"], record["objective"]


def _dominance(records):
    """{(sweep, delta): mean TAP MSE <= mean MF MSE}."""
    mse = {}
    for r in records:
        by_objective = mse.setdefault((r["sweep"], r["delta"]), {})
        by_objective.setdefault(r["objective"], []).append(r["mse"])
    return {k: bool(np.mean(v["tap"]) <= np.mean(v["mf"])) for k, v in mse.items()}


def compare(a_records, b_records):
    """Print the comparison of B against A and return the exit status."""
    a = {_key(r): r for r in a_records}
    b = {_key(r): r for r in b_records}
    if a.keys() != b.keys():
        print("not comparable: the two files hold different fits")
        return 2
    failed = False
    for objective in ("tap", "mf"):
        keys = [k for k in a if k[3] == objective]
        dm = [float(np.max(np.abs(b[k]["m"] - a[k]["m"]))) for k in keys]
        identical = sum(np.array_equal(a[k]["m"], b[k]["m"]) for k in keys)
        moved = sum(not d <= MOVE_TOL for d in dm)  # nan counts as moved
        rise = max(b[k]["energy"] - a[k]["energy"] for k in keys)
        stops = sum(a[k]["stop"] != b[k]["stop"] for k in keys)
        print(f"{objective}: {len(keys)} fits, {identical} bit-identical, {moved} moved "
            f"(max|dm| {max(dm):.2e}), largest energy rise {rise:.2e}, "
            f"{stops} stop reasons changed")
        print(f"{objective}: " + ", ".join(
            f"{name} {sum(a[k][name] for k in keys)} -> {sum(b[k][name] for k in keys)}"
            for name in COUNTS))
        failed |= moved > 0 or not rise <= ENERGY_RISE_TOL or stops > 0
    dom_a, dom_b = _dominance(a_records), _dominance(b_records)
    for (sweep, delta), before in dom_a.items():
        after = dom_b[sweep, delta]
        print(f"TAP MSE <= MF MSE, {sweep} delta={delta:g}: {before} -> {after}")
        failed |= before != after
    print("gate: " + ("FAIL" if failed else "pass"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    save = sub.add_parser("save", help="fit every instance and write the records")
    save.add_argument("out", help="output file (.npz)")
    save.add_argument("--n", type=int, help="rows of every design (default: each sweep's)")
    save.add_argument("--replicates", type=int, help="at most this many replicates per sweep")
    cmp = sub.add_parser("compare", help="compare the records of B against A")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args()
    if args.command == "save":
        dump(fit_records(args.n, args.replicates), args.out)
        return 0
    return compare(load(args.a), load(args.b))


if __name__ == "__main__":
    sys.exit(main())

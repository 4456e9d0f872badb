"""Run one taplab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-3pt --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports taplab from its ``src``
directory.  Set-up is repeated ``SETUPS`` times; then whole rounds of the
workload's operations run until ``--seconds`` have passed (at least one).
With ``--trace 1`` the untraced rounds are followed by as many traced rounds,
and the per-layer metrics come from the traced ones.  Times are reported in
reference-machine seconds (``speed.py``); the wall times are kept in the
result file.  Human-readable lines go first; the last line of standard output
is one JSON object.  The full result, with the run's metadata, goes to
``perfbench/out/``.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread unless the caller says otherwise: on a 2-core machine a
# second OpenBLAS thread made solve_gammas twice as slow whenever another
# process competed for a core, which no run length averages out.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from speed import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Record:
    op: object
    start: float
    end: float
    out: object
    error: tuple | None  # (exception type, message)
    seconds: float = 0.0  # wall time, set once the speed clock has stopped
    scaled: float = 0.0  # reference-machine seconds


def steady_scaled(records):
    """Scaled time of one round's operations, without those marked unsteady."""
    return sum(r.scaled for r in records if r.op.steady)


def run_round(ops, tracer=None):
    records = []
    for op in ops:
        span = tracer.begin(tracing.OP_PREFIX + op.kind) if tracer else None
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, (type(exc).__name__, str(exc))
        t1 = time.perf_counter()
        if tracer:
            tracer.finish(span)
        records.append(Record(op, t0, t1, out, error))
    return records


def run_rounds(ops, seconds, tracer=None):
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(ops, tracer))
    return rounds


def run_metadata(seed):
    import numpy as np
    import scipy
    from taplab import kernels

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "taplab.kernels.USE_NUMBA": bool(kernels.USE_NUMBA),
        "seed": seed,
        "git_describe": git_describe(),
        "machine": platform.machine(),
    }


def git_describe():
    # never look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if res.returncode != 0:
        return None
    return res.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "taplab" / "__init__.py").is_file():
        print(f"error: no taplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import taplab

    if Path(taplab.__file__).resolve().parent != SRC / "taplab":
        print(f"error: imported taplab from {taplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    t_imported = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None

    with SpeedClock() as clock:
        # set-up, repeated so that its median is steady
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            inp = wl.setup(args.seed)
            setups.append(clock.elapsed(t0, time.perf_counter()))
        if tracer:  # once more, traced, so that instance generation shows per layer
            tracer.install()
            span = tracer.begin(tracing.SETUP_SPAN)
            inp = wl.setup(args.seed)
            tracer.finish(span)
            tracer.uninstall()
        ops = wl.ops(inp)

        rounds = run_rounds(ops, args.seconds)
        traced = []
        if tracer:
            tracer.install()
            traced = run_rounds(ops, args.seconds, tracer)
            tracer.uninstall()
    imported = clock.elapsed(T_START, t_imported)
    for rnd in rounds + traced:
        for r in rnd:
            r.seconds, r.scaled = clock.elapsed(r.start, r.end)

    all_rounds = rounds + traced
    attempted = sum(len(rnd) for rnd in all_rounds)
    failures = [(r.op.kind, r.op.label) + r.error for rnd in all_rounds
                for r in rnd if r.error]
    problems = []
    for rnd in all_rounds:
        problems += wl.check(inp, [(r.op, r.out) for r in rnd if r.error is None])
    problems = list(dict.fromkeys(problems))

    end_to_end = {
        "setup_s": imported[1] + statistics.median(scaled for _, scaled in setups),
        "round_s": statistics.median(steady_scaled(rnd) for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    breakdown = wl.breakdown(rounds)
    per_layer = {}
    if tracer:
        per_layer = tracer.per_layer(len(traced))
        # the untraced rounds' operation times, 0 where the workload has none
        for name in workloads.OP_TIMES:
            per_layer["ops." + name] = breakdown[name][0] if name in breakdown else 0.0
        per_layer["trace.overhead"] = (statistics.median(steady_scaled(rnd) for rnd in traced)
                                       / end_to_end["round_s"] - 1.0)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "meta": run_metadata(args.seed),
        "correct": not problems, "attempted": attempted, "failed": len(failures),
        "problems": problems,
        "failures": [dict(zip(("kind", "label", "type", "message"), f)) for f in failures],
        "rounds": len(rounds), "traced_rounds": len(traced),
        "wall": {"import_s": imported[0], "setup_s": [wall for wall, _ in setups],
                 "round_s": [sum(r.seconds for r in rnd if r.op.steady) for rnd in rounds]},
        "end_to_end": end_to_end,
        "breakdown": {k: v for k, (v, _) in breakdown.items()},
        "per_layer": per_layer,
        "op_seconds": [[[r.op.kind, r.op.label, r.seconds] for r in rnd] for rnd in rounds],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        tracer.save(OUT / f"{stem}.spans.npz")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          + (f" + {len(traced)} traced" if tracer else "")
          + f"  attempted {attempted}  failed {len(failures)}  correct {not problems}")
    for name, value in end_to_end.items():
        print(f"  {name:<40} {value:12.4f} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in breakdown.items():
        print(f"  {name:<40} {value:12.4f} {unit}")
    for name, value in per_layer.items():
        print(f"  {name:<40} {value:12.6g}")
    for kind, label, etype, msg in dict.fromkeys(failures):
        n = failures.count((kind, label, etype, msg))
        print(f"  FAILED x{n} {kind} [{label}]: {etype}: {msg}")
    for msg in problems:
        print(f"  WRONG {msg}")
    print(f"  result: {(OUT / stem).relative_to(ROOT)}.json")

    if tracer:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def per_layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "s_per_iteration") or last.endswith("_s"):
        return "s"
    if last == "ns_per_atom_row":
        return "ns"
    if last in ("accept_ratio", "tilts_per_iteration", "overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

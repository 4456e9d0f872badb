"""Run the benchmark on a parent and a change checkout in alternating pairs,
and compare their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sweep-3pt --pairs 10

Both checkouts must hold the same ``perfbench/*.py`` and ``BENCHMARK.json``,
so that only the program differs; the tool exits 1 before any run when they
do not.  Pair i, for i = 1..N, runs each checkout's own
``perfbench/run.py --trace 0``, from that checkout's root, as a subprocess
with the seed i (perfbench's seed only relabels fixed instances, so every
seed does the same work); the parent runs first in odd pairs and the change
first in even ones.  Only the last line of a run's standard output is read:
the JSON object with ``correct``, ``attempted``, ``failed`` and the
end-to-end ``metrics``.
``--seconds`` is passed on to ``run.py`` when given.

For each metric it prints both sides' medians and interquartile ranges, the
median of the paired differences (change - parent), and the pairs the change
won, where a lower value wins (every end-to-end metric is a time or a memory
peak) and a tie counts for neither side.  Then each side's failed share:
failed operations over attempted ones, over all its runs.  It exits 1 when
any run is not ``correct: true``, and stops at once, exiting 1, when a run
exits nonzero or its last line is not that JSON object.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run(checkout, workload, seed, seconds):
    """The last line of one ``run.py`` run in ``checkout``, read as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"] + (["--seconds", str(seconds)] if seconds is not None else [])
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.splitlines()
    if res.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {res.returncode} "
             f"without a JSON last line\n{res.stderr}")


def harness(checkout):
    """The bytes of the benchmark files in ``checkout``, by name."""
    root = Path(checkout)
    files = sorted(root.glob("perfbench/*.py")) + [root / "BENCHMARK.json"]
    return {f.relative_to(root).as_posix(): f.read_bytes() for f in files if f.is_file()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("argument --pairs: must be at least 1")

    parent, change = (harness(c) for c in args.checkouts)
    if parent != change:
        differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
        sys.exit(f"bench_pairs: the checkouts' benchmarks differ in {', '.join(differ)}")

    results = {side: [] for side in SIDES}
    for seed in range(1, args.pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            checkout = args.checkouts[SIDES.index(side)]
            results[side].append(run(checkout, args.workload, seed, args.seconds))

    print(f"workload {args.workload}, {args.pairs} pairs, seeds 1..{args.pairs}; "
          "parent first in odd pairs")
    for name, metric in results["parent"][0]["metrics"].items():
        values = {side: np.array([r["metrics"][name]["value"] for r in results[side]])
                  for side in SIDES}
        diff = values["change"] - values["parent"]
        summary = []
        for side in SIDES:
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            summary.append(f"{side} median {median:.4f} IQR {q3 - q1:.4f}")
        print(f"{name} ({metric['unit']}): {', '.join(summary)}, "
              f"median change - parent {np.median(diff):+.4f}, "
              f"change wins {int(np.sum(diff < 0))} of {args.pairs}")
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        correct = sum(r["correct"] is True for r in results[side])
        print(f"{side}: failed share {failed}/{attempted} = {failed / attempted:.4f}, "
              f"correct {correct} of {args.pairs} runs")
    return 0 if all(r["correct"] is True for side in SIDES for r in results[side]) else 1


if __name__ == "__main__":
    sys.exit(main())

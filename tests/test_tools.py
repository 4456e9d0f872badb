import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mf_gate.py"
PAIRS = ROOT / "tools" / "bench_pairs.py"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _compare(a, b):
    return subprocess.run([sys.executable, str(TOOL), "compare", str(a), str(b)],
                          capture_output=True, text=True, env=ENV, timeout=300)


def test_mf_gate_passes_two_saves_and_flags_an_edit(tmp_path):
    # the gate's smoke run: two saves side by side hold every group, the
    # low-noise and hard-regime sweeps included, and compare clean and
    # bit-identical; an edited hash is reported without
    # failing the gate, a mean-field record whose m moved and whose energy
    # rose fails it, and a file with a record missing is not comparable
    a, b, edited = (tmp_path / name for name in ("a.json", "b.json", "edited.json"))
    runs = [subprocess.Popen([sys.executable, str(TOOL), "save", str(path), "--n", "30",
                              "--replicates", "1"], env=ENV) for path in (a, b)]
    assert [run.wait(timeout=300) for run in runs] == [0, 0]
    records = json.loads(b.read_text())
    groups = Counter(r["group"] for r in records)
    assert groups == {"fit": 44, "min_eigenvalue": 6, "potential": 21, "dual_solve": 2,
                      "time": 7}

    clean = _compare(a, b)
    assert clean.returncode == 0, clean.stdout
    # every sweep and objective, TAP and MF, is bit-identical fit for fit
    lines = re.findall(r"^(\w+ .+ sigma=[\d.]+ n=30) (tap|mf): (\d+) fits, (\d+) bit-identical, "
                       r"(\d+) path-identical, 0 moved", clean.stdout, re.MULTILINE)
    assert len({(sweep, objective) for sweep, objective, *_ in lines}) == len(lines) == 12
    assert all(fits == identical == path for _, _, fits, identical, path in lines), clean.stdout
    assert sum(int(fits) for _, _, fits, *_ in lines) == 44
    # each side's stop reasons per sweep and objective, which cover its fits
    stops = re.findall(r"^(\w+ .+ sigma=[\d.]+ n=30) (tap|mf): stop reasons converged (\d+) -> "
                       r"(\d+), step_floor (\d+) -> (\d+), max_iters (\d+) -> (\d+)$",
                       clean.stdout, re.MULTILINE)
    assert [(sweep, objective) for sweep, objective, *_ in stops] == \
        [(sweep, objective) for sweep, objective, *_ in lines]
    for (_, _, fits, _, _), (_, _, *counts) in zip(lines, stops):
        assert counts[::2] == counts[1::2] and sum(map(int, counts[::2])) == int(fits)
    assert {sweep for sweep, *_ in lines} >= {"low_noise three-point sigma=0.1 n=30",
                                             "test_10 three-point sigma=0.1 n=30"}
    sweep = "test_5 three-point sigma=0.3 n=30"
    for line in ("potential: 21 records, 21 bit-identical", "dual_solve: 2 records, "
                 "2 bit-identical", "min_eigenvalue: 6 records, 6 bit-identical"):
        assert line in clean.stdout
    assert "regime" not in clean.stdout
    # each side's wall time per sweep, and for the potential and dual solves
    times = re.findall(r"^save time, (.+): ([\d.]+) s -> ([\d.]+) s$", clean.stdout,
                       re.MULTILINE)
    assert [part for part, _, _ in times][-1] == "potential and dual_solve"
    assert len(times) == 7 and f"{sweep}" in [part for part, _, _ in times]
    # a file saved without times still compares, its times shown as "-"
    edited.write_text(json.dumps([r for r in records if r["group"] != "time"]))
    untimed = _compare(edited, b)
    assert untimed.returncode == 0, untimed.stdout
    assert f"save time, {sweep}: - -> " in untimed.stdout

    potential = next(r for r in records if r["group"] == "potential")
    potential["sha256"] = "0" * 64
    potential["regime"] = "degenerate"
    edited.write_text(json.dumps(records))
    reported = _compare(a, edited)
    assert reported.returncode == 0, reported.stdout
    assert "potential: 21 records, 20 bit-identical" in reported.stdout
    assert (f"potential {potential['prior']} delta=0.6: regime easy -> degenerate"
            in reported.stdout)

    fit = next(r for r in records if r["group"] == "fit" and r["objective"] == "mf")
    assert fit["sweep"] == sweep
    spec = importlib.util.spec_from_file_location("mf_gate", TOOL)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    fit["m"] = [x + 2 * gate.MOVE_TOL for x in fit["m"]]
    fit["energy"] += 2 * gate.ENERGY_RISE_TOL
    fit["sha256"] = fit["path_sha256"] = "0" * 64
    edited.write_text(json.dumps(records))
    flagged = _compare(a, edited)
    assert flagged.returncode == 1
    assert f"{sweep} mf: 5 fits, 4 bit-identical, 4 path-identical, 1 moved" in flagged.stdout
    assert "gate: FAIL" in flagged.stdout

    edited.write_text(json.dumps(records[1:]))
    assert _compare(a, edited).returncode == 2  # not the same records


def test_mf_gate_tells_path_identical_from_bit_identical(tmp_path):
    # hand-made records: two fits whose descents took the same path (equal
    # path hashes) to energies that differ in the last bits count as
    # path-identical, not bit-identical, and pass; a file saved before the
    # path hash and the curvature-break count shows "-" for both; files that
    # lack the mean-field fits of a delta, or a group, are not comparable
    def fit(replicate, energy, digest, **extra):
        return dict(group="fit", sweep="test_5 three-point n=30", delta=1.0,
                    replicate=replicate, objective="mf", energy=energy, stop="converged",
                    iterations=9, ngd_iterations=5, hessian_matvecs=7, mse=0.1,
                    sha256=digest, m=[0.5, -1.0], **extra)

    tap = dict(fit(0, 270.0, "t"), objective="tap", mse=0.05, path_sha256="t",
               curvature_breaks=0)

    others = [tap, dict(group="potential", prior="three-point", delta=1.0, gamma_stat=2.0,
                   gamma_alg=2.0, regime="easy", sha256="p"),
              dict(group="dual_solve", prior="three-point", sha256="d"),
              dict(group="min_eigenvalue", sweep="test_5 three-point n=30", delta=1.0,
                   lambda_min=0.4, sha256="e")]
    a = [fit(0, 272.0, "a0", path_sha256="x", curvature_breaks=2),
         fit(1, 13.5, "a1", path_sha256="y", curvature_breaks=0)] + others
    b = [fit(0, 272.0 + 5.7e-14, "b0", path_sha256="x", curvature_breaks=2),
         fit(1, 13.5 - 1.8e-15, "b1", path_sha256="y", curvature_breaks=0)] + others
    old = [{k: v for k, v in r.items() if k not in ("path_sha256", "curvature_breaks")}
           for r in a]
    files = {}
    no_mf = [r for r in a if r.get("objective") != "mf"]
    no_dual = [r for r in a if r["group"] != "dual_solve"]
    for name, records in (("a", a), ("b", b), ("old", old), ("no_mf", no_mf),
                          ("no_dual", no_dual)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(records))

    result = _compare(files["a"], files["b"])
    assert result.returncode == 0, result.stdout
    assert ("test_5 three-point n=30 mf: 2 fits, 0 bit-identical, 2 path-identical, 0 moved "
            "(max|dm| 0.00e+00), largest energy rise 5.68e-14, largest |dF| 5.68e-14, "
            "0 stop reasons changed") in result.stdout
    assert "curvature_breaks 2 -> 2" in result.stdout
    assert "gate: pass" in result.stdout

    result = _compare(files["old"], files["b"])
    assert result.returncode == 0, result.stdout
    assert "2 fits, 0 bit-identical, - path-identical, 0 moved" in result.stdout
    assert "hessian_matvecs 14 -> 14, curvature_breaks - -> 2" in result.stdout

    for name, reason in (("no_mf", "test_5 three-point n=30 delta=1 has only tap fits"),
                         ("no_dual", "no dual_solve records")):
        result = _compare(files[name], files[name])
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stdout == f"not comparable: {reason}\n"


def test_bench_pairs_runs_one_pair_of_one_checkout(tmp_path):
    # both sides are one copy of src/ and perfbench/, so the runs write their
    # results there and nothing under this checkout; a side with another
    # benchmark stops the tool before any run, and a side whose run.py fails
    # (no src/) stops it before it prints a comparison
    checkout = tmp_path / "checkout"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run([sys.executable, str(PAIRS), str(checkout), str(checkout),
                          "--workload", "sweep-bg", "--pairs", "1", "--seconds", "1"],
                         capture_output=True, text=True, env=ENV, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    for metric in ("setup_s", "round_s", "peak_rss_mb"):
        assert re.search(rf"^{metric} \((s|MB)\): parent median [\d.]+ IQR 0.0000, change "
                         rf"median [\d.]+ IQR 0.0000, median change - parent [-+][\d.]+, "
                         rf"change wins [01] of 1$", res.stdout, re.MULTILINE), res.stdout
    for side in ("parent", "change"):
        assert re.search(rf"^{side}: failed share 0/\d+ = 0.0000, correct 1 of 1 runs$",
                         res.stdout, re.MULTILINE), res.stdout
    assert (checkout / "perfbench" / "out" / "sweep-bg-seed1-trace0.json").is_file()

    empty = tmp_path / "empty"
    empty.mkdir()
    res = subprocess.run([sys.executable, str(PAIRS), str(empty), str(checkout),
                          "--workload", "sweep-bg", "--pairs", "1"],
                         capture_output=True, text=True, env=ENV, timeout=60)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("bench_pairs: the checkouts' benchmarks differ in "
                                 "perfbench/")

    srcless = tmp_path / "srcless"
    shutil.copytree(checkout / "perfbench", srcless / "perfbench")
    res = subprocess.run([sys.executable, str(PAIRS), str(srcless), str(checkout),
                          "--workload", "sweep-bg", "--pairs", "1"],
                         capture_output=True, text=True, env=ENV, timeout=60)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("bench_pairs: ") and "run.py" in res.stderr


def test_bench_pairs_alternates_sides_and_counts_wins(monkeypatch, capsys):
    # runs stand in for run.py: the change is 0.1 s faster on seeds 1-3 and
    # ties on seed 4, fails one operation in ten, and is not correct on seed 3
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        value = 1.0 + seed / 100 - (0.1 if checkout == "C" and seed < 4 else 0.0)
        return {"correct": checkout == "P" or seed != 3, "attempted": 10,
                "failed": int(checkout == "C"), "metrics": {"round_s": {"value": value,
                                                                        "unit": "s"}}}

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "P", "C", "--workload", "w",
                                      "--pairs", "4"])
    assert tool.main() == 1
    assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2),
                     ("P", 3), ("C", 3), ("C", 4), ("P", 4)]
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [
        "round_s (s): parent median 1.0250 IQR 0.0150, change median 0.9250 IQR 0.0400, "
        "median change - parent -0.1000, change wins 3 of 4",
        "parent: failed share 0/40 = 0.0000, correct 4 of 4 runs",
        "change: failed share 4/40 = 0.1000, correct 3 of 4 runs"]

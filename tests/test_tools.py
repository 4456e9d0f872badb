import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mf_gate.py"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _compare(a, b):
    return subprocess.run([sys.executable, str(TOOL), "compare", str(a), str(b)],
                          capture_output=True, text=True, env=ENV, timeout=300)


def test_mf_gate_passes_two_saves_and_flags_an_edit(tmp_path):
    # the gate's smoke run: two saves side by side hold every group and
    # compare clean and bit-identical; an edited hash is reported without
    # failing the gate, a mean-field record whose m moved and whose energy
    # rose fails it, and a file with a record missing is not comparable
    a, b, edited = (tmp_path / name for name in ("a.json", "b.json", "edited.json"))
    runs = [subprocess.Popen([sys.executable, str(TOOL), "save", str(path), "--n", "30",
                              "--replicates", "1"], env=ENV) for path in (a, b)]
    assert [run.wait(timeout=300) for run in runs] == [0, 0]
    records = json.loads(b.read_text())
    groups = Counter(r["group"] for r in records)
    assert groups == {"fit": 22, "min_eigenvalue": 6, "potential": 21, "dual_solve": 2,
                      "time": 4}

    clean = _compare(a, b)
    assert clean.returncode == 0, clean.stdout
    # every sweep and objective, TAP and MF, is bit-identical fit for fit
    lines = re.findall(r"^(test_\d .+ n=30) (tap|mf): (\d+) fits, (\d+) bit-identical, "
                       r"(\d+) path-identical, 0 moved", clean.stdout, re.MULTILINE)
    assert len({(sweep, objective) for sweep, objective, *_ in lines}) == len(lines) == 6
    assert all(fits == identical == path for _, _, fits, identical, path in lines), clean.stdout
    assert sum(int(fits) for _, _, fits, *_ in lines) == 22
    sweep = "test_5 three-point n=30"
    for line in ("potential: 21 records, 21 bit-identical", "dual_solve: 2 records, "
                 "2 bit-identical", "min_eigenvalue: 6 records, 6 bit-identical"):
        assert line in clean.stdout
    assert "regime" not in clean.stdout
    # each side's wall time per sweep, and for the potential and dual solves
    times = re.findall(r"^save time, (.+): ([\d.]+) s -> ([\d.]+) s$", clean.stdout,
                       re.MULTILINE)
    assert [part for part, _, _ in times][-1] == "potential and dual_solve"
    assert len(times) == 4 and f"{sweep}" in [part for part, _, _ in times]
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

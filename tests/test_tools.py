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
    lines = re.findall(r"^(test_\d .+ n=30) (tap|mf): (\d+) fits, (\d+) bit-identical, 0 moved",
                       clean.stdout, re.MULTILINE)
    assert len({(sweep, objective) for sweep, objective, _, _ in lines}) == len(lines) == 6
    assert all(fits == identical for _, _, fits, identical in lines), clean.stdout
    assert sum(int(fits) for _, _, fits, _ in lines) == 22
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
    fit["sha256"] = "0" * 64
    edited.write_text(json.dumps(records))
    flagged = _compare(a, edited)
    assert flagged.returncode == 1
    assert f"{sweep} mf: 5 fits, 4 bit-identical, 1 moved" in flagged.stdout
    assert "gate: FAIL" in flagged.stdout

    edited.write_text(json.dumps(records[1:]))
    assert _compare(a, edited).returncode == 2  # not the same records

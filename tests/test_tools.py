import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_digest_is_the_same_on_two_runs():
    # the bit-identity gate's tool, at a tiny n: two runs side by side print
    # the same SHA-256 for every group
    cmd = [sys.executable, str(ROOT / "tools" / "trace_digest.py"), "--n", "30"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    runs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(2)]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    lines = [line.split() for line in outs[0].splitlines()]
    fits = [["fits", prior, objective] for prior in ("three-point", "bernoulli-gaussian:0.5,1.0")
            for objective in ("tap", "mf")]
    groups = fits + [["potential"], ["dual_solve"], ["min_eigenvalue"]]
    assert [line[:-1] for line in lines] == groups
    assert all(len(line[-1]) == 64 for line in lines)
    assert outs[0] == outs[1]


def test_mf_gate_passes_two_runs_and_flags_a_moved_fit(tmp_path):
    # the gate's smoke run: two saves side by side compare clean, and a
    # record whose mean-field m moved and whose energy rose fails the gate
    tool = ROOT / "tools" / "mf_gate.py"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    a, b, moved = (tmp_path / name for name in ("a.npz", "b.npz", "moved.npz"))
    runs = [subprocess.Popen([sys.executable, str(tool), "save", str(path), "--n", "30",
                              "--replicates", "1"], env=env) for path in (a, b)]
    assert [run.wait(timeout=300) for run in runs] == [0, 0]

    def compare(other):
        return subprocess.run([sys.executable, str(tool), "compare", str(a), str(other)],
                              capture_output=True, text=True, env=env, timeout=300)

    clean = compare(b)
    assert clean.returncode == 0, clean.stdout
    assert "mf: 11 fits, 11 bit-identical, 0 moved" in clean.stdout
    spec = importlib.util.spec_from_file_location("mf_gate", tool)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    records = gate.load(b)
    record = next(r for r in records if r["objective"] == "mf")
    record["m"] = record["m"] + 2 * gate.MOVE_TOL
    record["energy"] += 2 * gate.ENERGY_RISE_TOL
    gate.dump(records, moved)
    flagged = compare(moved)
    assert flagged.returncode == 1
    assert "mf: 11 fits, 10 bit-identical, 1 moved" in flagged.stdout
    assert "gate: FAIL" in flagged.stdout

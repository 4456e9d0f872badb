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

"""The experiment scripts, run as a user runs them, on tiny settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_overfit_then_ordering_study(tmp_path):
    done = _run("overfit_experiment.py", "--steps", 2, "--n-queries", 8, "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "summary.json").exists()
    done = _run("ordering_study.py", "--model", tmp_path / "model.ckpt", "--n-queries", 5)
    assert done.returncode == 0, done.stderr
    assert "spread (max - min)" in done.stdout

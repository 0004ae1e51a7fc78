"""The experiment scripts, run as a user runs them, on tiny settings."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from listrank.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_overfit_then_ordering_study(tmp_path, capsys):
    """The overfit run, then the README's ordering study: the CLI reranks the
    synthetic corpus under each ordering and evaluates each run."""
    done = _run("overfit_experiment.py", "--steps", 2, "--n-queries", 8, "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "summary.json").read_text())["stage"]["steps"] == 2
    data = tmp_path / "data"
    assert main(["synth", "--n-queries", "5", "--seed", "7", "--out", str(data)]) == 0
    for ordering in ("desc", "asc", "random"):
        run = str(tmp_path / f"{ordering}.txt")
        assert main(["rerank", "--model", str(tmp_path / "model.ckpt"),
                     "--input", str(data / "requests.jsonl"), "--output", run,
                     "--ordering", ordering, "--seed", "5", "--max-doc-tokens", "16"]) == 0
        assert main(["eval", "--run", run, "--qrels", str(data / "qrels.txt")]) == 0
    assert capsys.readouterr().out.count("macro_average") == 3


def test_fingerprint_is_reproducible(tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        done = _run("fingerprint.py", "--out", out, "--steps", 2, "--n-queries", 4,
                    "--docs-per-query", 8)
        assert done.returncode == 0, done.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    fingerprint = json.loads(outs[0].read_text())
    assert sorted(fingerprint["stages"]) == ["adapters", "frozen_embeddings", "full",
                                             "no_inbatch_negatives"]
    assert sorted(fingerprint["corpus"]) == ["corpus.jsonl", "qrels.txt", "queries.jsonl",
                                             "requests.jsonl"]
    assert len(fingerprint["rankings"]) == 16  # 4 queries under 4 orderings
    assert sorted({key.split("/")[0] for key in fingerprint["rankings"]}) == \
        ["asc", "desc", "given", "random"]

    done = _run("fingerprint.py", "--compare", *outs)
    assert done.returncode == 0, done.stdout
    assert "largest difference: 0 " in done.stdout and "clean" in done.stdout
    # a hand-edited score, 1e-9 away from the first run's
    entry = next(iter(fingerprint["rankings"].values()))[0]
    entry[1] = (float.fromhex(entry[1]) + 1e-9).hex()
    outs[1].write_text(json.dumps(fingerprint))
    done = _run("fingerprint.py", "--compare", *outs)
    assert done.returncode == 1
    assert "MISMATCH rankings/" in done.stdout
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "scripts" / "fingerprint.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    first, second = (json.loads(out.read_text()) for out in outs)
    assert script.compare(first, second, 1e-8) == 0
    second["corpus"]["qrels.txt"] = "0" * 64  # a synth file that differs
    assert script.compare(first, second, 1e-8) == 1


def test_attention_timing():
    done = _run("attention_timing.py", "--blocks", 64, 2, "--lengths", 3, 30, "--repeats", 2)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    # per length: all rows, then the marker rows (all of them at L = 3), each for every block
    assert [row[:3] for row in rows] == [[b, n, r] for n, r in (("3", "3"), ("3", "3"),
                                                                ("30", "30"), ("30", "24"))
                                         for b in ("64", "2")]
    assert all(float(ms) > 0 for row in rows for ms in row[3:])
    assert all(row[5:] == ["1.000", "1.000"] for row in rows[::2])  # the first block's ratios

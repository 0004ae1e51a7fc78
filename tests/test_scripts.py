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


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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
    script = _load_script("fingerprint")
    first, second = (json.loads(out.read_text()) for out in outs)
    assert script.compare(first, second, 1e-8) == 0
    second["corpus"]["qrels.txt"] = "0" * 64  # a synth file that differs
    assert script.compare(first, second, 1e-8) == 1


def test_fingerprint_matches_the_golden_file(tmp_path):
    """Training and reranking compute what ``tests/golden/fingerprint.json``
    holds, written with ``OPENBLAS_NUM_THREADS=1 python3 scripts/fingerprint.py
    --out F --steps 10 --n-queries 6 --docs-per-query 64``. A refactor that
    moves one rounding lands elsewhere in this chaotic run; regenerate the file
    only for a change that means to alter the numbers."""
    fresh = tmp_path / "fresh.json"
    done = _run("fingerprint.py", "--out", fresh, "--steps", 10, "--n-queries", 6,
                "--docs-per-query", 64)
    assert done.returncode == 0, done.stderr
    done = _run("fingerprint.py", "--compare", ROOT / "tests" / "golden" / "fingerprint.json",
                fresh)
    assert done.returncode == 0 and "clean" in done.stdout, done.stdout


def test_attention_timing():
    done = _run("attention_timing.py", "--blocks", 64, 2, "--lengths", 3, 30, "--repeats", 2)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    # per length: all rows, then the marker rows (all of them at L = 3), each for every block
    assert [row[:3] for row in rows] == [[b, n, r] for n, r in (("3", "3"), ("3", "3"),
                                                                ("30", "30"), ("30", "24"))
                                         for b in ("64", "2")]
    # forward ms, its faults, forward+backward ms, its faults, then the two ratios
    assert all(float(row[3]) > 0 and float(row[5]) > 0 for row in rows)
    assert all(float(row[4]) >= 0 and float(row[6]) >= 0 for row in rows)
    assert all(row[7:] == ["1.000", "1.000"] for row in rows[::2])  # the first block's ratios


def _fake_benchmark(calls: list, fail_on: int | None = None):
    """Stands in for ``subprocess.run`` of ``perfbench/run.py``: it writes a
    canned ``--out`` record whose p90 is 10 + 2 * seed ms, or with ``--trace 1``
    whose forward is 1.5 + seed ms, and exits 1 on call number ``fail_on``."""
    def fake_run(cmd, cwd, stdout):
        flags = dict(zip(cmd[2::2], cmd[3::2]))
        calls.append((cwd, flags["--workload"], int(flags["--seed"]), int(flags["--trace"])))
        seed, trace = int(flags["--seed"]), int(flags["--trace"])
        metrics = ({"backbone.forward_ms": {"value": 1.5 + seed, "unit": "ms"}} if trace else
                   {"latency_p90_ms": {"value": 10.0 + 2 * seed, "unit": "ms"},
                    "peak_rss_mb": {"value": 50.0, "unit": "MB"}})
        record = {"workload": flags["--workload"], "env": {"seed": seed, "nproc": 2},
                  "correct": True, "attempted": 100, "failed": seed == 1, "metrics": metrics,
                  "also": {} if trace else {"items_per_s": {"value": 9.0, "unit": "1/s"}}}
        Path(flags["--out"]).write_text(json.dumps(record))
        return subprocess.CompletedProcess(cmd, 1 if len(calls) == fail_on else 0)
    return fake_run


def test_bench_record_aggregates_the_runs(tmp_path, monkeypatch):
    script = _load_script("bench_record")
    calls = []
    monkeypatch.setattr(script.subprocess, "run", _fake_benchmark(calls))
    out = tmp_path / "BENCH_7.json"
    assert script.main(["7", "--runs", "5", "--checkout", str(tmp_path),
                        "--out", str(out)]) == 0
    workloads = [w["name"] for w in script.SPEC["workloads"]]
    # each workload: seeds 0..4 untraced, then seeds 0..4 traced, all from the checkout's root
    assert calls == [(tmp_path, w, seed, trace) for w in workloads
                     for trace in (0, 1) for seed in range(5)]
    record = json.loads(out.read_text())
    assert (record["pr"], record["runs"], record["seconds"]) == (7, 5, script.SPEC["run_seconds"])
    assert record["env"] == {"nproc": 2}
    assert sorted(record["workloads"]) == sorted(workloads)
    for summary in record["workloads"].values():
        assert (summary["attempted"], summary["failed"]) == (500, 1)
        assert summary["end_to_end"]["latency_p90_ms"] == {
            "unit": "ms", "median": 14.0, "q1": 11.0, "q3": 17.0,
            "values": [10.0, 12.0, 14.0, 16.0, 18.0]}
        assert summary["end_to_end"]["peak_rss_mb"]["median"] == 50.0
        assert summary["end_to_end"]["items_per_s"]["unit"] == "1/s"
        assert summary["per_layer"] == {"backbone.forward_ms": {
            "unit": "ms", "median": 3.5, "q1": 2.0, "q3": 5.0,
            "values": [1.5, 2.5, 3.5, 4.5, 5.5]}}


def test_bench_record_writes_nothing_when_a_run_fails(tmp_path, monkeypatch, capsys):
    script = _load_script("bench_record")
    calls = []
    monkeypatch.setattr(script.subprocess, "run", _fake_benchmark(calls, fail_on=2))
    out = tmp_path / "BENCH_7.json"
    assert script.main(["7", "--runs", "3", "--out", str(out)]) == 1
    assert len(calls) == 2 and not out.exists()
    assert "seed 1 trace 0 exited 1" in capsys.readouterr().err

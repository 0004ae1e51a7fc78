#!/usr/bin/env python3
"""Run the benchmark on one checkout and record it in ``BENCH_<pr>.json``.

For each workload in BENCHMARK.json and each seed 0..N-1, it runs
``perfbench/run.py --workload W --seed i --seconds S --out F`` in a process
of its own, then a ``--trace 1`` run of each workload on the same seeds. S is
always BENCHMARK.json's ``run_seconds``, so every record is made at the run
length the benchmark uses and can be compared with the others. Like
``perfbench/compare.py``, it runs this repository's copy of the benchmark
from the root of ``--checkout``, so the program measured is the one under
that checkout's ``src/``.

The record holds the environment of the first run (its seed left out), and
for each workload the operations attempted and failed over the N untraced
runs, each end-to-end metric's median and quartiles over the N untraced
runs, and each per-layer metric's median and quartiles over the N traced
runs (each run's figure is itself a median over its operations), so a slow
spell of the host during one run moves no column. If any run exits
non-zero, the script names it, writes nothing and exits 1.

Example:
    python3 scripts/bench_record.py 42 --runs 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ROOT / "perfbench" / "run.py"


def run(checkout: Path, workload: str, seed: int, trace: int, out: Path) -> dict | None:
    """One benchmark run's ``--out`` record, or None if it exited non-zero."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--out", str(out)]
    print(f"{workload} seed {seed} trace {trace}", file=sys.stderr)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"error: {workload} seed {seed} trace {trace} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def spread(metrics: list[dict]) -> dict:
    """Each metric's unit, median, quartiles and values over the runs' ``metrics``."""
    out = {}
    for metric, first in metrics[0].items():
        values = [m[metric]["value"] for m in metrics]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                       "values": values}
    return out


def summarize(untraced: dict[str, list[dict]], traced: dict[str, list[dict]]) -> dict:
    """The record of each workload's untraced and traced runs."""
    env = dict(next(iter(untraced.values()))[0]["env"])
    env.pop("seed", None)
    workloads = {}
    for name, runs in untraced.items():
        workloads[name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": spread([{**r["metrics"], **r["also"]} for r in runs]),
            "per_layer": spread([r["metrics"] for r in traced[name]]),
        }
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--runs", type=int, default=5,
                        help="untraced and traced runs (seeds) per workload")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the root of "
                        "this repository")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (for quartiles)")
    checkout = args.checkout.resolve()
    untraced, traced = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in SPEC["workloads"]:
            name = spec["name"]
            for trace, runs in ((0, untraced), (1, traced)):
                for seed in range(args.runs):
                    record = run(checkout, name, seed, trace,
                                 Path(tmp) / f"{name}-{seed}-{trace}.json")
                    if record is None:
                        return 1
                    runs.setdefault(name, []).append(record)
    bench = {"pr": args.pr, "runs": args.runs, "seconds": SPEC["run_seconds"],
             **summarize(untraced, traced)}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

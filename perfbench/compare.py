#!/usr/bin/env python3
"""Compare two commits with this benchmark.

    python3 perfbench/compare.py --parent DIR --change DIR --results DIR
        [--pairs 10] [--workloads rerank_short,rerank_wide,train] [--seconds S]

PARENT and CHANGE are checkouts of the two commits. Both are measured by
this copy of the benchmark, so benchmark code and settings are the same
on both sides. Pair i runs both sides on seed i, parent first when i is
even and change first when it is odd. Each run's full result lands in
RESULTS as ``<workload>-<side>-<seed>.json``; results already there are
reused, so an interrupted comparison resumes where it stopped.

The report has one row per workload and recorded metric, marked
improved, unchanged, worse or unresolved by ``benchstats.verdict`` with
the metric's bound and direction from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchstats import ALSO_REPORTED, verdict

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# The metrics outside BENCHMARK.json are judged with the largest bound a
# metric may have there.
JUDGED = SPEC["end_to_end"] + [
    {"name": name, "better": better, "bound": 0.25}
    for name, (_, better) in ALSO_REPORTED.items()
]


def result_path(results: Path, workload: str, side: str, seed: int) -> Path:
    return results / f"{workload}-{side}-{seed}.json"


def collect(sides: dict, results: Path, workloads, pairs: int, seconds: float) -> None:
    for seed in range(pairs):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                out = result_path(results, workload, side, seed)
                if out.exists():
                    continue
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                       "--out", str(out)]
                print(f"pair {seed}: {side} {workload}", file=sys.stderr)
                proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    print(f"  exit code {proc.returncode}", file=sys.stderr)


def load(results: Path, workload: str, side: str, pairs: int) -> list:
    runs = []
    for seed in range(pairs):
        path = result_path(results, workload, side, seed)
        runs.append(json.loads(path.read_text(encoding="utf-8")) if path.exists() else None)
    return runs


def report(results: Path, workloads, pairs: int) -> list[tuple]:
    rows = []
    for workload in workloads:
        parent, change = load(results, workload, "parent", pairs), load(results, workload, "change", pairs)
        complete = [(p, c) for p, c in zip(parent, change) if p and c]
        more_failed = sum(c["failed"] for _, c in complete) > sum(p["failed"] for p, _ in complete)
        for spec in JUDGED:
            name = spec["name"]
            p = [{**pr["metrics"], **pr["also"]}[name]["value"] for pr, _ in complete]
            c = [{**cr["metrics"], **cr["also"]}[name]["value"] for _, cr in complete]
            if len(complete) < 2:
                rows.append((workload, name, None, None, len(complete), "unresolved"))
                continue
            label = verdict(p, c, spec["bound"], spec["better"])
            if more_failed and label == "improved":
                label = "unresolved"  # a gain does not count when more operations fail
            rows.append((workload, name, statistics.quantiles(p, n=4),
                         statistics.quantiles(c, n=4), len(complete), label))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--results", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    args.results.mkdir(parents=True, exist_ok=True)
    collect({"parent": args.parent.resolve(), "change": args.change.resolve()},
            args.results, workloads, args.pairs, args.seconds)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" if q else "-"

    print(f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'pairs':>5}  verdict")
    for workload, name, p, c, n, label in report(args.results, workloads, args.pairs):
        print(f"{workload:<14} {name:<16} {fmt(p):<32} {fmt(c):<32} {n:>5}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

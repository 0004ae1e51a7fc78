#!/usr/bin/env python3
"""listrank benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a listrank checkout; the program is imported from
its ``src/``. One closed-loop client in one process makes sequential
calls, with BLAS pinned to one thread. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
output passed its checks, 1 when one did not, and 2 when the checkout
holds no program to run.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Pinned before numpy, imported later, loads BLAS: one closed-loop client
# on one thread. Child processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("rerank_short", "rerank_wide", "train")


def blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "listrank" / "__init__.py").is_file():
        print(f"error: no listrank program under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root))
    try:
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
            result = wl.run_traced(workload, args.seed, args.seconds, workdir, trace_path)
        else:
            result = wl.run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    env = environment(args.seed)
    errors, samples = result.pop("errors"), result.pop("samples")
    also = result.pop("also", {})
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{workload.name}: {workload.why}")
    per = workload.op_label
    shown = {**result["metrics"], **also}
    for name in sorted(shown):
        label = workload.display.get(name, name) if not args.trace else name
        print(f"  {label:<24} {shown[name]['value']:>14.6g} {shown[name]['unit']}")
    print(f"  {'failed_share':<24} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} {per}s)")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    if args.out:
        record = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
                  "env": env, **result, "also": also, "errors": errors, "samples": samples}
        Path(args.out).write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit code {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with the "
                        "environment and every sample, to this JSON file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/record.py --workloads census oracle --seeds 1 2 3 4 5
    python3 perfbench/record.py --seeds 1 ... 10 --out perfbench/results/BENCH_seed.json

For every workload and end-to-end metric this prints the median of the runs
and the quartile spread (third minus first quartile, as a share of the
median), next to the metric's bound from ``BENCHMARK.json``.  Before each
run it also times the loop of ``speed.py`` (``machine_loops_per_s``): its
spread over the runs is the machine's own, which the benchmark takes out by
scaling its times to the reference speed.  With ``--out`` it also writes
every run's result plus the Python version, the git commit and ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` by ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            machine = speed.loops_per_s(process_time, 400)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["machine_loops_per_s"] = machine
            result["notes"] = lines[:-1]
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {lines[0]}", flush=True)
        results = runs[workload]
        if len(results) < 2:
            continue
        machine = [r["machine_loops_per_s"] for r in results]
        print(f"  {workload:10s} {'machine_loops_per_s':24s} median {spread(machine)[0]:10.4g}  spread {spread(machine)[1]:6.3f}")
        print("      " + " ".join(f"{v:.4g}" for v in machine))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}{'  OVER' if rel > bound else ''}"
            print(f"  {workload:10s} {name:24s} median {med:10.4g}  spread {rel:6.3f}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
    if args.out is not None:
        record = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": args.seconds,
            "trace": args.trace,
            "runs": runs,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

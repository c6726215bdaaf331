#!/usr/bin/env python3
"""cmikit benchmark: one closed-loop client running one seeded workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced replay with ``--trace 1``.  ``--smoke`` runs every workload at a tiny
size in both modes and checks every metric of ``BENCHMARK.json`` is emitted
with its unit.  Workloads, metrics and the traced layers are described in
``perfbench/README.md``.

The work happens in child processes of this script, one per pass.  A pass
is a fixed number of operations, so that what a pass measures does not depend
on how fast the program is; passes start until ``--seconds`` are nearly gone.
Every pass process reports the CPU time it used from its start to the first
timed operation, and set-up-only processes add samples up to ``SETUP_RUNS``;
``setup_s`` is their median.  The latency metrics and ``ops_per_s`` pool the
operations of every pass; ``peak_rss_mb`` is the median over the passes.
Every time is scaled to a reference machine speed (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("census", "raw_pairs", "oracle", "cli")
SETUP_RUNS = 9
SETUP_CALIBRATION_LOOPS = 25
CHILD_TIMEOUT_S = 120
# op_tail_ms: p99, or p90 where a run has too few ops for ten beyond p99.
# Higher percentiles catch single preemptions and garbage-collector passes and
# do not repeat from run to run.  On oracle, p99 is set by the few largest of
# the ~110 distributions a run loads, which change with the seed; p95 by ~40.
TAIL_PERCENTILE = {"oracle": 95, "cli": 90}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload at a tiny size")
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--child", choices=("setup", "run", "replay", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--pass", dest="pass_index", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


# --- child processes ----------------------------------------------------------


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def median_ms(values: list[float]) -> float:
    return statistics.median(values or [float("nan")]) * 1e3


def child_main(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import speed

    # One core for the pass and the CLI calls it starts, so the speed samples
    # are taken on the core that does the work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # Set-up is CPU time from process start to READY, less the first speed
    # sample, scaled by the speed sampled before and after it.
    rate0 = speed.loops_per_s(process_time, SETUP_CALIBRATION_LOOPS)
    rate0_s = SETUP_CALIBRATION_LOOPS / rate0
    import tracing
    import workloads

    traced = args.child == "traced"
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracer.install()
        tracer.active = True
    w = workloads.WORKLOADS[args.workload](args.seed, args.pass_index, args.tiny)
    try:
        w.setup()
        tracer.active = False
        setup_s = process_time() - rate0_s
        rate1 = speed.loops_per_s(process_time, SETUP_CALIBRATION_LOOPS)
        print(f"READY {setup_s * speed.factor((rate0 + rate1) / 2)!r}", flush=True)
        if args.child == "setup":
            return 0
        # Replays run the CLI in-process (cli.main with captured output).
        w.in_process = args.child in ("replay", "traced")
        subprocesses = args.workload == "cli" and not w.in_process
        clock = workloads.children_cpu_s if subprocesses else process_time
        rec = workloads.Recorder(tracer, clock, w.pass_ops)
        w.run(rec)
        # Read after exactly pass_ops operations, so the peak does not grow with
        # speed; for subprocesses it is the largest child's.
        who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        notes = w.probe(rec) if args.child == "run" else []
        rec.finish()
    finally:
        w.cleanup()
    result = {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "wrong": rec.wrong[:20],
        "errors": rec.errors[:20],
        "busy_s": rec.busy_s,
        "raw_busy_s": rec.raw_busy_s,
        "loops_per_s": statistics.median(rec.rates),
        "latencies": rec.latencies,
        "verdicts": rec.verdicts,
        "peak_rss_mb": peak_rss_mb,
        "notes": notes,
    }
    if traced:
        import cmikit.statements as S

        cache = getattr(S.canonicalize, "__wrapped__", S.canonicalize)
        entries = cache.cache_info().currsize if hasattr(cache, "cache_info") else 0
        result["layers"] = tracer.layer_metrics(entries)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


# --- orchestration ------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def child_argv(args, mode: str, pass_index: int = 0) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--pass", str(pass_index)]
    if args.tiny:
        argv.append("--tiny")
    return argv


def run_child(argv: list[str]) -> tuple[float, dict | None]:
    """Start a child; return its set-up CPU time (start to READY) and its result."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        word, _, cpu_s = ready.partition(" ")
        if word != "READY":
            raise ChildError(f"child failed during set-up: {ready.strip()!r}")
        setup_s = float(cpu_s)
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def command_ms(argv: list[str], repeats: int = 5) -> float:
    """Median wall time of a command, in milliseconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure(args) -> dict:
    """Run one workload as the command line asks; returns the final JSON object."""
    setup_runs = 2 if args.tiny else SETUP_RUNS
    if args.trace == 0:
        start = perf_counter()
        setups, passes = [], []
        while True:
            setup_s, res = run_child(child_argv(args, "run", len(passes)))
            setups.append(setup_s)
            passes.append(res)
            # Another pass only while more than half a mean pass is left.
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break
        while len(setups) < setup_runs:
            setups.append(run_child(child_argv(args, "setup"))[0])
        tail_pct = TAIL_PERCENTILE.get(args.workload, 99)
        latencies = [t for r in passes for t in r["latencies"]]
        verdicts = [v for r in passes for v in r["verdicts"]]
        yes = [t for t, v in zip(latencies, verdicts) if v is True]
        no = [t for t, v in zip(latencies, verdicts) if v is False]
        pooled = sorted(latencies)
        tail = percentile(pooled, tail_pct)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(latencies) / sum(r["busy_s"] for r in passes), "1/s"),
            "op_p50_ms": (median_ms(latencies), "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "yes_p50_ms": (median_ms(yes), "ms"),
            "no_p50_ms": (median_ms(no), "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        }
        res = {
            "attempted": sum(r["attempted"] for r in passes),
            "failed": sum(r["failed"] for r in passes),
        }
        print(
            f"{args.workload}: {len(passes)} passes, {res['attempted']} ops ({len(yes)} affirmative, "
            f"{len(no)} negative, {res['failed']} failed); op_tail_ms is p{tail_pct:g} of {len(pooled)}, "
            f"with {sum(1 for t in pooled if t > tail)} beyond it; per-pass ops_per_s "
            f"{', '.join(format(len(r['latencies']) / r['busy_s'], '.4g') for r in passes)} "
            f"(unscaled {', '.join(format(len(r['latencies']) / r['raw_busy_s'], '.4g') for r in passes)}; "
            f"loop speed {', '.join(format(r['loops_per_s'], '.0f') for r in passes)}/s); "
            f"set-up samples {', '.join(format(s, '.3f') for s in setups)} s"
        )
        for note in (n for r in passes for n in r["notes"]):
            print(note)
        wrong = [m for r in passes for m in r["wrong"]]
        errors = [m for r in passes for m in r["errors"]]
    else:
        # One pass, replayed untraced and then traced: per-layer counts are
        # per pass, a fixed amount of work.
        _, base = run_child(child_argv(args, "replay"))
        _, res = run_child(child_argv(args, "traced"))
        metrics = {name: tuple(v) for name, v in res["layers"].items()}
        # The total is unscaled, like the spans' self times, to be their base;
        # the overhead compares two processes, so it is taken at the reference
        # speed.
        metrics["trace.op_s"] = (res["raw_busy_s"], "s")
        metrics["trace.overhead_s"] = (res["busy_s"] - base["busy_s"], "s")
        metrics["cli.interpreter_ms"] = (command_ms([sys.executable, "-c", "pass"]), "ms")
        metrics["cli.import_ms"] = (command_ms([sys.executable, "-c", "import cmikit.cli"]), "ms")
        print(
            f"{args.workload}: traced replay of {res['attempted']} ops took {res['busy_s']:.3f} s "
            f"against {base['busy_s']:.3f} s untraced, at the reference speed; spans in {res['trace_file']}"
        )
        wrong = base["wrong"] + res["wrong"]
        errors = res["errors"]
    for message in errors[:5]:
        print(f"failed: {message}")
    for message in wrong[:5]:
        print(f"WRONG: {message}")
    return {
        "correct": not wrong,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = parse_args(["--workload", name, "--seconds", "1", "--trace", str(trace), "--tiny"])
            result = measure(args)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: incorrect or empty run")
            print(json.dumps(result), flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cmikit" / "__init__.py").is_file():
        print(f"error: no cmikit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.smoke:
        return smoke()
    try:
        result = measure(args)
    except (ChildError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

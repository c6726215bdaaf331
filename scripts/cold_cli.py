#!/usr/bin/env python3
"""Paired, interleaved A/B of cold ``python -m cmikit.cli`` calls under two source trees.

Each repetition runs every call in the fixed list below once under each tree,
back to back, and alternates which tree goes first.  A call's cost is the CPU
time of its child process (``RUSAGE_CHILDREN``, user plus system), so other
load on the machine moves it less than wall time.  The script prints, per
call kind, the median child CPU under each tree and the median of the
relative changes within each pair, which drift in the machine's speed over
the run moves less than it moves either median::

    python scripts/cold_cli.py old/src new/src --reps 10

The calls inherit the environment, ``PYTHONDONTWRITEBYTECODE`` included, so
the figures include compiling cmikit's source exactly when a real cold call
does.  It exits 1 if any call exits with another code than the listed one.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

XOR = "vars: X1:2 X2:2 X3:2\n0 0 0 : 1/4\n0 1 1 : 1/4\n1 0 1 : 1/4\n1 1 0 : 1/4\n"

# Kind, expected exit code and arguments; ``<xor>`` stands for the parity file.
CALLS = [
    ("canon", 0, ["canon", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "--n", "5"]),
    ("equiv yes", 0, ["equiv", "I(1,2 ; 2,3 | 1)", "I(2 ; 2 | 1)", "--n", "3"]),
    ("equiv no", 1, ["equiv", "I(1,2 ; 2,3 | 4)", "I(2 ; 3 | 1,4)", "--n", "4"]),
    ("implies yes", 0, ["implies", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "I(2 ; 3 ; 4 | 1,3)", "--n", "5"]),
    ("implies yes --verify", 0, ["implies", "I(1 ; 2,3)", "I(1 ; 2)", "--n", "3", "--verify"]),
    ("implies no", 1, ["implies", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3"]),
    ("witness found", 0, ["witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3"]),
    ("witness implied", 1, ["witness", "I(1 ; 2 | 3)", "I(2 ; 1 | 3)", "--n", "3"]),
    ("check valid", 0, ["check", "I(1 ; 2)", "--n", "3", "--dist", "<xor>"]),
    ("check invalid", 1, ["check", "I(1 ; 2 | 3)", "--n", "3", "--dist", "<xor>"]),
    ("entropy", 0, ["entropy", "I(1,2)", "I(1 ; 2 | 3)", "--n", "3", "--dist", "<xor>"]),
    ("decompose", 0, ["decompose", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "--n", "5"]),
    ("decompose --verify", 0, ["decompose", "I(1;2;3|4)", "--n", "4", "--verify"]),
]


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_call(src: str, argv: list[str]) -> tuple[int, float]:
    """Exit code and child CPU seconds of one ``python -m cmikit.cli`` call on ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    before = child_cpu_s()
    proc = subprocess.run(
        [sys.executable, "-m", "cmikit.cli", *argv], capture_output=True, env=env, timeout=120
    )
    return proc.returncode, child_cpu_s() - before


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the baseline tree's src/ directory")
    parser.add_argument("new", help="the changed tree's src/ directory")
    parser.add_argument("--reps", type=int, default=5, help="calls of each kind per tree")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"argument --reps: must be at least 1, got {args.reps}")
    trees = [str(Path(args.old).resolve()), str(Path(args.new).resolve())]
    cpu = {kind: ([], []) for kind, _, _ in CALLS}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        xor = Path(tmp, "xor.dist")
        xor.write_text(XOR)
        for rep in range(args.reps):
            for i, (kind, code, call) in enumerate(CALLS):
                call = [a.replace("<xor>", str(xor)) for a in call]
                first = (rep + i) % 2
                for side in (first, 1 - first):
                    got, seconds = cold_call(trees[side], call)
                    cpu[kind][side].append(seconds * 1000)
                    if got != code:
                        bad.append(f"{('old', 'new')[side]} {kind}: exit {got}, expected {code}")
    print(f"median child CPU of {args.reps} cold call(s) per kind and tree, ms")
    print(f"{'kind':<22} {'old':>8} {'new':>8} {'paired':>8}")
    for kind, (old, new) in cpu.items():
        change = statistics.median((b - a) / a for a, b in zip(old, new))
        print(f"{kind:<22} {statistics.median(old):8.1f} {statistics.median(new):8.1f} {change:+8.1%}")
    for line in bad:
        print(f"unexpected exit: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload, at a tiny size, in both modes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(spec["workloads"])
    # Per workload: first the end-to-end run, then the traced one.
    for i, result in enumerate(results):
        listed = spec["end_to_end"] if i % 2 == 0 else spec["per_layer"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

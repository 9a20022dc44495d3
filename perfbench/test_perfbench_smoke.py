"""Smoke self-test of the benchmark at a tiny size.

Runs every workload briefly, untraced and traced, and asserts that each
metric ``BENCHMARK.json`` names is printed with its unit, that every
output check of the workload ran and passed, and that the result line
has the agreed shape.  It keeps the benchmark from rotting silently
when the program changes under it.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench_smoke.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Output checks each workload must run (the traced run adds two).
CHECKS = {
    "bulk-mine": {"mines_agree", "planted_rules_found",
                  "restart_equals_live"},
    "curation-stream": {"verify_equals_remine", "catalog_non_empty",
                        "rules_crossed_threshold", "estimates_measured"},
    "serve-mixed": {"every_request_ok", "revisions_advance",
                    "watermark_flushes_fired", "verify_t0", "verify_t1",
                    "verify_ran"},
}
TRACE_CHECKS = {"spans_reconcile", "spans_attributed",
                "boundaries_recorded"}


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "3", "--trace",
         str(trace), "--scale", "0.15"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"]
                                      for entry in SPEC["workloads"]])
def test_workload_prints_every_metric_and_check(workload, trace):
    result, lines = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    ran = {line.split()[1].rstrip(":") for line in lines
           if line.startswith("  check ")}
    wanted = CHECKS[workload] | (TRACE_CHECKS if trace else set())
    assert wanted <= ran, f"checks not run: {sorted(wanted - ran)}"
    assert result["correct"], "\n".join(
        line for line in lines if line.startswith("  check "))
    assert result["failed"] == 0
    if not trace:
        for entry in SPEC["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] > 0

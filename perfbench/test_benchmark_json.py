"""BENCHMARK.json names exactly the metrics a run prints.

Run with:  python3 -m pytest perfbench/test_benchmark_json.py
"""

import json
from pathlib import Path

import checks
import run
import tracing

SPEC = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


def test_per_layer_metrics_match():
    traced = {f"{name}.self_s" for name in tracing.SPAN_NAMES}
    traced |= set(tracing.COUNT_NAMES) | set(checks.SIMULATED_COUNTS)
    assert {m["name"] for m in SPEC["per_layer"]} == traced


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)

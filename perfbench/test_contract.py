"""BENCHMARK.json names exactly the metrics and workloads the benchmark reports.

    python3 -m pytest -q perfbench/test_contract.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES) == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [workloads.WHY[n] for n in run.NAMES]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    expected = [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    expected += bench.RUN_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == expected

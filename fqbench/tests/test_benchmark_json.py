"""BENCHMARK.json names exactly the workloads and metrics the benchmark prints."""

import json
from pathlib import Path

import layers
from run import end_to_end
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    result = {
        "ref_s": [0.05, 0.05],
        "commands": [{"argv": ["gen"], "seconds": 1.0}],
        "peak_rss_kb": 1024,
    }
    printed = end_to_end([0.04], [result])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()
    }
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER

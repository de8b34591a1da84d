"""BENCHMARK.json must name exactly the metrics run.py prints."""

import json
from pathlib import Path

import run
import tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_traced_output():
    printed = list(run.OP_UNITS) + list(tracer.Tracer().layer_metrics(1))
    printed += ["trace.untraced_round_s", "trace.traced_round_s", "trace.overhead_pct"]
    listed = [m["name"] for m in SPEC["per_layer"]]
    assert listed == printed
    for m in SPEC["per_layer"]:
        assert m["unit"] == (run.OP_UNITS.get(m["name"]) or run._layer_unit(m["name"])), m["name"]


def test_end_to_end_metrics_match_the_untraced_output():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


def test_workloads_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES

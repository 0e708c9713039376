"""BENCHMARK.json, the layer metrics and the predictions agree."""

import json
from pathlib import Path

from perfbench import inputs, layers, run

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PRED = json.loads((ROOT / "perfbench" / "predictions.json").read_text())


def test_per_layer_metrics_match_the_code():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == layers.METRICS


def test_workloads_match_the_generators():
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS)
    assert set(PRED["workloads"]) == set(inputs.WORKLOADS)


def test_every_layer_metric_has_exactly_one_prediction():
    named = [m for group in PRED["predictions"] for m in group["layer_metrics"]]
    assert sorted(named) == sorted(layers.METRICS)


def test_predictions_name_known_metrics_and_workloads():
    for group in PRED["predictions"]:
        for side in ("moves", "no_change"):
            for metric, workloads in group[side].items():
                assert metric in run.REPORTED
                assert set(workloads) <= set(inputs.WORKLOADS)


def test_end_to_end_metrics_are_reported():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert set(run.END_TO_END) <= set(run.REPORTED)

"""BENCHMARK.json and the metric definitions in metrics.py agree."""

import json

import metrics
import worker
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == metrics.WORKLOADS
    assert set(worker.WORKLOADS) == set(metrics.WORKLOADS)


def test_end_to_end_match():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in SPEC["end_to_end"]
    ] == [(name, *spec) for name, spec in metrics.END_TO_END.items()]


def test_per_layer_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better)
        for name, (unit, better, _moves, _on) in metrics.PER_LAYER.items()
    ]


def test_every_per_layer_metric_moves_a_listed_metric_on_a_workload():
    for name, (_unit, _better, moves, on) in metrics.PER_LAYER.items():
        assert moves in metrics.END_TO_END, name
        assert on and set(on) <= set(metrics.WORKLOADS), name


def test_command_and_paths():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


def test_uses_no_api_slated_for_deletion():
    """ROADMAP items 1 and 3 may delete these; the benchmark must not
    depend on them."""
    banned = ("incremental_geometry", "tiles=", "ShardingConfig",
              "message_loss", "Radio(loss", "DENSE_CROSSOVER",
              "IncrementalGeometry", "run_experiment")
    for path in (ROOT / "perfbench").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not [name for name in banned if name in text], path

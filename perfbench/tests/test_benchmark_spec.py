"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import tracing
import unitcosts
import worker

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_names_match():
    emitted = set(worker.end_to_end([1.0, 2.0], 10, [0.1] * 100)) | {"setup_s"}
    assert {m["name"] for m in SPEC["end_to_end"]} == emitted


def test_per_layer_names_match():
    emitted = worker.per_layer(tracing.SpanRecorder(), 1, [1.0], [1.5])
    emitted = set(emitted) | {name for name, _ in unitcosts.LOOPS}
    assert {m["name"] for m in SPEC["per_layer"]} == emitted


def test_units_match():
    emitted = dict(worker.end_to_end([1.0], 10, [0.1]))
    emitted.update(worker.per_layer(tracing.SpanRecorder(), 1, [1.0], [1.5]))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        if metric["name"] in emitted:
            assert emitted[metric["name"]][1] == metric["unit"], metric["name"]

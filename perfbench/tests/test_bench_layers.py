"""Instrumentation reaches every layer each workload uses, and the metric
names match BENCHMARK.json."""
import json
import time
from pathlib import Path

import pytest

import textrkm.cli
import textrkm.harness
import textrkm.representation
import hostspeed
from corpusgen import Shape
from run import unit_of
from tracing import Tracer, instrument, layer_metrics, restore
from workloads import Workload, measure

from test_bench_arithmetic import TINY_DEPLOY, TINY_SWEEP, prepare

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

# small enough to run fast, noisy enough that k-means recurses
TINY_NOISY = Workload(
    name="tiny-noisy", shape=Shape(4, 60, 6, 10, 30, 0.3), accuracy_floor=0.0,
    distance="euclidean", probe="kernels", ratio_grid=((10, 40),),
)

SWEEP_LAYERS = {"corpus", "representation", "kernels", "rkmeans", "classifier", "evaluation", "harness"}
DEPLOY_LAYERS = {"corpus", "representation", "kernels", "rkmeans", "classifier", "cli"}


def test_instrument_rebinds_names_imported_by_name():
    original = textrkm.representation.embed_corpus
    rebindings = instrument(Tracer())
    try:
        assert textrkm.harness.embed_corpus is textrkm.representation.embed_corpus
        assert textrkm.cli.embed_corpus is textrkm.representation.embed_corpus
        assert textrkm.harness.embed_corpus is not original
    finally:
        restore(rebindings)
    assert textrkm.harness.embed_corpus is original
    assert textrkm.cli.embed_corpus is original


@pytest.mark.parametrize(
    "workload, layers",
    [(TINY_SWEEP, SWEEP_LAYERS), (TINY_NOISY, SWEEP_LAYERS), (TINY_DEPLOY, DEPLOY_LAYERS)],
)
def test_every_used_layer_records_spans(tmp_path, workload, layers):
    work = prepare(workload, tmp_path)
    result, tracer = measure(workload, 3, 0.0, True, work)
    assert result["problems"] == [] and result["failed"] == 0
    traced = {s.layer for s in tracer.spans if s.traced} - {"bench"}
    assert traced == layers
    assert result["extra"]["recursion_trees"] >= 1


def test_recursion_tree_rebuilt_from_kmeans_spans(tmp_path):
    work = prepare(TINY_NOISY, tmp_path)
    result, tracer = measure(TINY_NOISY, 3, 0.0, True, work)
    assert result["problems"] == []
    runs = [s for s in tracer.spans if s.name == "rkmeans.kmeans" and s.traced]
    assert len(runs) > 1
    assert sum(1 for s in runs if s.attrs["tree_parent"] is None) == 1
    assert result["extra"]["recursion_tree_depth_max"] >= 1


@pytest.mark.parametrize("workload", [TINY_SWEEP, TINY_DEPLOY])
def test_metric_names_and_units_match_benchmark_json(tmp_path, workload):
    work = prepare(workload, tmp_path)
    plain, _ = measure(workload, 3, 0.0, False, work)
    traced, _ = measure(workload, 3, 0.0, True, work)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(e2e) == {"setup_s", *plain["metrics"]}
    assert set(per_layer) == set(traced["layers"])
    for name, unit in {**e2e, **per_layer}.items():
        assert unit_of(name) == unit, name


def test_harness_self_time_excludes_the_probe(tmp_path, monkeypatch):
    # a probe far slower than any tiny trial: were it counted as the sweep's
    # own time, harness.self_s would exceed it
    monkeypatch.setattr(hostspeed.Probe, "_kernels", lambda self: time.sleep(0.05))
    work = prepare(TINY_SWEEP, tmp_path)
    _, tracer = measure(TINY_SWEEP, 3, 0.0, True, work)
    probes = [s for s in tracer.spans if s.name == "probe" and s.traced]
    trials = [s for s in tracer.spans if s.name == "harness.run_trial" and s.traced]
    assert len(probes) == len(trials) >= 1
    assert all(s.layer == "bench" and s.duration >= 0.05 for s in probes)
    layers = layer_metrics(tracer, {"sweep": len(trials), "trial": len(trials)})
    assert layers["harness.self_s"] < 0.05

"""The three workloads: set-up, the measured loop, and the output checks.

``sweep-clean`` and ``sweep-noisy`` call ``harness.run_sweep`` on a corpus
tree and ``harness.emit_results`` on its table, repeating the same sweep
while another one fits in the run's time. ``train-classify`` drives
``cli.main`` in-process: a few ``train`` calls, then ``classify`` calls over
flat directories of unseen documents. Inputs reach the program only as files.

Every workload reports the same end-to-end metrics. An *operation* is one
trial on the sweeps and one ``classify`` call on the deploy path; ``train_s``
is the train phase of a trial (masking through ``build_model``) on the
sweeps and one ``train`` call on the deploy path. Times are scaled to a
reference host speed by the probe run before each operation (hostspeed.py).

With tracing on, operations alternate between traced and untraced, so one
run gives the per-layer numbers (from the traced ones) and the tracing
overhead (traced minus untraced median operation time).
"""
from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from corpusgen import Shape, class_names, write_flat, write_tree
from hostspeed import Probe
from stats import median, tail_percentile
from tracing import Tracer, instrument, layer_metrics, rebuild_trees, restore


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    accuracy_floor: float
    distance: str
    probe: str  # hostspeed probe kind: the workload's dominant work
    # sweeps: one run_sweep call covers the grid once per trial seed
    ratio_grid: tuple[tuple[int, int], ...] = ()
    trials_per_ratio: int = 1
    # deploy path
    train_calls: int = 0
    unseen_dirs: int = 0
    unseen_per_class: int = 0
    min_classify_calls: int = 100  # p90 needs ten samples beyond it

    @property
    def is_sweep(self) -> bool:
        return bool(self.ratio_grid)


# Accuracy floors sit below the lowest accuracy_mean measured on seeds 1-10
# and 101 at the commit that introduced this benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        # Embedding-bound: 150-token documents; one k-means run of 20
        # clusters per trial. Signal 0.15 keeps accuracy informative across
        # the grid (about 0.3 at 1:49, 1.0 at 20:30).
        Workload(
            name="sweep-clean",
            shape=Shape(20, 500, 150, 200, 2000, 0.15),
            accuracy_floor=0.70,
            distance="euclidean",
            probe="embed",
            ratio_grid=((1, 49), (5, 45), (10, 40), (20, 30)),
            trials_per_ratio=3,
        ),
        # Recursion- and kernel-bound: 8-token documents give hundreds of
        # k-means runs and ~1000 centroids per trial; the euclidean classify
        # broadcast dominates peak memory.
        Workload(
            name="sweep-noisy",
            shape=Shape(20, 500, 8, 10, 40, 0.2),
            accuracy_floor=0.20,
            distance="euclidean",
            probe="kernels",
            ratio_grid=((5, 45), (10, 40), (15, 35), (20, 30)),
            trials_per_ratio=4,
        ),
        # Deploy path: file reading, tokenizing, bundle save/load and the
        # cosine kernel; bypasses the euclidean kernel and the sweep.
        Workload(
            name="train-classify",
            shape=Shape(20, 250, 60, 100, 1000, 0.3, sentences=True),
            accuracy_floor=0.80,
            distance="cosine",
            probe="deploy",
            train_calls=9,
            unseen_dirs=4,
            unseen_per_class=10,
        ),
    )
}


def setup(w: Workload, seed: int, work: Path) -> dict:
    """Generate the workload's inputs from ``seed`` into ``work``; return the
    generator's ground truth (per directory, doc id -> class name)."""
    work.mkdir(parents=True)
    truth = {"tree": write_tree(work / "tree", w.shape, seed)}
    for k in range(w.unseen_dirs):
        truth[f"unseen{k}"] = write_flat(work / f"unseen{k}", w.shape, [seed, k], w.unseen_per_class)
    return truth


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for,
    so moving work into worker processes cannot hide memory."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class Checks:
    """Operations attempted and failed, plus failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def accuracy(preds: dict[str, str], truth: dict[str, str]) -> float:
    return sum(1 for doc_id, name in preds.items() if truth[doc_id] == name) / len(preds)


def prediction_id_problem(pred_ids: list[str], expected: set[str]) -> str | None:
    """None when every expected doc is predicted exactly once."""
    unique = set(pred_ids)
    if len(unique) != len(pred_ids):
        return f"{len(pred_ids) - len(unique)} duplicate prediction ids"
    if unique != expected:
        return f"predictions miss {len(expected - unique)} and add {len(unique - expected)} doc ids"
    return None


def parse_predictions(path: Path, names: set[str]) -> dict[str, str] | str:
    """``doc_id -> class`` from a classify TSV, or a message if malformed."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read predictions: {exc}"
    preds: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        fields = line.split("\t")
        if len(fields) != 3:
            return f"{path.name}:{lineno}: expected 3 tab-separated fields"
        doc_id, name, dist = fields
        try:
            distance = float(dist)
        except ValueError:
            return f"{path.name}:{lineno}: bad distance {dist!r}"
        if name not in names or not distance >= 0.0:
            return f"{path.name}:{lineno}: bad class {name!r} or distance {dist!r}"
        if doc_id in preds:
            return f"{path.name}:{lineno}: duplicate doc id {doc_id!r}"
        preds[doc_id] = name
    if not preds:
        return f"{path.name}: no predictions"
    return preds


def _read_per_trial_accuracy(path: Path) -> dict[tuple[str, int], float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        ratio, trial, metric, value = line.split(",", 3)
        if metric == "accuracy":
            out[(ratio, int(trial))] = float(value)
    return out


def _result(checks, metrics, extra, tracer, trace, units, layer_scale, overhead_ms) -> dict:
    """The measuring process's result. With tracing, adds the per-layer
    metrics, times scaled by ``layer_scale`` like the end-to-end ones."""
    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "metrics": metrics,
        "extra": extra,
    }
    if trace:
        layers = layer_metrics(tracer, units)
        layers = {k: v * layer_scale if k.endswith(("_s", "_ms")) else v for k, v in layers.items()}
        layers["trace.overhead_ms"] = overhead_ms
        result["layers"] = layers
        trees = rebuild_trees(tracer)
        for t in trees:
            checks.require(t["ok"], f"recursion tree of build span {t['build_span']} "
                                    f"does not match RunStats: {t}")
        extra["recursion_trees"] = len(trees)
        extra["recursion_tree_nodes_max"] = max((t["nodes"] for t in trees), default=0)
        extra["recursion_tree_depth_max"] = max((t["max_depth"] for t in trees), default=0)
        self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        extra["largest_self_time"] = max(self_times, key=self_times.get)
    return result


def _host_speed(probe: Probe, extra: dict) -> list[float]:
    extra["probe_samples_ms"] = [t * 1000.0 for t in probe.samples]
    extra["probe_footprint_mb"] = probe.footprint_mb
    return probe.scales()


def measure_sweep(w: Workload, seed: int, seconds: float, trace: bool, work: Path, tracer: Tracer) -> dict:
    from textrkm import harness
    from textrkm.rkmeans import KMeansConfig, RecursiveConfig

    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))["tree"]
    tree, out = str(work / "tree"), work / "out"
    config = harness.SweepConfig(
        ratio_grid=w.ratio_grid,
        trials_per_ratio=w.trials_per_ratio,
        base_seed=seed,
        recursive=RecursiveConfig(kmeans=KMeansConfig(distance=w.distance)),
    )
    # stratified split: round(n * test_fraction) per class, at least one a side
    n = w.shape.docs_per_class
    n_test = w.shape.n_classes * min(max(round(n * config.test_fraction), 1), n - 1)
    checks = Checks()
    probe = Probe(w.probe)
    instrumented_run_trial = harness.run_trial

    def probed_run_trial(*args, **kwargs):
        # in a span of its own, so no layer's self time includes it; outside
        # the trial's span, and subtracted from the sweep call's time
        span = tracer.open("probe", "bench")
        probe.run()
        tracer.close(span)
        return instrumented_run_trial(*args, **kwargs)

    harness.run_trial = probed_run_trial  # measure() restores the original
    call_s: list[float] = []
    call_trials: list[list[int]] = []  # run_trial span ids of each timed call
    trials_timed = 0
    first_aggregate = None
    test_ids: set[str] | None = None
    accuracies: list[float] = []
    last_table = None
    start = time.perf_counter()
    calls = 0
    # identical calls until the next one would end past ``seconds``
    while calls < (2 if trace else 1) or (
        time.perf_counter() - start + median(call_s) <= seconds
    ):
        tracer.enabled = trace and calls % 2 == 1
        first_span = len(tracer.spans)
        probes_before = sum(probe.samples)
        with tracer.op("sweep"):
            t0 = time.perf_counter()
            table = harness.run_sweep(tree, config)
            harness.emit_results(table, out)
            elapsed = time.perf_counter() - t0 - (sum(probe.samples) - probes_before)
        spans = tracer.spans[first_span:]
        trial_spans = [s for s in spans if s.name == "harness.run_trial"]
        if not tracer.enabled:
            call_s.append(elapsed)
            call_trials.append([s.id for s in trial_spans])
            trials_timed += len(table.records)
        tracer.enabled = False
        calls += 1

        # output checks, outside the timed call
        classify_of = {s.parent: s for s in spans if s.name == "classifier.classify_batch"}
        reported = _read_per_trial_accuracy(out / "per_trial.csv")
        checks.require(len(trial_spans) == len(table.records),
                       f"{len(trial_spans)} run_trial calls for {len(table.records)} records")
        for rec, span in zip(table.records, trial_spans):
            checks.op(rec.error is None, f"trial {rec.ratio} #{rec.trial} failed: {rec.error}")
            if rec.error is not None:
                continue
            preds, names = tracer.captures.pop(classify_of[span.id].id)
            ids = [p.doc_id for p in preds]
            if test_ids is None:
                test_ids = set(ids)
                checks.require(len(test_ids) == n_test and test_ids <= truth.keys(),
                               f"test half has {len(test_ids)} known docs, expected {n_test}")
            problem = prediction_id_problem(ids, test_ids)
            checks.require(problem is None, f"trial {rec.ratio} #{rec.trial}: {problem}")
            if problem is not None:
                continue
            acc = accuracy({p.doc_id: names[p.label] for p in preds}, truth)
            got = reported.get((f"{rec.ratio[0]}:{rec.ratio[1]}", rec.trial))
            checks.require(got is not None and abs(got - acc) <= 1e-12,
                           f"trial {rec.ratio} #{rec.trial}: accuracy {acc!r}, per_trial.csv {got!r}")
            if calls == 1:
                accuracies.append(acc)
        aggregate = (out / "aggregate.csv").read_bytes()
        first_aggregate = first_aggregate or aggregate
        checks.require(aggregate == first_aggregate, "aggregate.csv differs between identical sweeps")
        last_table = table
    rss = peak_rss_mb()

    # one emitted manifest replays bit-for-bit
    rec = next((r for r in last_table.records if r.error is None), None)
    if rec is not None:
        manifest = out / "manifests" / harness.manifest_filename(rec.ratio, rec.trial)
        replay = harness.replay_trial(tree, manifest, config)
        checks.require(replay.metrics == rec.metrics and replay.n_clusters == rec.n_clusters,
                       f"replay of {manifest.name} differs from the sweep record")

    acc_mean = sum(accuracies) / len(accuracies) if accuracies else 0.0
    checks.require(acc_mean >= w.accuracy_floor,
                   f"accuracy_mean {acc_mean:.4f} below the floor {w.accuracy_floor}")

    # each trial's time at the reference host speed, from the probe before it
    trials = [s for s in tracer.spans if s.name == "harness.run_trial"]
    builds = {s.parent: s for s in tracer.spans if s.name == "rkmeans.build_model"}
    extra = {"trials_timed": trials_timed, "sweep_calls": calls}
    factors = _host_speed(probe, extra)
    if len(factors) != len(trials):
        raise RuntimeError(f"{len(factors)} probes for {len(trials)} trials")
    factor = {s.id: f for s, f in zip(trials, factors)}
    untraced = [s for s in trials if not s.traced]
    traced = [s for s in trials if s.traced]
    op_s = [s.duration * factor[s.id] for s in untraced]
    train_s = [(builds[s.id].end - s.start) * factor[s.id] for s in untraced if s.id in builds]
    sweep_s = [t * median([factor[i] for i in ids]) for t, ids in zip(call_s, call_trials)]
    metrics = {
        "ops_per_s": trials_timed / sum(sweep_s),
        "op_p50_ms": median(op_s) * 1000.0,
        "train_s": median(train_s),
        "peak_rss_mb": rss,
        "accuracy_mean": acc_mean,
    }
    extra["op_samples_ms"] = [s.duration * 1000.0 for s in untraced]
    extra["raw_op_p50_ms"] = median(extra["op_samples_ms"])
    overhead_ms = layer_scale = 0.0
    if trace:
        layer_scale = median([factor[s.id] for s in traced])
        overhead_ms = (median([s.duration * factor[s.id] for s in traced]) - median(op_s)) * 1000.0
    units = {"sweep": len(traced), "trial": len(traced)}
    return _result(checks, metrics, extra, tracer, trace, units, layer_scale, overhead_ms)


def measure_deploy(w: Workload, seed: int, seconds: float, trace: bool, work: Path, tracer: Tracer) -> dict:
    from textrkm import cli

    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    names = set(class_names(w.shape))
    bundle = work / "model.json"
    checks = Checks()
    probe = Probe(w.probe)
    start = time.perf_counter()

    train_s: list[float] = []  # raw; probes and operations alternate
    first_bundle = None
    for _ in range(w.train_calls):
        tracer.enabled = trace
        probe.run()
        with tracer.op("train"):
            t0 = time.perf_counter()
            rc = cli.main([
                # one labeled document in ten
                "train", "--corpus", str(work / "tree"), "--labeled-frac", "0.1",
                "--seed", str(seed), "--model-out", str(bundle), "--distance", w.distance,
            ])
            train_s.append(time.perf_counter() - t0)
        tracer.enabled = False
        checks.op(rc == 0 and bundle.exists(), f"train exited {rc}")
        if rc == 0 and bundle.exists():
            data = bundle.read_bytes()
            first_bundle = first_bundle or data
            checks.require(data == first_bundle, "train wrote a different bundle for the same input")

    first_preds: dict[int, dict[str, str]] = {}
    accuracies: list[float] = []
    classify_s: list[tuple[float, bool]] = []
    i = 0
    while i < w.min_classify_calls or time.perf_counter() - start < seconds:
        k = i % w.unseen_dirs
        pred_path = work / f"pred{k}.tsv"
        tracer.enabled = trace and i % 2 == 1
        probe.run()
        with tracer.op("classify"):
            t0 = time.perf_counter()
            rc = cli.main(["classify", "--model", str(bundle), "--input",
                           str(work / f"unseen{k}"), "--out", str(pred_path)])
            classify_s.append((time.perf_counter() - t0, tracer.enabled))
        tracer.enabled = False
        i += 1
        preds = parse_predictions(pred_path, names) if rc == 0 else f"classify exited {rc}"
        if isinstance(preds, str):
            checks.op(False, preds)
            continue
        problem = prediction_id_problem(list(preds), set(truth[f"unseen{k}"]))
        if problem is None and k in first_preds and preds != first_preds[k]:
            problem = f"unseen{k}: predictions changed between identical classify calls"
        checks.op(problem is None, f"classify unseen{k}: {problem}")
        if problem is None and k not in first_preds:
            first_preds[k] = preds
            accuracies.append(accuracy(preds, truth[f"unseen{k}"]))
    rss = peak_rss_mb()

    acc_mean = sum(accuracies) / len(accuracies) if accuracies else 0.0
    checks.require(len(accuracies) == w.unseen_dirs, "not every unseen directory was classified")
    checks.require(acc_mean >= w.accuracy_floor,
                   f"accuracy_mean {acc_mean:.4f} below the floor {w.accuracy_floor}")

    # each call's time at the reference host speed, from the probe before it
    extra = {"train_calls": len(train_s)}
    factors = _host_speed(probe, extra)
    train_f, classify_f = factors[:len(train_s)], factors[len(train_s):]
    untraced = [t * f for (t, traced), f in zip(classify_s, classify_f) if not traced]
    metrics = {
        "ops_per_s": len(untraced) / sum(untraced),
        "op_p50_ms": median(untraced) * 1000.0,
        "train_s": median([t * f for t, f in zip(train_s, train_f)]),
        "peak_rss_mb": rss,
        "accuracy_mean": acc_mean,
    }
    extra["classify_calls"] = len(untraced)
    extra["op_samples_ms"] = [t * 1000.0 for t, traced in classify_s if not traced]
    extra["raw_op_p50_ms"] = median(extra["op_samples_ms"])
    extra["raw_train_s"] = median(train_s)
    try:
        extra["op_p90_ms"] = tail_percentile(untraced, 90) * 1000.0
    except ValueError as exc:
        extra["op_p90_ms"] = f"unavailable: {exc}"
    overhead_ms = layer_scale = 0.0
    if trace:
        traced = [t * f for (t, tr), f in zip(classify_s, classify_f) if tr]
        layer_scale = median(factors)
        overhead_ms = (median(traced) - median(untraced)) * 1000.0
    units = {"train": len(train_s), "classify": sum(1 for _, t in classify_s if t)}
    return _result(checks, metrics, extra, tracer, trace, units, layer_scale, overhead_ms)


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Tracer]:
    """Run the workload on the inputs ``setup`` wrote to ``work``; return the
    result and the tracer holding its spans."""
    tracer = Tracer()
    rebindings = instrument(tracer)
    try:
        fn = measure_sweep if w.is_sweep else measure_deploy
        return fn(w, seed, seconds, trace, work, tracer), tracer
    finally:
        restore(rebindings)

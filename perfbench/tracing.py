"""Spans around calls into the textrkm modules, recorded from outside.

``instrument`` replaces each function listed in ``WRAPPED`` by a timing
wrapper in every textrkm module namespace that holds it. ``harness`` and
``cli`` import most stage functions by name (``from .x import y`` copies the
reference), so rebinding only the defining module would miss their calls;
``rkmeans`` and ``classifier`` reach the kernels through the ``kernels``
module, which the same rebinding covers. Per-document functions such as
``tokenize`` and ``embed_tokens`` are left alone: a span per token would cost
more than the work it measures.

Spans are kept in memory and written out at the end. A span records its
name, start, end, parent span, the operation (trial or CLI call) it belongs
to, and a few counts taken from the call's arguments and result.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("corpus", "representation", "kernels", "rkmeans", "classifier", "evaluation", "harness", "cli")

WRAPPED = {
    "corpus": ("load_directory_corpus", "split_train_test", "mask_labels",
               "make_training_collection", "mask_from_flags"),
    "representation": ("fit_term_weights", "embed_corpus"),
    "kernels": ("nearest_centroids", "centroid_sums"),
    "rkmeans": ("build_model", "kmeans"),
    "classifier": ("classify_batch",),
    "evaluation": ("confusion", "score"),
    "harness": ("run_sweep", "run_trial", "emit_results"),
    "cli": ("cmd_train", "cmd_classify", "save_bundle", "load_bundle"),
}

# Spans the untraced run needs too: trial latency, the train phase of a
# trial, and the predictions the output checks inspect.
ALWAYS = {"harness.run_trial", "rkmeans.build_model", "classifier.classify_batch"}

# A span with a kind starts a new operation for the spans inside it.
OP_KINDS = {"harness.run_trial": "trial"}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    traced: bool
    parent: int | None = None
    op: int | None = None
    kind: str = ""
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store plus the switch between traced and untraced operations.

    With ``enabled`` false only the ``ALWAYS`` spans and operation spans are
    recorded. ``captures`` holds per-span objects the checks need (the
    predictions, k-means cluster fingerprints); they are not written out.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.captures: dict[int, object] = {}
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    def open(self, name: str, layer: str, kind: str = "") -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), self.enabled)
        if parent is not None:
            span.parent, span.op, span.kind = parent.id, parent.op, parent.kind
        if kind:
            span.op, span.kind = span.id, kind
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def op(self, kind: str):
        """An operation started by the benchmark: a sweep call, a train or
        classify CLI call."""
        span = self.open(kind, "bench", kind)
        try:
            yield span
        finally:
            self.close(span)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = {
                    "id": s.id, "name": s.name, "layer": s.layer,
                    "start": s.start - self._t0, "end": s.end - self._t0,
                    "parent": s.parent, "op": s.op, "kind": s.kind, "traced": s.traced,
                }
                row.update(s.attrs)
                f.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-function counts, from the call's arguments and result
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(a) -> tuple[int, int]:
    a = np.asarray(a)
    return (1, a.shape[0]) if a.ndim == 1 else (a.shape[0], a.shape[1])


def _assign_attrs(args, kwargs, out, tracer, span):
    n, d = _points(_arg(args, kwargs, 0, "x"))
    m, _ = _points(_arg(args, kwargs, 1, "centroids"))
    metric = _arg(args, kwargs, 2, "metric")
    # largest single temporary the numpy kernel allocates (computed, not
    # measured): the (n, m, d) difference tensor, or the (n, m) dot matrix
    temp = n * m * (d if metric == "euclidean" else 1) * 8
    return {"n": n, "m": m, "d": d, "temp_bytes": temp}


def _sums_attrs(args, kwargs, out, tracer, span):
    n, _ = _points(_arg(args, kwargs, 0, "x"))
    return {"n": n, "k": int(_arg(args, kwargs, 2, "n_clusters"))}


def _fingerprint(a: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()


def _kmeans_attrs(args, kwargs, out, tracer, span):
    x = _arg(args, kwargs, 0, "x")
    # kept, not hashed here, so that no enclosing span pays for it;
    # rebuild_trees fingerprints them at the end
    tracer.captures[span.id] = (x, out.assignments, out.centroids.shape[0])
    return {
        "points": int(x.shape[0]),
        "seeds": int(np.asarray(_arg(args, kwargs, 1, "seeds")).shape[0]),
        "n_iter": int(out.n_iter),
        "max_iterations": int(_arg(args, kwargs, 2, "config").max_iterations),
        "clusters": int(out.centroids.shape[0]),
    }


def _build_attrs(args, kwargs, out, tracer, span):
    st = out.stats
    return {
        "clusters": out.n_clusters,
        "max_depth": st.max_depth_reached,
        "fallbacks": st.fallback_total,
        "kmeans_runs": st.kmeans_runs,
        "recursion_calls": st.recursion_calls,
    }


def _classify_attrs(args, kwargs, out, tracer, span):
    model = _arg(args, kwargs, 1, "model")
    tracer.captures[span.id] = (out, model.class_names)
    return {"docs": len(out), "centroids": model.n_clusters}


def _load_attrs(args, kwargs, out, tracer, span):
    return {"docs": out.n_docs, "tokens": sum(len(d.tokens) for d in out.documents)}


def _save_bundle_attrs(args, kwargs, out, tracer, span):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


ATTRS = {
    "kernels.nearest_centroids": _assign_attrs,
    "kernels.centroid_sums": _sums_attrs,
    "rkmeans.kmeans": _kmeans_attrs,
    "rkmeans.build_model": _build_attrs,
    "classifier.classify_batch": _classify_attrs,
    "corpus.load_directory_corpus": _load_attrs,
    "representation.fit_term_weights": lambda a, k, out, t, s: {"vocab": out.vocab_size},
    "representation.embed_corpus": lambda a, k, out, t, s: {"docs": int(out[0].shape[0])},
    "harness.run_sweep": lambda a, k, out, t, s: {"trials": len(out.records)},
    "cli.save_bundle": _save_bundle_attrs,
}


def _wrap(fn, name: str, layer: str, tracer: Tracer):
    always = name in ALWAYS
    kind = OP_KINDS.get(name, "")
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not (tracer.enabled or always):
            return fn(*args, **kwargs)
        span = tracer.open(name, layer, kind)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, out, tracer, span)
        return out

    return wrapper


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every ``WRAPPED`` function wherever textrkm holds it.

    Returns the ``(module, attribute, original)`` rebindings made, which
    ``restore`` undoes.
    """
    modules = [importlib.import_module("textrkm")]
    modules += [importlib.import_module(f"textrkm.{layer}") for layer in LAYERS]
    done = []
    for layer, names in WRAPPED.items():
        defining = importlib.import_module(f"textrkm.{layer}")
        for fname in names:
            original = getattr(defining, fname)
            wrapper = _wrap(original, f"{layer}.{fname}", layer, tracer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        done.append((mod, attr, original))
    return done


def restore(rebindings) -> None:
    for mod, attr, original in rebindings:
        setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def rebuild_trees(tracer: Tracer) -> list[dict]:
    """The recursion tree of every traced ``build_model`` call, rebuilt from
    its ``rkmeans.kmeans`` spans alone.

    A run's parent is the latest earlier run one of whose output clusters
    has exactly the run's input points. Each tree is checked against the
    model's own RunStats; the tree parent and depth are added to the span
    attributes. Returns one summary per tree.
    """
    runs_by_build: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.name == "rkmeans.kmeans" and s.traced and s.parent is not None:
            runs_by_build.setdefault(s.parent, []).append(s)
    trees = []
    for s in tracer.spans:
        if s.name != "rkmeans.build_model" or not s.traced:
            continue
        runs = runs_by_build.get(s.id, [])
        open_clusters: dict[str, list[Span]] = {}
        roots = 0
        depth_of: dict[int, int] = {}
        for run in runs:
            x, assignments, k = tracer.captures.pop(run.id)
            x_print = _fingerprint(x)
            cluster_prints = [_fingerprint(x[assignments == j]) for j in range(k)]
            candidates = open_clusters.get(x_print)
            if candidates:
                parent = candidates.pop()
                run.attrs["tree_parent"] = parent.id
                depth_of[run.id] = depth_of[parent.id] + 1
            else:
                roots += 1
                run.attrs["tree_parent"] = None
                depth_of[run.id] = 0
            run.attrs["depth"] = depth_of[run.id]
            for fp in cluster_prints:
                open_clusters.setdefault(fp, []).append(run)
        max_depth = max(depth_of.values(), default=-1)
        ok = (
            roots == 1
            and len(runs) == s.attrs["kmeans_runs"]
            and len(runs) - 1 == s.attrs["recursion_calls"]
            and max_depth == s.attrs["max_depth"]
        )
        trees.append({"build_span": s.id, "nodes": len(runs), "max_depth": max_depth, "ok": ok})
    return trees


def layer_metrics(tracer: Tracer, units: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics over the traced spans.

    Times and counts are totals per unit of work: a span of kind ``k``
    contributes ``value / units[k]`` (per trial on the sweeps; per train
    call plus per classify call on the deploy path). ``*_max`` values, the
    bundle size and the vocabulary/centroid sizes are maxima or means.
    """
    spans = [s for s in tracer.spans if s.traced and s.layer != "bench"]
    selfs = self_times(tracer.spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    sums = {name: 0.0 for name in (
        "corpus.load_s", "corpus.docs", "corpus.tokens", "corpus.split_mask_s",
        "representation.fit_s", "representation.embed_s", "representation.embed_docs",
        "rkmeans.build_s", "rkmeans.kmeans_runs", "rkmeans.kmeans_iters",
        "rkmeans.unconverged_runs", "rkmeans.clusters",
        "kernels.assign_calls", "kernels.assign_s", "kernels.distance_evals",
        "kernels.sums_calls", "kernels.sums_s",
        "classifier.classify_s", "classifier.docs", "evaluation.score_s",
        "harness.trial_self_s", "harness.emit_s",
        "cli.bundle_save_s", "cli.bundle_load_s", "cli.classify_self_s",
    )}
    vocab, centroids, bundle_bytes = [], [], []
    temp_max = 0
    depth_max = 0
    fallbacks = clusters = 0

    def add(name, value, span):
        sums[name] += value / units[span.kind]

    for s in spans:
        a = s.attrs
        m[f"{s.layer}.self_s"] += selfs[s.id] / units[s.kind]
        if s.name == "corpus.load_directory_corpus":
            add("corpus.load_s", s.duration, s)
            add("corpus.docs", a["docs"], s)
            add("corpus.tokens", a["tokens"], s)
        elif s.layer == "corpus":
            add("corpus.split_mask_s", s.duration, s)
        elif s.name == "representation.fit_term_weights":
            add("representation.fit_s", s.duration, s)
            vocab.append(a["vocab"])
        elif s.name == "representation.embed_corpus":
            add("representation.embed_s", s.duration, s)
            add("representation.embed_docs", a["docs"], s)
        elif s.name == "rkmeans.build_model":
            add("rkmeans.build_s", s.duration, s)
            add("rkmeans.clusters", a["clusters"], s)
            depth_max = max(depth_max, a["max_depth"])
            fallbacks += a["fallbacks"]
            clusters += a["clusters"]
        elif s.name == "rkmeans.kmeans":
            add("rkmeans.kmeans_runs", 1, s)
            add("rkmeans.kmeans_iters", a["n_iter"], s)
            add("rkmeans.unconverged_runs", int(a["n_iter"] >= a["max_iterations"]), s)
        elif s.name == "kernels.nearest_centroids":
            add("kernels.assign_calls", 1, s)
            add("kernels.assign_s", s.duration, s)
            add("kernels.distance_evals", a["n"] * a["m"], s)
            temp_max = max(temp_max, a["temp_bytes"])
        elif s.name == "kernels.centroid_sums":
            add("kernels.sums_calls", 1, s)
            add("kernels.sums_s", s.duration, s)
        elif s.name == "classifier.classify_batch":
            add("classifier.classify_s", s.duration, s)
            add("classifier.docs", a["docs"], s)
            centroids.append(a["centroids"])
        elif s.layer == "evaluation":
            add("evaluation.score_s", s.duration, s)
        elif s.name == "harness.run_trial":
            add("harness.trial_self_s", selfs[s.id], s)
        elif s.name == "harness.emit_results":
            add("harness.emit_s", s.duration, s)
        elif s.name == "cli.save_bundle":
            add("cli.bundle_save_s", s.duration, s)
            bundle_bytes.append(a["bytes"])
        elif s.name == "cli.load_bundle":
            add("cli.bundle_load_s", s.duration, s)
        elif s.name == "cli.cmd_classify":
            add("cli.classify_self_s", selfs[s.id], s)
    m.update(sums)
    m["representation.vocab_size"] = float(np.mean(vocab)) if vocab else 0.0
    m["rkmeans.max_depth"] = depth_max
    m["rkmeans.fallback_ratio"] = fallbacks / clusters if clusters else 0.0
    m["kernels.assign_temp_mb_max"] = temp_max / 1e6
    m["classifier.centroids"] = float(np.mean(centroids)) if centroids else 0.0
    m["cli.bundle_mb"] = max(bundle_bytes) / 1e6 if bundle_bytes else 0.0
    return m

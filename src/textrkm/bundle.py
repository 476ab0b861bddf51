"""The model bundle, the one JSON file ``train`` writes and ``classify``
reads: its writer, ``save_bundle`` (version 5), and the readers of each
version, 1 to 5, in ``_READERS``. Floats round-trip exactly through ``repr``."""
from __future__ import annotations

import base64
import json
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .corpus import TokenizerConfig, replacing
from .errors import DataError, InvariantError, json_field, json_fields
from .representation import TermClassWeights, check_smoothing, weights_from_counts
from .rkmeans import ClusterModel, RunStats, _run_stats, pool_labels

_BUNDLE_FORMAT = "textrkm-bundle"
_BUNDLE_VERSION = 5

# each cluster's fields, in the order a version-4 or -5 bundle writes them, and their JSON types
_CLUSTER_FIELDS = dict(label=int, centroid=list[float], acceptance=str, depth=int)
_RUN_STATS_TYPES = get_type_hints(RunStats)


def model_to_dict(model: ClusterModel) -> dict:
    """The ``model`` object of a version-4 or -5 bundle: what classification
    reads, and no training partition."""
    return {
        "class_names": list(model.class_names),
        "distance": model.distance,
        "clusters": [
            dict(zip(_CLUSTER_FIELDS, row)) for row in zip(
                model.labels.tolist(), model.centroids.tolist(), model.acceptance, model.depths.tolist(),
            )
        ],
        "stats": asdict(model.stats),
    }


def model_from_dict(payload: dict) -> ClusterModel:
    """Inverse of ``model_to_dict``.

    A malformed payload raises ``DataError``, ``InvariantError``, or
    ``OverflowError`` for a number past int64 or float64; ``load_bundle``
    turns the last two into ``DataError``. The run statistics must be those
    ``build_model`` derives from the clusters, from at least one k-means run
    per recursion level reached.
    """
    rows = json_field(payload, "clusters", list[dict])
    labels, centroids, acceptance, depths = (
        json_fields(rows, key, kind) for key, kind in _CLUSTER_FIELDS.items()
    )
    if len(set(map(len, centroids))) != 1:
        raise DataError("a model needs clusters whose centroids share one dimension")
    stats = json_field(payload, "stats", dict)
    stats = RunStats(**{name: json_field(stats, name, kind) for name, kind in _RUN_STATS_TYPES.items()})
    model = ClusterModel(
        centroids=np.array(centroids, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        acceptance=tuple(acceptance),
        depths=np.array(depths, dtype=np.int64),
        distance=json_field(payload, "distance", str),
        class_names=tuple(json_field(payload, "class_names", list[str])),
        stats=stats,
    )
    model.validate()
    max_depth = int(model.depths.max())
    derived = asdict(_run_stats(stats.th_percent, stats.rng_seed, model.distance,
                                stats.kmeans_runs, model.acceptance, max_depth))
    wrong = [name for name, value in derived.items() if getattr(stats, name) != value]
    if stats.kmeans_runs <= max_depth:  # each level of a recursion is one more run
        wrong.append("kmeans_runs")
    if wrong:
        raise DataError(f"run statistics {wrong} disagree with the clusters")
    return model


def training_partition(payload: dict) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The training partition the model of a version-1 to -3 bundle stores:
    the training doc ids, their labeled flags and each one's cluster.

    Member positions must increase within each cluster and partition the
    training points, and the labeled mask holds one 0 or 1 per point.
    """
    rows = json_field(payload, "clusters", list[dict])
    members = json_fields(rows, "member_indices", list[int])
    positions = np.array(list(chain.from_iterable(members)), dtype=np.int64)
    owners = np.repeat(np.arange(len(rows)), list(map(len, members)))
    doc_ids = json_field(payload, "training_doc_ids", list[str])
    n = len(doc_ids)
    if positions.size != n or np.any(positions < 0) or np.any(positions >= n):
        raise DataError("final clusters do not partition the training set")
    # cluster-major keys increase exactly when each cluster's positions do
    if np.any(np.diff(owners * n + positions) <= 0):
        raise DataError("member positions must increase within each cluster")
    cluster_of = np.full(n, -1, dtype=np.int64)
    cluster_of[positions] = owners
    if np.any(cluster_of < 0):  # a position listed twice leaves another unlisted
        raise DataError("final clusters do not partition the training set")
    flags = json_field(payload, "labeled", list[int])
    if len(flags) != n or not set(flags) <= {0, 1}:
        raise DataError("the labeled mask needs one 0 or 1 per training doc")
    return doc_ids, np.array(flags, dtype=bool), cluster_of


def model_from_v3_dict(payload: dict) -> ClusterModel:
    """``model_from_dict`` for the model of a version-2 or -3 bundle, which
    also stores the training partition: it is checked, then dropped."""
    model = model_from_dict(payload)
    training_partition(payload)
    return model


def model_from_v1_dict(payload: dict) -> ClusterModel:
    """``model_from_dict`` for the model of a version-1 bundle.

    Version 1 listed each cluster's member doc ids next to its member
    positions and stored the labels inherited by the unlabeled docs; a doc
    absent from those labels was labeled. Stored labels that disagree with
    the clusters raise ``DataError``.
    """
    rows = json_field(payload, "clusters", list[dict])
    positions = json_fields(rows, "member_indices", list[int])
    doc_ids = json_fields(rows, "member_doc_ids", list[str])
    if list(map(len, positions)) != list(map(len, doc_ids)):
        raise DataError("a version-1 cluster lists one doc id per member")
    members = sorted(zip(chain.from_iterable(positions), chain.from_iterable(doc_ids)))
    doc_ids = [doc_id for _, doc_id in members]  # in position order; a non-partition is refused
    assigned = json_field(payload, "training_label_assignments", dict[str, int])
    labeled = [int(doc_id not in assigned) for doc_id in doc_ids]
    payload = {**payload, "training_doc_ids": doc_ids, "labeled": labeled}
    model = model_from_dict(payload)
    doc_ids, labeled, cluster_of = training_partition(payload)
    if pool_labels(model.labels, cluster_of, doc_ids, labeled) != assigned:
        raise DataError("training_label_assignments disagree with the clusters")
    return model


def weights_to_dict(w: TermClassWeights) -> dict:
    """The ``weights`` object of a version-5 bundle: for each class, the
    increasing ids of the terms it counts and their integer counts, each
    packed as base64 of little-endian uint32. A count of 2**32 or more
    raises DataError."""
    if w.counts is None:
        raise DataError("a weight table read from a version-1 or -2 bundle has no counts")
    if w.counts.max(initial=0) >= 2**32:
        raise DataError(f"a term count of {w.counts.max():.0f} is past a bundle's 2**32 - 1")
    return {
        "class_names": list(w.class_names),
        "smoothing": w.smoothing,
        "terms": sorted(w.vocabulary, key=w.vocabulary.get),
        "counts": [
            {"term_ids": _packed(ids), "counts": _packed(w.counts[ids, c])}
            for c, ids in enumerate(map(np.flatnonzero, w.counts.T))
        ],
    }


def _packed(values: np.ndarray) -> str:
    return base64.b64encode(values.astype("<u4").tobytes()).decode("ascii")


def _unpacked(text: str) -> np.ndarray:
    """Inverse of ``_packed``; DataError unless ``text`` is what it writes."""
    try:  # bad padding or a non-ASCII character raise; the encoding check refuses the rest
        raw = base64.b64decode(text)
        if len(raw) % 4 == 0 and base64.b64encode(raw).decode("ascii") == text:
            return np.frombuffer(raw, "<u4").astype(np.int64)
    except ValueError:
        pass
    raise DataError("packed term ids and counts must be base64 of whole little-endian uint32s")


def weights_from_dict(d: dict) -> TermClassWeights:
    """The ``weights`` object of a version-3 or -4 bundle, which lists each
    class's term ids and counts as JSON integers."""
    return _weights_from_class_counts(d, list[int], lambda values: np.array(values, dtype=np.int64))


def weights_from_packed_dict(d: dict) -> TermClassWeights:
    """Inverse of ``weights_to_dict``: the ``weights`` object of a version-5 bundle."""
    return _weights_from_class_counts(d, str, _unpacked)


def _weights_from_class_counts(d: dict, kind, decode) -> TermClassWeights:
    """Rebuild the counts from each class's term ids and counts, JSON values
    of ``kind`` that ``decode`` turns into int64 arrays; derive the table.

    Counts must be integers in ``[1, 2**53)``, which float64 holds exactly.
    A malformed payload raises ``DataError``, or ``OverflowError`` for an
    integer past int64, which ``load_bundle`` turns into ``DataError``.
    """
    terms = json_field(d, "terms", list[str])
    class_names = tuple(json_field(d, "class_names", list[str]))
    smoothing = check_smoothing(json_field(d, "smoothing", float))
    entries = json_field(d, "counts", list[dict])
    ids, n = ([decode(value) for value in json_fields(entries, key, kind)] for key in ("term_ids", "counts"))
    lengths = list(map(len, ids))
    if len(entries) != len(class_names) or lengths != list(map(len, n)):
        raise DataError("one counts entry per class expected, with one count per term id")
    columns = np.repeat(np.arange(len(class_names)), lengths)
    # the empty array joins a list of no classes too
    ids, n = (np.concatenate([np.empty(0, np.int64), *arrays]) for arrays in (ids, n))
    # within a class, ids increase exactly where these keys do
    keys = columns * len(terms) + ids
    if not (
        np.all((ids >= 0) & (ids < len(terms))) and np.all(np.diff(keys) > 0)
        and np.all((n >= 1) & (n < 2**53))
    ):
        raise DataError(f"term ids must increase in [0, {len(terms)}) within each class, "
                        "with one count in [1, 2**53) each")
    counts = np.zeros((len(terms), len(class_names)), dtype=np.float64)
    counts[ids, columns] = n
    return weights_from_counts(dict(zip(terms, range(len(terms)))), counts, smoothing, class_names)


def weights_from_v2_dict(d: dict) -> TermClassWeights:
    """The ``weights`` object of a version-1 or -2 bundle, which stored the
    weight table and OOV floor themselves and no counts."""
    terms = json_field(d, "terms", list[str])
    class_names = tuple(json_field(d, "class_names", list[str]))
    smoothing = check_smoothing(json_field(d, "smoothing", float))
    rows = json_field(d, "weights", list[list[float]])
    if len(rows) != len(terms) or not set(map(len, rows)) <= {len(class_names)}:
        raise DataError("weight matrix shape does not match vocabulary/classes")
    weights = np.array(rows, dtype=np.float64).reshape(len(terms), len(class_names))
    oov = np.array(json_field(d, "oov_weight", list[float]), dtype=np.float64)
    w = TermClassWeights(dict(zip(terms, range(len(terms)))), weights, oov, smoothing, class_names)
    w.validate()
    return w


# the (model reader, weights reader) of each version: versions 1-3 also store the training
# partition, which is checked and dropped, versions 1 and 2 the weight table, not its counts,
# and versions 3 and 4 the counts as JSON integers
_READERS = {1: (model_from_v1_dict, weights_from_v2_dict), 2: (model_from_v3_dict, weights_from_v2_dict),
            3: (model_from_v3_dict, weights_from_dict), 4: (model_from_dict, weights_from_dict),
            5: (model_from_dict, weights_from_packed_dict)}


def save_bundle(path: str | Path, model: ClusterModel, weights: TermClassWeights,
                tokenizer: TokenizerConfig) -> None:
    """One self-contained JSON file: tokenizer + term/class counts + cluster
    model, without the training partition. It replaces ``path`` whole
    (``corpus.replacing``)."""
    payload = {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "tokenizer": tokenizer.to_dict(),
        "weights": weights_to_dict(weights),
        "model": model_to_dict(model),
    }
    with replacing(Path(path)) as f:
        f.write(json.dumps(payload))


def load_bundle(path: str | Path) -> tuple[ClusterModel, TermClassWeights, TokenizerConfig]:
    """Read a version-5 bundle, or a version-1 to -4 one; anything else raises DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ValueError, RecursionError) as exc:
        # bad JSON, an integer past the int-string limit, or nesting too deep
        raise DataError(f"cannot read model bundle {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise DataError(f"{path} is not a model bundle")
    version = json_field(payload, "version", int)
    if version not in _READERS:
        raise DataError(f"{path}: unsupported bundle version {version!r}")
    model_reader, weights_reader = _READERS[version]
    try:
        model = model_reader(json_field(payload, "model", dict))
        weights = weights_reader(json_field(payload, "weights", dict))
        tokenizer = TokenizerConfig.from_dict(json_field(payload, "tokenizer", dict))
    except (OverflowError, InvariantError) as exc:  # too large a number; parts that disagree
        raise DataError(f"malformed model bundle {path}: {exc}") from exc
    if weights.class_names != model.class_names or len(set(model.class_names)) < model.n_classes:
        raise DataError(f"{path}: the weights and the model must list the same distinct class names")
    return model, weights, tokenizer

"""Seeded Lloyd k-means and the recursive semi-supervised clustering core.

The learner partitions a mixed labeled/unlabeled point set with k-means (one
seed per class present), then re-clusters any partition whose labeled members
disagree too much, recursively, until every retained cluster's labeled
minority classes fall at or below a relative-percentage threshold. Each final
cluster takes its labeled majority class, every unlabeled member inherits
that class, and the cluster mean vectors become the centroids used later for
nearest-centroid classification.

Guards not implied by the plain recursion: a maximum recursion depth, a
minimum cluster size for recursion, and a no-progress check (k-means returned
the whole input as one cluster). A cluster blocked by a guard is accepted
with its majority label and counted as a fallback acceptance. Clusters with
no labeled member take the label of the nearest labeled sibling centroid from
the same partition.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Sequence, get_type_hints

import numpy as np

from . import kernels
from .errors import DataError, InvariantError, json_field, json_fields

# acceptance reasons recorded on every final cluster
ACCEPT_PURE = "pure"                 # single labeled class present
ACCEPT_THRESHOLD = "threshold"       # minorities all at/below the threshold
ACCEPT_DEPTH = "fallback_depth"      # wanted to recurse, depth limit reached
ACCEPT_SIZE = "fallback_size"        # wanted to recurse, cluster too small
ACCEPT_NO_SPLIT = "fallback_unsplittable"  # k-means could not split the set
ACCEPT_ORPHAN = "orphan"             # no labeled member; labeled via sibling

FALLBACK_REASONS = (ACCEPT_DEPTH, ACCEPT_SIZE, ACCEPT_NO_SPLIT)


@dataclass(frozen=True)
class KMeansConfig:
    distance: str = "euclidean"
    max_iterations: int = 100
    centroid_shift_tolerance: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if self.distance not in kernels.METRICS:
            raise DataError(f"unknown distance {self.distance!r}")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")
        if self.centroid_shift_tolerance <= 0:
            raise DataError("centroid_shift_tolerance must be > 0")


@dataclass(frozen=True)
class RecursiveConfig:
    """Knobs for the recursive clustering pass.

    ``th_percent`` is the relative-percentage cutoff: a labeled minority
    class at or below this percentage of the majority count is treated as
    outliers instead of triggering a re-cluster. ``min_cluster_size_for_recursion``
    of None means 2x the number of distinct labeled classes in the cluster.
    """

    th_percent: float = 5.0
    max_recursion_depth: int = 16
    min_cluster_size_for_recursion: int | None = None
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)

    def __post_init__(self):
        if not 0.0 <= self.th_percent <= 100.0:
            raise DataError(f"th_percent must be in [0,100], got {self.th_percent}")
        if self.max_recursion_depth < 1:
            raise DataError("max_recursion_depth must be >= 1")


@dataclass
class KMeansResult:
    """Final assignment plus per-iteration objective values.

    ``centroids`` are the exact componentwise means of the final members;
    empty clusters are dropped from the output and assignments renumbered
    densely in original cluster order. ``sse_history`` records the objective
    (sum of squared euclidean distances, or summed cosine distances) at each
    assignment step.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    counts: np.ndarray
    n_iter: int
    sse_history: list[float]


def kmeans(x: np.ndarray, seeds: np.ndarray, config: KMeansConfig) -> KMeansResult:
    """Lloyd iteration from explicit seed centroids.

    Assign each point to its nearest centroid (ties to the lowest index),
    recompute centroids as member means, and stop when the maximum centroid
    shift drops below tolerance or ``max_iterations`` is hit. An empty
    cluster is reseeded on the point farthest from its centroid.
    """
    x = kernels.as_points(x)
    if x.shape[0] == 0:
        raise DataError("kmeans needs at least one point")
    centroids = kernels.as_points(seeds).copy()
    if centroids.shape[0] == 0:
        raise DataError("kmeans needs at least one seed")
    if centroids.shape[1] != x.shape[1]:
        raise DataError(
            f"seed dimension {centroids.shape[1]} != point dimension {x.shape[1]}"
        )

    k = centroids.shape[0]
    # what every iteration reuses, computed once per run; the euclidean
    # kernel reads norms only when it ranks (more than DIRECT_PAIRS pairs)
    norms = None
    if config.distance == "cosine" or x.shape[0] * k > kernels.DIRECT_PAIRS:
        norms = kernels.row_norms(x, config.distance)
    columns = np.ascontiguousarray(x.T) if x.shape[0] >= kernels.COLUMN_SUM_ROWS else None
    history: list[float] = []
    for n_iter in range(1, config.max_iterations + 1):
        assign, dist = kernels.nearest_centroids(x, centroids, config.distance, norms=norms)
        history.append(float(dist.sum()))
        sums, counts = kernels.centroid_sums(x, assign, k, columns=columns)
        if not counts.all():
            # reseed each empty cluster on the most distant point, one
            # point per cluster, lowest cluster index served first; with
            # fewer points than empty clusters the leftovers stay empty
            means = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centroids)
            empties = np.flatnonzero(counts == 0)[: x.shape[0]]
            means[empties] = x[np.argsort(-dist, kind="stable")[: empties.size]]
            centroids = means
            continue  # geometry changed; always run another assignment pass
        means = sums / counts[:, None]
        shift = np.sqrt(((means - centroids) ** 2).sum(axis=1)).max()
        centroids = means
        if shift < config.centroid_shift_tolerance:
            break

    if counts.all():
        # the last iteration left no cluster empty: its means are the exact
        # means of its assignment
        return KMeansResult(assign, centroids, counts, n_iter, history)
    # drop clusters that ended empty and take the exact means of the last
    # assignment, whose sums the last iteration computed
    keep = counts > 0
    remap = np.cumsum(keep) - 1
    return KMeansResult(
        assignments=remap[assign].astype(np.int64),
        centroids=sums[keep] / counts[keep, None],
        counts=counts[keep],
        n_iter=n_iter,
        sse_history=history,
    )


def choose_initial_seeds(
    x: np.ndarray,
    labels: np.ndarray,
    rng: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One uniformly chosen labeled point per class present.

    Returns ``(seeds, seed_classes)`` with classes in ascending index order;
    deterministic for a fixed seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    x = kernels.as_points(x)
    labels = np.asarray(labels, dtype=np.int64)
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise DataError("cannot seed: no labeled points")
    # labeled points grouped by class, each group in index order
    by_class = labeled[np.argsort(labels[labeled], kind="stable")]
    sizes = np.bincount(labels[labeled])
    present = np.flatnonzero(sizes)
    ends = np.cumsum(sizes)[present].tolist()
    picks = [end - n + int(rng.integers(n)) for end, n in zip(ends, sizes[present].tolist())]
    return x[by_class[picks]], present


@dataclass
class FinalCluster:
    member_indices: np.ndarray  # positions in the training matrix
    centroid: np.ndarray
    label: int
    acceptance: str
    depth: int


@dataclass
class RunStats:
    th_percent: float
    rng_seed: int
    distance: str
    max_depth_reached: int = 0
    recursion_calls: int = 0
    kmeans_runs: int = 0
    fallback_counts: dict[str, int] = field(default_factory=dict)
    orphan_count: int = 0

    @property
    def fallback_total(self) -> int:
        return sum(self.fallback_counts.values())


_RUN_STATS_TYPES = get_type_hints(RunStats)


def _recurse(
    x: np.ndarray,
    labels: np.ndarray,
    idx: np.ndarray,
    n_classes: int,
    config: RecursiveConfig,
    depth: int,
    rng: np.random.Generator,
    stats: RunStats,
) -> list[FinalCluster]:
    stats.max_depth_reached = max(stats.max_depth_reached, depth)
    sub_x = np.ascontiguousarray(x[idx])
    sub_labels = labels[idx]
    seeds, _ = choose_initial_seeds(sub_x, sub_labels, rng)
    result = kmeans(sub_x, seeds, config.kmeans)
    stats.kmeans_runs += 1
    k = result.centroids.shape[0]

    # (clusters, classes) labeled counts, one list per cluster, and each
    # cluster's majority class (its first largest count)
    known = sub_labels >= 0
    lsp = np.bincount(
        result.assignments[known] * n_classes + sub_labels[known], minlength=k * n_classes
    ).reshape(k, n_classes).tolist()
    majority = [row.index(max(row)) for row in lsp]
    n_present = [n_classes - row.count(0) for row in lsp]

    # a cluster with no labeled member takes the majority of the nearest
    # labeled sibling, ties to the lowest cluster index
    orphans = [j for j in range(k) if not n_present[j]]
    if orphans:
        siblings = [j for j in range(k) if n_present[j]]
        nearest, _ = kernels.nearest_centroids(
            result.centroids[orphans], result.centroids[siblings], config.kmeans.distance
        )
        for j, s in zip(orphans, nearest.tolist()):
            majority[j] = majority[siblings[s]]

    by_cluster = idx[np.argsort(result.assignments, kind="stable")]
    bounds = [0, *np.cumsum(result.counts).tolist()]
    finals: list[FinalCluster] = []
    for j, row in enumerate(lsp):
        members = by_cluster[bounds[j]:bounds[j + 1]]
        if n_present[j] == 0:
            acceptance = ACCEPT_ORPHAN
            stats.orphan_count += 1
        elif n_present[j] == 1:
            acceptance = ACCEPT_PURE
        # a minority class over th_percent of the majority's count forces a
        # split; 100.0 * count / top rounds monotonically in count, so the
        # largest minority count (the second of the sorted row) decides
        elif 100.0 * sorted(row)[-2] / max(row) <= config.th_percent:
            acceptance = ACCEPT_THRESHOLD
        else:
            min_size = config.min_cluster_size_for_recursion
            if min_size is None:
                min_size = 2 * n_present[j]
            if members.size == idx.size:
                acceptance = ACCEPT_NO_SPLIT
            elif depth >= config.max_recursion_depth:
                acceptance = ACCEPT_DEPTH
            elif members.size < min_size:
                acceptance = ACCEPT_SIZE
            else:
                stats.recursion_calls += 1
                finals.extend(
                    _recurse(x, labels, members, n_classes, config, depth + 1, rng, stats)
                )
                continue
            stats.fallback_counts[acceptance] = stats.fallback_counts.get(acceptance, 0) + 1
        finals.append(
            FinalCluster(
                member_indices=members,
                centroid=result.centroids[j],
                label=majority[j],
                acceptance=acceptance,
                depth=depth,
            )
        )
    return finals


@dataclass
class ClusterModel:
    """The learned knowledgebase: final clusters, centroids and labels.

    The training partition is stored once: ``training_doc_ids[i]`` and
    ``labeled[i]`` describe training point i, and each cluster lists the
    positions of its members.
    """

    centroids: np.ndarray
    labels: np.ndarray
    clusters: list[FinalCluster]
    distance: str
    class_names: tuple[str, ...]
    training_doc_ids: tuple[str, ...]
    labeled: np.ndarray  # bool, one flag per training point
    stats: RunStats

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]

    @property
    def n_training_points(self) -> int:
        return len(self.training_doc_ids)

    @property
    def training_label_assignments(self) -> dict[str, int]:
        """Every unlabeled training doc id -> the label of its final cluster."""
        return {
            self.training_doc_ids[i]: c.label
            for c in self.clusters
            for i in c.member_indices
            if not self.labeled[i]
        }

    def validate(self) -> None:
        m = self.n_clusters
        if len(self.clusters) != m or self.labels.shape[0] != m:
            raise InvariantError("cluster/centroid/label counts disagree")
        if m == 0:
            raise InvariantError("model has no clusters")
        if not np.isfinite(self.centroids).all():
            raise InvariantError("centroids must be finite")
        if np.any(self.labels < 0) or np.any(self.labels >= self.n_classes):
            raise InvariantError("cluster label out of class range")
        if self.distance not in kernels.METRICS:
            raise InvariantError(f"unknown distance {self.distance!r}")
        n = self.n_training_points
        if self.labeled.shape != (n,):
            raise InvariantError("labeled mask length does not match the training points")
        all_members = np.sort(np.concatenate([c.member_indices for c in self.clusters]))
        if not np.array_equal(all_members, np.arange(n)):
            raise InvariantError("final clusters do not partition the training set")


def build_model(
    x: np.ndarray,
    labels: np.ndarray,
    doc_ids: Sequence[str],
    class_names: Sequence[str],
    config: RecursiveConfig,
) -> ClusterModel:
    """Run the recursive clustering pass over a mixed training collection and
    assemble the knowledgebase.

    ``labels`` uses -1 for unlabeled points, and every class in
    ``class_names`` needs at least one labeled point. The final clusters come
    in deterministic depth-first order, and every unlabeled point ends up in
    ``training_label_assignments``.
    """
    x = kernels.as_points(x)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = len(class_names)
    if not x.shape[0] == labels.shape[0] == len(doc_ids):
        raise DataError("points, labels and doc_ids differ in length")
    if labels.max(initial=-1) >= n_classes:
        raise DataError(f"label {labels.max()} out of range for {n_classes} classes")
    sizes = np.bincount(labels[labels >= 0], minlength=n_classes).tolist()
    missing = [name for name, size in zip(class_names, sizes) if not size]
    if missing:
        raise DataError(f"classes without labeled training points: {missing}")

    stats = RunStats(
        th_percent=config.th_percent,
        rng_seed=config.kmeans.rng_seed,
        distance=config.kmeans.distance,
    )
    rng = np.random.default_rng(config.kmeans.rng_seed)
    finals = _recurse(x, labels, np.arange(x.shape[0]), n_classes, config, 0, rng, stats)
    model = ClusterModel(
        centroids=np.ascontiguousarray(np.vstack([c.centroid for c in finals])),
        labels=np.array([c.label for c in finals], dtype=np.int64),
        clusters=finals,
        distance=config.kmeans.distance,
        class_names=tuple(class_names),
        training_doc_ids=tuple(doc_ids),
        labeled=labels >= 0,
        stats=stats,
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# the model's part of the bundle (JSON; float repr round-trips exactly)
# ---------------------------------------------------------------------------

def model_to_dict(model: ClusterModel) -> dict:
    """The ``model`` object of a version-2 or -3 bundle."""
    return {
        "class_names": list(model.class_names),
        "distance": model.distance,
        "training_doc_ids": list(model.training_doc_ids),
        "labeled": model.labeled.astype(int).tolist(),
        "clusters": [
            {
                "label": int(c.label),
                "centroid": c.centroid.tolist(),
                "member_indices": c.member_indices.tolist(),
                "acceptance": c.acceptance,
                "depth": c.depth,
            }
            for c in model.clusters
        ],
        "stats": asdict(model.stats),
    }


def model_from_dict(payload: dict) -> ClusterModel:
    """Inverse of ``model_to_dict``.

    A malformed payload raises ``DataError``, ``InvariantError``, or
    ``OverflowError`` for a number past int64 or float64; the bundle loader
    turns the last two into ``DataError``.
    """
    rows = json_field(payload, "clusters", list[dict])
    centroids = json_fields(rows, "centroid", list[float])
    if len(set(map(len, centroids))) != 1:
        raise DataError("a model needs clusters whose centroids share one dimension")
    labels = json_fields(rows, "label", int)
    members = (np.array(m, dtype=np.int64) for m in json_fields(rows, "member_indices", list[int]))
    centroids = np.array(centroids, dtype=np.float64)
    clusters = list(map(
        FinalCluster, members, centroids, labels,
        json_fields(rows, "acceptance", str), json_fields(rows, "depth", int),
    ))
    flags = json_field(payload, "labeled", list[int])
    if not set(flags) <= {0, 1}:
        raise DataError("labeled mask entries must be 0 or 1")
    stats = json_field(payload, "stats", dict)
    stats = RunStats(**{name: json_field(stats, name, kind) for name, kind in _RUN_STATS_TYPES.items()})
    model = ClusterModel(
        centroids=centroids,
        labels=np.array(labels, dtype=np.int64),
        clusters=clusters,
        distance=json_field(payload, "distance", str),
        class_names=tuple(json_field(payload, "class_names", list[str])),
        training_doc_ids=tuple(json_field(payload, "training_doc_ids", list[str])),
        labeled=np.array(flags, dtype=bool),
        stats=stats,
    )
    model.validate()
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
    doc_ids = [doc_id for _, doc_id in members]  # in position order; a non-partition fails validate()
    assigned = json_field(payload, "training_label_assignments", dict[str, int])
    model = model_from_dict({
        **payload,
        "training_doc_ids": doc_ids,
        "labeled": [int(doc_id not in assigned) for doc_id in doc_ids],
    })
    if model.training_label_assignments != assigned:
        raise DataError("training_label_assignments disagree with the clusters")
    return model

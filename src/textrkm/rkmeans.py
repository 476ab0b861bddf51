"""Seeded Lloyd k-means and the recursive semi-supervised clustering core.

The learner partitions a mixed labeled/unlabeled point set with k-means (one
seed per class present), then re-clusters any partition whose labeled members
disagree too much, recursively, until every retained cluster's labeled
minority classes fall at or below a relative-percentage threshold. Each final
cluster takes its labeled majority class, every unlabeled member inherits
that class, and the cluster mean vectors become the centroids used later for
nearest-centroid classification.

Guards not implied by the plain recursion: a maximum recursion depth, a
minimum cluster size for recursion (twice the labeled classes present), and
a no-progress check (k-means returned the whole input as one cluster). A
cluster blocked by a guard is accepted with its majority label and counted
as a fallback acceptance. Clusters with no labeled member take the label of
the nearest labeled sibling centroid from the same partition.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DataError, InvariantError

# acceptance reasons recorded on every final cluster
ACCEPT_PURE = "pure"                 # single labeled class present
ACCEPT_THRESHOLD = "threshold"       # minorities all at/below the threshold
ACCEPT_DEPTH = "fallback_depth"      # wanted to recurse, depth limit reached
ACCEPT_SIZE = "fallback_size"        # wanted to recurse, cluster too small
ACCEPT_NO_SPLIT = "fallback_unsplittable"  # k-means could not split the set
ACCEPT_ORPHAN = "orphan"             # no labeled member; labeled via sibling

FALLBACK_REASONS = (ACCEPT_DEPTH, ACCEPT_SIZE, ACCEPT_NO_SPLIT)
ACCEPTANCE_REASONS = (ACCEPT_PURE, ACCEPT_THRESHOLD, *FALLBACK_REASONS, ACCEPT_ORPHAN)

# Lloyd iteration stops once no centroid moves this far
CENTROID_SHIFT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class KMeansConfig:
    distance: str = "euclidean"
    max_iterations: int = 100

    def __post_init__(self):
        if self.distance not in kernels.METRICS:
            raise DataError(f"unknown distance {self.distance!r}")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")


@dataclass(frozen=True)
class RecursiveConfig:
    """Knobs for the recursive clustering pass.

    ``th_percent`` is the relative-percentage cutoff: a labeled minority
    class at or below this percentage of the majority count is treated as
    outliers instead of triggering a re-cluster.
    """

    th_percent: float = 5.0
    max_recursion_depth: int = 16
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)

    def __post_init__(self):
        if not 0.0 <= self.th_percent <= 100.0:
            raise DataError(f"th_percent must be in [0,100], got {self.th_percent}")
        if self.max_recursion_depth < 1:
            raise DataError("max_recursion_depth must be >= 1")


@dataclass
class KMeansResult:
    """The final assignment of a Lloyd run and how many iterations it took.

    ``centroids`` are the exact componentwise means of the final members;
    empty clusters are dropped from the output and assignments renumbered
    densely in original cluster order. No objective is kept: a run cut off
    at ``max_iterations=i`` returns the partition of its i-th iteration,
    whose SSE a caller can compute.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    counts: np.ndarray
    n_iter: int


def kmeans(x: np.ndarray, seeds: np.ndarray, config: KMeansConfig) -> KMeansResult:
    """Lloyd iteration from explicit seed centroids.

    Assign each point to its nearest centroid (ties to the lowest index),
    recompute centroids as member means, and stop when the maximum centroid
    shift drops below ``CENTROID_SHIFT_TOLERANCE`` or ``max_iterations`` is
    hit. An empty cluster is reseeded on the point farthest from its centroid;
    only an iteration that leaves a cluster empty measures distances, and one
    whose reseeded centroids equal those it started from ends the run.
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
    # what every iteration reuses, computed once per run: under cosine the
    # unit rows the kernel measures, and their norms, which the euclidean
    # kernel reads only when it ranks (more than DIRECT_PAIRS pairs)
    units = kernels.unit_rows(x) if config.distance == "cosine" else None
    norms = None
    if units is not None or x.shape[0] * k > kernels.DIRECT_PAIRS:
        norms = kernels.row_norms(x if units is None else units)
    columns = np.ascontiguousarray(x.T) if x.shape[0] >= kernels.COLUMN_SUM_ROWS else None
    for n_iter in range(1, config.max_iterations + 1):
        assign = kernels.nearest_centroids(x, centroids, config.distance, norms=norms, units=units)
        sums, counts = kernels.centroid_sums(x, assign, k, columns=columns)
        if counts.all():
            means = sums / counts[:, None]
            done = np.sqrt(((means - centroids) ** 2).sum(axis=1)).max() < CENTROID_SHIFT_TOLERANCE
        else:
            # reseed each empty cluster on the most distant point, one
            # point per cluster, lowest cluster index served first; with
            # fewer points than empty clusters the leftovers stay empty
            dist = kernels.assigned_distances(x, centroids, assign, config.distance, units=units)
            means = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centroids)
            empties = np.flatnonzero(counts == 0)[: x.shape[0]]
            means[empties] = x[np.argsort(-dist, kind="stable")[: empties.size]]
            # the geometry changed, unless to a fixed point that every later pass would repeat
            done = np.array_equal(means, centroids)
        centroids = means
        if done:
            break

    if counts.all():
        # the last iteration left no cluster empty: its means are the exact
        # means of its assignment
        return KMeansResult(assign, centroids, counts, n_iter)
    # drop clusters that ended empty and take the exact means of the last
    # assignment, whose sums the last iteration computed
    keep = counts > 0
    remap = np.cumsum(keep) - 1
    return KMeansResult(
        assignments=remap[assign].astype(np.int64),
        centroids=sums[keep] / counts[keep, None],
        counts=counts[keep],
        n_iter=n_iter,
    )


def choose_initial_seeds(x: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniformly chosen labeled point per class present, the classes in
    ascending index order; deterministic for a generator in a fixed state.
    """
    x = kernels.as_points(x)
    labels = np.asarray(labels, dtype=np.int64)
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise DataError("cannot seed: no labeled points")
    # labeled points grouped by class, each group in index order
    groups: dict[int, list[int]] = {}
    for i, label in zip(labeled.tolist(), labels[labeled].tolist()):
        groups.setdefault(label, []).append(i)
    present = sorted(groups)
    picks = [groups[c][int(rng.integers(len(groups[c])))] for c in present]
    return x[picks]


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


def _run_stats(th_percent, rng_seed, distance, kmeans_runs, acceptance, max_depth) -> RunStats:
    """The run metadata of ``kmeans_runs`` k-means runs whose final clusters,
    in depth-first order, have these acceptance reasons and reach ``max_depth``.
    Every run but the root's is a recursion call; the fallback counts are
    keyed in the order their reasons first occur."""
    fallbacks = Counter(a for a in acceptance if a in FALLBACK_REASONS)
    return RunStats(th_percent, rng_seed, distance, max_depth, kmeans_runs - 1,
                    kmeans_runs, dict(fallbacks), acceptance.count(ACCEPT_ORPHAN))


@dataclass
class ClusterModel:
    """The learned knowledgebase: per final cluster, in depth-first order, a
    centroid, a label, an acceptance reason and a recursion depth.

    On a model ``build_model`` returns, ``cluster_of[i]`` is the cluster of
    training point i, so the final clusters partition the training set. A
    model rebuilt from stored clusters knows no training points: its
    ``cluster_of`` is None.
    """

    centroids: np.ndarray
    labels: np.ndarray  # int64 class index per cluster
    acceptance: tuple[str, ...]
    depths: np.ndarray  # int64 recursion depth per cluster
    distance: str
    class_names: tuple[str, ...]
    stats: RunStats
    cluster_of: np.ndarray | None = None  # int64 cluster index per training point

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]

    def validate(self) -> None:
        m = self.n_clusters
        if not self.labels.shape == self.depths.shape == (m,) or len(self.acceptance) != m:
            raise InvariantError("cluster/centroid/label counts disagree")
        if m == 0:
            raise InvariantError("model has no clusters")
        if not np.isfinite(self.centroids).all():
            raise InvariantError("centroids must be finite")
        if np.any(self.labels < 0) or np.any(self.labels >= self.n_classes):
            raise InvariantError("cluster label out of class range")
        if not set(self.acceptance) <= set(ACCEPTANCE_REASONS):
            raise InvariantError(f"unknown acceptance reason among {sorted(set(self.acceptance))}")
        if self.depths.min() < 0:
            raise InvariantError("cluster depth below 0")
        if self.distance not in kernels.METRICS:
            raise InvariantError(f"unknown distance {self.distance!r}")
        if self.cluster_of is not None and (np.any(self.cluster_of < 0) or np.any(self.cluster_of >= m)):
            raise InvariantError("a training point maps to no cluster")


def pool_labels(
    cluster_labels: np.ndarray,
    cluster_of: np.ndarray,
    doc_ids: Sequence[str],
    labeled: np.ndarray,
) -> dict[str, int]:
    """Every unlabeled training doc id -> the label of its final cluster, in
    training order: the labels the method gives the unlabeled pool."""
    unlabeled = ~labeled
    labels = cluster_labels[cluster_of[unlabeled]].tolist()
    return dict(zip(compress(doc_ids, unlabeled.tolist()), labels))


def build_model(
    x: np.ndarray,
    labels: np.ndarray,
    class_names: Sequence[str],
    config: RecursiveConfig,
    seed: int,
) -> ClusterModel:
    """Run the recursive clustering pass over a mixed training collection and
    assemble the knowledgebase.

    ``labels`` uses -1 for unlabeled points, and every class in
    ``class_names`` needs at least one labeled point. ``seed`` drives each
    k-means run's choice of seeds. The final clusters come in deterministic
    depth-first order, and every training point maps to one of them.
    """
    x = kernels.as_points(x)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = len(class_names)
    if x.shape[0] != labels.shape[0]:
        raise DataError("points and labels differ in length")
    bad = labels[(labels < -1) | (labels >= n_classes)]
    if bad.size:  # -1 marks an unlabeled point
        raise DataError(f"label {bad[0]} out of range for {n_classes} classes")
    sizes = np.bincount(labels[labels >= 0], minlength=n_classes).tolist()
    missing = [name for name, size in zip(class_names, sizes) if not size]
    if missing:
        raise DataError(f"classes without labeled training points: {missing}")

    rng = np.random.default_rng(seed)
    finals = []  # (members, centroid, label, acceptance, depth) in depth-first order

    def recurse(idx: np.ndarray, depth: int) -> int:
        """Cluster the points ``idx``; return the number of k-means runs made."""
        sub_x = np.ascontiguousarray(x[idx])
        sub_labels = labels[idx]
        seeds = choose_initial_seeds(sub_x, sub_labels, rng)
        result = kmeans(sub_x, seeds, config.kmeans)
        runs = 1
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
            nearest = kernels.nearest_centroids(
                result.centroids[orphans], result.centroids[siblings], config.kmeans.distance
            )
            for j, s in zip(orphans, nearest.tolist()):
                majority[j] = majority[siblings[s]]

        by_cluster = idx[np.argsort(result.assignments, kind="stable")]
        bounds = [0, *np.cumsum(result.counts).tolist()]
        for j, row in enumerate(lsp):
            cluster = by_cluster[bounds[j]:bounds[j + 1]]
            if n_present[j] == 0:
                reason = ACCEPT_ORPHAN
            elif n_present[j] == 1:
                reason = ACCEPT_PURE
            # a minority class over th_percent of the majority's count forces a
            # split; 100.0 * count / top rounds monotonically in count, so the
            # largest minority count (the second of the sorted row) decides
            elif 100.0 * sorted(row)[-2] / max(row) <= config.th_percent:
                reason = ACCEPT_THRESHOLD
            elif cluster.size == idx.size:
                reason = ACCEPT_NO_SPLIT
            elif depth >= config.max_recursion_depth:
                reason = ACCEPT_DEPTH
            elif cluster.size < 2 * n_present[j]:
                reason = ACCEPT_SIZE
            else:
                runs += recurse(cluster, depth + 1)
                continue
            finals.append((cluster, result.centroids[j], majority[j], reason, depth))
        return runs

    runs = recurse(np.arange(x.shape[0]), 0)
    del recurse  # it refers to itself: free the cycle, and the arrays it holds, now
    members, centroids, cluster_labels, acceptance, depths = zip(*finals)
    cluster_of = np.empty(x.shape[0], dtype=np.int64)
    cluster_of[np.concatenate(members)] = np.repeat(np.arange(len(finals)), list(map(len, members)))
    model = ClusterModel(
        centroids=np.ascontiguousarray(np.vstack(centroids)),
        labels=np.array(cluster_labels, dtype=np.int64),
        acceptance=acceptance,
        depths=np.array(depths, dtype=np.int64),
        distance=config.kmeans.distance,
        class_names=tuple(class_names),
        stats=_run_stats(config.th_percent, seed, config.kmeans.distance, runs, acceptance, max(depths)),
        cluster_of=cluster_of,
    )
    model.validate()
    return model


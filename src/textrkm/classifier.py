"""Nearest-centroid classification against a trained cluster model."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import DataError
from .rkmeans import ClusterModel


class Prediction(NamedTuple):
    doc_id: str
    label: int        # predicted class index (the winning cluster's label)
    cluster: int      # winning cluster index
    distance: float   # distance to the winning centroid under the model metric


@dataclass(frozen=True, eq=False)
class Predictions:
    """The predictions of one batch as columns, row i for ``doc_ids[i]``.
    Each pass of an iteration gives one ``Prediction`` of Python scalars per
    row, in order."""

    doc_ids: Sequence[str]
    labels: np.ndarray     # int64
    clusters: np.ndarray   # int64
    distances: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Prediction]:
        return map(Prediction, self.doc_ids, self.labels.tolist(), self.clusters.tolist(),
                   self.distances.tolist())


def classify_batch(
    vectors: np.ndarray,
    model: ClusterModel,
    doc_ids: Sequence[str],
) -> Predictions:
    """Label each vector, the document ``doc_ids`` names at its row, by its
    nearest cluster centroid; ``doc_ids`` is kept, not copied.

    Distances use the metric the model was trained with; ties go to the
    lowest cluster index. Order-preserving, and under either metric each row
    gets what a one-row call would give it, bit for bit. A row that is not
    finite raises DataError.
    """
    x = kernels.as_points(vectors)
    if len(doc_ids) != x.shape[0]:
        raise DataError("doc_ids and vectors length mismatch")
    if model.n_clusters == 0:
        raise DataError("model has no clusters")
    if x.shape[1] != model.dimension:
        raise DataError(
            f"vector dimension {x.shape[1]} != model dimension {model.dimension}"
        )
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise DataError(f"document {doc_ids[bad[0]]!r} has a non-finite vector")
    units = unit_centroids = None
    if model.distance == "cosine":  # both kernels read the rows and centroids at unit length
        units, unit_centroids = kernels.unit_rows(x), kernels.unit_rows(model.centroids)
    scaled = {"units": units, "unit_centroids": unit_centroids}
    assign = kernels.nearest_centroids(x, model.centroids, model.distance, **scaled)
    dist = kernels.assigned_distances(x, model.centroids, assign, model.distance, **scaled)
    if model.distance == "euclidean":
        dist = np.sqrt(dist)
    return Predictions(doc_ids, model.labels[assign], assign, dist)

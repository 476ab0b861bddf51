"""Nearest-centroid classification against a trained cluster model."""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import DataError
from .rkmeans import ClusterModel


class Prediction(NamedTuple):
    doc_id: str
    label: int        # predicted class index (the winning cluster's label)
    cluster: int      # winning cluster index
    distance: float   # distance to the winning centroid under the model metric


def classify_batch(
    vectors: np.ndarray,
    model: ClusterModel,
    doc_ids: Sequence[str],
) -> list[Prediction]:
    """Label each vector, the document ``doc_ids`` names at its row, by its
    nearest cluster centroid.

    Distances use the metric the model was trained with; ties go to the
    lowest cluster index. Order-preserving, and under either metric each row
    gets what a one-row call would give it, bit for bit. A row that is not
    finite raises DataError.
    """
    x = kernels.as_points(vectors)
    if x.shape[0] == 0:
        return []
    if model.n_clusters == 0:
        raise DataError("model has no clusters")
    if x.shape[1] != model.dimension:
        raise DataError(
            f"vector dimension {x.shape[1]} != model dimension {model.dimension}"
        )
    if len(doc_ids) != x.shape[0]:
        raise DataError("doc_ids and vectors length mismatch")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise DataError(f"document {doc_ids[bad[0]]!r} has a non-finite vector")
    units = kernels.unit_rows(x) if model.distance == "cosine" else None
    assign = kernels.nearest_centroids(x, model.centroids, model.distance, units=units)
    dist = kernels.assigned_distances(x, model.centroids, assign, model.distance, units=units)
    if model.distance == "euclidean":
        dist = np.sqrt(dist)
    return list(map(Prediction, doc_ids, model.labels[assign].tolist(), assign.tolist(), dist.tolist()))

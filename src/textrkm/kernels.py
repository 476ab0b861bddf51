"""Hot numeric kernels: nearest-centroid assignment and centroid accumulation.

One numpy implementation per kernel. Assignment ties break by lowest
centroid index. Euclidean kernels return *squared* distances; callers take the
square root where a true distance is reported.

Euclidean assignment works through the points in row blocks so that its
``(rows, centroids, dimension)`` difference tensor stays under
``ASSIGN_BLOCK_BYTES``. Each row's distances are computed on their own, so
the result is the same bit for bit whatever the block size.
"""
from __future__ import annotations

import numpy as np

# Memory budget for one block's difference tensor. Without blocks, 5000
# documents against ~1100 centroids of dimension 20 would take ~900 MB.
ASSIGN_BLOCK_BYTES = 64 * 2**20


def backend() -> str:
    """Name of the kernel implementation recorded in run metadata."""
    return "numpy"


def _squared_distances(x, centroids):
    # a function of its own, so that one block's difference tensor is freed
    # before the next block allocates its own
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def assign_euclidean(x, centroids):
    """Nearest centroid per row under squared euclidean distance.

    Returns ``(assignment, squared_distance)`` arrays of length ``len(x)``.
    """
    n = x.shape[0]
    row_bytes = centroids.shape[0] * centroids.shape[1] * x.itemsize
    rows = max(1, ASSIGN_BLOCK_BYTES // max(1, row_bytes))
    assign = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    for start in range(0, n, rows):
        block = x[start:start + rows]
        d2 = _squared_distances(block, centroids)
        a = d2.argmin(axis=1)
        assign[start:start + rows] = a
        best[start:start + rows] = d2[np.arange(block.shape[0]), a]
    return assign, best


def assign_cosine(x, centroids):
    """Nearest centroid per row under cosine distance (1 - cosine similarity).

    A zero-norm vector on either side yields similarity 0, i.e. distance 1.
    The ``(n, centroids)`` similarity matrix is built in one product: a
    blocked product changes the last bits, because BLAS tiles each block
    size differently.
    """
    xn = np.sqrt((x * x).sum(axis=1))
    cn = np.sqrt((centroids * centroids).sum(axis=1))
    dots = x @ centroids.T
    denom = xn[:, None] * cn[None, :]
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    dist = 1.0 - sims
    assign = dist.argmin(axis=1).astype(np.int64)
    return assign, dist[np.arange(x.shape[0]), assign]


def centroid_sums(x, assign, n_clusters):
    """Per-cluster componentwise sums and member counts.

    Each column is one weighted ``bincount``, which adds the points in row
    order, as a loop over the rows would.
    """
    sums = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    for t in range(x.shape[1]):
        sums[:, t] = np.bincount(assign, weights=x[:, t], minlength=n_clusters)
    counts = np.bincount(assign, minlength=n_clusters).astype(np.int64)
    return sums, counts


METRICS = ("euclidean", "cosine")


def as_points(a):
    """Coerce to a C-contiguous float64 2-D array (what the kernels expect)."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(1, -1)
    if out.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {out.shape}")
    return out


def nearest_centroids(x, centroids, metric):
    """Dispatch to the assignment kernel for the given metric.

    Euclidean distances come back squared; cosine distances come back as
    1 - similarity. Ties always resolve to the lowest centroid index.
    """
    x = as_points(x)
    centroids = as_points(centroids)
    if x.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {x.shape[1]}-d, centroids {centroids.shape[1]}-d"
        )
    if metric == "euclidean":
        return assign_euclidean(x, centroids)
    if metric == "cosine":
        return assign_cosine(x, centroids)
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")

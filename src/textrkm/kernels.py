"""Hot numeric kernels: nearest-centroid assignment, the distance to an
assigned centroid, and centroid accumulation.

One numpy implementation per kernel; cosine assignment runs the euclidean
one on unit vectors. Assignment ties break by lowest centroid index.
Assignment returns the centroid indices only: a Lloyd iteration reads no
distance. ``assigned_distances`` computes each row's exact distance to the
centroid a caller names, for the callers that report or rank by it
(classification, and a Lloyd iteration that leaves a cluster empty).
Euclidean distances come back *squared*; callers take the square root where
a true distance is reported. The kernels require finite inputs: the rounding
bound below assumes them, and model loading rejects non-finite centroids.

Euclidean assignment works through the points in blocks. In each block it
ranks the centroids by one BLAS product, ``|c|^2 - 2 c.x`` (the point's
constant ``|x|^2`` dropped), as a (centroids, points) matrix so that the
minimum and the candidate test run down columns. The candidates are the
centroids whose ranking value lies within a proven rounding bound of the
column minimum. The bound holds for any summation order, with or without
FMA, on any number of threads, so the exact nearest centroid and every
centroid tied with it are always candidates. Usually a point has one
candidate, which is scattered into point order; a point that kept several
takes the argmin of its exact distances to every centroid, as calls with at
most ``DIRECT_PAIRS`` (point, centroid) pairs do for all their points. The
exact distance is the sum of the squared components of the difference
vector ``x - c``, and the product never supplies a compared or returned
value, so the result is the same bit for bit whatever the BLAS does and
whatever the block size: it equals the argmin over the full
``(points, centroids)`` matrix of exact distances. ``assigned_distances``
computes that same exact distance, from one gathered difference per row.
"""
from __future__ import annotations

import numpy as np

# Memory budget for one block of euclidean assignment. Blocks are sized so
# that even when every centroid is a candidate for every row (all centroids
# equal, say) the exact argmin over the block's tied rows stays under it;
# usually a row has one candidate and a block needs a small fraction of it.
ASSIGN_BLOCK_BYTES = 64 * 2**20

# Euclidean calls with at most this many (point, centroid) pairs compute
# every exact distance directly: for them the ranking costs more than it saves.
DIRECT_PAIRS = 256

# Point sets of at least this many rows are worth a column-major copy for
# ``centroid_sums``: one weighted bincount per column then beats one over
# ``cluster * d + column`` keys (248 vs 406 us at 5000 x 20 with 20
# clusters, 64 vs 80 at 1024), while below it the per-column calls cost
# more (51 vs 47 us at 512, 43 vs 11 at 16 rows; 2-vCPU Xeon VM).
COLUMN_SUM_ROWS = 1024

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


def backend() -> str:
    """Name of the kernel implementation recorded in run metadata."""
    return "numpy"


def _candidate_slack(x_norm, max_centroid_norm, d):
    """How far above the row minimum a ranking value may lie and still be
    the exact nearest centroid.

    With u = 2**-53, gamma_n = n u / (1 - n u) and R = |x| + max_j |c_j|,
    rounding in the standard model fl(a op b) = (a op b)(1 + delta) + eta,
    |delta| <= u, where eta (at most half the smallest subnormal) only
    arises when a product or square underflows:

    - the ranking value A_j = fl(fl(|c_j|^2) + fl((-2c_j).x)): scaling by
      -2 is exact, and a dot product summed in any order, with or without
      FMA, is off by at most gamma_d times the sum of the absolute products
      (as long as the BLAS adds up the d products of each entry, as every
      classical matrix product does), which is at most |x||c_j| by
      Cauchy-Schwarz; the final addition adds one more u. So A_j is within
      gamma_{d+1} (|c_j|^2 + 2|x||c_j|) <= gamma_{d+1} R^2 of
      |c_j|^2 - 2 x.c_j, plus 3d underflow terms;
    - the exact distance E_j = sum_k fl(fl(x_k - c_jk)^2), in any order, is
      within gamma_{d+2} |x - c_j|^2 <= gamma_{d+2} R^2 of |x - c_j|^2,
      plus d underflow terms;
    - |x - c_j|^2 - |x|^2 = |c_j|^2 - 2 x.c_j exactly, so
      |A_j - (E_j - |x|^2)| <= B = 2 gamma_{d+3} R^2 + 4d (1 + gamma) eta.

    Let i minimise A and j* minimise E. Then
    A_j* <= E_j* - |x|^2 + B <= E_i - |x|^2 + B <= A_i + 2B, and the same
    holds for every j with E_j = E_j*. So every centroid at the exact
    minimum distance is within 2B of min A. The slack returned is 2B with
    the underflow terms doubled; the rounding of the slack itself (relative
    order d u times a term of order gamma) and of min A + slack (at most
    u (R^2 + slack)) are covered by the bound using gamma_{d+3} where
    gamma_{d+2} would do, which leaves 4 u R^2 spare. Without the absolute
    term, inputs near 1e-160 (squares in the subnormal range) pick the wrong
    centroid. Non-finite values (an overflowing square or product) make the
    threshold NaN or infinite, and then every centroid is a candidate.
    """
    n = d + 3
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    r = x_norm + max_centroid_norm
    return 4.0 * gamma * (r * r) + 8.0 * n * _SMALLEST_SUBNORMAL


def _exact_nearest(x, centroids):
    """Each row's nearest centroid by exact distance, lowest index among
    equals, from the whole ``(rows, centroids, d)`` difference tensor."""
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)


def _assign_block(x, scaled, centroids, centroid_sq, slack):
    # a function of its own, so that one block's temporaries are freed
    # before the next block allocates its own
    n = x.shape[0]
    rank = scaled @ x.T  # (centroids, points): the minimum runs down columns
    rank += centroid_sq[:, None]
    # not (rank > threshold) rather than rank <= threshold: a NaN threshold
    # keeps every centroid of its point
    keep = rank > rank.min(axis=0) + slack
    del rank
    np.logical_not(keep, out=keep)
    cols, rows = np.divmod(np.flatnonzero(keep), n)
    del keep
    assign = np.empty(n, dtype=np.int64)
    # a point with several candidates is written once per candidate, which
    # leaves numpy's choice among them there; the exact argmin replaces it
    assign[rows] = cols
    if rows.size > n:  # some point kept several candidates (each keeps its minimum)
        tied = np.flatnonzero(np.bincount(rows, minlength=n) > 1)
        assign[tied] = _exact_nearest(x[tied], centroids)
    return assign


def _squared_distances(x, centroids, assign):
    """Each row's exact squared euclidean distance to centroid ``assign[i]``."""
    diff = centroids.take(assign, axis=0)
    np.subtract(x, diff, out=diff)
    return np.einsum("ij,ij->i", diff, diff)


def row_norms(x):
    """The rows' euclidean norms, each computed alone. A caller that assigns
    the same points many times computes them once and passes them as ``norms``."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def unit_rows(x):
    """The rows scaled to unit euclidean length; a zero row stays zero."""
    norms = row_norms(x)[:, None]
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def assign_euclidean(x, centroids, *, norms=None):
    """Nearest centroid per row under euclidean distance, as an int64 array
    of length ``len(x)``. ``norms`` is ``row_norms(x)``, computed here when
    absent.
    """
    n, d = x.shape
    m = centroids.shape[0]
    if n * m <= DIRECT_PAIRS:
        return _exact_nearest(x, centroids)
    if norms is None:
        norms = row_norms(x)
    centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
    slack = _candidate_slack(norms, np.sqrt(centroid_sq.max()), d)
    scaled = centroids * -2.0
    # worst case per pair, every row of a block tied: its d differences and
    # distance in ``_exact_nearest`` beside its two candidate index vectors
    pair_bytes = 8 * (2 * d + 4)
    rows = max(1, ASSIGN_BLOCK_BYTES // (m * pair_bytes))
    assign = np.empty(n, dtype=np.int64)
    for start in range(0, n, rows):
        stop = start + rows
        assign[start:stop] = _assign_block(x[start:stop], scaled, centroids, centroid_sq, slack[start:stop])
    return assign


def centroid_sums(x, assign, n_clusters, *, columns=None):
    """Per-cluster componentwise sums and member counts.

    Given ``columns``, the points as a C-contiguous ``(d, n)`` array (see
    ``COLUMN_SUM_ROWS``), the sums are one weighted ``bincount`` per column;
    otherwise one over ``cluster * d + column`` keys. Either way each bin
    adds its values in row order from 0.0, as a loop over the rows would.
    """
    d = x.shape[1]
    counts = np.bincount(assign, minlength=n_clusters).astype(np.int64, copy=False)
    if columns is not None:
        sums = np.empty((n_clusters, d))
        for j, column in enumerate(columns):
            sums[:, j] = np.bincount(assign, weights=column, minlength=n_clusters)
        return sums, counts
    keys = (assign[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(keys, weights=x.ravel(), minlength=n_clusters * d)
    return sums.reshape(n_clusters, d), counts


METRICS = ("euclidean", "cosine")


def as_points(a):
    """Coerce to a C-contiguous float64 2-D array (what the kernels expect)."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(1, -1)
    if out.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {out.shape}")
    return out


def _checked_pair(x, centroids):
    """Both as ``as_points`` arrays of one dimension, or ValueError."""
    x = as_points(x)
    centroids = as_points(centroids)
    if x.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {x.shape[1]}-d, centroids {centroids.shape[1]}-d"
        )
    return x, centroids


def nearest_centroids(x, centroids, metric, *, norms=None, units=None, unit_centroids=None):
    """Nearest centroid per row under ``metric``, by ``assign_euclidean``: an
    int64 array of centroid indices, ties to the lowest index.

    A cosine distance, 1 - similarity, is half the squared distance between
    the rows and centroids scaled to unit length (``units`` is
    ``unit_rows(x)``); a zero row or centroid has similarity 0, so distance
    1. Only a call whose centroids mix zero and nonzero ones computes
    distances: the first zero centroid takes each row farther than 1 from
    every nonzero one. ``norms`` is ``row_norms`` of the rows measured, and
    ``unit_centroids`` is ``unit_rows(centroids)``.
    """
    x, centroids = _checked_pair(x, centroids)
    if metric == "euclidean":
        return assign_euclidean(x, centroids, norms=norms)
    if metric != "cosine":
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    units = unit_rows(x) if units is None else units
    norms = row_norms(units) if norms is None else norms
    lengths = row_norms(centroids)
    live = np.flatnonzero(lengths)
    assign = np.zeros(x.shape[0], dtype=np.int64)
    if live.size:
        live_units = unit_rows(centroids[live]) if unit_centroids is None else unit_centroids[live]
        nearest = assign_euclidean(units, live_units, norms=norms)
        assign = live[nearest]
        if live.size < lengths.size:
            # the first zero centroid is at distance 1 from every row, so it
            # takes each row it is nearer to, or as near to from a lower index
            dist = _squared_distances(units, live_units, nearest) * 0.5
            first = int(lengths.argmin())
            assign[(dist > 1.0) | ((dist == 1.0) & (assign > first))] = first
    # a zero row is at distance 1 from every centroid, so the first takes it
    assign[norms == 0.0] = 0
    return assign


def assigned_distances(x, centroids, assign, metric, *, units=None, unit_centroids=None):
    """Each row's exact distance under ``metric`` to centroid ``assign[i]``:
    the distance ``nearest_centroids`` minimises, bit for bit.

    Euclidean distances come back squared. A cosine distance is half the
    squared distance between the unit row (``units`` is ``unit_rows(x)``)
    and the unit centroid (``unit_centroids`` is ``unit_rows(centroids)``),
    and exactly 1 where either is zero.
    """
    x, centroids = _checked_pair(x, centroids)
    if metric == "euclidean":
        return _squared_distances(x, centroids, assign)
    if metric != "cosine":
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    units = unit_rows(x) if units is None else units
    unit_centroids = unit_rows(centroids) if unit_centroids is None else unit_centroids
    dist = _squared_distances(units, unit_centroids, assign) * 0.5
    dist[~units.any(axis=1) | ~unit_centroids.any(axis=1)[assign]] = 1.0
    return dist

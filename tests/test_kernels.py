import tracemalloc

import numpy as np
import pytest

from textrkm import kernels


def unblocked_euclidean(x, centroids):
    """Reference: the whole ``(n, m, d)`` difference tensor at once."""
    diff = x[:, None, :] - centroids[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    assign = d2.argmin(axis=1).astype(np.int64)
    return assign, d2[np.arange(x.shape[0]), assign]


def add_at_sums(x, assign, n_clusters):
    """Reference: unbuffered scatter-add of each row into its cluster."""
    sums = np.zeros((n_clusters, x.shape[1]), dtype=np.float64)
    np.add.at(sums, assign, x)
    return sums, np.bincount(assign, minlength=n_clusters).astype(np.int64)


def random_instances(seed, count=60):
    """Random shapes, with duplicated centroids, points sitting on a centroid
    and zero vectors mixed in."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 120))
        m = int(rng.integers(1, 30))
        d = int(rng.integers(1, 12))
        x = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
        c = rng.normal(size=(m, d))
        if case % 2:
            c = np.vstack([c, c[: max(1, m // 2)]])
            c[0] = x[0]
        if case % 3 == 0:
            x[rng.integers(n)] = 0.0
            c[rng.integers(len(c))] = 0.0
        if case % 5 == 0:
            x, c = np.round(x), np.round(c)
        yield kernels.as_points(x), kernels.as_points(c)


@pytest.mark.parametrize("budget", [kernels.ASSIGN_BLOCK_BYTES, 1, 2000])
def test_euclidean_is_bit_identical_to_unblocked(monkeypatch, budget):
    # budget 1 gives one row per block; 2000 bytes a few rows per block
    monkeypatch.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
    for x, c in random_instances(seed=0):
        assign, d2 = kernels.nearest_centroids(x, c, "euclidean")
        ref_assign, ref_d2 = unblocked_euclidean(x, c)
        assert assign.dtype == np.int64
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(d2, ref_d2)


def test_centroid_sums_are_bit_identical_to_add_at():
    rng = np.random.default_rng(1)
    for x, c in random_instances(seed=1):
        n_clusters = c.shape[0] + 1  # one cluster left empty
        assign = rng.integers(0, c.shape[0], size=x.shape[0])
        sums, counts = kernels.centroid_sums(x, assign, n_clusters)
        ref_sums, ref_counts = add_at_sums(x, assign, n_clusters)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, ref_counts)
        assert sums.tobytes() == ref_sums.tobytes()  # signed zeros included


def test_euclidean_assignment_memory_is_bounded():
    # the size of classifying 5000 test documents against 1124 clusters;
    # one unblocked difference tensor would take ~900 MB
    rng = np.random.default_rng(2)
    x = rng.random((5000, 20))
    c = rng.random((1124, 20))
    tracemalloc.start()
    try:
        kernels.nearest_centroids(x, c, "euclidean")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kernels.ASSIGN_BLOCK_BYTES + 16 * 2**20


def test_tie_breaks_to_lowest_index():
    x = np.array([[0.5, 0.5]])
    c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # first two identical
    assign, _ = kernels.nearest_centroids(x, c, "euclidean")
    assert assign[0] == 0
    assign, _ = kernels.nearest_centroids(x, c, "cosine")
    assert assign[0] == 0


def test_cosine_zero_vector_distance_one():
    x = np.array([[0.0, 0.0]])
    c = np.array([[1.0, 0.0], [0.0, 2.0]])
    assign, dist = kernels.nearest_centroids(x, c, "cosine")
    assert dist[0] == 1.0
    assert assign[0] == 0  # all-equal distances fall to the first


def test_euclidean_distance_values():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    c = np.array([[3.0, 4.0]])
    _, d2 = kernels.nearest_centroids(x, c, "euclidean")
    assert d2.tolist() == [25.0, 0.0]  # squared distances


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        kernels.nearest_centroids(np.zeros((2, 3)), np.zeros((1, 2)), "euclidean")
    with pytest.raises(ValueError):
        kernels.nearest_centroids(np.zeros((2, 2)), np.zeros((1, 2)), "manhattan")


def test_backend_reports_active_path():
    # run metadata (RunStats.backend) records this name
    assert kernels.backend() == "numpy"

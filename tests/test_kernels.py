import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrkm import kernels

from reference import add_at_sums, cosine_distances, unblocked_euclidean

BUDGETS = [kernels.ASSIGN_BLOCK_BYTES, 1, 2000]  # 1 byte: one row per block
# 0: every call ranks candidates; 10**9: every call takes the direct path
DIRECT_PAIRS = [0, kernels.DIRECT_PAIRS, 10**9]


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


def adversarial_instances(seed, count=200):
    """Inputs on which ranking by |c|^2 - 2 x.c rounds to the wrong order or
    ties: exact ties, 1-ulp near ties, cancellation and subnormal squares."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(2, 40))
        d = int(rng.integers(1, 10))
        kind = case % 5
        if kind == 0:  # integer lattice: many exact ties
            x = rng.integers(-2, 3, size=(n, d)).astype(float)
            c = rng.integers(-2, 3, size=(m, d)).astype(float)
        elif kind == 1:  # points 1 ulp from a centroid, two centroids 1 ulp apart
            c = rng.normal(size=(m, d))
            c[1] = np.nextafter(c[0], np.inf)
            x = c[rng.integers(m, size=n)]
            x = np.nextafter(x, rng.choice([-np.inf, np.inf], size=x.shape))
        elif kind == 2:  # a 1e6 common offset: the ranking cancels ~12 digits
            spread = 10.0 ** rng.uniform(-3, 0)
            x = 1e6 + spread * rng.normal(size=(n, d))
            c = 1e6 + spread * rng.normal(size=(m, d))
        elif kind == 3:  # near 1e-160: every square is subnormal
            x = 1e-160 * rng.normal(size=(n, d))
            c = 1e-160 * rng.normal(size=(m, d))
        else:  # all centroids equal but one, nudged by 1 ulp
            c = np.repeat(rng.normal(size=(1, d)), m, axis=0)
            j, k = rng.integers(m), rng.integers(d)
            c[j, k] = np.nextafter(c[j, k], rng.choice([-np.inf, np.inf]))
            x = np.vstack([c[:1], rng.normal(size=(n, d))])
        yield kernels.as_points(x), kernels.as_points(c)
    # a large block where most points have several candidates: lattice
    # points against lattice centroids, each centroid listed three times
    x = rng.integers(-2, 3, size=(1500, 3)).astype(float)
    c = np.repeat(rng.integers(-2, 3, size=(12, 3)).astype(float), 3, axis=0)
    yield kernels.as_points(x), kernels.as_points(c)


def assert_matches_unblocked(x, c):
    """The assignment through the direct path and through the candidate path
    alike, and the distance to the assigned centroid."""
    ref_assign, ref_d2 = unblocked_euclidean(x, c)
    for direct_pairs in DIRECT_PAIRS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "DIRECT_PAIRS", direct_pairs)
            assign = kernels.nearest_centroids(x, c, "euclidean")
            d2 = kernels.assigned_distances(x, c, assign, "euclidean")
        assert assign.dtype == np.int64
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))


@pytest.mark.parametrize("budget", BUDGETS)
def test_euclidean_is_bit_identical_to_unblocked(monkeypatch, budget):
    monkeypatch.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
    for x, c in random_instances(seed=0):
        assert_matches_unblocked(x, c)


@pytest.mark.parametrize("budget", BUDGETS)
def test_euclidean_is_bit_identical_on_adversarial_inputs(monkeypatch, budget):
    monkeypatch.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
    misranked = 0
    for x, c in adversarial_instances(seed=3):
        assert_matches_unblocked(x, c)
        rank = (c * c).sum(axis=1) - 2.0 * (x @ c.T)
        misranked += int(np.sum(rank.argmin(axis=1) != unblocked_euclidean(x, c)[0]))
    # the inputs do reach the exact re-check: ranking alone gets rows wrong
    assert misranked > 100


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 25), st.integers(1, 25), st.integers(0, 6)),
    scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e6, 1e100, 1e160]),
    offset=st.sampled_from([0.0, 1.0, 1e6]),
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_euclidean_matches_unblocked_on_random_shapes_and_scales(
    budget, shape, scale, offset, lattice, seed
):
    n, m, d = shape
    rng = np.random.default_rng(seed)
    draw = (lambda size: rng.integers(-2, 3, size=size)) if lattice else rng.normal
    x = offset + scale * draw(size=(n, d))
    c = offset + scale * draw(size=(m, d))
    # scale 1e160 overflows the squares to inf; the result must still match
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
        assert_matches_unblocked(kernels.as_points(x), kernels.as_points(c))


def sums_cases(seed):
    """``(x, assign, n_clusters)`` with -0.0 entries mixed in and one cluster
    left empty, then a cluster whose members are all -0.0 in a column."""
    rng = np.random.default_rng(seed)
    for x, c in random_instances(seed=seed):
        x[rng.random(x.shape) < 0.3] = -0.0
        yield x, rng.integers(0, c.shape[0], size=x.shape[0]), c.shape[0] + 1
    yield np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]]), np.array([0, 0, 1]), 2


def test_centroid_sums_are_bit_identical_to_add_at():
    for x, assign, n_clusters in sums_cases(seed=1):
        ref_sums, ref_counts = add_at_sums(x, assign, n_clusters)
        # keyed sums, and sums by column from the column-major copy
        for columns in (None, np.ascontiguousarray(x.T)):
            sums, counts = kernels.centroid_sums(x, assign, n_clusters, columns=columns)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, ref_counts)
            assert sums.tobytes() == ref_sums.tobytes()  # signed zeros included


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_euclidean_assignment_memory_is_bounded():
    # the size of classifying 5000 test documents against 1124 clusters;
    # the (n, m) product takes 45 MB, a (rows, m, d) difference tensor per
    # block 64 MiB and one unblocked tensor ~900 MB
    n, m, d = 5000, 1124, 20
    rng = np.random.default_rng(2)
    x = rng.random((n, d))
    c = rng.random((m, d))
    peak = traced_peak(kernels.nearest_centroids, x, c, "euclidean")
    # a block has rows = budget // (m * 8 * (2d + 4)) rows; with one
    # candidate per row it holds little beyond its (rows, m) ranking matrix
    rank_bytes = kernels.ASSIGN_BLOCK_BYTES // (2 * d + 4)
    assert peak < 2 * rank_bytes + 2**20


def test_euclidean_assignment_memory_is_bounded_when_all_centroids_tie():
    # 1124 equal centroids: every centroid is a candidate for every row
    rng = np.random.default_rng(2)
    x = rng.random((1000, 20))
    c = np.repeat(rng.random((1, 20)), 1124, axis=0)
    peak = traced_peak(kernels.nearest_centroids, x, c, "euclidean")
    assert peak < kernels.ASSIGN_BLOCK_BYTES + 2**20


# documents sitting exactly midway between two centroids, and the lower index
TIED = {10: 4, 2000: 4, 4999: 4, 7: 2, 3333: 2}


def few_tied_block():
    """5000 documents against 20 centroids in one block. The centroids lie
    on a grid of spacing 4 but for two pairs one unit apart, (4, 11) and
    (17, 2); the documents in ``TIED`` sit midway between a pair, and every
    coordinate is dyadic, so both distances are the same double. Every other
    document lies near one centroid and keeps it as its one candidate."""
    rng = np.random.default_rng(5)
    n, m, d = 5000, 20, 20
    c = 4.0 * rng.integers(-4, 5, size=(m, d))
    c[11] = c[4]
    c[11, 0] += 1.0
    c[2] = c[17]
    c[2, 1] -= 1.0
    x = c[rng.integers(m, size=n)] + 0.25 * rng.normal(size=(n, d))
    partner = {4: 11, 2: 17}
    for doc, low in TIED.items():
        x[doc] = (c[low] + c[partner[low]]) / 2
    return kernels.as_points(x), kernels.as_points(c)


@pytest.mark.parametrize("budget", BUDGETS)
def test_euclidean_resolves_the_few_tied_documents_of_a_block(monkeypatch, budget):
    x, c = few_tied_block()
    diff = x[:, None, :] - c[None, :, :]
    nearest_two = np.sort(np.einsum("ijk,ijk->ij", diff, diff), axis=1)[:, :2]
    assert np.flatnonzero(nearest_two[:, 0] == nearest_two[:, 1]).tolist() == sorted(TIED)
    monkeypatch.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
    assert_matches_unblocked(x, c)
    assign = kernels.nearest_centroids(x, c, "euclidean")
    assert {doc: int(assign[doc]) for doc in TIED} == TIED


def test_euclidean_assignment_memory_of_a_few_tied_documents_is_theirs():
    # only the tied documents are measured against every centroid; the
    # others' single candidates are scattered without a gather
    x, c = few_tied_block()
    (n, d), m = x.shape, c.shape[0]
    rank_bytes, keep_bytes = 8 * m * n, m * n
    per_point_bytes = 8 * 8 * n  # norms, slack, the assignment, index vectors
    tied_bytes = 4 * 8 * len(TIED) * m * d
    peak = traced_peak(kernels.nearest_centroids, x, c, "euclidean")
    assert peak < rank_bytes + keep_bytes + per_point_bytes + tied_bytes


@pytest.mark.parametrize("budget", BUDGETS)
def test_euclidean_with_all_centroids_equal_takes_the_first(monkeypatch, budget):
    # every point ties with every centroid
    rng = np.random.default_rng(4)
    c = np.repeat(rng.normal(size=(1, 6)), 20, axis=0)
    x = np.vstack([c[:1], rng.normal(size=(300, 6))])
    monkeypatch.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
    assert_matches_unblocked(x, c)
    assert not kernels.nearest_centroids(x, c, "euclidean").any()


def test_tie_breaks_to_lowest_index():
    x = np.array([[0.5, 0.5]])
    c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # first two identical
    assert kernels.nearest_centroids(x, c, "euclidean")[0] == 0
    assert kernels.nearest_centroids(x, c, "cosine")[0] == 0


def test_cosine_zero_vector_distance_one():
    x = np.array([[0.0, 0.0]])
    c = np.array([[1.0, 0.0], [0.0, 2.0]])
    assign = kernels.nearest_centroids(x, c, "cosine")
    assert assign[0] == 0  # all-equal distances fall to the first
    assert kernels.assigned_distances(x, c, assign, "cosine")[0] == 1.0


@pytest.mark.parametrize("budget", BUDGETS)
def test_cosine_is_one_minus_similarity_up_to_rounding(monkeypatch, budget):
    # half the squared distance of unit vectors: each distance within a few
    # eps of 1 - similarity, and the centroid taken within a few eps of the
    # nearest one; a zero row is at distance exactly 1 and takes centroid 0
    monkeypatch.setattr(kernels, "ASSIGN_BLOCK_BYTES", budget)
    eps = np.finfo(np.float64).eps
    for x, c in random_instances(seed=4):
        ref = cosine_distances(x, c)
        assign = kernels.nearest_centroids(x, c, "cosine")
        dist = kernels.assigned_distances(x, c, assign, "cosine")
        taken = ref[np.arange(len(x)), assign]
        assert np.all(np.abs(dist - taken) <= 4 * eps)
        assert np.all(taken <= ref.min(axis=1) + 8 * eps)
        zero = ~x.any(axis=1)
        assert np.all(dist[zero] == 1.0) and np.all(assign[zero] == 0)


def test_assigned_distances_to_any_centroid_match_the_full_matrices():
    # the distance to a centroid that need not be the nearest: euclidean bit
    # for bit the full tensor's, cosine within a few eps of 1 - similarity
    # and exactly 1 for every zero row and every zero centroid (the cases
    # put one of each in every third instance)
    rng = np.random.default_rng(7)
    eps = np.finfo(np.float64).eps
    zero_rows = zero_centroids = 0
    for x, c in random_instances(seed=5):
        assign = rng.integers(0, len(c), size=len(x))
        rows = np.arange(len(x))
        diff = x[:, None, :] - c[None, :, :]
        ref_d2 = np.einsum("ijk,ijk->ij", diff, diff)[rows, assign]
        d2 = kernels.assigned_distances(x, c, assign, "euclidean")
        assert d2.tobytes() == ref_d2.tobytes()
        dist = kernels.assigned_distances(x, c, assign, "cosine")
        assert np.all(np.abs(dist - cosine_distances(x, c)[rows, assign]) <= 4 * eps)
        zero = ~x.any(axis=1) | ~c.any(axis=1)[assign]
        assert np.all(dist[zero] == 1.0)
        zero_rows += int((~x.any(axis=1)).sum())
        zero_centroids += int((~c.any(axis=1)[assign]).sum())
    assert zero_rows and zero_centroids


def test_cosine_rows_equal_one_row_calls():
    # no BLAS product supplies a distance, so how many rows one call holds
    # changes no bit (the one-row calls take the direct path, the 3000-row
    # call ranks)
    rng = np.random.default_rng(0)
    x, c = rng.random((3000, 20)), rng.random((50, 20))
    assign = kernels.nearest_centroids(x, c, "cosine")
    dist = kernels.assigned_distances(x, c, assign, "cosine")
    for i in range(len(x)):
        one_assign = kernels.nearest_centroids(x[i:i + 1], c, "cosine")
        one_dist = kernels.assigned_distances(x[i:i + 1], c, one_assign, "cosine")
        assert one_assign[0] == assign[i]
        assert one_dist.tobytes() == dist[i:i + 1].tobytes()


def test_cosine_zero_centroid_is_at_distance_one_and_loses_ties_to_lower_indices():
    c = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    x = np.array([[2.0, 0.0], [-1.0, 0.0], [0.0, -3.0], [-1.0, -1.0], [0.0, 0.0]])
    assign = kernels.nearest_centroids(x, c, "cosine")
    dist = kernels.assigned_distances(x, c, assign, "cosine")
    # [-1, 0] is at 1 from centroids 0, 1 and 3; [0, -3] at 1 from centroids
    # 1-3 and at 2 from centroid 0; [-1, -1] farther than 1 from both
    # nonzero centroids; [0, 0] at 1 from every centroid
    assert assign.tolist() == [2, 0, 1, 1, 0]
    assert dist.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
    for i in range(len(x)):
        one_assign = kernels.nearest_centroids(x[i], c, "cosine")
        one_dist = kernels.assigned_distances(x[i], c, one_assign, "cosine")
        assert (one_assign[0], one_dist[0]) == (assign[i], dist[i])
    zeros = np.zeros((3, 2))
    assign = kernels.nearest_centroids(x, zeros, "cosine")
    assert assign.tolist() == [0] * 5
    assert kernels.assigned_distances(x, zeros, assign, "cosine").tolist() == [1.0] * 5


def test_euclidean_distance_values():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    c = np.array([[3.0, 4.0]])
    d2 = kernels.assigned_distances(x, c, kernels.nearest_centroids(x, c, "euclidean"), "euclidean")
    assert d2.tolist() == [25.0, 0.0]  # squared distances


def test_dimension_mismatch_raises():
    assign = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.nearest_centroids(np.zeros((2, 3)), np.zeros((1, 2)), "euclidean")
    with pytest.raises(ValueError):
        kernels.nearest_centroids(np.zeros((2, 2)), np.zeros((1, 2)), "manhattan")
    with pytest.raises(ValueError):
        kernels.assigned_distances(np.zeros((2, 3)), np.zeros((1, 2)), assign, "euclidean")
    with pytest.raises(ValueError):
        kernels.assigned_distances(np.zeros((2, 2)), np.zeros((1, 2)), assign, "manhattan")


def test_backend_reports_active_path():
    # `textrkm train` reports this name in its status line
    assert kernels.backend() == "numpy"

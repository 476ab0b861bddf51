import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrkm import kernels
from textrkm.cli import load_bundle, save_bundle
from textrkm.corpus import TokenizerConfig
from textrkm.errors import DataError
from textrkm.representation import weights_from_counts
from textrkm.rkmeans import (
    ACCEPT_NO_SPLIT,
    ACCEPT_ORPHAN,
    ACCEPT_PURE,
    ACCEPT_SIZE,
    ACCEPT_THRESHOLD,
    CENTROID_SHIFT_TOLERANCE,
    FALLBACK_REASONS,
    KMeansConfig,
    RecursiveConfig,
    build_model,
    choose_initial_seeds,
    kmeans,
    pool_labels,
)

from reference import (
    cluster_class_stats, lloyd_objectives, lloyd_reference, majority_label, relative_percentage,
)
from synthdata import make_point_cloud


def brute_force_best_two_partition(points):
    """Exhaustively enumerate all 2-partitions; return the minimum SSE."""
    n = len(points)
    best = float("inf")
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in side A to halve the count
        side = [(mask >> i) & 1 for i in range(n)]
        sse = 0.0
        for s in (0, 1):
            members = [points[i] for i in range(n) if side[i] == s]
            if not members:
                continue
            mean = [sum(col) / len(members) for col in zip(*members)]
            sse += sum(
                sum((v - m) ** 2 for v, m in zip(p, mean)) for p in members
            )
        best = min(best, sse)
    return best


def partition_sse(points, assignments):
    sse = 0.0
    for j in set(assignments):
        members = [p for p, a in zip(points, assignments) if a == j]
        mean = [sum(col) / len(members) for col in zip(*members)]
        sse += sum(sum((v - m) ** 2 for v, m in zip(p, mean)) for p in members)
    return sse


def test_kmeans_separable_one_dimensional():
    x = np.array([[0.0], [0.1], [0.9], [1.0]])
    seeds = np.array([[0.0], [1.0]])
    res = kmeans(x, seeds, KMeansConfig())
    assert res.assignments.tolist() == [0, 0, 1, 1]
    assert res.centroids.tolist() == [[0.05], [0.95]]


def test_kmeans_single_seed_gives_global_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    res = kmeans(x, x[:1], KMeansConfig())
    assert res.centroids.shape == (1, 2)
    assert np.allclose(res.centroids[0], x.mean(axis=0), atol=0, rtol=0)
    assert set(res.assignments.tolist()) == {0}


def test_kmeans_against_exhaustive_two_partition_oracle():
    rng = np.random.default_rng(0)
    iterated = improved = 0
    for _ in range(30):
        n = int(rng.integers(3, 9))
        pts = rng.normal(size=(n, 1))
        seeds = pts[rng.choice(n, size=2, replace=False)]
        res = kmeans(pts, seeds, KMeansConfig())
        history = lloyd_objectives(pts, seeds)
        # monotone non-increasing objective across Lloyd iterations
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))
        iterated += len(history) >= 2
        improved += history[-1] < history[0]
        final = partition_sse(pts.tolist(), res.assignments.tolist())
        initial_assign, _ = _nearest_seed_assignment(pts, seeds)
        initial = partition_sse(pts.tolist(), initial_assign)
        best = brute_force_best_two_partition(pts.tolist())
        assert best - 1e-9 <= final <= initial + 1e-9
    # the monotonicity check compares iterations, and some of them move points
    assert iterated >= 25 and improved >= 5


def _nearest_seed_assignment(pts, seeds):
    assign = []
    dists = []
    for p in pts:
        best, best_d = 0, float("inf")
        for j, s in enumerate(seeds):
            d = float(((p - s) ** 2).sum())
            if d < best_d:
                best, best_d = j, d
        assign.append(best)
        dists.append(best_d)
    return assign, dists


def test_kmeans_empty_cluster_policies():
    # three identical points with two distinct seeds: second cluster empties
    x = np.array([[1.0], [1.0], [1.0]])
    seeds = np.array([[1.0], [5.0]])
    res = kmeans(x, seeds, KMeansConfig())
    assert res.centroids.shape[0] == 1  # still-empty cluster dropped at output
    assert res.assignments.tolist() == [0, 0, 0]


def test_kmeans_reseed_recovers_split():
    # far outlier: reseeding the emptied cluster onto it splits the set
    x = np.array([[0.0], [0.1], [0.2], [10.0]])
    seeds = np.array([[0.1], [0.1]])
    res = kmeans(x, seeds, KMeansConfig())
    assert res.centroids.shape[0] == 2
    assert res.assignments.tolist() == [0, 0, 0, 1]


def test_kmeans_more_seeds_than_points():
    x = np.array([[0.0], [1.0]])
    seeds = np.array([[0.0], [1.0], [2.0], [3.0]])
    res = kmeans(x, seeds, KMeansConfig())
    assert res.centroids.shape[0] == 2
    assert sorted(res.assignments.tolist()) == [0, 1]


def test_kmeans_input_validation():
    with pytest.raises(DataError):
        kmeans(np.zeros((0, 2)), np.zeros((1, 2)), KMeansConfig())
    with pytest.raises(DataError):
        kmeans(np.zeros((3, 2)), np.zeros((1, 3)), KMeansConfig())


def test_kmeans_config_validation():
    with pytest.raises(DataError):
        KMeansConfig(distance="chebyshev")
    with pytest.raises(DataError):
        KMeansConfig(max_iterations=0)


def lloyd_cases():
    """``(points, seeds, max_iterations)``: converging runs, runs that reseed
    an empty cluster, runs that end where reseeding repeats itself, and runs
    cut off at ``max_iterations``."""
    x, _, _ = make_point_cloud(n_classes=5, points_per_class=60, dim=6, sigma=3.0, seed=4)
    rng = np.random.default_rng(5)
    for k in (1, 3, 5, 9):
        yield x, x[rng.choice(len(x), k, replace=False)], 100
    for cap in (1, 2, 3):
        yield x, x[:4], cap
    # two equal seeds: the second cluster empties and is reseeded, and a run
    # cut off on that pass ends with it empty
    yield x, np.vstack([x[:3], x[:1]]), 100
    yield x, np.vstack([x[:3], x[:1]]), 1
    # under cosine the zero point is the farthest from every centroid: the
    # spare cluster is reseeded on it on every pass, a fixed point by the second
    yield np.array([[0.0], [0.1], [0.2], [10.0]]), np.array([[0.1], [0.1]]), 100
    # every point equal: the spare cluster is reseeded on the same point on
    # every pass, and the second pass, a fixed point, ends the run with it empty
    yield np.ones((3, 2)), np.array([[1.0, 1.0], [5.0, 5.0]]), 7
    # more seeds than points: the leftover empty clusters stay empty, and the
    # second pass repeats the first
    yield np.array([[0.0], [1.0]]), np.array([[0.0], [1.0], [2.0], [3.0]]), 100
    # lattice points: exact ties between centroids on every pass
    lattice = rng.integers(-2, 3, size=(400, 3)).astype(float)
    yield lattice, lattice[:6], 100
    # COLUMN_SUM_ROWS rows or more, summed column by column: two equal seeds
    # empty the last cluster on the first pass, and a run cut off early
    big, _, _ = make_point_cloud(n_classes=4, points_per_class=kernels.COLUMN_SUM_ROWS // 4 + 8,
                                 dim=5, sigma=2.0, seed=6)
    yield big, np.vstack([big[:3], big[:1]]), 100
    yield big, big[:5], 2


def test_kmeans_is_bit_identical_to_the_reference_lloyd_loop():
    capped = reseeded = by_column = 0
    for x, seeds, cap in lloyd_cases():
        config = KMeansConfig(max_iterations=cap)
        res = kmeans(x, seeds, config)
        assign, centroids, counts, n_iter = lloyd_reference(x, seeds, cap, CENTROID_SHIFT_TOLERANCE)
        assert np.array_equal(res.assignments, assign)
        assert res.centroids.tobytes() == centroids.tobytes()
        assert np.array_equal(res.counts, counts)
        assert res.n_iter == n_iter
        capped += n_iter == cap
        reseeded += len(counts) < len(seeds)
        by_column += len(x) >= kernels.COLUMN_SUM_ROWS
    assert capped >= 5 and reseeded >= 2 and by_column == 2


def test_kmeans_ends_where_reseeding_repeats_itself():
    # each pass reseeds an empty cluster on the same point: the run ends once
    # a pass gives back the centroids it started from, not at max_iterations
    cases = [
        (np.array([[0.0], [0.1], [0.2], [10.0]]), np.array([[0.1], [0.1]]), ("cosine",)),
        (np.ones((6, 2)), np.ones((2, 2)), kernels.METRICS),
        (np.array([[0.0], [1.0]]), np.array([[0.0], [1.0], [2.0], [3.0]]), kernels.METRICS),
    ]
    for x, seeds, metrics in cases:
        for distance in metrics:
            assert kmeans(x, seeds, KMeansConfig(distance)).n_iter <= 2


def test_kmeans_calls_each_kernel_once_per_iteration(monkeypatch):
    # the benchmark's tracer rebinds these two names and reads (x, centroids,
    # metric) and (x, assign, n_clusters) from these positions; the keywords
    # carry what the run computes once: under cosine the unit points, the
    # norms of the points the kernel measures and, for a large run, the
    # points' column-major copy
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, args, kwargs, out))
            return out
        return wrapper

    monkeypatch.setattr(kernels, "nearest_centroids", counting("assign", kernels.nearest_centroids))
    monkeypatch.setattr(kernels, "centroid_sums", counting("sums", kernels.centroid_sums))
    for distance in kernels.METRICS:
        for x, seeds, cap in lloyd_cases():
            calls.clear()
            res = kmeans(x, seeds, KMeansConfig(distance=distance, max_iterations=cap))
            assert [c[0] for c in calls] == ["assign", "sums"] * res.n_iter
            units, norms = calls[0][2]["units"], calls[0][2]["norms"]
            columns = calls[1][2]["columns"]
            if distance == "euclidean":
                assert units is None
            else:
                assert units.tobytes() == kernels.unit_rows(x).tobytes()
            # the euclidean kernel reads norms only when it ranks
            if distance == "euclidean" and len(x) * len(seeds) <= kernels.DIRECT_PAIRS:
                assert norms is None
            else:
                measured = x if units is None else units
                assert norms.tobytes() == kernels.row_norms(measured).tobytes()
            if len(x) >= kernels.COLUMN_SUM_ROWS:
                assert columns.flags.c_contiguous and np.array_equal(columns, x.T)
            else:
                assert columns is None
            for (_, a_args, a_kw, assign), (_, s_args, s_kw, _) in zip(calls[::2], calls[1::2]):
                assert a_kw.keys() == {"norms", "units"}
                assert a_kw["norms"] is norms and a_kw["units"] is units
                assert s_kw.keys() == {"columns"} and s_kw["columns"] is columns
                xa, centroids, metric = a_args
                xs, assigned, n_clusters = s_args
                assert xa.shape == xs.shape == x.shape
                assert np.array_equal(xa, x) and np.array_equal(xs, x)
                assert centroids.shape == seeds.shape and metric == distance
                assert assigned is assign and n_clusters == len(seeds)


def test_kmeans_measures_distances_only_where_it_reads_them(monkeypatch):
    # every exact distance the kernels compute outside the ranking comes
    # from _squared_distances. A Lloyd iteration measures once, after its
    # sums, when it leaves a cluster empty and must find the farthest
    # points; a cosine assignment measures once when its centroids mix zero
    # and nonzero ones, so that the first zero centroid can take the rows
    # farther than distance 1 from every other. Nothing else measures.
    events = []

    def assign(x, centroids, metric, **kwargs):
        zero = kernels.row_norms(centroids) == 0.0
        events.append("mixed" if metric == "cosine" and 0 < zero.sum() < zero.size else "assign")
        return nearest_centroids(x, centroids, metric, **kwargs)

    def sums(*args, **kwargs):
        out = centroid_sums(*args, **kwargs)
        events.append("full" if out[1].all() else "emptied")
        return out

    def distances(*args):
        events.append("measured")
        return squared_distances(*args)

    nearest_centroids, centroid_sums = kernels.nearest_centroids, kernels.centroid_sums
    squared_distances = kernels._squared_distances
    monkeypatch.setattr(kernels, "nearest_centroids", assign)
    monkeypatch.setattr(kernels, "centroid_sums", sums)
    monkeypatch.setattr(kernels, "_squared_distances", distances)
    clean = reseeding = mixed = 0
    for distance in kernels.METRICS:
        for x, seeds, cap in lloyd_cases():
            events.clear()
            res = kmeans(x, seeds, KMeansConfig(distance=distance, max_iterations=cap))
            steps = [e for e in events if e != "measured"]
            assert len(steps) == 2 * res.n_iter
            assert events == [m for e in steps for m in (e, "measured")[: 1 + (e in ("mixed", "emptied"))]]
            clean += "measured" not in events
            reseeding += "emptied" in steps
            mixed += "mixed" in steps
    assert clean >= 2 * 8 and reseeding >= 2 * 2 and mixed >= 1


def test_choose_initial_seeds_forced_choice():
    x = np.array([[0.0, 1.0], [5.0, 5.0], [1.0, 0.0]])
    labels = np.array([0, -1, 1])
    seeds = choose_initial_seeds(x, labels, np.random.default_rng(123))
    assert seeds.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_choose_initial_seeds_one_per_present_class():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 2))
    labels = np.array([0, 1, 2] * 5 + [-1] * 15)
    seeds = choose_initial_seeds(x, labels, np.random.default_rng(7))
    classes = np.unique(labels[labels >= 0])
    assert seeds.shape == (len(classes), 2)
    for row, c in enumerate(classes):
        members = x[labels == c]
        assert any(np.array_equal(seeds[row], m) for m in members)


def test_choose_initial_seeds_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    labels = np.array([0] * 10 + [1] * 10)
    s1 = choose_initial_seeds(x, labels, np.random.default_rng(99))
    s2 = choose_initial_seeds(x, labels, np.random.default_rng(99))
    assert np.array_equal(s1, s2)


def test_choose_initial_seeds_requires_labels():
    with pytest.raises(DataError):
        choose_initial_seeds(np.zeros((3, 1)), np.array([-1, -1, -1]), np.random.default_rng(0))


def test_cluster_class_stats_examples():
    ncp, lsp = cluster_class_stats(np.array([0, 0, 1, -1]), 2)
    assert ncp == 2 and lsp.tolist() == [2, 1]
    ncp, lsp = cluster_class_stats(np.array([-1, -1]), 2)
    assert ncp == 0 and lsp.tolist() == [0, 0]
    ncp, lsp = cluster_class_stats(np.array([0]), 2)
    assert ncp == 1 and lsp.tolist() == [1, 0]


def test_majority_label_and_ties():
    assert majority_label(np.array([5, 2])) == 0
    assert majority_label(np.array([3, 3])) == 0  # tie -> lowest index
    assert majority_label(np.array([0, 1])) == 1
    with pytest.raises(DataError):
        majority_label(np.array([0, 0]))


def test_relative_percentage_examples():
    assert relative_percentage(np.array([10, 1]), 0, 1) == 10.0
    assert relative_percentage(np.array([4, 4]), 0, 1) == 100.0
    assert relative_percentage(np.array([7, 0]), 0, 1) == 0.0  # absent class
    with pytest.raises(DataError):
        relative_percentage(np.array([0, 1]), 0, 1)


def one_dimensional_mixed_instance():
    x = np.array([[0.0], [0.1], [0.9], [1.0], [0.05], [0.95]])
    labels = np.array([0, 0, 1, 1, -1, -1])
    ids = ["a1", "a2", "b1", "b2", "u1", "u2"]
    return x, labels, ids


def test_recursive_matches_partition_oracle_one_dimensional():
    x, labels, ids = one_dimensional_mixed_instance()
    model = build_model(x, labels, ("a", "b"), RecursiveConfig(th_percent=5.0), 0)
    assert model.n_clusters == 2
    by_label = {
        label: sorted(ids[i] for i in np.flatnonzero(model.cluster_of == j))
        for j, label in enumerate(model.labels.tolist())
    }
    assert by_label[0] == ["a1", "a2", "u1"]
    assert by_label[1] == ["b1", "b2", "u2"]
    # oracle: the exhaustive minimum-SSE 2-partition separates the same sets
    best = brute_force_best_two_partition(x.tolist())
    got = partition_sse(
        x.tolist(), [0 if i in (0, 1, 4) else 1 for i in range(6)]
    )
    assert abs(best - got) <= 1e-12


def test_recursive_single_class_no_recursion():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 2))
    labels = np.array([0] * 4 + [-1] * 8)
    model = build_model(x, labels, ("a",), RecursiveConfig(), 0)
    assert model.n_clusters == 1
    assert model.labels.tolist() == [0]
    assert model.acceptance == (ACCEPT_PURE,)
    assert model.stats.recursion_calls == 0


def test_minority_below_threshold_absorbed_as_outliers():
    # co-located points cannot be split; minority at 2% of majority <= Th=5
    x = np.zeros((102, 1))
    labels = np.array([0] * 100 + [1] * 2)
    model = build_model(x, labels, ("a", "b"), RecursiveConfig(th_percent=5.0), 0)
    assert model.n_clusters == 1
    assert model.labels.tolist() == [0]
    assert model.acceptance == (ACCEPT_THRESHOLD,)
    assert model.stats.recursion_calls == 0
    assert model.stats.fallback_total == 0


def test_unsplittable_mixed_cluster_falls_back_to_majority():
    # equal co-located classes sit far above any threshold but cannot split
    x = np.zeros((8, 1))
    labels = np.array([0, 0, 0, 1, 1, -1, -1, -1])
    model = build_model(x, labels, ("a", "b"), RecursiveConfig(th_percent=5.0), 0)
    assert model.n_clusters == 1
    assert model.labels.tolist() == [0]  # majority
    assert model.acceptance == (ACCEPT_NO_SPLIT,)
    assert model.stats.fallback_total == 1


def test_depth_limit_fallback_still_returns_model():
    # interleaved classes that k-means keeps failing to separate
    x = np.linspace(0.0, 1.0, 16).reshape(-1, 1)
    labels = np.array([0, 1] * 8)
    config = RecursiveConfig(th_percent=5.0, max_recursion_depth=1)
    model = build_model(x, labels, ("a", "b"), config, 0)
    assert model.stats.max_depth_reached <= 1
    # every point is in one cluster, and every cluster holds a point
    assert model.cluster_of.shape == (16,)
    assert sorted(set(model.cluster_of.tolist())) == list(range(model.n_clusters))
    for reason in model.acceptance:
        assert reason in (ACCEPT_PURE, ACCEPT_THRESHOLD) + FALLBACK_REASONS


def test_orphan_cluster_labeled_by_nearest_sibling():
    # classes 0 and 2 seed at the same point, so the class-2 seed's cluster
    # empties and is reseeded on the unlabeled points: an orphan at
    # ``point``, beside the labeled siblings 0 at (1, 0) and 1 at (0, 1).
    # (1, 1) is equally near both under either metric.
    for distance in kernels.METRICS:
        for point, label in (((1.0, 2.0), 1), ((2.0, 1.0), 0), ((1.0, 1.0), 0)):
            x = np.array([[1.0, 0.0]] * 30 + [[0.0, 1.0]] * 30 + [[1.0, 0.0], point, point])
            labels = np.array([0] * 30 + [1] * 30 + [2, -1, -1])
            config = RecursiveConfig(kmeans=KMeansConfig(distance=distance))
            model = build_model(x, labels, ("a", "b", "c"), config, 0)
            assert list(zip(model.labels.tolist(), model.acceptance)) == [
                (0, ACCEPT_THRESHOLD), (1, ACCEPT_PURE), (label, ACCEPT_ORPHAN)
            ], (distance, point)
            assert np.flatnonzero(model.cluster_of == 2).tolist() == [61, 62]
            assert model.stats.orphan_count == 1


def test_build_model_pure_clusters_on_separated_classes():
    x, truth, _ = make_point_cloud(n_classes=4, points_per_class=30, dim=4, seed=4)
    labels = truth.copy()
    rng = np.random.default_rng(5)
    unlabeled = rng.random(len(labels)) < 0.8
    labels[unlabeled] = -1
    # keep at least one labeled per class
    for c in range(4):
        if not ((labels == c).any()):
            labels[np.flatnonzero(truth == c)[0]] = c
    ids = [f"p{i}" for i in range(len(labels))]
    model = build_model(x, labels, ("a", "b", "c", "d"), RecursiveConfig(), 0)
    assert model.n_clusters >= 4
    # purity recount oracle: every cluster's members share one true class
    for j, label in enumerate(model.labels.tolist()):
        true_members = set(truth[model.cluster_of == j].tolist())
        assert true_members == {label}
    # label totality for unlabeled points
    assert set(pool_labels(model.labels, model.cluster_of, ids, labels >= 0)) == {
        ids[i] for i in range(len(labels)) if labels[i] == -1
    }


def test_build_model_partition_and_centroid_invariants():
    rng = np.random.default_rng(6)
    for trial in range(10):
        x, truth, _ = make_point_cloud(
            n_classes=3, points_per_class=15, dim=3, center_scale=2.0, seed=trial
        )
        labels = truth.copy()
        mask = rng.random(len(labels)) < 0.7
        labels[mask] = -1
        for c in range(3):
            if not (labels == c).any():
                labels[np.flatnonzero(truth == c)[0]] = c
        model = build_model(x, labels, ("a", "b", "c"), RecursiveConfig(), 0)
        assert model.cluster_of.shape == (len(labels),)
        assert sorted(set(model.cluster_of.tolist())) == list(range(model.n_clusters))
        for j, centroid in enumerate(model.centroids):
            recomputed = x[model.cluster_of == j].mean(axis=0)
            assert np.max(np.abs(recomputed - centroid)) <= 1e-9


def test_acceptance_rule_recount_on_random_instances():
    rng = np.random.default_rng(7)
    th = 15.0
    for trial in range(15):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        x = rng.normal(size=(n, d))
        labels = rng.integers(-1, k, size=n).astype(np.int64)
        for c in range(k):
            if not (labels == c).any():
                labels[int(rng.integers(n))] = c
        config = RecursiveConfig(th_percent=th)
        model = build_model(x, labels, tuple(f"c{c}" for c in range(k)), config, trial)
        fallback_seen = 0
        for j, (label, reason) in enumerate(zip(model.labels.tolist(), model.acceptance)):
            ncp, lsp = cluster_class_stats(labels[model.cluster_of == j], k)
            if reason in (ACCEPT_PURE, ACCEPT_THRESHOLD):
                maj = majority_label(lsp)
                assert maj == label
                for c in range(k):
                    if c != maj and lsp[c] > 0:
                        assert relative_percentage(lsp, maj, c) <= th
            elif reason in FALLBACK_REASONS:
                fallback_seen += 1
        assert fallback_seen == model.stats.fallback_total


@st.composite
def labeled_point_sets(draw):
    """Small point sets on a coarse lattice (so duplicates and ties occur),
    each class with at least one labeled point, plus a clustering config and
    a seed."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 30))
    d = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    labels = np.array(draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n)))
    labels[draw(st.permutations(range(n)))[:k]] = np.arange(k)  # every class labeled
    config = RecursiveConfig(
        th_percent=draw(st.sampled_from([0.0, 5.0, 15.0, 50.0, 100.0])),
        max_recursion_depth=draw(st.integers(1, 4)),
        kmeans=KMeansConfig(distance=draw(st.sampled_from(["euclidean", "cosine"]))),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return np.array(coords, dtype=np.float64).reshape(n, d) / 2.0, labels, k, config, seed


@settings(max_examples=200, deadline=None)
@given(labeled_point_sets())
def test_build_model_partition_and_acceptance_properties(instance):
    x, labels, k, config, seed = instance
    ids = [f"p{i}" for i in range(len(labels))]
    model = build_model(x, labels, tuple(f"c{c}" for c in range(k)), config, seed)

    # the final clusters partition the points exactly: every point is in
    # one cluster, and every cluster holds a point
    assert model.cluster_of.shape == (len(labels),)
    assert sorted(set(model.cluster_of.tolist())) == list(range(model.n_clusters))

    # every accepted cluster passes a recount of the Th rule
    fallbacks: dict[str, int] = {}
    orphans = 0
    for j, (label, reason) in enumerate(zip(model.labels.tolist(), model.acceptance)):
        ncp, lsp = cluster_class_stats(labels[model.cluster_of == j], k)
        if reason == ACCEPT_ORPHAN:
            assert ncp == 0
            orphans += 1
            continue
        maj = majority_label(lsp)
        assert label == maj
        over = [o for o in range(k) if o != maj and lsp[o] > 0
                and relative_percentage(lsp, maj, o) > config.th_percent]
        if reason in (ACCEPT_PURE, ACCEPT_THRESHOLD):
            assert over == []
            assert (ncp == 1) == (reason == ACCEPT_PURE)
        else:
            assert reason in FALLBACK_REASONS and over
            if reason == ACCEPT_SIZE:  # too small to recurse on: fewer points than twice its classes
                assert np.sum(model.cluster_of == j) < 2 * ncp
            fallbacks[reason] = fallbacks.get(reason, 0) + 1

    # fallback and orphan counts equal RunStats
    assert fallbacks == model.stats.fallback_counts
    assert orphans == model.stats.orphan_count

    # the derived label map covers exactly the unlabeled points, each with
    # the label of the cluster that holds it
    label_of = model.labels[model.cluster_of].tolist()
    assert pool_labels(model.labels, model.cluster_of, ids, labels >= 0) == {
        ids[i]: label_of[i] for i in range(len(labels)) if labels[i] < 0
    }


def test_build_model_deterministic():
    x, truth, _ = make_point_cloud(n_classes=3, points_per_class=20, dim=3, seed=8)
    labels = truth.copy()
    labels[::3] = -1
    for c in range(3):
        if not (labels == c).any():
            labels[np.flatnonzero(truth == c)[0]] = c
    m1 = build_model(x, labels, ("a", "b", "c"), RecursiveConfig(), 77)
    m2 = build_model(x, labels, ("a", "b", "c"), RecursiveConfig(), 77)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert np.array_equal(m1.labels, m2.labels)
    assert np.array_equal(m1.cluster_of, m2.cluster_of)


def test_build_model_without_unlabeled_points():
    x, truth, _ = make_point_cloud(n_classes=2, points_per_class=10, dim=2, seed=9)
    ids = [str(i) for i in range(len(truth))]
    model = build_model(x, truth, ("a", "b"), RecursiveConfig(), 0)
    assert pool_labels(model.labels, model.cluster_of, ids, truth >= 0) == {}
    assert model.n_clusters >= 2


def test_recursive_rejects_label_out_of_range():
    # -1 marks an unlabeled point; a label below it is no class either
    for labels, bad in (([0, 1, 2], 2), ([0, 0, 1, 1, -2], -2)):
        with pytest.raises(DataError, match=f"label {bad} out of range for 2 classes"):
            build_model(np.zeros((len(labels), 1)), np.array(labels), ("one", "two"),
                        RecursiveConfig(), 0)


@pytest.mark.parametrize("n_points, n_labels", [(3, 4), (4, 3)])
def test_build_model_rejects_inputs_of_different_lengths(n_points, n_labels):
    with pytest.raises(DataError, match="points and labels differ in length"):
        build_model(np.zeros((n_points, 1)), np.array([0, 1, -1, -1][:n_labels]),
                    ("one", "two"), RecursiveConfig(), 0)


@pytest.mark.parametrize("class_names", [("one", "two"), ()])
def test_build_model_rejects_an_unlabeled_collection(class_names):
    with pytest.raises(DataError, match="classes without labeled|no labeled points"):
        build_model(np.zeros((3, 1)), np.full(3, -1), class_names, RecursiveConfig(), 0)


def test_build_model_requires_all_classes_labeled():
    x = np.zeros((4, 2))
    labels = np.array([0, 0, -1, -1])
    with pytest.raises(DataError, match=r"classes without labeled training points: \['two'\]"):
        build_model(x, labels, ("one", "two"), RecursiveConfig(), 0)


def test_model_save_load_round_trip(tmp_path):
    x, truth, _ = make_point_cloud(n_classes=3, points_per_class=12, dim=3, seed=10)
    labels = truth.copy()
    labels[1::2] = -1
    for c in range(3):
        if not (labels == c).any():
            labels[np.flatnonzero(truth == c)[0]] = c
    model = build_model(x, labels, ("a", "b", "c"), RecursiveConfig(), 0)
    weights = weights_from_counts({"t": 0}, np.ones((1, 3)), 1.0, ("a", "b", "c"))
    path = tmp_path / "model.json"
    save_bundle(path, model, weights, TokenizerConfig())
    loaded, _, _ = load_bundle(path)
    assert np.array_equal(loaded.centroids, model.centroids)
    assert np.array_equal(loaded.labels, model.labels)
    assert loaded.distance == model.distance
    assert loaded.cluster_of is None  # a bundle holds no training partition
    assert loaded.acceptance == model.acceptance
    assert np.array_equal(loaded.depths, model.depths)
    assert loaded.stats == model.stats

import numpy as np
import pytest

from textrkm import kernels
from textrkm.classifier import Prediction, classify_batch
from textrkm.errors import DataError
from textrkm.rkmeans import ClusterModel, RunStats

from reference import classify


def toy_model(centroids, labels, distance="euclidean"):
    centroids = np.asarray(centroids, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return ClusterModel(
        centroids=centroids,
        labels=labels,
        acceptance=("pure",) * len(labels),
        depths=np.zeros(len(labels), dtype=np.int64),
        distance=distance,
        class_names=tuple(f"c{i}" for i in range(int(labels.max()) + 1)),
        stats=RunStats(5.0, 0, distance),
    )


def brute_force_nearest(vec, centroids):
    """Independent python scan; strict < keeps the lowest index on ties."""
    best, best_d = 0, float("inf")
    for j, c in enumerate(centroids):
        d = sum((a - b) ** 2 for a, b in zip(vec, c))
        if d < best_d:
            best, best_d = j, d
    return best


def test_classify_exact_centroid_identity():
    model = toy_model([[0.0, 1.0], [1.0, 0.0], [3.0, 3.0]], [0, 1, 0])
    for m in range(3):
        p = classify(model.centroids[m], model)
        assert p.cluster == m
        assert p.distance == 0.0
        assert p.label == int(model.labels[m])


def test_classify_two_cluster_geometry():
    model = toy_model([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    p = classify(np.array([0.9, 0.1]), model)
    assert p.cluster == 1
    assert p.label == 1


def test_classify_matches_brute_force_scan():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        centroids = rng.normal(size=(m, d))
        labels = rng.integers(0, 3, size=m)
        model = toy_model(centroids, labels)
        vec = rng.normal(size=d)
        p = classify(vec, model)
        assert p.cluster == brute_force_nearest(vec.tolist(), centroids.tolist())


def test_batch_equals_map_and_preserves_order():
    rng = np.random.default_rng(1)
    model = toy_model(rng.normal(size=(4, 3)), [0, 1, 2, 0])
    vecs = rng.normal(size=(10, 3))
    batch = classify_batch(vecs, model, [f"d{i}" for i in range(10)])
    singles = [classify(v, model, f"d{i}") for i, v in enumerate(vecs)]
    assert list(batch) == singles
    assert [p.doc_id for p in batch] == [f"d{i}" for i in range(10)]


@pytest.mark.parametrize("distance", ["euclidean", "cosine"])
def test_batch_fields_are_python_scalars(distance):
    # numpy scalars would print as np.float64(...) in a classify TSV
    rng = np.random.default_rng(3)
    model = toy_model(rng.random((3, 2)), [0, 1, 0], distance)
    preds = [*classify_batch(rng.random((4, 2)), model, [f"d{i}" for i in range(4)]),
             *classify_batch(rng.random((2, 2)), model, ["e0", "e1"])]
    for p in preds:
        assert [type(v) for v in p] == [str, int, int, float]
        assert p._fields == ("doc_id", "label", "cluster", "distance")


def test_cosine_batch_scales_its_rows_to_unit_length_once(monkeypatch):
    # the assignment and the distances read the same unit rows; a zero row
    # and a zero centroid take the paths that measure distances
    model = toy_model([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], [0, 1, 0], "cosine")
    x = np.array([[3.0, 1.0], [0.0, 0.0], [1.0, 5.0], [2.0, 2.0]])
    expected = classify_batch(x, model, list("abcd"))
    scaled = []

    def counting(a):
        scaled.append(np.array_equal(a, x))
        return unit_rows(a)

    unit_rows = kernels.unit_rows
    monkeypatch.setattr(kernels, "unit_rows", counting)
    assert list(classify_batch(x, model, list("abcd"))) == list(expected)
    assert scaled.count(True) == 1


def test_cosine_batch_scales_its_centroids_to_unit_length_once(monkeypatch):
    model = toy_model([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], [0, 1, 0], "cosine")
    x = np.array([[3.0, 1.0], [0.0, 0.0], [1.0, 5.0], [2.0, 2.0]])
    expected = classify_batch(x, model, list("abcd"))
    scaled = []

    def counting(a):
        scaled.append(len(a) != len(x))  # the centroids, or the nonzero ones
        return unit_rows(a)

    unit_rows = kernels.unit_rows
    monkeypatch.setattr(kernels, "unit_rows", counting)
    assert list(classify_batch(x, model, list("abcd"))) == list(expected)
    assert scaled.count(True) == 1


def test_batch_empty_and_duplicates():
    model = toy_model([[0.0], [1.0]], [0, 1])
    assert list(classify_batch(np.zeros((0, 1)), model, [])) == []
    dup = list(classify_batch(np.array([[0.2], [0.2]]), model, ["a", "b"]))
    assert (dup[0].cluster, dup[0].distance) == (dup[1].cluster, dup[1].distance)
    assert dup[0].label == dup[1].label


@pytest.mark.parametrize("distance", ["euclidean", "cosine"])
def test_predictions_are_columns_whose_rows_are_the_records(distance):
    rng = np.random.default_rng(4)
    model = toy_model(rng.random((5, 3)), [0, 1, 2, 0, 1], distance)
    doc_ids = [f"d{i}" for i in range(7)]
    preds = classify_batch(rng.random((7, 3)), model, doc_ids)
    assert preds.doc_ids is doc_ids  # kept, not copied
    assert len(preds) == 7
    assert [(c.dtype, c.shape) for c in (preds.labels, preds.clusters, preds.distances)] == [
        (np.dtype(np.int64), (7,)), (np.dtype(np.int64), (7,)), (np.dtype(np.float64), (7,))
    ]
    records = list(preds)
    assert list(preds) == records  # every pass gives the same records, in row order
    assert all(type(p) is Prediction for p in records)
    assert [p.doc_id for p in records] == doc_ids
    assert np.array_equal([p.label for p in records], preds.labels)
    assert np.array_equal([p.cluster for p in records], preds.clusters)
    assert np.array_equal([p.distance for p in records], preds.distances)
    assert np.array_equal(preds.labels, model.labels[preds.clusters])


@pytest.mark.parametrize("distance", ["euclidean", "cosine"])
def test_an_empty_batch_is_empty_columns(distance):
    model = toy_model([[0.0], [1.0]], [0, 1], distance)
    preds = classify_batch(np.zeros((0, 1)), model, [])
    assert len(preds) == 0 and list(preds) == [] and list(preds) == []
    assert [(c.dtype, c.shape) for c in (preds.labels, preds.clusters, preds.distances)] == [
        (np.dtype(np.int64), (0,)), (np.dtype(np.int64), (0,)), (np.dtype(np.float64), (0,))
    ]
    with pytest.raises(DataError, match="length mismatch"):
        classify_batch(np.zeros((0, 1)), model, ["a"])


def test_rescaling_invariance_euclidean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        centroids = rng.normal(size=(5, 3))
        labels = rng.integers(0, 2, size=5)
        vec = rng.normal(size=3)
        scale = float(rng.uniform(0.1, 10.0))
        p1 = classify(vec, toy_model(centroids, labels))
        p2 = classify(vec * scale, toy_model(centroids * scale, labels))
        assert p1.cluster == p2.cluster


def test_distance_reported_under_model_metric():
    model = toy_model([[3.0, 4.0]], [0])
    p = classify(np.array([0.0, 0.0]), model)
    assert p.distance == 5.0  # euclidean, not squared
    cos_model = toy_model([[1.0, 0.0]], [0], distance="cosine")
    p = classify(np.array([0.0, 1.0]), cos_model)
    assert p.distance == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_and_tie_break():
    model = toy_model([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    with pytest.raises(DataError):
        classify(np.array([1.0, 2.0, 3.0]), model)
    tie = classify(np.array([0.5, 0.5]), model)
    assert tie.cluster == 0  # equidistant -> lowest index


def test_self_consistency_on_built_models():
    # every stored centroid classifies back to its own cluster's label
    from synthdata import make_point_cloud
    from textrkm.rkmeans import RecursiveConfig, build_model

    for seed in range(5):
        x, truth, _ = make_point_cloud(
            n_classes=3, points_per_class=25, dim=3, center_scale=3.0, seed=seed
        )
        labels = truth.copy()
        labels[seed % 3 :: 2] = -1
        for c in range(3):
            if not (labels == c).any():
                labels[np.flatnonzero(truth == c)[0]] = c
        model = build_model(x, labels, ("a", "b", "c"), RecursiveConfig(), 0)
        for m in range(model.n_clusters):
            p = classify(model.centroids[m], model)
            assert p.label == int(model.labels[m])
            assert p.distance <= 1e-12

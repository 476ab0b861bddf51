import numpy as np
import pytest

from textrkm.classifier import Prediction
from textrkm.errors import DataError
from textrkm.evaluation import confusion, format_report, score


def preds_from_pairs(pairs):
    return [Prediction(doc_id, label, 0, 0.0) for doc_id, label in pairs]


def test_confusion_perfect_predictions_diagonal():
    preds = preds_from_pairs([("a", 0), ("b", 1), ("c", 1)])
    truth = {"a": 0, "b": 1, "c": 1}
    cm = confusion(preds, truth, 2)
    assert cm.tolist() == [[1, 0], [0, 2]]


def test_confusion_all_predicted_class_zero():
    preds = preds_from_pairs([("a", 0), ("b", 0), ("c", 0)])
    truth = {"a": 0, "b": 1, "c": 1}
    cm = confusion(preds, truth, 2)
    assert cm[:, 1].tolist() == [0, 0]
    assert cm[:, 0].tolist() == [1, 2]


def test_confusion_mixed_example():
    preds = preds_from_pairs([("a1", 0), ("a2", 1), ("b1", 1)])
    truth = {"a1": 0, "a2": 0, "b1": 1}
    cm = confusion(preds, truth, 2)
    assert cm.tolist() == [[1, 1], [0, 1]]


def test_confusion_unknown_doc_id():
    with pytest.raises(DataError):
        confusion(preds_from_pairs([("ghost", 0)]), {"real": 0}, 1)


def test_confusion_names_the_first_unknown_doc_id():
    preds = preds_from_pairs([("real", 0), ("ghost-b", 1), ("a", 0), ("ghost-a", 0)])
    with pytest.raises(DataError, match="'ghost-b'"):
        confusion(preds, {"real": 0, "a": 1}, 2)


def test_confusion_empty_and_out_of_range_classes():
    assert confusion([], {"a": 0}, 2).tolist() == [[0, 0], [0, 0]]
    for pairs, truth in (([("a", 2)], {"a": 0}), ([("a", -1)], {"a": 0}), ([("a", 0)], {"a": 2})):
        with pytest.raises(DataError):
            confusion(preds_from_pairs(pairs), truth, 2)


def test_score_diagonal_all_ones():
    report = score(np.diag([3, 2, 5]))
    assert report.accuracy == 1.0
    assert np.array_equal(report.per_class, np.ones((3, 3)))
    assert report.macro == (1.0, 1.0, 1.0)
    assert report.micro == (1.0, 1.0, 1.0)


def test_score_hand_computed_example():
    # frozen by hand from the defining formulas
    report = score(np.array([[1, 1], [0, 1]]))
    assert report.per_class[0].tolist() == [1.0, 0.5, pytest.approx(2 / 3)]
    assert report.per_class[1].tolist() == [0.5, 1.0, pytest.approx(2 / 3)]
    assert report.macro[2] == pytest.approx(2 / 3)
    assert report.accuracy == pytest.approx(2 / 3)


def test_score_zero_support_class_flagged_at_zero():
    report = score(np.array([[2, 0], [0, 0]]))
    assert report.zero_support_classes == (1,)
    assert report.per_class[1].tolist() == [0.0, 0.0, 0.0]
    assert report.macro[1] == 0.5  # mean of recall 1.0 and 0.0


def test_micro_equals_accuracy_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 20, size=(k, k))
        if cm.sum() == 0:
            cm[0, 0] = 1
        report = score(cm)
        for v in report.micro:
            assert abs(v - report.accuracy) <= 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    cm = rng.integers(0, 15, size=(4, 4))
    cm[0, 0] += 1
    report = score(cm)
    perm = rng.permutation(4)
    permuted = score(cm[np.ix_(perm, perm)])
    assert permuted.accuracy == report.accuracy
    assert permuted.macro == pytest.approx(report.macro, abs=1e-15)
    assert permuted.micro == report.micro
    assert np.allclose(permuted.per_class, report.per_class[perm], atol=1e-15)


def test_all_values_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(50):
        cm = rng.integers(0, 10, size=(3, 3))
        if cm.sum() == 0:
            cm[1, 2] = 3
        report = score(cm)
        values = [report.accuracy, *report.macro, *report.micro]
        values.extend(report.per_class.ravel().tolist())
        assert all(0.0 <= v <= 1.0 for v in values)


def test_score_input_validation():
    with pytest.raises(DataError):
        score(np.zeros((2, 3)))
    with pytest.raises(DataError):
        score(np.zeros((2, 2)))


def test_format_report_flat_key_values():
    report = score(np.array([[1, 1], [0, 1]]))
    text = format_report(report, ("alpha", "beta"))
    lines = dict(line.split("\t") for line in text.strip().splitlines())
    assert lines["accuracy"] == "0.666667"
    assert lines["precision_alpha"] == "1.000000"
    assert lines["recall_alpha"] == "0.500000"
    assert lines["micro_f"] == lines["accuracy"]
    assert set(lines) >= {
        "macro_precision",
        "macro_recall",
        "macro_f",
        "micro_precision",
        "micro_recall",
    }

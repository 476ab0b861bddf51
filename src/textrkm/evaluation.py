"""Scoring: confusion matrix, accuracy, micro/macro precision-recall-F."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .classifier import Prediction
from .errors import DataError


def confusion(
    preds: Iterable[Prediction], truth: Mapping[str, int], n_classes: int
) -> np.ndarray:
    """Count matrix with rows = true class, columns = predicted class."""
    preds = list(preds)
    try:
        true = [truth[p.doc_id] for p in preds]
    except KeyError as exc:  # the first unknown id, in prediction order
        raise DataError(f"prediction for unknown doc id {exc.args[0]!r}") from None
    pairs = np.array([true, [p.label for p in preds]], dtype=np.int64).reshape(2, -1)
    if np.any((pairs < 0) | (pairs >= n_classes)):
        raise DataError(f"class index outside [0, {n_classes})")
    keys = pairs[0] * n_classes + pairs[1]
    return np.bincount(keys, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def _prf(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


@dataclass
class EvalReport:
    """Accuracy plus per-class and micro/macro averaged P, R, F.

    0/0 precision or recall is defined as 0. The macro average is the
    unweighted mean over all classes, including zero-support classes (their
    indices are surfaced in ``zero_support_classes``).
    """

    accuracy: float
    per_class: np.ndarray  # (K, 3) columns P, R, F
    macro: tuple[float, float, float]
    micro: tuple[float, float, float]
    support: np.ndarray    # true-class counts
    zero_support_classes: tuple[int, ...]

    def to_flat(self, class_names: tuple[str, ...] | None = None) -> dict[str, float]:
        """Flat metric-name -> value mapping (the serialized record)."""
        names = class_names or tuple(str(i) for i in range(self.per_class.shape[0]))
        out: dict[str, float] = {
            "accuracy": self.accuracy,
            "macro_precision": self.macro[0],
            "macro_recall": self.macro[1],
            "macro_f": self.macro[2],
            "micro_precision": self.micro[0],
            "micro_recall": self.micro[1],
            "micro_f": self.micro[2],
        }
        for i, name in enumerate(names):
            out[f"precision_{name}"] = float(self.per_class[i, 0])
            out[f"recall_{name}"] = float(self.per_class[i, 1])
            out[f"f_{name}"] = float(self.per_class[i, 2])
            out[f"support_{name}"] = float(self.support[i])
        return out


def score(cm: np.ndarray) -> EvalReport:
    """Compute the report from a confusion matrix."""
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise DataError(f"confusion matrix must be square, got shape {cm.shape}")
    total = int(cm.sum())
    if total < 1:
        raise DataError("empty confusion matrix")
    k = cm.shape[0]
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0).astype(np.float64) - tp
    fn = cm.sum(axis=1).astype(np.float64) - tp
    per_class = np.zeros((k, 3), dtype=np.float64)
    for c in range(k):
        per_class[c] = _prf(tp[c], fp[c], fn[c])
    macro = tuple(float(v) for v in per_class.mean(axis=0))
    micro = _prf(float(tp.sum()), float(fp.sum()), float(fn.sum()))
    support = cm.sum(axis=1)
    return EvalReport(
        accuracy=float(tp.sum()) / total,
        per_class=per_class,
        macro=macro,
        micro=tuple(float(v) for v in micro),
        support=support,
        zero_support_classes=tuple(int(c) for c in np.flatnonzero(support == 0)),
    )


def format_report(report: EvalReport, class_names: tuple[str, ...] | None = None) -> str:
    """Flat ``name<TAB>value`` lines, six decimal places."""
    flat = report.to_flat(class_names)
    return "\n".join(f"{name}\t{value:.6f}" for name, value in flat.items()) + "\n"

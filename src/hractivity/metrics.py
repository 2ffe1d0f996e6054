"""Confusion-matrix bookkeeping shared by every experiment report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .errors import DataError
from .series import LABEL_NAMES, N_CLASSES


def confusion_matrix(true_labels, predicted) -> np.ndarray:
    """(N_CLASSES, N_CLASSES) counts; rows are true labels, columns predictions."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if t.shape != p.shape:
        raise DataError("true and predicted labels differ in length")
    if t.size and (t.min() < 0 or t.max() >= N_CLASSES or p.min() < 0 or p.max() >= N_CLASSES):
        raise DataError("label outside [0, N_CLASSES)")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    total = int(cm.sum())
    if total == 0:
        raise DataError("empty confusion matrix")
    return float(np.trace(cm) / total)


def balanced_accuracy(cm: np.ndarray) -> float:
    """Mean per-class recall over classes with at least one true instance."""
    support = cm.sum(axis=1)
    present = support > 0
    if not present.any():
        raise DataError("empty confusion matrix")
    recalls = np.diag(cm)[present] / support[present]
    return float(recalls.mean())


@dataclass(frozen=True)
class FoldRecord:
    fold_id: int
    held_out: str
    n_test: int
    accuracy: float
    balanced_accuracy: float


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    balanced_accuracy: float
    confusion: np.ndarray
    folds: tuple[FoldRecord, ...]
    config: dict = field(default_factory=dict)


def write_report_json(report: EvalReport, path: str | Path) -> None:
    payload = {
        "schema": "eval_report.v1",
        "accuracy": report.accuracy,
        "balanced_accuracy": report.balanced_accuracy,
        "confusion": report.confusion.tolist(),
        "folds": [
            {
                "fold_id": f.fold_id,
                "held_out": f.held_out,
                "n_test": f.n_test,
                "accuracy": f.accuracy,
                "balanced_accuracy": f.balanced_accuracy,
            }
            for f in report.folds
        ],
        "config": report.config,
    }
    write_json(payload, path)


def write_fold_csv(report: EvalReport, path: str | Path) -> None:
    write_csv(path, ["fold_id", "held_out", "n_test", "accuracy", "balanced_accuracy"],
              ([f.fold_id, f.held_out, f.n_test, repr(f.accuracy), repr(f.balanced_accuracy)]
               for f in report.folds))


def write_confusion_csv(cm: np.ndarray, path: str | Path) -> None:
    write_csv(path, ["true\\pred"] + list(LABEL_NAMES),
              ([name] + [int(v) for v in row] for name, row in zip(LABEL_NAMES, np.asarray(cm))))

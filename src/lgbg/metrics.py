"""Classification and regression metrics.

Precision/recall/F1 are computed per class and then weighted by class
support, so classes absent from both truth and prediction contribute zero
with zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graphs import N_CLASSES


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: list[list[int]]
    n: int
    task: str = ""

    def row(self) -> dict:
        return {"task": self.task, "n": self.n, "accuracy": self.accuracy,
                "precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass
class GradeReport:
    mae: float
    r2: float
    pearson: float
    degenerate: bool = False
    predictions: list[float] = field(default_factory=list)


def report_from_confusion(cm: np.ndarray, task: str = "") -> EvalReport:
    cm = np.asarray(cm, dtype=np.int64)
    n = int(cm.sum())
    if n == 0:
        raise ValidationError("empty confusion matrix")
    support = cm.sum(axis=1).astype(np.float64)
    predicted = cm.sum(axis=0).astype(np.float64)
    diag = np.diag(cm).astype(np.float64)
    precision = np.divide(diag, predicted, out=np.zeros_like(diag), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros_like(diag), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    weights = support / support.sum()
    return EvalReport(accuracy=float(diag.sum() / n),
                      precision=float(np.dot(weights, precision)),
                      recall=float(np.dot(weights, recall)),
                      f1=float(np.dot(weights, f1)),
                      confusion=cm.tolist(), n=n, task=task)


def classification_report(y_true, y_pred, task: str = "") -> EvalReport:
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        cm[t, p] += 1
    return report_from_confusion(cm, task)


def average_reports(reports: list[EvalReport]) -> EvalReport:
    """Mean of the scalar metrics over tasks; confusion matrices are summed."""
    if not reports:
        raise ValidationError("no reports to average")
    cm = np.sum([np.array(r.confusion) for r in reports], axis=0)
    return EvalReport(
        accuracy=float(np.mean([r.accuracy for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        recall=float(np.mean([r.recall for r in reports])),
        f1=float(np.mean([r.f1 for r in reports])),
        confusion=cm.tolist(), n=int(sum(r.n for r in reports)), task="average")


def knn_regress_loo(features: np.ndarray, targets: np.ndarray, k: int = 3) -> np.ndarray:
    """Leave-one-out KNN regression with inverse-distance weights on
    column-standardized features."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise ValidationError("need at least 2 subjects with matching targets")
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    z = (x - mu) / sd
    n = z.shape[0]
    preds = np.zeros(n)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        dists = np.linalg.norm(z[others] - z[i], axis=1)
        order = np.argsort(dists, kind="stable")[: min(k, others.size)]
        nearest = others[order]
        d = dists[order]
        if np.any(d == 0):
            preds[i] = y[nearest[d == 0]].mean()
        else:
            w = 1.0 / d
            preds[i] = float(np.dot(w, y[nearest]) / w.sum())
    return preds


def grade_report(y_true, y_pred) -> GradeReport:
    y = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    mae = float(np.mean(np.abs(y - p)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - p) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    degenerate = bool(p.std() == 0 or y.std() == 0)
    if degenerate:
        pearson = 0.0
    else:
        pearson = float(np.corrcoef(y, p)[0, 1])
    return GradeReport(mae=mae, r2=r2, pearson=pearson, degenerate=degenerate,
                       predictions=p.tolist())

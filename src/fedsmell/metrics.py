"""Evaluation metrics: accuracy, mean loss, Cohen's kappa, ROC-AUC, bands."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .data import Dataset, binary
from .errors import DataError, NumericError, check_field_types
from .nn import forward_batch, mean_cross_entropy, unflatten_params


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        check_field_types(self, DataError)
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise DataError(f"confusion cell {name} must be non-negative")
        if self.total < 1:
            raise DataError("confusion matrix is empty")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    accuracy_pct: float
    mean_loss: float
    kappa: float
    roc_auc: float
    kappa_band: str
    roc_band: str


def accuracy(cm: ConfusionMatrix) -> float:
    """Correct predictions as a percentage of all predictions."""
    return (cm.tp + cm.tn) / cm.total * 100.0


def cohen_kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement between predictions and labels.

    Observed agreement P_o = (tp+tn)/N; expected agreement P_e from the
    marginals; kappa = (P_o - P_e) / (1 - P_e). The degenerate P_e == 1
    case (all mass in one cell) is defined as 1 when agreement is perfect
    and 0 otherwise.
    """
    n = cm.total
    p_o = (cm.tp + cm.tn) / n
    p_e = ((cm.tp + cm.fp) * (cm.tp + cm.fn) + (cm.fn + cm.tn) * (cm.fp + cm.tn)) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    `scores` are positive-class scores, `labels` the matching 0/1 labels.
    Equals the probability that a random positive outscores a random
    negative, ties counted half.
    """
    scores = np.asarray(scores, dtype=float)
    labels = binary(labels, "labels")
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise DataError("scores and labels must be matching 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise NumericError("prediction scores contain non-finite values")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs at least one sample of each class")

    # Each group of tied scores shares the 1-based midrank of its run in sorted order.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    pos_rank_sum = midranks[group[labels == 1]].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# A kappa band holds k < its edge; a ROC band holds a <= its edge.
_KAPPA_EDGES = (0.21, 0.41, 0.61, 0.81)
_KAPPA_BANDS = ("Poor", "Fair", "Moderate", "Substantial", "Almost perfect")
_ROC_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9)
_ROC_BANDS = ("Fail (<=0.5)", "Fail", "Poor", "Fair", "Good", "Excellent")


def interpret_kappa(k: float) -> str:
    """Agreement band for a kappa value; gap values fall to the lower band."""
    if not -1.0 <= k <= 1.0:
        raise DataError(f"kappa must be in [-1, 1], got {k}")
    return _KAPPA_BANDS[bisect.bisect_right(_KAPPA_EDGES, k)]


def interpret_roc(a: float) -> str:
    """Quality band for a ROC-AUC value; values <= 0.5 flag an inverted model."""
    if not 0.0 <= a <= 1.0:
        raise DataError(f"ROC area must be in [0, 1], got {a}")
    return _ROC_BANDS[bisect.bisect_left(_ROC_EDGES, a)]


def confusion_from_predictions(predicted: np.ndarray, labels: np.ndarray) -> ConfusionMatrix:
    """Count the four cells of matching int 0/1 predictions and labels, unchecked."""
    tn, fp, fn, tp = np.bincount(2 * labels + predicted, minlength=4).tolist()
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def evaluate_model(weights, test: Dataset) -> MetricReport:
    """Score a flat weight vector on a test set and assemble the full report.

    Predicted class is the argmax of the output probabilities with ties
    broken toward class 0; the ROC score is the positive-class probability.
    """
    probs = forward_batch(test.features, unflatten_params(weights))
    predicted = (probs[:, 1] > probs[:, 0]).astype(int)
    cm = confusion_from_predictions(predicted, test.labels)
    kappa = cohen_kappa(cm)
    auc = roc_auc(probs[:, 1], test.labels)
    return MetricReport(
        accuracy_pct=accuracy(cm),
        mean_loss=mean_cross_entropy(probs, test.labels),
        kappa=kappa,
        roc_auc=auc,
        kappa_band=interpret_kappa(kappa),
        roc_band=interpret_roc(auc),
    )

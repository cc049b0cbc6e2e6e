"""Metric formulas against brute-force oracles, interpretation bands, reports."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsmell import metrics
from fedsmell.data import NUM_FEATURES
from fedsmell.metrics import (ConfusionMatrix, accuracy, cohen_kappa,
                              confusion_from_predictions, evaluate_model,
                              interpret_kappa, interpret_roc, roc_auc)
from fedsmell.nn import PARAM_COUNT, _forward, forward_batch, init_params, unflatten_params
from util import random_dataset


def kappa_oracle(cm):
    """Direct observed-vs-expected agreement computation."""
    n = cm.tp + cm.tn + cm.fp + cm.fn
    p_o = (cm.tp + cm.tn) / n
    p_yes = ((cm.tp + cm.fp) / n) * ((cm.tp + cm.fn) / n)
    p_no = ((cm.fn + cm.tn) / n) * ((cm.fp + cm.tn) / n)
    p_e = p_yes + p_no
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def auc_pair_oracle(scores, labels):
    """O(P*N) pair counting: wins plus half-ties over all (pos, neg) pairs."""
    pos = [s for s, label in zip(scores, labels) if label == 1]
    neg = [s for s, label in zip(scores, labels) if label == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_trapezoid_oracle(scores, labels):
    """Trapezoidal area under the threshold-swept ROC curve."""
    n_pos = (labels == 1).sum()
    n_neg = (labels == 0).sum()
    points = [(0.0, 0.0)]
    for threshold in sorted(set(scores), reverse=True):
        predicted_pos = scores >= threshold
        tpr = (predicted_pos & (labels == 1)).sum() / n_pos
        fpr = (predicted_pos & (labels == 0)).sum() / n_neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_midrank_loop(scores, labels):
    """Rank-sum AUC with midranks assigned by a scalar loop over tie runs."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    start = 0
    while start < len(scores):
        stop = start + 1
        while stop < len(scores) and scores[order[stop]] == scores[order[start]]:
            stop += 1
        ranks[order[start:stop]] = (start + stop + 1) / 2.0
        start = stop
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def random_scored(rng, n, ties=False):
    scores = rng.random(n)
    if ties:
        scores = np.round(scores, 1)
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return scores, labels


def heavily_tied(rng, n):
    """Three distinct scores over n rows, so every rank is a shared midrank."""
    scores = rng.integers(0, 3, n) / 2.0
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    return scores, labels


# ----------------------------------------------------------------- accuracy

def test_accuracy_formula():
    assert accuracy(ConfusionMatrix(tp=5, tn=3, fp=1, fn=1)) == 80.0
    assert accuracy(ConfusionMatrix(tp=4, tn=2, fp=0, fn=0)) == 100.0
    assert accuracy(ConfusionMatrix(tp=0, tn=0, fp=3, fn=2)) == 0.0


# -------------------------------------------------------------------- kappa

def test_kappa_perfect_diagonal():
    assert cohen_kappa(ConfusionMatrix(tp=10, tn=20, fp=0, fn=0)) == 1.0


def test_kappa_chance_level_all_positive_on_balanced():
    assert cohen_kappa(ConfusionMatrix(tp=50, fp=50, tn=0, fn=0)) == 0.0


def test_kappa_worked_example_matches_oracle():
    cm = ConfusionMatrix(tp=40, fn=10, fp=5, tn=45)
    assert cohen_kappa(cm) == pytest.approx(kappa_oracle(cm), abs=1e-12)
    assert cohen_kappa(cm) == pytest.approx(0.7, abs=1e-12)


def test_kappa_degenerate_single_cell():
    assert cohen_kappa(ConfusionMatrix(tp=7, tn=0, fp=0, fn=0)) == 1.0
    assert cohen_kappa(ConfusionMatrix(tp=0, tn=9, fp=0, fn=0)) == 1.0


def test_kappa_of_a_rare_class_in_a_huge_matrix_is_not_taken_as_degenerate():
    # Chance agreement 3e-7 short of 1 is not the degenerate case: kappa is
    # the exact value, about 2/3, not 0.
    cm = ConfusionMatrix(tp=1, tn=10 ** 7, fp=1, fn=0)
    n = cm.total
    p_o = Fraction(cm.tp + cm.tn, n)
    p_e = Fraction((cm.tp + cm.fp) * (cm.tp + cm.fn) + (cm.fn + cm.tn) * (cm.fp + cm.tn), n * n)
    assert cohen_kappa(cm) == pytest.approx(float((p_o - p_e) / (1 - p_e)), abs=1e-8)


@given(st.tuples(st.integers(0, 500), st.integers(0, 500),
                 st.integers(0, 500), st.integers(0, 500)))
def test_metric_ranges_over_random_matrices(cells):
    tp, tn, fp, fn = cells
    if tp + tn + fp + fn == 0:
        tp = 1
    cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
    assert 0.0 <= accuracy(cm) <= 100.0
    assert -1.0 <= cohen_kappa(cm) <= 1.0


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roc_range_over_random_scores(seed):
    rng = np.random.default_rng(seed)
    scores, labels = random_scored(rng, 12, ties=bool(rng.integers(0, 2)))
    assert 0.0 <= roc_auc(scores, labels) <= 1.0


def test_kappa_equals_one_iff_no_errors():
    assert cohen_kappa(ConfusionMatrix(tp=3, tn=5, fp=0, fn=0)) == 1.0
    assert cohen_kappa(ConfusionMatrix(tp=3, tn=5, fp=1, fn=0)) < 1.0
    assert cohen_kappa(ConfusionMatrix(tp=3, tn=5, fp=0, fn=1)) < 1.0


# ---------------------------------------------------------------------- roc

def test_roc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.1, 0.9, 0.5], [0.0, 1.0, False]) == 1.0  # labels of any type


def test_roc_all_ties_is_half():
    assert roc_auc([0.5] * 5, [0, 1, 0, 1, 1]) == 0.5


def test_roc_vectorized_midranks_equal_scalar_loop_bitwise():
    rng = np.random.default_rng(8)
    cases = [random_scored(rng, 500, ties=ties) for ties in (False, True)]
    cases += [heavily_tied(rng, n) for n in (2, 3, 1000)]
    signed_zeros = rng.choice([0.0, -0.0, 0.5, 1.0], 400)
    cases.append((signed_zeros, heavily_tied(rng, 400)[1]))
    for scores, labels in cases:
        assert roc_auc(scores, labels) == auc_midrank_loop(scores, labels)


def test_roc_matches_trapezoid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        scores, labels = random_scored(rng, 25, ties=bool(rng.integers(0, 2)))
        assert roc_auc(scores, labels) == pytest.approx(auc_trapezoid_oracle(scores, labels),
                                                        abs=1e-12)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roc_invariant_under_strictly_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    scores, labels = random_scored(rng, 15, ties=bool(rng.integers(0, 2)))
    base = roc_auc(scores, labels)
    for transform in (lambda s: 2.0 * s + 1.0, np.exp, lambda s: s ** 3):
        assert roc_auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roc_label_swap_symmetry(seed):
    rng = np.random.default_rng(seed)
    scores, labels = random_scored(rng, 15, ties=bool(rng.integers(0, 2)))
    assert roc_auc(1.0 - scores, 1 - labels) == pytest.approx(roc_auc(scores, labels),
                                                              abs=1e-12)


# -------------------------------------------------------------------- bands

def test_kappa_bands_at_edges():
    assert interpret_kappa(-1.0) == "Poor"
    assert interpret_kappa(0.19) == "Poor"
    assert interpret_kappa(0.20) == "Poor"  # gap value falls to the lower band
    assert interpret_kappa(0.21) == "Fair"
    assert interpret_kappa(0.40) == "Fair"
    assert interpret_kappa(0.41) == "Moderate"
    assert interpret_kappa(0.60) == "Moderate"
    assert interpret_kappa(0.61) == "Substantial"
    assert interpret_kappa(0.79) == "Substantial"
    assert interpret_kappa(0.80) == "Substantial"
    assert interpret_kappa(0.81) == "Almost perfect"
    assert interpret_kappa(1.0) == "Almost perfect"


def test_roc_bands_at_edges():
    assert interpret_roc(0.3) == "Fail (<=0.5)"
    assert interpret_roc(0.5) == "Fail (<=0.5)"
    assert interpret_roc(0.55) == "Fail"
    assert interpret_roc(0.6) == "Fail"
    assert interpret_roc(0.65) == "Poor"
    assert interpret_roc(0.7) == "Poor"
    assert interpret_roc(0.8) == "Fair"
    assert interpret_roc(0.9) == "Good"
    assert interpret_roc(0.95) == "Excellent"
    assert interpret_roc(1.0) == "Excellent"


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_kappa_band_total_over_domain(k):
    assert interpret_kappa(k) in {"Poor", "Fair", "Moderate", "Substantial", "Almost perfect"}


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_roc_band_total_over_domain(a):
    assert interpret_roc(a) in {"Fail (<=0.5)", "Fail", "Poor", "Fair", "Good", "Excellent"}


# ----------------------------------------------------------- model reports

def test_evaluate_zero_model_on_balanced_set():
    test = random_dataset(40, 20, seed=1)
    report = evaluate_model(np.zeros(PARAM_COUNT), test)
    # All probabilities tie at 0.5; argmax breaks toward class 0.
    assert report.accuracy_pct == 50.0
    assert report.roc_auc == 0.5
    assert report.mean_loss == pytest.approx(math.log(2), abs=1e-12)
    assert report.kappa == 0.0


def test_evaluate_zero_model_predicts_majority_class_rate():
    test = random_dataset(50, 10, seed=2)  # 40 negatives
    report = evaluate_model(np.zeros(PARAM_COUNT), test)
    assert report.accuracy_pct == 80.0


def test_evaluate_constant_positive_fixture_hand_computed():
    # Only the head bias is nonzero: logits are (0, 1) for every sample, so
    # every prediction is class 1 with probability e/(1+e).
    weights = np.zeros(PARAM_COUNT)
    unflatten_params(weights).layers[-1][1][1] = 1.0

    test = random_dataset(8, 3, seed=3)
    report = evaluate_model(weights, test)

    p1 = math.e / (1.0 + math.e)
    cm = ConfusionMatrix(tp=3, fp=5, tn=0, fn=0)
    assert report.accuracy_pct == pytest.approx(accuracy(cm), abs=1e-12)
    assert report.kappa == pytest.approx(kappa_oracle(cm), abs=1e-12)
    assert report.roc_auc == 0.5  # constant scores
    expected_loss = (3 * -math.log(p1) + 5 * -math.log(1.0 - p1)) / 8.0
    assert report.mean_loss == pytest.approx(expected_loss, abs=1e-12)


def test_evaluate_report_json_fields():
    report = evaluate_model(np.zeros(PARAM_COUNT), random_dataset(20, 10, seed=4))
    payload = dataclasses.asdict(report)
    assert set(payload) == {"accuracy_pct", "mean_loss", "kappa", "roc_auc",
                            "kappa_band", "roc_band"}


BLOCK_EDGE_SIZES = (1, 511, 512, 513, 5127)


def test_blocked_forward_matches_single_pass():
    p = unflatten_params(init_params(3))
    for n in BLOCK_EDGE_SIZES:
        X = np.random.default_rng(n).standard_normal((n, NUM_FEATURES))
        single = _forward(X, p)[0]
        blocked = forward_batch(X, p)
        assert blocked.shape == (n, 2)
        assert np.max(np.abs(blocked - single)) <= 1e-15


def test_evaluate_model_scores_with_one_blocked_forward_call(monkeypatch):
    weights = init_params(3)
    scored = []

    def recording_forward(X, p):
        probs = forward_batch(X, p)
        scored.append((X, probs))
        return probs

    monkeypatch.setattr(metrics, "forward_batch", recording_forward)
    for n in BLOCK_EDGE_SIZES[1:]:
        test = random_dataset(n, n // 3, seed=n)
        first = evaluate_model(weights, test)
        assert len(scored) == 1
        X, probs = scored.pop()
        single = _forward(X, unflatten_params(weights))[0]
        assert np.max(np.abs(probs - single)) <= 1e-15
        assert evaluate_model(weights, test) == first
        assert len(scored) == 1
        scored.clear()


def test_confusion_from_predictions_counts():
    cm = confusion_from_predictions(np.array([1, 1, 0, 0, 1]), np.array([1, 0, 0, 1, 1]))
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 1)

"""Can a protected attribute be predicted from deviation scores?

If race-blind modeling truly removed group structure, a classifier trained on
deviation profiles should do no better than chance at recovering race. This
module measures that with one-vs-rest L2-regularized logistic regression:

    loss(w, b) = sum_i log(1 + exp(-t_i (w^T x_i + b))) + lambda/2 ||w||^2

with t in {-1, +1} and the bias b unpenalized, minimized by damped Newton steps
(see _fit_binary). Decisions take the argmax over per-class scores (ties broken
by class order). Evaluation is stratified k-fold cross-validation with
per-class AUC from the raw one-vs-rest scores. The features are the deviation
scores as written: calibrated Z is already on unit scale, so none is rescaled.

The binary fits run in two rounds of (fold, class) pairs. The first fits
fold 0's pairs from zero. The second fits every other fold's, each started
from fold 0's converged fit of its class where lambda > 0: there the loss is
strictly convex, so the start changes only how many steps reach its one
optimum, and the folds share most of their training rows, so it starts near
it (on the paper workload 65 Newton steps over 15 fits instead of 124). At
lambda = 0 every fit starts from zero. Each round is cut into one chunk per
usable CPU, every chunk after the first in a forked child (see _fit_folds
and serialize._forked_iter), each chunk on one BLAS thread and, where
OpenBLAS is found, on a usable CPU of its own. The second round depends only
on the first round's fits, which are the same bits on any number of CPUs,
and this process then scores the folds in order, so the report is the same
on one CPU or many.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError
from .serialize import (
    _chunk_ranges,
    _float_rows,
    _forked_iter,
    _quoted,
    format_cell,
    write_csv,
)

log = logging.getLogger(__name__)

# Newton step cap of each binary fit; a fit that reaches it counts as not
# converged, as does one whose step halvings all fail
_MAX_ITER = 1000
_MAX_HALVINGS = 60
# largest |gradient| entry at which a binary fit counts as converged
_GTOL = 1e-6
# relative rounding error of the summed loss: a rise below it is no rise
_LOSS_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class ClassifierConfig:
    """L2 strength, fold count and fold seed.

    Each setting maps to one `normgauge classify` flag (--l2, --folds,
    --seed); the optimizer's iteration cap is fixed. The features are used
    as given: deviation scores are already on unit scale.
    """

    l2_strength: float = 1.0
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.l2_strength < math.inf:
            raise InputError(f"l2_strength must be finite and >= 0, got {self.l2_strength}")
        if self.n_folds < 2:
            raise InputError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OvrLogisticModel:
    """One binary logistic head per class over a shared feature space."""

    classes: tuple[str, ...]
    weights: np.ndarray
    intercepts: np.ndarray


def _fit_binary(
    x: np.ndarray, target: np.ndarray, lam: float, start: np.ndarray | None = None
) -> tuple[np.ndarray, float, bool]:
    """Weights, bias and whether max |gradient| fell to _GTOL.

    Damped Newton from start (the weights, bias last; None is zero): each
    step solves H s = g, with H formed as the syrk xs^T xs plus the ridge,
    and is halved until the loss does not rise by more than its rounding
    error. At lam > 0 the loss is strictly convex, so its optimum is unique
    and the start changes only how many steps reach it. A Hessian that is
    singular all the same (a ridge lost to rounding) raises NumericalError.
    At lam = 0 the Hessian can be singular (collinear features), so the fit
    runs in an orthonormal basis of the row space of the bias-augmented
    features, found once: the loss depends on the weights only through that
    space, the Hessian there is nonsingular, and each step is the
    minimum-norm one. On separable data the loss then falls geometrically
    and the gradient test stops the fit at finite weights; that stopping
    point depends on where the fit starts, so at lam = 0 it starts from
    zero whatever start is.
    """
    n, d = x.shape
    xb = np.column_stack([x, np.ones(n)])
    ridge = np.full(d + 1, lam)
    ridge[d] = 0.0
    basis = None
    if lam == 0.0:
        # eigenvectors of xb^T xb whose eigenvalues are not rounding error
        eig, vec = np.linalg.eigh(xb.T @ xb)
        basis = vec[:, eig > eig[-1] * max(xb.shape) * np.finfo(float).eps]
        xb = xb @ basis
        ridge = np.zeros(basis.shape[1])
    k = xb.shape[1]

    def evaluate(wb: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
        """Loss, gradient, log Hessian weight log(sigma(m) sigma(-m)) and the
        largest |gradient| entry over the original weights."""
        margins = target * (xb @ wb)
        softplus_neg = np.logaddexp(0.0, -margins)
        softplus_pos = np.logaddexp(0.0, margins)
        loss = float(np.sum(softplus_neg)) + 0.5 * lam * float(wb[:d] @ wb[:d])
        # exp(-softplus(m)) is sigma(-m), the chance of the wrong label
        grad = xb.T @ (-target * np.exp(-softplus_pos)) + ridge * wb
        full = grad if basis is None else basis @ grad
        return loss, grad, -(softplus_pos + softplus_neg), float(np.max(np.abs(full)))

    wb = start if start is not None and basis is None else np.zeros(k)
    loss, grad, log_weight, grad_max = evaluate(wb)
    converged = False
    for _ in range(_MAX_ITER):
        if grad_max <= _GTOL:
            converged = True
            break
        xs = xb * np.exp(0.5 * log_weight)[:, None]
        hess = xs.T @ xs
        hess.flat[:: k + 1] += ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"a logistic fit's Newton Hessian is singular at --l2 {lam!r}; "
                "collinear features need a larger --l2"
            ) from None
        for _ in range(_MAX_HALVINGS):
            cand = wb - step
            cand_loss, cand_grad, cand_log_weight, cand_grad_max = evaluate(cand)
            # near the optimum the loss changes by less than its rounding
            # error; there a smaller gradient decides instead
            if cand_loss <= loss or (
                cand_loss - loss <= _LOSS_ROUNDING * abs(loss) and cand_grad_max < grad_max
            ):
                break
            step *= 0.5
        else:
            break  # no step lowers the loss or, within rounding, the gradient
        wb, loss, grad, log_weight, grad_max = (
            cand, cand_loss, cand_grad, cand_log_weight, cand_grad_max
        )
    if basis is not None:
        wb = basis @ wb
    return wb[:d], float(wb[d]), converged


def _fit_folds(
    x: np.ndarray,
    labels: np.ndarray,
    test_folds: list[np.ndarray],
    config: ClassifierConfig,
) -> list[tuple[OvrLogisticModel, int]]:
    """Per test-index array, the one-vs-rest model fitted on the rows outside
    it and how many of its binary fits did not converge.

    The binary fits run as (fold, class) pairs in two rounds. The first fits
    fold 0's pairs from zero; the second fits every other fold's, each from
    fold 0's fit of its class where that converged (_fit_binary uses a start
    only at l2 > 0). The folds share most of their training rows, so that
    start lies near each optimum. Each round is cut into one contiguous
    chunk per usable CPU (serialize._chunk_ranges), and every chunk after
    the first runs in a forked child (serialize._forked_iter). Forked chunks
    run as every forked iteration does: OpenBLAS on one thread, and each
    chunk held to a usable CPU of its own where it does. A fit depends only
    on its fold's training rows, its class and, in the second round, the
    first round's results, and its products split their outputs, not their
    sums, across BLAS threads, so neither the cut nor the thread count
    changes a bit.
    """
    fold_classes = []
    for test_idx in test_folds:
        classes = tuple(sorted(set(np.delete(labels, test_idx).tolist())))
        if len(classes) < 2:
            raise InputError("need at least 2 classes to fit a classifier")
        fold_classes.append(classes)
    pairs = [(fold, cls) for fold, classes in enumerate(fold_classes) for cls in classes]

    def fit_round(
        todo: list[tuple[int, str]], starts: dict[str, np.ndarray]
    ) -> list[tuple[np.ndarray, float, bool]]:
        """The weights, bias and convergence flag of each pair in todo, each
        fitted from the start of its class (zero where none)."""

        def fit_chunk(chunk: range) -> list[tuple[np.ndarray, float, bool]]:
            heads, train_fold = [], None
            for fold, cls in (todo[i] for i in chunk):
                if fold != train_fold:  # the pairs of one fold are adjacent
                    train_fold = fold
                    x_train = np.delete(x, test_folds[fold], axis=0)
                    y_train = np.delete(labels, test_folds[fold])
                target = np.where(y_train == cls, 1.0, -1.0)
                heads.append(
                    _fit_binary(x_train, target, config.l2_strength, starts.get(cls))
                )
            return heads

        return [
            head
            for part in _forked_iter(fit_chunk, _chunk_ranges(len(todo)))
            for head in part
        ]

    first = len(fold_classes[0])
    heads = fit_round(pairs[:first], {})
    starts = {
        cls: np.r_[weights, bias]
        for cls, (weights, bias, converged) in zip(fold_classes[0], heads)
        if converged
    }
    heads = iter(heads + fit_round(pairs[first:], starts))
    models = []
    for classes in fold_classes:
        weights, intercepts, converged = zip(*(next(heads) for _ in classes))
        model = OvrLogisticModel(
            classes=classes, weights=np.array(weights), intercepts=np.array(intercepts)
        )
        models.append((model, converged.count(False)))
    return models


def decision_scores(model: OvrLogisticModel, x: np.ndarray) -> np.ndarray:
    """Raw per-class scores w_c^T x + b_c, shape (n, n_classes)."""
    return np.asarray(x, dtype=float) @ model.weights.T + model.intercepts


def stratified_folds(
    labels: Sequence[str], n_folds: int, seed: int
) -> list[np.ndarray]:
    """Test-index arrays per fold; class proportions match within one subject.

    Each class is shuffled by its own stream keyed on (seed, class index in
    sorted order) and dealt into folds, so membership is reproducible and
    independent of the other classes.
    """
    labels = np.asarray(list(labels))
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for ci, cls in enumerate(sorted(set(labels.tolist()))):
        idx = np.nonzero(labels == cls)[0]
        rng = np.random.default_rng(np.random.SeedSequence([seed, ci]))
        chunks = np.array_split(rng.permutation(idx), n_folds)
        for f, chunk in enumerate(chunks):
            folds[f].extend(int(i) for i in chunk)
    return [np.array(sorted(f), dtype=int) for f in folds]


def roc_points(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """ROC curve by descending-score threshold sweep, plus trapezoidal AUC.

    Tied scores form a single threshold step, which makes the AUC equal to
    the Mann-Whitney statistic with half credit for ties. Constant scores
    yield the chance diagonal and AUC 0.5.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length vectors")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise InputError("ROC needs both a positive and a negative example")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tps = np.cumsum(labels[order] == 1)
    fps = np.cumsum(labels[order] == 0)
    # keep only the last index of each tied-score block
    cut = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    tpr = np.r_[0.0, tps[cut] / n_pos]
    fpr = np.r_[0.0, fps[cut] / n_neg]
    return fpr, tpr, float(np.trapezoid(tpr, fpr))


def _binary_prf(
    true_pos_mask: np.ndarray, pred_pos_mask: np.ndarray
) -> tuple[float, float, float]:
    tp = int(np.sum(true_pos_mask & pred_pos_mask))
    fp = int(np.sum(~true_pos_mask & pred_pos_mask))
    fn = int(np.sum(true_pos_mask & ~pred_pos_mask))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f_score


@dataclass
class ClassifierReport:
    """Per class x fold metrics, ROC curves, and confusion matrices.

    Metric arrays are (n_classes, n_folds) with NaN where a fold's test set
    lacked the class; NaN folds are excluded from means.
    """

    classes: tuple[str, ...]
    n_folds: int
    auc: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f_score: np.ndarray
    roc_curves: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]
    confusion_counts: np.ndarray
    confusion_pooled: np.ndarray

    def _metric(self, name: str) -> np.ndarray:
        return {
            "auc": self.auc,
            "precision": self.precision,
            "recall": self.recall,
            "f": self.f_score,
        }[name]

    def class_mean(self, name: str, cls: str) -> float:
        row = self._metric(name)[self.classes.index(cls)]
        return float(np.nanmean(row))

    def macro_mean(self, name: str) -> float:
        return float(np.mean([self.class_mean(name, c) for c in self.classes]))


def _normalize_rows(counts: np.ndarray) -> np.ndarray:
    counts = counts.astype(float)
    sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = counts / sums
    out[np.squeeze(sums == 0.0, axis=1)] = np.nan
    return out


def cross_validate(
    x: np.ndarray, labels: Sequence[str], config: ClassifierConfig | None = None
) -> ClassifierReport:
    """Stratified k-fold evaluation of the one-vs-rest classifier.

    Each fold's model is fitted on the rows outside it and scored on its
    rows; the report has one column per fold (see stratified_folds).
    """
    config = config or ClassifierConfig()
    x = np.asarray(x, dtype=float)
    labels = np.asarray(list(labels))
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise InputError("need at least 2 classes to cross-validate")
    for cls in classes:
        count = int(np.sum(labels == cls))
        if count < config.n_folds:
            raise InputError(
                f"class '{cls}' has {count} members, fewer than "
                f"{config.n_folds} folds"
            )
    test_folds = stratified_folds(labels, config.n_folds, config.seed)
    shape = (len(classes), config.n_folds)
    auc, precision, recall, f_score = (np.full(shape, np.nan) for _ in range(4))
    roc: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    counts = np.zeros((len(classes), len(classes)), dtype=int)
    fits = unconverged = 0
    models = _fit_folds(x, labels, test_folds, config)
    for fold, (test_idx, (model, fold_unconverged)) in enumerate(zip(test_folds, models)):
        fits += len(model.classes)
        unconverged += fold_unconverged
        scores = decision_scores(model, x[test_idx])
        test_labels = labels[test_idx]
        preds = np.asarray(model.classes)[np.argmax(scores, axis=1)]
        for ci, cls in enumerate(classes):
            true_mask = test_labels == cls
            if true_mask.any() and (~true_mask).any():
                col = model.classes.index(cls)
                fpr, tpr, auc[ci, fold] = roc_points(
                    scores[:, col], true_mask.astype(int)
                )
                roc[(cls, fold)] = (fpr, tpr)
                precision[ci, fold], recall[ci, fold], f_score[ci, fold] = _binary_prf(
                    true_mask, preds == cls
                )
            else:
                log.warning("fold %d: class '%s' missing from test set", fold, cls)
        for true_label, pred_label in zip(test_labels, preds):
            counts[classes.index(true_label), classes.index(pred_label)] += 1
    if unconverged:
        log.warning(
            "%d of %d logistic fits stopped without convergence", unconverged, fits
        )
    return ClassifierReport(
        classes=classes,
        n_folds=config.n_folds,
        auc=auc,
        precision=precision,
        recall=recall,
        f_score=f_score,
        roc_curves=roc,
        confusion_counts=counts,
        confusion_pooled=_normalize_rows(counts),
    )


def write_clf_metrics(path: str | Path, report: ClassifierReport) -> None:
    rows = []
    for ci, cls in enumerate(report.classes):
        for fold in range(report.n_folds):
            rows.append(
                [
                    cls,
                    fold,
                    report.auc[ci, fold],
                    report.precision[ci, fold],
                    report.recall[ci, fold],
                    report.f_score[ci, fold],
                ]
            )
    write_csv(path, ["class", "fold", "auc", "precision", "recall", "f"], rows)


def write_roc_points(path: str | Path, report: ClassifierReport) -> None:
    """write_csv's bytes for the rows (class, fold, fpr, tpr) of every curve,
    formatted a curve at a time by serialize._float_rows, with the class and
    fold text as each row's prefix. _float_rows writes format_cell's text of
    every float, and roc_points gives no NaN."""
    with open(path, "wb") as fh:
        fh.write(b"class,fold,fpr,tpr\n")
        for (cls, fold), (fpr, tpr) in sorted(report.roc_curves.items()):
            prefix = f"{_quoted(format_cell(cls))},{format_cell(fold)},".encode("utf-8")
            fh.write(_float_rows(np.column_stack([fpr, tpr]), itertools.repeat(prefix)))


def write_confusion(path: str | Path, report: ClassifierReport) -> None:
    header = ["true_class", *[f"pred_{c}" for c in report.classes]]
    rows = [
        [cls, *report.confusion_pooled[ci]] for ci, cls in enumerate(report.classes)
    ]
    write_csv(path, header, rows)


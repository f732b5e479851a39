"""Can a protected attribute be predicted from deviation scores?

If race-blind modeling truly removed group structure, a classifier trained on
deviation profiles should do no better than chance at recovering race. This
module measures that with one-vs-rest L2-regularized logistic regression:

    loss(w, b) = sum_i log(1 + exp(-t_i (w^T x_i + b))) + lambda/2 ||w||^2

with t in {-1, +1} and the bias b unpenalized, minimized by damped Newton steps
(see _fit_binary). Decisions take the argmax over per-class scores (ties broken
by class order). Evaluation is stratified k-fold cross-validation with
per-class AUC from the raw one-vs-rest scores.

The binary fits of all folds are independent: each depends only on its
fold's training rows and its class. They run as one sequence of (fold,
class) pairs cut into one chunk per usable CPU, every chunk after the first
in a forked child (see _fit_folds and serialize._forked_iter), each chunk
on one BLAS thread and, where OpenBLAS is found, on a usable CPU of its own.
This process then scores the folds in order, so the report is the same on
one CPU or many.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .serialize import _chunk_ranges, _forked_iter, write_csv

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
    """L2 strength, fold count, fold seed, and whether features are z-scored.

    Each setting maps to one `normgauge classify` flag (--l2, --folds, --seed,
    --standardize); the optimizer's iteration cap is fixed.
    """

    l2_strength: float = 1.0
    n_folds: int = 5
    seed: int = 0
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.l2_strength < 0:
            raise InputError(f"l2_strength must be >= 0, got {self.l2_strength}")
        if self.n_folds < 2:
            raise InputError(f"n_folds must be >= 2, got {self.n_folds}")


@dataclass
class OvrLogisticModel:
    """One binary logistic head per class over a shared feature space."""

    classes: tuple[str, ...]
    weights: np.ndarray
    intercepts: np.ndarray
    feature_means: np.ndarray | None = None
    feature_scales: np.ndarray | None = None


def _fit_binary(
    x: np.ndarray, target: np.ndarray, lam: float
) -> tuple[np.ndarray, float, bool]:
    """Weights, bias and whether max |gradient| fell to _GTOL.

    Damped Newton from zero: each step solves H s = g, with H formed as the
    syrk xs^T xs plus the ridge, and is halved until the loss does not rise
    by more than its rounding error. At lam = 0 the Hessian can be singular
    (collinear features), so the fit runs in an orthonormal basis of the row
    space of the bias-augmented features, found once: the loss depends on
    the weights only through that space, the Hessian there is nonsingular,
    and each step is the minimum-norm one. On separable data the loss then
    falls geometrically and the gradient test stops the fit at finite
    weights.
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

    wb = np.zeros(k)
    loss, grad, log_weight, grad_max = evaluate(wb)
    converged = False
    for _ in range(_MAX_ITER):
        if grad_max <= _GTOL:
            converged = True
            break
        xs = xb * np.exp(0.5 * log_weight)[:, None]
        hess = xs.T @ xs
        hess.flat[:: k + 1] += ridge
        step = np.linalg.solve(hess, grad)
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


def _training_rows(
    x: np.ndarray, labels: np.ndarray, test_idx: np.ndarray, standardize: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The rows outside test_idx, z-scored by their own means and scales when
    standardize is set, their labels, and those means and scales (else None)."""
    x, labels = np.delete(x, test_idx, axis=0), np.delete(labels, test_idx)
    means = scales = None
    if standardize:
        means = x.mean(axis=0)
        scales = x.std(axis=0)
        scales = np.where(scales == 0.0, 1.0, scales)
        x = (x - means) / scales
    return x, labels, means, scales


def _fit_folds(
    x: np.ndarray,
    labels: np.ndarray,
    test_folds: list[np.ndarray],
    config: ClassifierConfig,
) -> list[tuple[OvrLogisticModel, int]]:
    """Per test-index array, the one-vs-rest model fitted on the rows outside
    it and how many of its binary fits did not converge.

    The binary fits of all folds are one sequence of (fold, class) pairs, cut
    into one contiguous chunk per usable CPU (serialize._chunk_ranges); every
    chunk after the first runs in a forked child (serialize._forked_iter).
    Forked chunks run as every forked iteration does: OpenBLAS on one thread,
    and each chunk held to a usable CPU of its own where it does. A fit
    depends only on its fold's training rows and its class, and its products
    split their outputs, not their sums, across BLAS threads, so neither the
    cut nor the thread count changes a bit.
    """
    fold_classes = []
    for test_idx in test_folds:
        classes = tuple(sorted(set(np.delete(labels, test_idx).tolist())))
        if len(classes) < 2:
            raise InputError("need at least 2 classes to fit a classifier")
        fold_classes.append(classes)
    pairs = [(fold, cls) for fold, classes in enumerate(fold_classes) for cls in classes]

    def fit_chunk(chunk: range) -> tuple[list[tuple[np.ndarray, float, bool]], dict]:
        """The weights, bias and convergence flag of each pair in chunk, and
        the feature means and scales of each fold it reaches."""
        heads, scaling = [], {}
        for fold, cls in (pairs[i] for i in chunk):
            if fold not in scaling:  # the pairs of one fold are adjacent
                x_train, y_train, means, scales = _training_rows(
                    x, labels, test_folds[fold], config.standardize
                )
                scaling[fold] = means, scales
            target = np.where(y_train == cls, 1.0, -1.0)
            heads.append(_fit_binary(x_train, target, config.l2_strength))
        return heads, scaling

    parts = list(_forked_iter(fit_chunk, _chunk_ranges(len(pairs))))
    heads = iter([head for part_heads, _ in parts for head in part_heads])
    scaling = {fold: s for _, part_scaling in parts for fold, s in part_scaling.items()}
    models = []
    for fold, classes in enumerate(fold_classes):
        weights, intercepts, converged = zip(*(next(heads) for _ in classes))
        means, scales = scaling[fold]
        model = OvrLogisticModel(
            classes=classes,
            weights=np.array(weights),
            intercepts=np.array(intercepts),
            feature_means=means,
            feature_scales=scales,
        )
        models.append((model, converged.count(False)))
    return models


def _warn_unconverged(unconverged: int, fits: int) -> None:
    if unconverged:
        log.warning(
            "%d of %d logistic fits stopped without convergence", unconverged, fits
        )


def decision_scores(model: OvrLogisticModel, x: np.ndarray) -> np.ndarray:
    """Raw per-class scores w_c^T x + b_c, shape (n, n_classes)."""
    x = np.asarray(x, dtype=float)
    if model.feature_means is not None:
        x = (x - model.feature_means) / model.feature_scales
    return x @ model.weights.T + model.intercepts


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


def _report(
    x: np.ndarray,
    labels: np.ndarray,
    classes: tuple[str, ...],
    test_folds: list[np.ndarray],
    config: ClassifierConfig,
) -> ClassifierReport:
    """Fit on all rows outside each test-index array and score that array.

    Each array is one fold column of the report.
    """
    shape = (len(classes), len(test_folds))
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
    _warn_unconverged(unconverged, fits)
    return ClassifierReport(
        classes=classes,
        n_folds=len(test_folds),
        auc=auc,
        precision=precision,
        recall=recall,
        f_score=f_score,
        roc_curves=roc,
        confusion_counts=counts,
        confusion_pooled=_normalize_rows(counts),
    )


def cross_validate(
    x: np.ndarray, labels: Sequence[str], config: ClassifierConfig | None = None
) -> ClassifierReport:
    """Stratified k-fold evaluation of the one-vs-rest classifier.

    The report has one column per fold (see stratified_folds).
    """
    config = config or ClassifierConfig()
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
    folds = stratified_folds(labels, config.n_folds, config.seed)
    return _report(np.asarray(x, dtype=float), labels, classes, folds, config)


def evaluate_holdout(
    x: np.ndarray,
    labels: Sequence[str],
    config: ClassifierConfig | None = None,
    test_fraction: float = 0.2,
) -> ClassifierReport:
    """Single stratified holdout evaluation; report has one fold column.

    The holdout is the one test-index array of the same report builder that
    cross_validate uses. Each class gives floor(test_fraction * size) of its
    members, at least one and at most size - 1, so that every class keeps a
    training row, drawn by its own stream keyed on (seed, class index).
    """
    config = config or ClassifierConfig()
    if not (0.0 < test_fraction < 1.0):
        raise InputError(f"test fraction must be in (0, 1), got {test_fraction}")
    labels = np.asarray(list(labels))
    classes = tuple(sorted(set(labels.tolist())))
    test_parts = []
    for ci, cls in enumerate(classes):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < 2:
            raise InputError(f"class '{cls}' has fewer than 2 members")
        k = min(max(1, int(np.floor(test_fraction * idx.size + 1e-9))), idx.size - 1)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, ci]))
        test_parts.append(rng.permutation(idx)[:k])
    test_idx = np.array(sorted(int(i) for i in np.concatenate(test_parts)))
    return _report(np.asarray(x, dtype=float), labels, classes, [test_idx], config)


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
    rows = []
    for (cls, fold), (fpr, tpr) in sorted(report.roc_curves.items()):
        # Python floats: format_cell's fast path, where numpy scalars take its slowest
        for x_val, y_val in zip(fpr.tolist(), tpr.tolist()):
            rows.append([cls, fold, x_val, y_val])
    write_csv(path, ["class", "fold", "fpr", "tpr"], rows)


def write_confusion(path: str | Path, report: ClassifierReport) -> None:
    header = ["true_class", *[f"pred_{c}" for c in report.classes]]
    rows = [
        [cls, *report.confusion_pooled[ci]] for ci, cls in enumerate(report.classes)
    ]
    write_csv(path, header, rows)


def render_roc_svg(report: ClassifierReport, path: str | Path) -> None:
    """Fold curves thin and light, per-class mean curve thick and dark."""
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise InputError(
            "matplotlib is required to render roc.svg (install the 'plots' extra)"
        ) from None
    fig, ax = plt.subplots(figsize=(5.5, 5.0))
    cmap = plt.get_cmap("tab10")
    grid = np.linspace(0.0, 1.0, 101)
    for ci, cls in enumerate(report.classes):
        color = cmap(ci % 10)
        interped = []
        for fold in range(report.n_folds):
            curve = report.roc_curves.get((cls, fold))
            if curve is None:
                continue
            fpr, tpr = curve
            ax.plot(fpr, tpr, color=color, alpha=0.3, linewidth=0.9)
            interped.append(np.interp(grid, fpr, tpr))
        if interped:
            mean_auc = report.class_mean("auc", cls)
            ax.plot(
                grid,
                np.mean(interped, axis=0),
                color=color,
                linewidth=2.5,
                label=f"{cls} (AUC {mean_auc:.3f})",
            )
    ax.plot([0, 1], [0, 1], linestyle="--", color="grey", linewidth=0.8)
    ax.set_xlabel("false positive rate")
    ax.set_ylabel("true positive rate")
    ax.legend(loc="lower right")
    fig.tight_layout()
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)

"""Tests for attribute-predictability classification: logistic heads, ROC, CV."""

import logging

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from normgauge import (
    ClassifierConfig,
    InputError,
    cross_validate,
    decision_scores,
    roc_points,
    stratified_folds,
)
from normgauge import classify, serialize
from normgauge.classify import (
    evaluate_holdout,
    write_clf_metrics,
    write_confusion,
    write_roc_points,
)


def blob_data(rng, n_per_class, centers, sd=1.0):
    xs, labels = [], []
    for cls, center in centers.items():
        n = n_per_class[cls]
        xs.append(rng.normal(0, sd, (n, len(center))) + np.asarray(center))
        labels.extend([cls] * n)
    return np.vstack(xs), labels


def one_hot(labels):
    """One column per class: with the bias, the columns are collinear."""
    classes = sorted(set(labels))
    x = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        x[i, classes.index(lab)] = 1.0
    return x


def logistic_loss_grad(wb, x, target, lam):
    """The binary fit's loss and full gradient, bias last and unpenalized."""
    w, b = wb[:-1], wb[-1]
    margins = target * (x @ w + b)
    coeff = -target * expit(-margins)
    loss = float(np.sum(np.logaddexp(0.0, -margins))) + 0.5 * lam * float(w @ w)
    return loss, np.r_[x.T @ coeff + lam * w, np.sum(coeff)]


def fit_ovr(x, labels, config):
    """The one-vs-rest model and its count of binary fits that did not converge."""
    return classify._fit_folds(x, np.asarray(labels), [np.array([], dtype=int)], config)[0]


def predicted(model, x):
    """Each row's class of largest score, as the classifier's report decides."""
    return np.asarray(model.classes)[np.argmax(decision_scores(model, x), axis=1)]


def training_auc(model, x, labels, cls):
    scores = decision_scores(model, x)[:, model.classes.index(cls)]
    return roc_points(scores, (np.asarray(labels) == cls).astype(int))[2]


class TestRocPoints:
    def test_worked_example(self):
        fpr, tpr, auc = roc_points(
            np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])
        )
        assert auc == 0.75
        np.testing.assert_array_equal(fpr, [0.0, 0.0, 0.5, 0.5, 1.0])
        np.testing.assert_array_equal(tpr, [0.0, 0.5, 0.5, 1.0, 1.0])

    def test_scores_equal_labels_is_perfect(self):
        labels = np.array([0, 1, 0, 1, 1])
        _, _, auc = roc_points(labels.astype(float), labels)
        assert auc == 1.0

    def test_constant_scores_are_chance(self):
        fpr, tpr, auc = roc_points(np.full(6, 0.3), np.array([0, 1, 0, 1, 0, 1]))
        assert auc == 0.5
        np.testing.assert_array_equal(fpr, [0.0, 1.0])
        np.testing.assert_array_equal(tpr, [0.0, 1.0])

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            scores = rng.integers(0, 5, 40).astype(float)
            labels = (rng.random(40) < 0.4).astype(int)
            if labels.min() == labels.max():
                continue
            _, _, auc = roc_points(scores, labels)
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            mw = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) / (
                pos.size * neg.size
            )
            assert auc == pytest.approx(mw, abs=1e-12)

    def test_score_reversal_complements_auc(self):
        rng = np.random.default_rng(19)
        scores = rng.normal(size=30)
        labels = (rng.random(30) < 0.5).astype(int)
        _, _, auc = roc_points(scores, labels)
        _, _, flipped = roc_points(-scores, labels)
        assert flipped == pytest.approx(1.0 - auc, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            roc_points(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            roc_points(np.array([0.1, 0.2]), np.array([1, 0, 1]))


class TestStratifiedFolds:
    labels = ["A"] * 20 + ["B"] * 30 + ["W"] * 50

    def test_per_class_fold_sizes(self):
        folds = stratified_folds(self.labels, 5, seed=0)
        arr = np.asarray(self.labels)
        for fold in folds:
            counts = {c: int(np.sum(arr[fold] == c)) for c in ("A", "B", "W")}
            assert counts == {"A": 4, "B": 6, "W": 10}

    def test_partition_properties(self):
        folds = stratified_folds(self.labels, 5, seed=3)
        seen = np.concatenate(folds)
        assert len(seen) == len(self.labels)
        assert len(np.unique(seen)) == len(self.labels)

    def test_same_seed_reproducible(self):
        a = stratified_folds(self.labels, 5, seed=7)
        b = stratified_folds(self.labels, 5, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_different_seed_differs(self):
        a = stratified_folds(self.labels, 5, seed=7)
        b = stratified_folds(self.labels, 5, seed=8)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a, b))

    def test_uneven_classes_spread_within_one(self):
        labels = ["A"] * 7 + ["W"] * 11
        folds = stratified_folds(labels, 3, seed=1)
        arr = np.asarray(labels)
        for cls, total in (("A", 7), ("W", 11)):
            counts = [int(np.sum(arr[f] == cls)) for f in folds]
            assert sum(counts) == total
            assert max(counts) - min(counts) <= 1


class TestOvrLogistic:
    def test_separable_blobs_perfect_training_auc(self):
        rng = np.random.default_rng(0)
        x, labels = blob_data(
            rng, {"A": 40, "W": 40}, {"A": (-3.0, -3.0), "W": (3.0, 3.0)}, sd=0.5
        )
        model = fit_ovr(x, labels, ClassifierConfig(l2_strength=1e-3))[0]
        scores = decision_scores(model, x)
        truth = (np.asarray(labels) == "A").astype(int)
        _, _, auc = roc_points(scores[:, model.classes.index("A")], truth)
        assert auc == 1.0
        assert (predicted(model, x) == np.asarray(labels)).all()

    def test_huge_ridge_collapses_to_priors(self):
        rng = np.random.default_rng(1)
        x, labels = blob_data(
            rng, {"A": 30, "W": 70}, {"A": (-2.0,), "W": (2.0,)}, sd=1.0
        )
        model = fit_ovr(x, labels, ClassifierConfig(l2_strength=1e6))[0]
        assert np.abs(model.weights).max() < 1e-3
        priors = {"A": 0.3, "W": 0.7}
        for ci, cls in enumerate(model.classes):
            assert expit(model.intercepts[ci]) == pytest.approx(priors[cls], abs=0.02)
        assert (predicted(model, x) == "W").all()

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            fit_ovr(np.zeros((5, 2)), ["W"] * 5, ClassifierConfig())

    def test_hand_checked_gradient_optimum(self):
        # at the optimum the unregularized bias gradient is zero, so the
        # fitted probabilities average to the empirical rate per class
        rng = np.random.default_rng(5)
        x, labels = blob_data(
            rng, {"A": 25, "W": 35}, {"A": (-1.0, 0.5), "W": (1.0, -0.5)}
        )
        model = fit_ovr(x, labels, ClassifierConfig(l2_strength=0.5))[0]
        scores = decision_scores(model, x)
        for ci, cls in enumerate(model.classes):
            rate = float(np.mean(np.asarray(labels) == cls))
            assert float(np.mean(expit(scores[:, ci]))) == pytest.approx(
                rate, abs=1e-4
            )

    def test_unpenalized_fit_on_separable_data_stops_finite(self):
        # at l2 = 0 the optimum lies at infinity; the gradient test must stop
        # the fit while the weights are finite
        rng = np.random.default_rng(0)
        x, labels = blob_data(
            rng, {"A": 40, "W": 40}, {"A": (-3.0, -3.0), "W": (3.0, 3.0)}, sd=0.5
        )
        model, unconverged = fit_ovr(x, labels, ClassifierConfig(l2_strength=0.0))
        assert unconverged == 0
        assert np.isfinite(model.weights).all() and np.isfinite(model.intercepts).all()
        assert training_auc(model, x, labels, "A") == 1.0

    def test_unpenalized_fit_on_collinear_features(self):
        # one-hot columns sum to the bias column, so the Hessian is singular
        labels = ["A"] * 20 + ["B"] * 30 + ["W"] * 50
        x = one_hot(labels)
        model = fit_ovr(x, labels, ClassifierConfig(l2_strength=0.0))[0]
        assert np.isfinite(model.weights).all() and np.isfinite(model.intercepts).all()
        for cls in model.classes:
            assert training_auc(model, x, labels, cls) == 1.0

    def test_large_unstandardized_features_converge(self):
        # at features near 1e4 a Newton step changes the loss by less than
        # its rounding error while the gradient is still above tolerance
        rng = np.random.default_rng(3)
        x, labels = blob_data(
            rng, {"A": 150, "W": 150}, {"A": (0.3,) * 30, "W": (0.0,) * 30}
        )
        x = 5000.0 * x + 15000.0
        model, unconverged = fit_ovr(x, labels, ClassifierConfig(l2_strength=3.0))
        assert unconverged == 0
        for ci, cls in enumerate(model.classes):
            target = np.where(np.asarray(labels) == cls, 1.0, -1.0)
            wb = np.r_[model.weights[ci], model.intercepts[ci]]
            assert np.max(np.abs(logistic_loss_grad(wb, x, target, 3.0)[1])) <= 1e-6


class TestNewtonMatchesLbfgs:
    """Oracle: scipy's L-BFGS-B on the same loss, run far past the fit's
    tolerance, reaches the same weights."""

    @pytest.mark.parametrize("standardize", [False, True])
    def test_weights_and_gradient(self, standardize):
        rng = np.random.default_rng(15)
        x, labels = blob_data(
            rng,
            {"A": 30, "B": 40, "W": 60},
            {"A": (-1.0, 0.5, 0.0), "B": (1.0, -0.5, 0.0), "W": (0.0, 0.0, 1.0)},
        )
        x[:, 2] = 40.0 * x[:, 2] + 7.0
        config = ClassifierConfig(l2_strength=0.5, standardize=standardize)
        model = fit_ovr(x, labels, config)[0]
        if standardize:
            x = (x - model.feature_means) / model.feature_scales
        for ci, cls in enumerate(model.classes):
            target = np.where(np.asarray(labels) == cls, 1.0, -1.0)
            args = (x, target, config.l2_strength)
            oracle = minimize(
                logistic_loss_grad, np.zeros(x.shape[1] + 1), args=args, jac=True,
                method="L-BFGS-B", options={"ftol": 1e-15, "gtol": 1e-10},
            ).x
            got = np.r_[model.weights[ci], model.intercepts[ci]]
            assert np.max(np.abs(got - oracle)) <= 1e-6 * np.max(np.abs(oracle))
            assert np.max(np.abs(logistic_loss_grad(got, *args)[1])) <= 1e-6


class TestNonConvergenceWarning:
    """Each call logs one record that counts its fits that did not converge."""

    @pytest.mark.parametrize(
        "call, fits",
        [
            (cross_validate, 15),
            (evaluate_holdout, 3),
        ],
        ids=["cross_validate", "evaluate_holdout"],
    )
    def test_one_record_per_call(self, monkeypatch, caplog, forks, call, fits):
        # forked, the counts come back from the children
        pids, forked = forks
        monkeypatch.setattr(classify, "_MAX_ITER", 1)
        rng = np.random.default_rng(2)
        x, labels = blob_data(
            rng,
            {"A": 25, "B": 25, "W": 50},
            {"A": (-1.0, 0.0), "B": (1.0, 0.0), "W": (0.0, 1.0)},
        )
        with caplog.at_level(logging.WARNING, logger="normgauge.classify"):
            call(x, labels)
        assert [r.getMessage() for r in caplog.records] == [
            f"{fits} of {fits} logistic fits stopped without convergence"
        ]
        assert bool(pids) == forked


def report_bytes(report):
    """Every array of a classifier report as bytes, ROC curves by key."""
    arrays = [
        report.auc, report.precision, report.recall, report.f_score,
        report.confusion_counts, report.confusion_pooled,
    ]
    curves = {key: (fpr.tobytes(), tpr.tobytes()) for key, (fpr, tpr) in report.roc_curves.items()}
    return [a.tobytes() for a in arrays], curves


class TestForkedFits:
    """The binary fits of all folds run in one contiguous chunk of (fold,
    class) pairs per usable CPU; the report is bitwise the in-process one."""

    @pytest.mark.parametrize(
        "call, config, pairs",
        [
            (cross_validate, ClassifierConfig(), 15),
            (cross_validate, ClassifierConfig(l2_strength=0.0), 15),
            (cross_validate, ClassifierConfig(standardize=True), 15),
            (evaluate_holdout, ClassifierConfig(), 3),
        ],
        ids=["defaults", "l2-zero", "standardize", "holdout"],
    )
    def test_report_matches_in_process(self, monkeypatch, usable_cpus, call, config, pairs):
        pids, cpus = usable_cpus
        rng = np.random.default_rng(21)
        x, labels = blob_data(
            rng,
            {"A": 30, "B": 35, "W": 60},
            {"A": (-0.6, 0.3, 0.0), "B": (0.6, -0.3, 0.0), "W": (0.0, 0.0, 0.5)},
        )
        x[:, 2] = 30.0 * x[:, 2] + 4.0
        got = call(x, labels, config)
        assert len(pids) == min(cpus, pairs) - 1
        monkeypatch.setattr(serialize, "_fork_slots", lambda: 1)
        want = call(x, labels, config)
        assert got.classes == want.classes
        assert report_bytes(got) == report_bytes(want)

    def test_forked_fits_run_one_blas_thread(self, monkeypatch, usable_cpus):
        pids, cpus = usable_cpus
        blas = serialize._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, set_ = blas
        seen = []
        fit_binary = classify._fit_binary

        def recording(*args):
            seen.append(get())  # in this process: a child's record dies with it
            return fit_binary(*args)

        monkeypatch.setattr(classify, "_fit_binary", recording)
        rng = np.random.default_rng(22)
        x, labels = blob_data(
            rng, {"A": 20, "W": 30}, {"A": (-0.5, 0.2), "W": (0.5, -0.2)}
        )
        before = get()
        set_(2)
        try:
            cross_validate(x, labels)
            assert set(seen) == ({1} if cpus > 1 else {2})
            assert get() == 2
        finally:
            set_(before)
        assert len(pids) == min(cpus, 10) - 1


class TestCrossValidate:
    def test_perfect_features_score_one(self):
        labels = ["A"] * 20 + ["B"] * 30 + ["W"] * 50
        config = ClassifierConfig(l2_strength=1e-3)
        report = cross_validate(one_hot(labels), labels, config)
        assert np.nanmin(report.auc) == 1.0
        assert np.nanmin(report.precision) == 1.0
        assert np.nanmin(report.recall) == 1.0
        assert np.nanmin(report.f_score) == 1.0
        assert report.macro_mean("auc") == 1.0

    def test_unpenalized_collinear_features_score_one(self):
        labels = ["A"] * 20 + ["B"] * 30 + ["W"] * 50
        config = ClassifierConfig(l2_strength=0.0)
        report = cross_validate(one_hot(labels), labels, config)
        assert report.macro_mean("auc") == 1.0

    def test_pooled_confusion_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x, labels = blob_data(
            rng,
            {"A": 25, "B": 25, "W": 50},
            {"A": (-1.0, 0.0), "B": (1.0, 0.0), "W": (0.0, 1.0)},
        )
        report = cross_validate(x, labels)
        sums = report.confusion_pooled.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert report.confusion_counts.sum() == len(labels)

    def test_f_consistent_with_precision_recall(self):
        rng = np.random.default_rng(4)
        x, labels = blob_data(
            rng, {"A": 30, "W": 40}, {"A": (-0.8,), "W": (0.8,)}
        )
        report = cross_validate(x, labels)
        p, r, f = report.precision, report.recall, report.f_score
        mask = np.isfinite(f) & ((p + r) > 0)
        np.testing.assert_allclose(
            f[mask], 2 * p[mask] * r[mask] / (p[mask] + r[mask]), atol=1e-12
        )

    def test_class_smaller_than_fold_count_rejected(self):
        x = np.zeros((8, 2))
        labels = ["A"] * 3 + ["W"] * 5
        with pytest.raises(InputError, match="'A'"):
            cross_validate(x, labels, ClassifierConfig(n_folds=4))

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            cross_validate(np.zeros((10, 2)), ["W"] * 10)

    def test_standardization_invariant_to_feature_scale(self):
        rng = np.random.default_rng(6)
        x, labels = blob_data(
            rng, {"A": 30, "W": 30}, {"A": (-1.0, 0.0), "W": (1.0, 0.0)}
        )
        config = ClassifierConfig(standardize=True)
        base = cross_validate(x, labels, config)
        scaled = cross_validate(x * 1024.0, labels, config)
        np.testing.assert_array_equal(base.auc, scaled.auc)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        x, labels = blob_data(
            rng, {"A": 20, "W": 30}, {"A": (-0.5, 0.2), "W": (0.5, -0.2)}
        )
        r1 = cross_validate(x, labels)
        r2 = cross_validate(x, labels)
        np.testing.assert_array_equal(r1.auc, r2.auc)
        np.testing.assert_array_equal(r1.confusion_counts, r2.confusion_counts)


def permutation_null_auc(x, labels, n_permutations, seed):
    """Mean macro AUC over label permutations; chance sits near 0.5."""
    labels_arr = np.asarray(list(labels))
    aucs = []
    for k in range(n_permutations):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        permuted = labels_arr[rng.permutation(labels_arr.size)]
        aucs.append(cross_validate(x, permuted).macro_mean("auc"))
    return float(np.mean(aucs))


class TestPermutationNull:
    def test_mean_null_auc_near_chance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(100, 5))
        labels = ["A"] * 50 + ["W"] * 50
        mean_auc = permutation_null_auc(x, labels, n_permutations=20, seed=1)
        assert 0.45 <= mean_auc <= 0.55


class TestHoldout:
    def test_stratified_test_counts_and_metrics(self):
        rng = np.random.default_rng(12)
        x, labels = blob_data(
            rng,
            {"A": 20, "B": 30, "W": 50},
            {"A": (-2.0, 0.0), "B": (2.0, 0.0), "W": (0.0, 2.0)},
            sd=0.5,
        )
        report = evaluate_holdout(x, labels, test_fraction=0.2)
        assert report.n_folds == 1
        assert report.confusion_counts.sum() == 4 + 6 + 10
        assert np.isfinite(report.auc).all()
        assert report.macro_mean("auc") > 0.95

    def test_every_class_keeps_a_training_row(self):
        # at a fraction this close to 1, floor(f * 2 + 1e-9) is the whole
        # 2-member class; the cap leaves it one training row
        rng = np.random.default_rng(13)
        labels = ["A"] * 2 + ["B"] * 5 + ["W"] * 5
        x = rng.normal(size=(len(labels), 3))
        report = evaluate_holdout(x, labels, test_fraction=1 - 4e-10)
        assert report.classes == ("A", "B", "W")
        np.testing.assert_array_equal(report.confusion_counts.sum(axis=1), [1, 4, 4])

    def test_bad_fraction_rejected(self):
        with pytest.raises(InputError):
            evaluate_holdout(np.zeros((10, 1)), ["A", "W"] * 5, test_fraction=1.0)


class TestReportFiles:
    def test_metric_and_confusion_csvs(self, tmp_path):
        rng = np.random.default_rng(14)
        x, labels = blob_data(
            rng, {"A": 25, "W": 25}, {"A": (-2.0,), "W": (2.0,)}, sd=0.5
        )
        report = cross_validate(x, labels)
        write_clf_metrics(tmp_path / "clf_metrics.csv", report)
        write_confusion(tmp_path / "confusion.csv", report)
        lines = (tmp_path / "clf_metrics.csv").read_text().splitlines()
        assert lines[0] == "class,fold,auc,precision,recall,f"
        assert len(lines) == 1 + 2 * 5
        conf = (tmp_path / "confusion.csv").read_text().splitlines()
        assert conf[0] == "true_class,pred_A,pred_W"
        for row in conf[1:]:
            cells = row.split(",")
            assert sum(float(c) for c in cells[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_roc_points_are_write_csv_bytes(self, tmp_path):
        # a label with a comma and a quote is quoted, as write_csv quotes it
        rng = np.random.default_rng(15)
        x, labels = blob_data(
            rng, {'A, "x"': 20, "W": 20}, {'A, "x"': (-1.0,), "W": (1.0,)}
        )
        report = cross_validate(x, labels, ClassifierConfig(n_folds=4))
        rows = [
            [cls, fold, fx, ty]
            for (cls, fold), (fpr, tpr) in sorted(report.roc_curves.items())
            for fx, ty in zip(fpr.tolist(), tpr.tolist())
        ]
        serialize.write_csv(tmp_path / "expected.csv", ["class", "fold", "fpr", "tpr"], rows)
        write_roc_points(tmp_path / "roc_points.csv", report)
        got = (tmp_path / "roc_points.csv").read_bytes()
        assert got == (tmp_path / "expected.csv").read_bytes()
        assert b'\n"A, ""x""",0,0.0,0.0\n' in got

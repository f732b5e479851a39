"""Tests for subgroup audits: summaries, Welch contrasts, BH-FDR, parity."""

import math

import numpy as np
import pytest

from normgauge import (
    BasisConfig,
    Cohort,
    InputError,
    ModelConfig,
    NumericalError,
    SynthSpec,
    WarpParams,
    bh_fdr,
    deviations,
    fit_metrics,
    fit_normative,
    generate,
    group_difference,
    group_fit,
    group_parity,
    group_summary,
    significant_fraction,
    t_two_sided_p,
)
from normgauge import audit


def make_race_cohort(rng, n_per_race, d=2, shift=None):
    """Cohorts with a flat age effect and optional per-race response shift."""
    races = [r for r, n in sorted(n_per_race.items()) for _ in range(n)]
    n = len(races)
    ages = rng.uniform(20, 70, n)
    noise = rng.normal(0, 0.3, (n, d))
    responses = 1.0 + 0.02 * ages[:, None] + noise
    if shift:
        for i, race in enumerate(races):
            responses[i] += shift.get(race, 0.0)
    regions = tuple(f"r{k}" for k in range(d))
    return Cohort(
        ids=tuple(f"s{i:05d}" for i in range(n)),
        ages=ages,
        sexes=tuple("F" if i % 2 == 0 else "M" for i in range(n)),
        races=races,
        regions=regions,
        responses=responses,
    )


class TestGroupSummary:
    worked = np.array([[2.5], [-2.1], [0.3], [1.9]])

    def test_worked_extreme_rates_default_threshold(self):
        out = group_summary(self.worked, ["g"] * 4, threshold=2.0)
        assert out.pct_extreme_pos["g"][0] == 0.25
        assert out.pct_extreme_neg["g"][0] == 0.25
        assert out.pct_extreme_total["g"][0] == 0.5
        assert out.mean_deviation["g"][0] == pytest.approx(0.65, abs=1e-15)

    def test_worked_extreme_rates_low_threshold(self):
        # 0.3 is not beyond the threshold 0.3: strictly greater counts
        out = group_summary(self.worked, ["g"] * 4, threshold=0.3)
        assert out.pct_extreme_total["g"][0] == 0.75

    def test_row_order_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(30, 4))
        labels = list(np.where(rng.random(30) < 0.5, "A", "W"))
        base = group_summary(z, labels)
        perm = rng.permutation(30)
        shuffled = group_summary(z[perm], [labels[i] for i in perm])
        for g in base.groups:
            np.testing.assert_allclose(
                base.mean_deviation[g], shuffled.mean_deviation[g], atol=1e-14
            )
            np.testing.assert_array_equal(
                base.pct_extreme_total[g], shuffled.pct_extreme_total[g]
            )

    def test_bad_inputs_rejected(self):
        with pytest.raises(InputError):
            group_summary(self.worked, ["g"] * 4, threshold=0.0)
        with pytest.raises(InputError):
            group_summary(self.worked, ["g"] * 3)


class TestGroupDifference:
    def test_worked_two_by_two(self):
        values = np.array([[0.0], [1.0], [2.0], [3.0]])
        res = group_difference(values, ["a", "a", "b", "b"], ("a", "b"))
        assert res.t[0] == pytest.approx(-2.8284271247461903, abs=1e-14)
        assert res.df[0] == pytest.approx(2.0, abs=1e-12)
        assert res.p[0] == pytest.approx(0.10557280900008408, rel=1e-12)

    def test_identical_groups_null(self):
        values = np.array([[0.0], [1.0], [0.0], [1.0]])
        res = group_difference(values, ["a", "a", "b", "b"], ("a", "b"))
        assert res.t[0] == 0.0
        assert res.p[0] == 1.0

    def test_constant_identical_groups_null(self):
        values = np.full((4, 2), 7.0)
        res = group_difference(values, ["a", "a", "b", "b"], ("a", "b"))
        np.testing.assert_array_equal(res.t, 0.0)
        np.testing.assert_array_equal(res.p, 1.0)

    def test_constant_distinct_groups_certain(self):
        values = np.array([[1.0], [1.0], [2.0], [2.0]])
        res = group_difference(values, ["a", "a", "b", "b"], ("a", "b"))
        assert res.t[0] == -np.inf
        assert res.p[0] == 0.0

    def test_contrast_antisymmetry(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(40, 6))
        labels = list(np.where(rng.random(40) < 0.4, "A", "W"))
        fwd = group_difference(values, labels, ("A", "W"))
        rev = group_difference(values, labels, ("W", "A"))
        np.testing.assert_array_equal(fwd.t, -rev.t)
        np.testing.assert_array_equal(fwd.p, rev.p)
        np.testing.assert_array_equal(fwd.df, rev.df)

    def test_matches_scipy_welch(self):
        from scipy import stats

        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 25)
        y = rng.normal(0.4, 2.0, 60)
        values = np.concatenate([x, y])[:, None]
        labels = ["a"] * 25 + ["b"] * 60
        res = group_difference(values, labels, ("a", "b"))
        ref = stats.ttest_ind(x, y, equal_var=False)
        assert res.t[0] == pytest.approx(ref.statistic, rel=1e-12)
        assert res.p[0] == pytest.approx(ref.pvalue, rel=1e-10)

    def test_p_is_scipy_t_survival_function(self):
        from scipy import stats

        rng = np.random.default_rng(9)
        d = 400
        shift = np.concatenate([np.zeros(d // 2), rng.uniform(0, 3, d // 2)])
        scale = 10.0 ** rng.uniform(-3, 3, d)
        x = rng.normal(shift, 1.0, (23, d)) * scale
        y = rng.standard_t(4, (91, d)) * rng.uniform(0.2, 5, d) * scale
        labels = ["a"] * 23 + ["b"] * 91
        res = group_difference(np.vstack([x, y]), labels, ("a", "b"))
        assert np.all(np.isfinite(res.p)) and res.p.min() < 1e-12
        np.testing.assert_allclose(
            res.p, 2.0 * stats.t.sf(np.abs(res.t), res.df), rtol=1e-12, atol=0
        )

    def test_df_does_not_underflow_on_tiny_values(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.normal(1, 1, 30), rng.normal(0, 1, 30)])[:, None]
        labels = ["a"] * 30 + ["b"] * 30
        unscaled = group_difference(values, labels, ("a", "b"))
        tiny = group_difference(values * 1e-150, labels, ("a", "b"))
        assert tiny.df[0] == pytest.approx(unscaled.df[0], rel=1e-12)
        assert tiny.t[0] == pytest.approx(unscaled.t[0], rel=1e-12)
        assert np.isfinite(tiny.p[0])
        assert tiny.p[0] == pytest.approx(unscaled.p[0], rel=1e-10)

    def test_single_member_group_untestable(self, caplog):
        values = np.arange(8.0).reshape(4, 2)
        with caplog.at_level("WARNING"):
            res = group_difference(values, ["a", "b", "b", "b"], ("a", "b"))
        assert np.isnan(res.t).all()
        assert np.isnan(res.p).all()
        assert not res.testable.any()
        # the caller reports the untestable contrast, once however many
        # metrics it tests (see tests/test_cli.py)
        assert not caplog.records

    def test_label_count_mismatch(self):
        with pytest.raises(InputError):
            group_difference(np.zeros((3, 1)), ["a", "b"], ("a", "b"))


class TestTwoSidedP:
    """t_two_sided_p against closed forms and scipy's Student's t tail."""

    t_grid = np.concatenate([[1e-300, 1e-12], np.geomspace(1e-6, 1e6, 121), [1e150, 1e200]])

    @staticmethod
    def assert_close(got, want, rtol):
        got, want = np.asarray(got), np.asarray(want)
        assert np.all(np.isfinite(got))
        err = np.abs(got - want) / want
        worst = int(np.argmax(err))
        assert err[worst] <= rtol, f"relative error {err[worst]:.3g} at entry {worst}"

    def test_one_degree_of_freedom(self):
        # 1 - (2/pi) atan|t|, as (2/pi) atan(1/|t|) so the oracle keeps its
        # digits far out in the tail
        t = np.concatenate([self.t_grid, -self.t_grid])
        want = (2.0 / math.pi) * np.arctan(1.0 / np.abs(t))
        self.assert_close(t_two_sided_p(t, 1.0), want, 1e-13)

    def test_two_degrees_of_freedom(self):
        # 1 - |t| / sqrt(2 + t^2), as 2 / (r (r + |t|)) with r = sqrt(2 + t^2)
        t = np.concatenate([self.t_grid[self.t_grid < 1e150], -self.t_grid[:3]])
        r = np.sqrt(2.0 + np.square(t))
        want = 2.0 / (r * (r + np.abs(t)))
        self.assert_close(t_two_sided_p(t, 2.0), want, 1e-13)

    def test_limits_and_symmetry(self):
        df = np.array([0.5, 1.0, 2.0, 7.3, 40.0, 1e4, 1e7])
        np.testing.assert_array_equal(t_two_sided_p(0.0, df), 1.0)
        np.testing.assert_array_equal(t_two_sided_p(-0.0, df), 1.0)
        np.testing.assert_array_equal(t_two_sided_p(np.inf, df), 0.0)
        np.testing.assert_array_equal(t_two_sided_p(-np.inf, df), 0.0)
        rng = np.random.default_rng(4)
        t = rng.standard_cauchy(500)
        d = 10.0 ** rng.uniform(0, 7, 500)
        np.testing.assert_array_equal(t_two_sided_p(t, d), t_two_sided_p(-t, d))

    def test_normal_limit_and_invalid_input(self):
        t = np.array([0.5, 1.96, 8.0])
        want = [math.erfc(v / math.sqrt(2.0)) for v in t]
        np.testing.assert_array_equal(t_two_sided_p(t, np.inf), want)
        p = t_two_sided_p([np.nan, 1.0, 1.0, 0.0, np.inf], [3.0, np.nan, 0.0, -1.0, np.nan])
        assert np.isnan(p).all()

    @pytest.mark.parametrize(
        "lo, hi, rtol", [(1.0, 1e4, 1e-12), (1e4, 1e7, 1e-9)], ids=["df<=1e4", "df<=1e7"]
    )
    def test_matches_scipy_stdtr(self, lo, hi, rtol):
        from scipy.special import stdtr

        rng = np.random.default_rng(17)
        n = 20000
        df = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
        # half the pairs near the switch between the two expansions, where
        # the continued fraction converges slowest; half spread over |t|
        k = 10.0 ** rng.uniform(-2, 2.5, n // 2)
        t = np.concatenate(
            [np.sqrt(k / (df[: n // 2] / 2 + 1) * df[: n // 2]),
             10.0 ** rng.uniform(-4, 3, n // 4),
             rng.uniform(0, 1e3, n - n // 2 - n // 4)]
        )
        t *= rng.choice([-1.0, 1.0], n)
        # stdtr at exactly df = 1 loses digits below |t| = 1e-4 (6e-10 at
        # |t| = 1e-9); test_one_degree_of_freedom covers that corner
        df[:5], t[:5] = 1.0, [1e-4, 0.5, 1.0, 30.0, 1e3]
        want = 2.0 * stdtr(df, -np.abs(t))
        tested = want >= 1e-300
        assert tested.mean() > 0.6
        self.assert_close(t_two_sided_p(t, df)[tested], want[tested], rtol)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(audit, "_CF_MAX_ITER", 3)
        with pytest.raises(NumericalError, match="did not converge"):
            t_two_sided_p(1.7, 9000.0)

    def test_welch_p_is_the_tail_of_t_and_df(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(50, 30)) + np.linspace(0, 2, 30)
        labels = ["a"] * 20 + ["b"] * 30
        res = group_difference(values, labels, ("a", "b"))
        np.testing.assert_array_equal(res.p, t_two_sided_p(res.t, res.df))


def bh_reference(p, q):
    """Textbook step-up: largest k with p_(k) <= k q / m, flag all p <= p_(k)."""
    p = np.asarray(p, dtype=float)
    m = p.size
    sorted_p = np.sort(p)
    k_max = 0
    for k in range(1, m + 1):
        if sorted_p[k - 1] <= k * q / m:
            k_max = k
    if k_max == 0:
        return np.zeros(m, dtype=bool)
    return p <= sorted_p[k_max - 1]


class TestBhFdr:
    def test_worked_example(self):
        flags = bh_fdr(np.array([0.001, 0.02, 0.03, 0.6]), q=0.05)
        np.testing.assert_array_equal(flags, [True, True, True, False])

    def test_all_ones_flags_nothing(self):
        assert not bh_fdr(np.ones(10), q=0.05).any()

    def test_step_up_rescues_smaller_ranks(self):
        # ranks 2 and 3 fail their own thresholds (0.025, 0.0375) but rank 4
        # passes at 0.05, so the step-up flags all four
        flags = bh_fdr(np.array([0.04, 0.049, 0.01, 0.03]), q=0.05)
        np.testing.assert_array_equal(flags, [True, True, True, True])

    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(21)
        m = 148
        for _ in range(1000):
            p = rng.random(m)
            spiked = rng.random() < 0.5
            if spiked:
                k = rng.integers(1, 40)
                p[:k] = rng.random(k) * 0.01
            np.testing.assert_array_equal(bh_fdr(p, q=0.05), bh_reference(p, 0.05))

    def test_null_false_positive_rate_controlled(self):
        # global-null Welch p-values through the full pipeline: the share of
        # repetitions with any flag stays near the nominal level
        rng = np.random.default_rng(99)
        m = 148
        hits = 0
        reps = 200
        for _ in range(reps):
            values = rng.normal(size=(80, m))
            labels = ["a"] * 40 + ["b"] * 40
            res = group_difference(values, labels, ("a", "b"))
            if bh_fdr(res.p, q=0.05).any():
                hits += 1
        assert hits / reps <= 0.05 + 0.02

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InputError):
            bh_fdr(np.array([0.1, 1.5]))
        with pytest.raises(InputError):
            bh_fdr(np.array([0.1, -0.01]))
        with pytest.raises(InputError):
            bh_fdr(np.array([0.1, np.nan]))
        with pytest.raises(InputError):
            bh_fdr(np.array([0.1]), q=0.0)

    def test_empty_input(self):
        assert bh_fdr(np.zeros(0)).size == 0


class TestSignificantFraction:
    def test_exact_fraction(self):
        assert significant_fraction([True, False, True, False]) == 0.5
        flags = np.zeros(148, dtype=bool)
        flags[:3] = True
        assert significant_fraction(flags) == 3 / 148

    def test_none_flagged(self):
        assert significant_fraction(np.zeros(7, dtype=bool)) == 0.0

    def test_empty_is_nan(self):
        assert math.isnan(significant_fraction(np.zeros(0, dtype=bool)))


class TestParityReport:
    def fit_and_split(self, rng, n_train, n_test_per_race, shift=None):
        train = make_race_cohort(rng, {"W": n_train})
        model = fit_normative(
            train, ModelConfig(basis=BasisConfig(knot_range=(20.0, 70.0)))
        )
        test = make_race_cohort(rng, n_test_per_race, shift=shift)
        return model, test

    def test_same_process_groups_have_small_gaps(self):
        rng = np.random.default_rng(17)
        model, test = self.fit_and_split(rng, 800, {"A": 1000, "W": 1000})
        dm = deviations(model, test)
        report = group_parity(dm.Z, test.races, fit=group_fit(dm, test.races))
        assert report.groups == ("A", "W")
        assert report.gaps["explained_variance"] < 0.05
        assert report.gaps["extreme_rate"] < 0.03

    def test_shifted_group_detected(self):
        rng = np.random.default_rng(23)
        # +1 noise-sd shift for group A lifts its mean deviation to about +1
        model, test = self.fit_and_split(
            rng, 800, {"A": 600, "W": 600}, shift={"A": 0.3}
        )
        dm = deviations(model, test)
        report = group_parity(dm.Z, test.races, fit=group_fit(dm, test.races))
        assert report.per_group["A"]["mean_deviation"] == pytest.approx(1.0, abs=0.2)
        assert report.per_group["W"]["mean_deviation"] == pytest.approx(0.0, abs=0.2)
        assert report.per_group["A"]["msll"] > report.per_group["W"]["msll"]
        assert report.gaps["msll"] > 0.0

    def test_single_group_gaps_zero(self):
        rng = np.random.default_rng(29)
        model, test = self.fit_and_split(rng, 400, {"W": 300})
        dm = deviations(model, test)
        report = group_parity(dm.Z, test.races, fit=group_fit(dm, test.races))
        assert report.groups == ("W",)
        assert report.gaps["explained_variance"] == 0.0
        assert report.gaps["msll"] == 0.0
        assert report.gaps["extreme_rate"] == 0.0

    def test_label_length_mismatch(self):
        rng = np.random.default_rng(31)
        model, test = self.fit_and_split(rng, 300, {"W": 100})
        dm = deviations(model, test)
        with pytest.raises(InputError):
            group_parity(dm.Z, ["W"] * 5, fit=group_fit(dm, test.races))
        with pytest.raises(InputError):
            group_fit(dm, ["W"] * 5)

    def test_fit_of_other_groups_rejected(self):
        rng = np.random.default_rng(37)
        model, test = self.fit_and_split(rng, 300, {"A": 40, "W": 60})
        dm = deviations(model, test)
        races = list(test.races)
        fit = group_fit(dm, races)
        assert group_parity(dm.Z, races, fit=fit).per_group["A"]["msll"] == fit["A"]["msll"]
        smaller = {**fit, "A": {**fit["A"], "n": 39}}
        missing = {"W": fit["W"]}
        for other in (smaller, missing):
            with pytest.raises(InputError, match="not of these rows' groups"):
                group_parity(dm.Z, races, fit=other)

    @pytest.mark.parametrize(
        "noise_skew",
        [None, WarpParams(epsilon=0.5, log_delta=-0.3)],
        ids=["gauss", "skewed"],
    )
    def test_matches_per_group_rescoring(self, noise_skew):
        # The reference is the former algorithm: score each group's subset
        # anew. BLAS matrix-vector kernels work on blocks of rows, and a
        # subset's trailing partial block can round zhat differently in the
        # last bit (seen with a 70-row group), so every group here fills whole
        # blocks of 32 rows and starts on a block boundary.
        cohort, _ = generate(
            SynthSpec(
                n_per_group={"A": 64, "B": 96, "W": 428},
                n_regions=4,
                noise_sd=0.5,
                noise_skew=noise_skew,
                group_offsets={"A": -0.5},
                seed=5,
            )
        )
        races = np.asarray(cohort.races)
        w_rows = np.nonzero(races == "W")[0]
        model = fit_normative(cohort.subset(w_rows[:300]))
        warped = [not rm.hyperparams.warp.is_identity() for rm in model.region_models]
        assert any(warped) == (noise_skew is not None)
        test = cohort.subset(np.setdiff1d(np.arange(cohort.n_subjects), w_rows[:300]))
        dm = deviations(model, test)
        report = group_parity(dm.Z, test.races, 1.5, group_fit(dm, test.races))
        test_races = np.asarray(test.races)
        expected = {}
        for label in ("A", "B", "W"):
            sub = test.subset(np.nonzero(test_races == label)[0])
            metrics = fit_metrics(model, sub)
            z = deviations(model, sub).Z
            expected[label] = {
                "n": sub.n_subjects,
                "explained_variance": float(
                    np.mean([m.explained_variance for m in metrics])
                ),
                "msll": float(np.mean([m.msll for m in metrics])),
                "mean_abs_deviation": float(np.mean(np.abs(z))),
                "mean_deviation": float(np.mean(z)),
                "extreme_rate": float(np.mean(np.abs(z) > 1.5)),
            }
        assert report.groups == ("A", "B", "W")
        for label in report.groups:
            assert report.per_group[label] == expected[label], label
        for metric, gap in report.gaps.items():
            vals = [e[metric] for e in expected.values()]
            assert gap == max(vals) - min(vals), metric

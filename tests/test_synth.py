"""Tests for synthetic cohort generation with known group structure."""

import numpy as np
import pytest
from scipy import stats

from normgauge import InputError, SynthSpec, WarpParams, generate
from normgauge.synth import default_curves


def flat_curves(n_regions, level=2.0):
    curves = np.zeros((n_regions, 4))
    curves[:, 0] = level
    return curves


class TestReproducibility:
    def test_same_spec_bitwise_identical(self):
        spec = SynthSpec(n_per_group={"A": 40, "W": 60}, n_regions=4, seed=11)
        c1, truth1 = generate(spec)
        c2, truth2 = generate(spec)
        assert c1.content_hash() == c2.content_hash()
        np.testing.assert_array_equal(c1.responses, c2.responses)
        assert c1.ids == c2.ids
        assert truth1["seed"] == truth2["seed"]

    def test_different_seed_differs(self):
        c1, _ = generate(SynthSpec(n_per_group={"W": 50}, n_regions=2, seed=1))
        c2, _ = generate(SynthSpec(n_per_group={"W": 50}, n_regions=2, seed=2))
        assert not np.array_equal(c1.responses, c2.responses)

    def test_adding_regions_preserves_existing_columns(self):
        curves10 = flat_curves(10)
        small, _ = generate(
            SynthSpec(
                n_per_group={"W": 30}, n_regions=4, curves=curves10[:4], seed=3
            )
        )
        large, _ = generate(
            SynthSpec(n_per_group={"W": 30}, n_regions=10, curves=curves10, seed=3)
        )
        np.testing.assert_array_equal(small.responses, large.responses[:, :4])

    def test_spec_round_trip_regenerates_identically(self):
        spec = SynthSpec(
            n_per_group={"A": 20, "B": 25, "W": 30},
            n_regions=3,
            group_offsets={"A": -0.4},
            noise_skew=WarpParams(epsilon=0.3),
            seed=7,
        )
        cohort, truth = generate(spec)
        again, _ = generate(SynthSpec.from_dict(truth))
        assert cohort.content_hash() == again.content_hash()


class TestCohortShape:
    def test_group_counts_and_demographics(self):
        spec = SynthSpec(n_per_group={"A": 13, "B": 8, "W": 21}, n_regions=2, seed=0)
        cohort, _ = generate(spec)
        races = list(cohort.races)
        assert races.count("A") == 13
        assert races.count("B") == 8
        assert races.count("W") == 21
        ages = cohort.ages
        assert ages.min() >= 20.0 and ages.max() <= 70.0
        sexes = set(cohort.sexes)
        assert sexes == {"F", "M"}
        ids = list(cohort.ids)
        assert len(set(ids)) == len(ids)

    def test_region_names(self):
        spec = SynthSpec(n_per_group={"W": 5}, n_regions=12, seed=0)
        assert spec.region_names[0] == "region_000"
        assert spec.region_names[-1] == "region_011"
        cohort, _ = generate(spec)
        assert cohort.regions == spec.region_names

    def test_truth_echoes_resolved_parameters(self):
        spec = SynthSpec(
            n_per_group={"A": 5, "W": 5},
            n_regions=3,
            group_offsets={"A": -0.5},
            seed=4,
        )
        _, truth = generate(spec)
        np.testing.assert_array_equal(truth["group_offsets"]["A"], [-0.5] * 3)
        np.testing.assert_array_equal(truth["group_offsets"]["W"], [0.0] * 3)
        assert truth["region_names"] == ["region_000", "region_001", "region_002"]
        assert truth["noise_sd"] == 0.25


class TestGroupStructure:
    def test_zero_offsets_leave_groups_matched(self):
        n = 1000
        sd = 0.25
        spec = SynthSpec(
            n_per_group={"A": n, "B": n, "W": n},
            n_regions=3,
            curves=flat_curves(3),
            noise_sd=sd,
            seed=5,
        )
        cohort, _ = generate(spec)
        races = np.array(cohort.races)
        bound = 4.0 * sd / np.sqrt(n)
        for g in ("A", "B", "W"):
            means = cohort.responses[races == g].mean(axis=0)
            np.testing.assert_allclose(means, 2.0, atol=bound)

    def test_scalar_offsets_shift_group_means(self):
        n = 1000
        sd = 0.25
        spec = SynthSpec(
            n_per_group={"A": n, "B": n, "W": n},
            n_regions=2,
            curves=flat_curves(2),
            group_offsets={"A": -0.5, "B": -0.5, "W": 0.0},
            noise_sd=sd,
            seed=6,
        )
        cohort, _ = generate(spec)
        races = np.array(cohort.races)
        bound = 4.0 * sd / np.sqrt(n)
        for g, target in (("A", 1.5), ("B", 1.5), ("W", 2.0)):
            means = cohort.responses[races == g].mean(axis=0)
            np.testing.assert_allclose(means, target, atol=bound)

    def test_vector_offsets_vary_by_region(self):
        n = 2000
        offsets = np.array([-0.5, 0.0, 0.5])
        spec = SynthSpec(
            n_per_group={"A": n, "W": n},
            n_regions=3,
            curves=flat_curves(3),
            group_offsets={"A": offsets},
            noise_sd=0.25,
            seed=8,
        )
        cohort, _ = generate(spec)
        races = np.array(cohort.races)
        gap = cohort.responses[races == "A"].mean(axis=0) - cohort.responses[
            races == "W"
        ].mean(axis=0)
        np.testing.assert_allclose(gap, offsets, atol=4 * 0.25 * np.sqrt(2 / n))

    def test_sex_offsets_shift_males(self):
        spec = SynthSpec(
            n_per_group={"W": 3000},
            n_regions=1,
            curves=flat_curves(1),
            sex_offsets=0.4,
            noise_sd=0.25,
            seed=9,
        )
        cohort, _ = generate(spec)
        male = np.array(cohort.sexes) == "M"
        gap = cohort.responses[male, 0].mean() - cohort.responses[~male, 0].mean()
        assert gap == pytest.approx(0.4, abs=0.05)


class TestNoiseShape:
    def flat_sample(self, noise_skew, seed=10, n=4000):
        spec = SynthSpec(
            n_per_group={"W": n},
            n_regions=1,
            curves=flat_curves(1),
            noise_sd=0.25,
            noise_skew=noise_skew,
            seed=seed,
        )
        cohort, _ = generate(spec)
        return cohort.responses[:, 0]

    def test_gaussian_noise_is_symmetric(self):
        assert abs(stats.skew(self.flat_sample(None))) < 0.1

    def test_skew_sign_follows_epsilon(self):
        right = stats.skew(self.flat_sample(WarpParams(epsilon=0.75)))
        left = stats.skew(self.flat_sample(WarpParams(epsilon=-0.75)))
        assert right > 0.3
        assert left < -0.3


class TestDefaults:
    def test_default_curves_deterministic(self):
        np.testing.assert_array_equal(default_curves(6, 3), default_curves(6, 3))
        assert default_curves(6, 3).shape == (6, 4)
        assert not np.array_equal(default_curves(6, 3), default_curves(6, 4))


class TestValidation:
    def test_empty_groups_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(n_per_group={})

    def test_nonpositive_group_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(n_per_group={"W": 0})

    def test_bad_age_range_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(n_per_group={"W": 5}, age_range=(50.0, 30.0))

    def test_unknown_offset_group_rejected(self):
        with pytest.raises(InputError, match="'Q'"):
            SynthSpec(n_per_group={"W": 5}, group_offsets={"Q": 1.0})

    def test_bad_curve_shape_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(n_per_group={"W": 5}, n_regions=3, curves=np.zeros((2, 4)))

    def test_bad_noise_sd_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(n_per_group={"W": 5}, noise_sd=0.0)

"""Tests for the design matrix: spline basis, encodings, and schema reuse."""

import numpy as np
import pytest

from normgauge import (
    BasisConfig,
    Cohort,
    DesignSchema,
    InputError,
    ModelConfig,
    SchemaError,
    SplitSpec,
    SynthSpec,
    apply_design,
    fit_design,
    generate,
    spline_basis,
    stratified_split,
)


def build_cohort(ages, sexes=None, races=None, sites=None):
    n = len(ages)
    sexes = sexes or ["F"] * n
    races = races or ["W"] * n
    responses = np.zeros((n, 1))
    return Cohort(
        ids=tuple(f"s{i:03d}" for i in range(n)),
        ages=ages,
        sexes=sexes,
        races=races,
        sites=sites,
        regions=("r0",),
        responses=responses,
    )


class TestSplineBasis:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        cohort = build_cohort(rng.uniform(20, 70, 50))
        design = fit_design(cohort, ModelConfig())
        n_spline = design.schema.n_spline
        sums = design.values[:, :n_spline].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_default_gives_seven_spline_columns(self):
        cohort = build_cohort([25.0, 35.0, 45.0, 55.0, 65.0])
        design = fit_design(cohort, ModelConfig())
        spline_names = [c for c in design.schema.column_names if c.startswith("age_spline_")]
        assert len(spline_names) == 7

    def test_column_count_formula(self):
        # M = (n_knots + degree - 1) + sex + (levels - 1) dummies
        ages = [25.0, 35.0, 45.0, 55.0]
        cohort = build_cohort(
            ages,
            sexes=["F", "M", "F", "M"],
            races=["A", "B", "W", "W"],
            sites=["x", "y", "x", "y"],
        )
        with_site = fit_design(cohort, ModelConfig(covariates=("age", "sex", "site")))
        assert with_site.values.shape == (4, (5 + 3 - 1) + 1 + (2 - 1))
        with_race = fit_design(cohort, ModelConfig(covariates=("age", "sex", "race")))
        assert with_race.values.shape == (4, (5 + 3 - 1) + 1 + (3 - 1))
        assert len(with_race.schema.column_names) == with_race.values.shape[1]

    def test_locality(self):
        # each basis column is nonzero on at most degree+1 adjacent knot intervals
        cohort = build_cohort(np.linspace(20, 70, 10))
        design = fit_design(cohort, ModelConfig())
        schema = design.schema
        distinct = np.linspace(20, 70, 5)
        grid = np.linspace(20, 70, 2001)
        basis, _ = spline_basis(grid, schema)
        interval = np.clip(np.searchsorted(distinct, grid, side="right") - 1, 0, 3)
        for j in range(basis.shape[1]):
            active = np.unique(interval[np.abs(basis[:, j]) > 1e-12])
            assert active.size <= 4
            assert np.all(np.diff(active) == 1)

    def test_custom_knot_range_and_count(self):
        cohort = build_cohort([30.0, 40.0, 50.0])
        config = ModelConfig(basis=BasisConfig(n_knots=4, degree=3, knot_range=(20.0, 80.0)))
        design = fit_design(cohort, config)
        spline_names = [c for c in design.schema.column_names if c.startswith("age_spline_")]
        assert len(spline_names) == 4 + 3 - 1
        assert design.schema.knots[0] == 20.0
        assert design.schema.knots[-1] == 80.0


def oracle_schemas():
    """Knot layouts of degree 1, 2 and 3, and two with repeated interior knots:
    a double knot in a cubic, and one in a linear basis, which jumps there."""
    layouts = [
        BasisConfig(n_knots=4, degree=1, knot_range=(0.0, 1.0)),
        BasisConfig(n_knots=7, degree=2, knot_range=(18.3, 91.7)),
        BasisConfig(),
        BasisConfig(n_knots=2, degree=3, knot_range=(-3.0, 1e3)),
    ]
    cohort = build_cohort([20.0, 33.3, 70.0])
    schemas = [fit_design(cohort, ModelConfig(basis=b)).schema for b in layouts]
    repeated = (0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 5.0, 5.0, 5.0, 5.0)
    schemas.append(DesignSchema(knots=repeated, degree=3))
    jump = (0.0, 0.0, 1.0, 1.0, 2.0, 2.0)
    schemas.append(DesignSchema(knots=jump, degree=1))
    return schemas


class TestScipyOracle:
    """spline_basis is bitwise equal to scipy's BSpline.design_matrix."""

    @pytest.mark.parametrize(
        "schema", oracle_schemas(), ids=lambda s: f"degree{s.degree}-{len(s.knots)}knots"
    )
    def test_bitwise_equal_to_design_matrix(self, schema):
        from scipy.interpolate import BSpline

        knots = np.asarray(schema.knots)
        lo, hi = schema.knot_lo, schema.knot_hi
        width = hi - lo
        rng = np.random.default_rng(0)
        ages = np.concatenate(
            [
                rng.uniform(lo - 0.2 * width, hi + 0.2 * width, 20000),
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                [lo - width, hi + width],
            ]
        )
        basis, clamp_count = spline_basis(ages, schema)
        clamped = np.clip(ages, lo, hi)
        expected = BSpline.design_matrix(clamped, knots, schema.degree).toarray()
        assert basis.shape == expected.shape
        assert np.array_equal(basis.view(np.uint64), expected.view(np.uint64))
        assert clamp_count == np.count_nonzero(clamped != ages) > 0
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_empty_ages_give_empty_basis(self):
        # scipy raises here; no command scores an empty cohort
        schema = oracle_schemas()[2]
        basis, clamp_count = spline_basis(np.array([]), schema)
        assert basis.shape == (0, schema.n_spline)
        assert clamp_count == 0


class TestEncodings:
    def test_sex_indicator(self):
        cohort = build_cohort([30.0, 40.0], sexes=["F", "M"])
        design = fit_design(cohort, ModelConfig())
        col = design.schema.column_names.index("sex_M")
        np.testing.assert_array_equal(design.values[:, col], [0.0, 1.0])

    def test_race_dummies_reference_dropped(self):
        cohort = build_cohort([30.0, 40.0, 50.0], races=["A", "B", "W"])
        design = fit_design(cohort, ModelConfig(covariates=("age", "sex", "race")))
        names = design.schema.column_names
        assert "race_A" in names and "race_B" in names and "race_W" not in names
        row_w = design.values[2]
        assert row_w[names.index("race_A")] == 0.0
        assert row_w[names.index("race_B")] == 0.0
        row_a = design.values[0]
        assert row_a[names.index("race_A")] == 1.0

    def test_race_reference_configurable(self):
        cohort = build_cohort([30.0, 40.0, 50.0], races=["A", "B", "W"])
        config = ModelConfig(covariates=("age", "sex", "race"), race_reference_level="A")
        design = fit_design(cohort, config)
        names = design.schema.column_names
        assert "race_A" not in names and "race_W" in names

    def test_site_dummies(self):
        cohort = build_cohort([30.0, 40.0, 50.0], sites=["u", "v", "w"])
        design = fit_design(cohort, ModelConfig(covariates=("age", "sex", "site")))
        names = design.schema.column_names
        # first sorted site is the reference
        assert "site_u" not in names
        assert "site_v" in names and "site_w" in names


def criterion_training_cohort(criterion):
    """The training cohort of acceptance criterion 4, 6 or 7; one region,
    since a cohort's covariates do not depend on its region count."""
    if criterion == 4:
        cohort, _ = generate(SynthSpec(n_per_group={"W": 12000}, n_regions=1, seed=404))
        return cohort.subset(np.arange(2000))
    seed, split = {
        6: (600, SplitSpec(fractions={"A": 0.01, "B": 0.01, "W": 0.93}, seed=6)),
        7: (700, SplitSpec(fractions={"A": 0.02, "B": 0.05, "W": 0.8}, seed=7)),
    }[criterion]
    cohort, _ = generate(
        SynthSpec(n_per_group={"A": 1000, "B": 1000, "W": 1000}, n_regions=1, seed=seed)
    )
    train, _ = stratified_split(cohort, split)
    return train


class TestFullRank:
    """The spline reproduces every linear function of age, so a linear-age
    column would add no rank; without one, the design has full column rank."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("covariates", ["age,sex", "age,sex,race"])
    @pytest.mark.parametrize("criterion", [4, 6, 7])
    def test_criterion_cohorts(self, criterion, covariates, degree):
        config = ModelConfig(
            covariates=tuple(covariates.split(",")), basis=BasisConfig(degree=degree)
        )
        design = fit_design(criterion_training_cohort(criterion), config)
        assert "age" not in design.schema.column_names
        sv = np.linalg.svd(design.values, compute_uv=False)
        assert sv[-1] / sv[0] > 0.01

    def test_race_absent_from_training(self):
        # race levels are the races present in training, as site levels are
        # the sites present: with every A subject removed, no race_A column
        # is left all zero
        train = criterion_training_cohort(7)
        without_a = train.subset(np.flatnonzero(np.array(train.races) != "A"))
        design = fit_design(without_a, ModelConfig(covariates=("age", "sex", "race")))
        assert design.schema.race_levels == ("B",)
        sv = np.linalg.svd(design.values, compute_uv=False)
        assert sv[-1] / sv[0] > 0.01


class TestApplyDesign:
    def test_reproduces_training_matrix_exactly(self):
        rng = np.random.default_rng(4)
        cohort = build_cohort(rng.uniform(20, 70, 30), sexes=["M" if i % 3 else "F" for i in range(30)])
        design = fit_design(cohort, ModelConfig())
        again = apply_design(cohort, design.schema)
        np.testing.assert_array_equal(again.values, design.values)

    def test_age_at_boundary_identical(self):
        cohort = build_cohort([20.0, 45.0, 70.0])
        design = fit_design(cohort, ModelConfig())
        probe = build_cohort([70.0])
        out = apply_design(probe, design.schema)
        np.testing.assert_array_equal(out.values[0], design.values[2])
        assert out.clamp_count == 0

    def test_age_above_range_clamped_and_counted(self):
        cohort = build_cohort([20.0, 45.0, 70.0])
        design = fit_design(cohort, ModelConfig())
        probe = build_cohort([85.0])
        out = apply_design(probe, design.schema)
        boundary = apply_design(build_cohort([70.0]), design.schema)
        np.testing.assert_array_equal(out.values, boundary.values)
        assert out.clamp_count == 1

    def test_unseen_site_rejected_by_name(self):
        cohort = build_cohort([30.0, 40.0], sites=["u", "v"])
        design = fit_design(cohort, ModelConfig(covariates=("age", "sex", "site")))
        probe = build_cohort([35.0], sites=["z"])
        with pytest.raises(SchemaError, match="z"):
            apply_design(probe, design.schema)

    def test_schema_serialization_round_trip(self):
        cohort = build_cohort([30.0, 40.0, 50.0], races=["A", "B", "W"])
        design = fit_design(cohort, ModelConfig(covariates=("age", "sex", "race")))
        schema2 = type(design.schema).from_dict(design.schema.to_dict())
        assert schema2 == design.schema
        probe = build_cohort([41.5], sexes=["M"], races=["B"])
        np.testing.assert_array_equal(
            apply_design(probe, schema2).values, apply_design(probe, design.schema).values
        )


class TestValidation:
    def test_degenerate_age_range_rejected(self):
        cohort = build_cohort([40.0, 40.0])
        with pytest.raises(InputError):
            fit_design(cohort, ModelConfig())

    def test_unknown_covariate_set_rejected(self):
        with pytest.raises(InputError):
            ModelConfig(covariates=("age", "sex", "height"))

    @pytest.mark.parametrize(
        "knots, degree, match",
        [
            ([70.0] * 4 + [57.5, 45.0, 32.5] + [20.0] * 4, 3, "non-decreasing"),
            ([20.0] * 4 + [float("nan"), 45.0] + [70.0] * 4, 3, "finite"),
            ([20.0] * 4 + [45.0, float("inf")] + [70.0] * 4, 3, "finite"),
            ([20.0, 20.0, 70.0, 70.0, 70.0], 2, "at least 2 \\* degree \\+ 2"),
            ([20.0, 70.0], 0, "degree >= 1"),
            ([20.0] * 5 + [40.0] * 3, 3, "empty age range"),
        ],
    )
    def test_bad_knots_read_from_a_bundle_rejected(self, knots, degree, match):
        schema = fit_design(build_cohort([20.0, 45.0, 70.0]), ModelConfig()).schema
        doc = dict(schema.to_dict(), knots=knots, degree=degree)
        with pytest.raises(SchemaError, match=match):
            DesignSchema.from_dict(doc)

    def test_race_reference_must_be_declared(self):
        from normgauge import CohortSchema

        cohort = Cohort(
            ids=("s0", "s1"),
            ages=(30.0, 31.0),
            sexes=("F", "F"),
            races=("A", "B"),
            regions=("r0",),
            responses=np.zeros((2, 1)),
            schema=CohortSchema(race_labels=("A", "B")),
        )
        config = ModelConfig(covariates=("age", "sex", "race"), race_reference_level="W")
        with pytest.raises(InputError):
            fit_design(cohort, config)

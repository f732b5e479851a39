"""Tests for cohort loading, validation, QC filtering, and stratified splits."""

import dataclasses
import logging

import numpy as np
import pytest

from normgauge import (
    Cohort,
    CohortSchema,
    InputError,
    SchemaError,
    SplitSpec,
    SynthSpec,
    demographics_summary,
    generate,
    load_cohort,
    qc_filter,
    save_cohort,
    stratified_split,
)
from normgauge.cohort import read_covariates
from normgauge.serialize import _sidecar_path


def write_pair(tmp_path, cov_rows, feat_rows, cov_header="id,age,sex,race", feat_header="id,r1,r2"):
    cov = tmp_path / "covariates.csv"
    feat = tmp_path / "features.csv"
    cov.write_text("\n".join([cov_header] + cov_rows) + "\n")
    feat.write_text("\n".join([feat_header] + feat_rows) + "\n")
    return cov, feat


def make_cohort(n_per_race, seed=0, n_regions=3):
    """Small in-memory cohort with deterministic ages and balanced sexes."""
    rng = np.random.default_rng(seed)
    rows = []
    for race, n in sorted(n_per_race.items()):
        for i in range(n):
            age, qc = float(rng.uniform(20, 70)), float(rng.uniform(0, 1))
            rows.append((f"{race}{i:04d}", age, "F" if i % 2 == 0 else "M", race, qc))
    rows.sort()
    ids, ages, sexes, races, qc_scores = zip(*rows)
    responses = rng.normal(0, 1, (len(rows), n_regions))
    regions = tuple(f"r{k}" for k in range(n_regions))
    return Cohort(
        ids=ids, ages=ages, sexes=sexes, races=races, qc_scores=qc_scores,
        regions=regions, responses=responses,
    )


def one_subject(regions, responses):
    """A one-row cohort: s1, aged 30, F, W, with no site or qc_score."""
    return Cohort(
        ids=("s1",), ages=(30.0,), sexes=("F",), races=("W",),
        regions=regions, responses=responses,
    )


class TestLoadCohort:
    def test_exact_join(self, tmp_path, caplog):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,A", "s2,40,M,B", "s3,50,F,W", "s4,60,M,W"],
            ["s1,1.0,2.0", "s2,1.1,2.1", "s3,1.2,2.2", "s4,1.3,2.3"],
        )
        with caplog.at_level(logging.WARNING, logger="normgauge.cohort"):
            cohort = load_cohort(cov, feat)
        assert cohort.n_subjects == 4
        assert cohort.regions == ("r1", "r2")
        assert not caplog.records
        assert cohort.responses.shape == (4, 2)

    def test_unmatched_id_dropped_with_count(self, tmp_path, caplog):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,A", "s2,40,M,B", "s3,50,F,W", "s4,60,M,W"],
            ["s1,1.0,2.0", "s2,1.1,2.1", "s3,1.2,2.2"],
        )
        with caplog.at_level(logging.WARNING, logger="normgauge.cohort"):
            cohort = load_cohort(cov, feat)
        assert cohort.n_subjects == 3
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 subject(s) present in only one input file"
        ]

    def test_nonnumeric_age_names_row_and_column(self, tmp_path):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,A", "s2,abc,M,B"],
            ["s1,1.0,2.0", "s2,1.1,2.1"],
        )
        with pytest.raises(InputError, match="age"):
            load_cohort(cov, feat)
        with pytest.raises(InputError, match="row 3"):
            load_cohort(cov, feat)

    def test_missing_covariates_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(InputError) as exc:
            read_covariates(path, CohortSchema())
        assert str(exc.value) == f"file not found: {path}"

    def test_covariates_not_utf8(self, tmp_path):
        cov, _ = write_pair(tmp_path, ["s1,30,F,A"], ["s1,1.0,2.0"])
        cov.write_bytes(cov.read_bytes() + b"s\xe9,40,M,B\n")
        with pytest.raises(InputError) as exc:
            read_covariates(cov, CohortSchema())
        assert str(exc.value) == f"{cov} line 3: byte 0xe9 is not UTF-8 text"

    def test_missing_required_column(self, tmp_path):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F", "s2,40,M"],
            ["s1,1.0,2.0", "s2,1.1,2.1"],
            cov_header="id,age,sex",
        )
        with pytest.raises(SchemaError, match="race"):
            load_cohort(cov, feat)

    def test_duplicate_id_rejected(self, tmp_path):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,A", "s1,40,M,B"],
            ["s1,1.0,2.0"],
        )
        with pytest.raises(InputError, match="s1"):
            load_cohort(cov, feat)

    def test_unknown_race_label_rejected(self, tmp_path):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,Q"],
            ["s1,1.0,2.0"],
        )
        with pytest.raises(InputError, match="Q"):
            load_cohort(cov, feat)

    def test_custom_label_set_accepted(self, tmp_path):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,Q"],
            ["s1,1.0,2.0"],
        )
        schema = CohortSchema(race_labels=("Q", "R"))
        cohort = load_cohort(cov, feat, schema=schema)
        assert cohort.races[0] == "Q"

    def test_incomplete_row_dropped_and_counted(self, tmp_path, caplog):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,A", "s2,,M,B"],
            ["s1,1.0,2.0", "s2,1.1,2.1"],
        )
        with caplog.at_level(logging.WARNING, logger="normgauge.cohort"):
            cohort = load_cohort(cov, feat)
        assert cohort.n_subjects == 1
        # s2's features have no complete covariates row left to join
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 subject(s) present in only one input file",
            "dropped 1 row(s) with missing required covariates",
        ]

    def test_row_order_is_canonicalized(self, tmp_path):
        rows_cov = ["s2,40,M,B", "s1,30,F,A"]
        rows_feat = ["s2,1.1,2.1", "s1,1.0,2.0"]
        cov, feat = write_pair(tmp_path, rows_cov, rows_feat)
        cohort = load_cohort(cov, feat)
        assert list(cohort.ids) == ["s1", "s2"]
        np.testing.assert_array_equal(cohort.responses[0], [1.0, 2.0])

    def test_keep_parses_only_the_kept_rows(self, tmp_path, caplog):
        cov, feat = write_pair(
            tmp_path,
            ["s1,30,F,A", "s2,40,M,B", "s3,50,F,W", "s4,60,M,W"],
            ["s1,1.0,2.0", "s2,nan,2.1", "s3,1.2,abc", "s4,1.3,2.3", "s9,x,y"],
        )
        joined = []

        def keep(cohort):
            joined.append(cohort)
            return cohort.subset_by_ids(["s4", "s1"])

        with caplog.at_level(logging.WARNING, logger="normgauge.cohort"):
            cohort = load_cohort(cov, feat, keep=keep)
        # the join and its drop count see every row, the cells of none
        assert list(joined[0].ids) == ["s1", "s2", "s3", "s4"]
        assert joined[0].regions == () and joined[0].responses.shape == (4, 0)
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 subject(s) present in only one input file"
        ]
        assert cohort.ids == ("s1", "s4") and cohort.regions == ("r1", "r2")
        assert cohort.responses.tobytes() == np.array([[1.0, 2.0], [1.3, 2.3]]).tobytes()
        # a kept row fails as it fails a full load
        with pytest.raises(InputError, match="non-finite feature values"):
            load_cohort(cov, feat, keep=lambda c: c.subset_by_ids(["s2"]))
        with pytest.raises(InputError, match="row 4, column 'r2': cannot parse 'abc'"):
            load_cohort(cov, feat, keep=lambda c: c.subset_by_ids(["s1", "s3"]))
        with pytest.raises(InputError, match="row 4, column 'r2': cannot parse 'abc'"):
            load_cohort(cov, feat)

    def test_save_load_round_trip(self, tmp_path):
        original = make_cohort({"A": 5, "B": 4, "W": 7}, seed=3)
        cov = tmp_path / "c.csv"
        feat = tmp_path / "f.csv"
        save_cohort(original, cov, feat)
        reloaded = load_cohort(cov, feat)
        assert reloaded.content_hash() == original.content_hash()
        # the features from their sidecar above, parsed here
        _sidecar_path(feat).unlink()
        assert load_cohort(cov, feat).content_hash() == original.content_hash()
        # a second write of the reloaded cohort is byte identical
        cov2 = tmp_path / "c2.csv"
        feat2 = tmp_path / "f2.csv"
        save_cohort(reloaded, cov2, feat2)
        assert cov2.read_bytes() == cov.read_bytes()
        assert feat2.read_bytes() == feat.read_bytes()


class TestContentHash:
    """The digest that model.json records as its cohort_hash, pinned so that a
    change of the cohort's layout cannot move it unseen."""

    def test_synthetic_cohort_digest(self):
        cohort, _ = generate(SynthSpec(n_per_group={"A": 3, "B": 2}, n_regions=2, seed=7))
        assert cohort.content_hash() == (
            "09a6cd89267b254fd2c5afcba414438d28af6a80a612c3920796c990e329d4d8"
        )

    def test_loaded_cohort_with_blank_site_and_qc_digest(self, tmp_path):
        cov, feat = write_pair(
            tmp_path,
            ["s2,41.5,M,B,x,0.75", "s1,30,F,A,,", "s3,52.25,F,W,y,1e-3"],
            ["s1,1.0,-2.5", "s2,0.1,3e5", "s3,-0.0,7"],
            cov_header="id,age,sex,race,site,qc_score",
        )
        assert load_cohort(cov, feat).content_hash() == (
            "54b5340d534c650a5ee947f042f2218a73acf9dd06be750446e191b1f9090b20"
        )


class TestQcFilter:
    def make(self, scores):
        n = len(scores)
        responses = np.arange(n, dtype=float).reshape(-1, 1)
        return Cohort(
            ids=tuple(f"s{i+1}" for i in range(n)),
            ages=30.0 + np.arange(n),
            sexes=("F",) * n,
            races=("W",) * n,
            qc_scores=scores,
            regions=("r0",),
            responses=responses,
        )

    def test_threshold_keeps_ties(self):
        cohort = qc_filter(self.make([0.9, 0.2, 0.5]), 0.5)
        assert list(cohort.ids) == ["s1", "s3"]

    def test_none_is_identity(self):
        base = self.make([0.9, 0.2, 0.5])
        assert qc_filter(base, None) is base

    def test_all_below_gives_empty_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            cohort = qc_filter(self.make([0.1, 0.2]), 0.9)
        assert cohort.n_subjects == 0
        assert any("qc" in r.message.lower() for r in caplog.records)

    def test_missing_score_rejected(self):
        cohort = one_subject(("r0",), np.zeros((1, 1)))
        with pytest.raises(InputError, match="qc"):
            qc_filter(cohort, 0.5)


class TestStratifiedSplit:
    def test_uniform_fraction_counts(self):
        cohort = make_cohort({"A": 50, "B": 30, "W": 20})
        train, test = stratified_split(cohort, SplitSpec(fractions={}, default_fraction=0.8, seed=1))
        test_counts = {}
        for race in test.races:
            test_counts[race] = test_counts.get(race, 0) + 1
        assert test_counts == {"A": 10, "B": 6, "W": 4}
        assert train.n_subjects + test.n_subjects == 100

    def test_asymmetric_fraction_map(self):
        cohort = make_cohort({"A": 100, "B": 100, "W": 100})
        spec = SplitSpec(fractions={"A": 0.02, "B": 0.05, "W": 0.93}, seed=7)
        train, _ = stratified_split(cohort, spec)
        counts = {}
        for race in train.races:
            counts[race] = counts.get(race, 0) + 1
        assert counts == {"A": 2, "B": 5, "W": 93}

    def test_full_train_leaves_empty_test_with_warning(self, caplog):
        cohort = make_cohort({"A": 4, "B": 4, "W": 4})
        with caplog.at_level("WARNING"):
            train, test = stratified_split(cohort, SplitSpec(fractions={}, default_fraction=1.0, seed=0))
        assert test.n_subjects == 0
        assert train.n_subjects == 12
        assert any("empty" in r.message.lower() for r in caplog.records)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(InputError):
            SplitSpec(fractions={"A": 1.5})

    def test_minimum_one_when_fraction_positive(self):
        cohort = make_cohort({"A": 3, "B": 3, "W": 3})
        spec = SplitSpec(fractions={"A": 0.01, "B": 0.01, "W": 0.01}, seed=0)
        train, _ = stratified_split(cohort, spec)
        counts = {}
        for race in train.races:
            counts[race] = counts.get(race, 0) + 1
        assert counts == {"A": 1, "B": 1, "W": 1}

    def test_same_seed_reproducible(self):
        cohort = make_cohort({"A": 40, "B": 25, "W": 60}, seed=5)
        spec = SplitSpec(fractions={}, default_fraction=0.5, seed=123)
        t1, _ = stratified_split(cohort, spec)
        t2, _ = stratified_split(cohort, spec)
        assert list(t1.ids) == list(t2.ids)

    def test_different_seed_same_counts_different_members(self):
        cohort = make_cohort({"A": 40, "B": 25, "W": 60}, seed=5)
        t1, _ = stratified_split(cohort, SplitSpec(fractions={}, default_fraction=0.5, seed=1))
        t2, _ = stratified_split(cohort, SplitSpec(fractions={}, default_fraction=0.5, seed=2))

        def counts(c):
            out = {}
            for race in c.races:
                out[race] = out.get(race, 0) + 1
            return out

        assert counts(t1) == counts(t2)
        assert list(t1.ids) != list(t2.ids)

    def test_partition_and_fraction_accuracy(self):
        cohort = make_cohort({"A": 37, "B": 53, "W": 41}, seed=9)
        spec = SplitSpec(fractions={"A": 0.3, "B": 0.61, "W": 0.11}, seed=4)
        train, test = stratified_split(cohort, spec)
        train_ids = set(train.ids)
        test_ids = set(test.ids)
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(cohort.ids)
        sizes = {"A": 37, "B": 53, "W": 41}
        for race, frac in spec.fractions.items():
            got = train.races.count(race)
            assert abs(got / sizes[race] - frac) < 1.0 / sizes[race]

    def test_group_split_kept_when_another_declared_group_is_missing(self):
        # as when --min-qc removes every A subject, or a covariates file has none
        cohort = make_cohort({"A": 30, "B": 40, "W": 20}, seed=2)
        without_a = cohort.subset(np.flatnonzero(np.array(cohort.races) != "A"))
        spec = SplitSpec(fractions={}, default_fraction=0.5, seed=3)

        def b_train(c):
            train, _ = stratified_split(c, spec)
            return [sid for sid, race in zip(train.ids, train.races) if race == "B"]

        assert len(b_train(cohort)) == 20
        assert b_train(without_a) == b_train(cohort)

    def test_unknown_label_in_fractions_rejected(self):
        cohort = make_cohort({"A": 5, "B": 5, "W": 5})
        with pytest.raises(InputError, match="X"):
            stratified_split(cohort, SplitSpec(fractions={"X": 0.5}, default_fraction=0.5))


class TestCohortInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            one_subject(("r0",), np.zeros((2, 1)))

    @pytest.mark.parametrize("column", ["ages", "sexes", "races", "sites", "qc_scores"])
    def test_column_length_mismatch_rejected(self, column):
        values = {"ages": (30.0, 40.0), "sexes": ("F", "M"), "races": ("W", "A"),
                  "sites": ("x", None), "qc_scores": (0.5, np.nan)}[column]
        cohort = one_subject(("r0",), np.zeros((1, 1)))
        with pytest.raises(SchemaError, match=f"{column} column of shape \\(2,\\)"):
            dataclasses.replace(cohort, **{column: values})

    @pytest.mark.parametrize("column, label", [("sexes", "X"), ("races", "Q")])
    def test_undeclared_label_rejected(self, column, label):
        # as read_covariates rejects it, so a cohort built in code holds only
        # the labels that the split's streams and the summaries are keyed by
        cohort = one_subject(("r0",), np.zeros((1, 1)))
        with pytest.raises(InputError, match=f"'{label}'"):
            dataclasses.replace(cohort, **{column: (label,)})

    def test_duplicate_region_rejected(self):
        with pytest.raises(SchemaError):
            one_subject(("r0", "r0"), np.zeros((1, 2)))

    def test_nonfinite_response_rejected(self):
        with pytest.raises(InputError):
            one_subject(("r0",), np.array([[np.nan]]))

    def test_responses_read_only(self):
        cohort = make_cohort({"W": 3})
        with pytest.raises(ValueError):
            cohort.responses[0, 0] = 99.0

    def test_demographics_summary_counts(self):
        cohort = make_cohort({"A": 4, "B": 6, "W": 10})
        summary = demographics_summary(cohort)
        assert summary["n"] == 20
        assert summary["race_counts"]["A"] == 4
        assert summary["race_counts"]["W"] == 10
        assert sum(summary["race_pct"].values()) == pytest.approx(100.0)

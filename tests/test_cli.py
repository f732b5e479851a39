"""End-to-end tests for the normgauge command line."""

import csv
import filecmp
import functools
import importlib.util
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normgauge.cli
from normgauge import OptimizerSettings, WarpParams, fit_normative
from normgauge.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_spec(path, **overrides):
    spec = {
        "n_per_group": {"A": 30, "B": 30, "W": 140},
        "n_regions": 4,
        "noise_sd": 0.25,
        "group_offsets": {},
        "seed": 0,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> fit -> evaluate -> audit -> classify -> report run."""
    root = tmp_path_factory.mktemp("run")
    write_spec(root / "spec.json")
    data = root / "data"
    fit = root / "fit"
    ev = root / "eval"
    audit = root / "audit"
    clf = root / "clf"
    assert run_cli("synth", "--spec", root / "spec.json", "--out", data) == 0
    assert (
        run_cli(
            "fit",
            "--covariates", data / "covariates.csv",
            "--features", data / "features.csv",
            "--out", fit,
            "--default-train-frac", "0.8",
            "--seed", "3",
        )
        == 0
    )
    assert (
        run_cli(
            "evaluate",
            "--bundle", fit,
            "--covariates", data / "covariates.csv",
            "--features", data / "features.csv",
            "--ids", fit / "test_ids.txt",
            "--out", ev,
        )
        == 0
    )
    assert (
        run_cli(
            "audit",
            "--deviations", ev / "deviations.csv",
            "--errors", ev / "errors.csv",
            "--covariates", data / "covariates.csv",
            "--out", audit,
            "--contrasts", "W:A", "W:B",
            "--bundle", fit,
            "--features", data / "features.csv",
        )
        == 0
    )
    assert (
        run_cli(
            "classify",
            "--deviations", ev / "deviations.csv",
            "--covariates", data / "covariates.csv",
            "--out", clf,
            "--folds", "4",
        )
        == 0
    )
    assert run_cli("report", "--run-dir", root) == 0
    return {"root": root, "data": data, "fit": fit, "eval": ev,
            "audit": audit, "clf": clf}


class TestPipelineArtifacts:
    def test_expected_files_exist(self, pipeline):
        expected = {
            "data": ["covariates.csv", "features.csv", "truth.json", "run_config.json"],
            "fit": ["model.json", "regions.json", "fit_metrics.csv",
                    "train_ids.txt", "test_ids.txt", "demographics.json",
                    "run_config.json"],
            "eval": ["deviations.csv", "errors.csv", "metrics.csv", "run_config.json"],
            "audit": ["audit_summary.csv", "audit_tests.csv", "table4.csv",
                      "parity.json", "run_config.json"],
            "clf": ["clf_metrics.csv", "roc_points.csv", "confusion.csv",
                    "run_config.json"],
        }
        for key, names in expected.items():
            for name in names:
                assert (pipeline[key] / name).is_file(), f"{key}/{name}"
        assert (pipeline["root"] / "report.md").is_file()

    def test_split_sizes(self, pipeline):
        train = (pipeline["fit"] / "train_ids.txt").read_text().split()
        test = (pipeline["fit"] / "test_ids.txt").read_text().split()
        assert len(train) + len(test) == 200
        assert len(test) == 6 + 6 + 28
        assert not set(train) & set(test)

    def test_demographics_percentages_sum_to_hundred(self, pipeline):
        doc = json.loads((pipeline["fit"] / "demographics.json").read_text())
        for split in ("train", "test"):
            race_pct = doc[split]["race_pct"]
            assert sum(race_pct.values()) == pytest.approx(100.0, abs=1e-9)
            sex_pct = doc[split]["sex_pct"]
            assert sum(sex_pct.values()) == pytest.approx(100.0, abs=1e-9)

    def test_deviation_matrix_shape(self, pipeline):
        lines = (pipeline["eval"] / "deviations.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "id"
        assert len(lines[0].split(",")) == 1 + 4
        assert len(lines) == 1 + 40

    def test_table4_covers_contrast_metric_grid(self, pipeline):
        lines = (pipeline["audit"] / "table4.csv").read_text().splitlines()
        assert lines[0] == "contrast,metric,pct_significant"
        body = [line.split(",") for line in lines[1:]]
        assert {(r[0], r[1]) for r in body} == {
            ("W:A", "deviation"), ("W:B", "deviation"),
            ("W:A", "error"), ("W:B", "error"),
        }
        for row in body:
            assert 0.0 <= float(row[2]) <= 100.0

    def test_parity_json_structure(self, pipeline):
        doc = json.loads((pipeline["audit"] / "parity.json").read_text())
        assert doc["method"] == {
            "test": "welch_two_sample",
            "correction": "benjamini_hochberg",
        }
        assert set(doc["per_group"]) == {"A", "B", "W"}
        for entry in doc["per_group"].values():
            assert entry["explained_variance"] is not None
            assert entry["msll"] is not None
        assert "extreme_rate" in doc["gaps"]

    def test_report_has_all_four_sections(self, pipeline):
        text = (pipeline["root"] / "report.md").read_text()
        assert "## 1. Cohort demographics" in text
        assert "## 2. Model fit" in text
        assert "## 3. Subgroup audit" in text
        assert "## 4. Attribute prediction from deviations" in text
        assert "skipped" not in text

    def test_run_config_echoes_resolved_options(self, pipeline):
        cfg = json.loads((pipeline["fit"] / "run_config.json").read_text())
        assert cfg["command"] == "fit"
        assert cfg["seed"] == 3
        assert cfg["default_train_frac"] == 0.8
        assert cfg["covariate_set"] == "age,sex"


class TestEvaluateOnTrain:
    def test_metrics_match_fit_exactly(self, pipeline, tmp_path):
        out = tmp_path / "train_eval"
        assert (
            run_cli(
                "evaluate",
                "--bundle", pipeline["fit"],
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", pipeline["data"] / "features.csv",
                "--ids", pipeline["fit"] / "train_ids.txt",
                "--out", out,
            )
            == 0
        )
        assert (out / "metrics.csv").read_bytes() == (
            pipeline["fit"] / "fit_metrics.csv"
        ).read_bytes()


class TestDeterminism:
    def test_fit_reruns_are_byte_identical(self, pipeline, tmp_path):
        outs = []
        for i, workers in enumerate(("1", "2")):
            out = tmp_path / f"fit{i}"
            assert (
                run_cli(
                    "fit",
                    "--covariates", pipeline["data"] / "covariates.csv",
                    "--features", pipeline["data"] / "features.csv",
                    "--out", out,
                    "--default-train-frac", "0.8",
                    "--seed", "3",
                    "--workers", workers,
                )
                == 0
            )
            outs.append(out)
        for name in ("model.json", "regions.json", "fit_metrics.csv",
                     "train_ids.txt", "test_ids.txt", "demographics.json"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
        for name in ("model.json", "regions.json", "fit_metrics.csv"):
            assert filecmp.cmp(outs[0] / name, pipeline["fit"] / name, shallow=False)

    def test_synth_rerun_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "data2"
        spec = tmp_path / "spec.json"
        write_spec(spec)
        assert run_cli("synth", "--spec", spec, "--out", out) == 0
        for name in ("covariates.csv", "features.csv"):
            assert filecmp.cmp(out / name, pipeline["data"] / name, shallow=False)


class TestConvergenceFlag:
    def test_iteration_cap_flags_every_region(self, pipeline, tmp_path, monkeypatch, caplog):
        capped = functools.partial(fit_normative, opts=OptimizerSettings(max_iter=1))
        monkeypatch.setattr(normgauge.cli, "fit_normative", capped)
        out = tmp_path / "fit_capped"
        with caplog.at_level(logging.WARNING, logger="normgauge"):
            assert (
                run_cli(
                    "fit",
                    "--covariates", pipeline["data"] / "covariates.csv",
                    "--features", pipeline["data"] / "features.csv",
                    "--out", out,
                    "--default-train-frac", "0.8",
                    "--seed", "3",
                )
                == 0
            )
        regions = json.loads((out / "regions.json").read_text())["regions"]
        assert not any(r["converged"] for r in regions)
        assert f"{len(regions)} region(s) flagged as not converged" in caplog.text

    def test_capped_fit_warns_once(self, pipeline, tmp_path, monkeypatch, caplog):
        capped = functools.partial(fit_normative, opts=OptimizerSettings(max_iter=1))
        monkeypatch.setattr(normgauge.cli, "fit_normative", capped)
        with caplog.at_level(logging.WARNING, logger="normgauge"):
            assert (
                run_cli(
                    "fit",
                    "--covariates", pipeline["data"] / "covariates.csv",
                    "--features", pipeline["data"] / "features.csv",
                    "--out", tmp_path / "fit_capped",
                    "--default-train-frac", "0.8",
                )
                == 0
            )
        # one record for the whole fit, naming regions with their stop reason
        (record,) = [r for r in caplog.records if "converge" in r.getMessage()]
        message = record.getMessage()
        assert message.startswith("4 region(s) flagged as not converged: 'region_000' (")
        assert "; projected gradient " in message

    def test_default_fit_flags_nothing(self, pipeline):
        regions = json.loads((pipeline["fit"] / "regions.json").read_text())["regions"]
        assert all(r["converged"] for r in regions)


class TestClassifyOptions:
    def classify(self, pipeline, out, *flags):
        return run_cli(
            "classify",
            "--deviations", pipeline["eval"] / "deviations.csv",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", out,
            *flags,
        )

    def test_holdout_fraction_one_fold_per_class(self, pipeline, tmp_path):
        outs = [tmp_path / "clf_a", tmp_path / "clf_b"]
        for out in outs:
            assert self.classify(pipeline, out, "--holdout-fraction", "0.2") == 0
        with open(outs[0] / "clf_metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["class"], r["fold"]) for r in rows] == [
            ("A", "0"), ("B", "0"), ("W", "0")
        ]
        for name in ("clf_metrics.csv", "roc_points.csv", "confusion.csv"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name

    def test_svg(self, pipeline, tmp_path, capsys):
        out = tmp_path / "clf_svg"
        code = self.classify(pipeline, out, "--folds", "4", "--svg")
        if importlib.util.find_spec("matplotlib") is None:
            assert code == 2
            assert "install the 'plots' extra" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert code == 0
            assert (out / "roc.svg").stat().st_size > 0


def required_flags(pipeline, command, out):
    """Only the required flags of a command, on the pipeline's files."""
    data, ev = pipeline["data"], pipeline["eval"]
    return {
        "synth": ["--spec", pipeline["root"] / "spec.json", "--out", out],
        "fit": ["--covariates", data / "covariates.csv",
                "--features", data / "features.csv", "--out", out],
        "evaluate": ["--bundle", pipeline["fit"], "--covariates", data / "covariates.csv",
                     "--features", data / "features.csv", "--out", out],
        "audit": ["--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
                  "--covariates", data / "covariates.csv", "--out", out,
                  "--contrasts", "W:A"],
        "classify": ["--deviations", ev / "deviations.csv",
                     "--covariates", data / "covariates.csv", "--out", out],
        "report": ["--run-dir", pipeline["root"], "--out", out / "report.md"],
    }[command]


# every option each command echoes to run_config.json, at its default
DEFAULT_OPTIONS = {
    "synth": {"seed": 0},  # the seed of the spec, echoed
    "fit": {
        "covariate_set": "age,sex", "race_reference": "W", "race_labels": "A,B,W",
        "knots": 5, "degree": 3, "include_linear_age": True, "knot_lo": None,
        "knot_hi": None, "min_qc": None, "train_frac": None,
        "default_train_frac": None, "seed": 0, "workers": 1,
    },
    "evaluate": {"ids": None, "race_labels": "A,B,W"},
    "audit": {"q": 0.05, "threshold": 2.0, "bundle": None, "features": None,
              "race_labels": "A,B,W"},
    "classify": {"folds": 5, "l2": 1.0, "seed": 0, "standardize": False,
                 "holdout_fraction": None, "svg": False, "race_labels": "A,B,W"},
}


class TestConfigFile:
    @staticmethod
    def _fit_with_config(pipeline, tmp_path, file_values, flags):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps(file_values), encoding="utf-8")
        out = tmp_path / "fit_cfg"
        assert (
            run_cli(
                "fit",
                "--config", config,
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", pipeline["data"] / "features.csv",
                "--out", out,
                *flags,
            )
            == 0
        )
        return json.loads((out / "run_config.json").read_text())

    def test_flag_overrides_config_file(self, pipeline, tmp_path):
        cfg = self._fit_with_config(pipeline, tmp_path, {"knots": 6, "seed": 9},
                                    ["--knots", "4"])
        assert cfg["knots"] == 4
        assert cfg["seed"] == 9

    @pytest.mark.parametrize(
        "file_values, flags, expected",
        [
            # a flag equal to its default still beats the file
            ({"knots": 6}, ["--knots", "5"], {"knots": 5}),
            ({"include_linear_age": True}, ["--no-linear-age"],
             {"include_linear_age": False}),
        ],
    )
    def test_default_valued_flag_overrides_config_file(self, pipeline, tmp_path,
                                                       file_values, flags, expected):
        cfg = self._fit_with_config(pipeline, tmp_path, file_values, flags)
        assert {key: cfg[key] for key in expected} == expected

    def test_unknown_config_key_rejected(self, pipeline, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"knotz": 6}), encoding="utf-8")
        code = run_cli(
            "fit",
            "--config", config,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", tmp_path / "x",
        )
        assert code == 2
        assert "knotz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("classify", "standardize", "false"),
            ("fit", "knots", [3]),
            ("audit", "q", "high"),
        ],
    )
    def test_mistyped_config_value_rejected(self, pipeline, tmp_path, capsys,
                                            command, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "x"
        code = run_cli(command, "--config", config, *required_flags(pipeline, command, out))
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(DEFAULT_OPTIONS))
    def test_run_config_echoes_every_default(self, pipeline, tmp_path, command):
        out = tmp_path / "out"
        flags = required_flags(pipeline, command, out)
        assert run_cli(command, *flags) == 0
        expected = {"command": command, "version": normgauge.__version__}
        for flag, value in zip(flags[::2], flags[1::2]):
            expected[flag[2:].replace("-", "_")] = str(value)
        if command == "audit":
            expected["contrasts"] = ["W:A"]
        expected.update(DEFAULT_OPTIONS[command])
        assert json.loads((out / "run_config.json").read_text()) == expected

    def test_report_writes_no_run_config(self, pipeline, tmp_path):
        out = tmp_path / "out"
        assert run_cli("report", *required_flags(pipeline, "report", out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.md"]


class TestRaceIncludedFit:
    def test_design_gains_race_columns(self, pipeline, tmp_path):
        out = tmp_path / "fit_race"
        assert (
            run_cli(
                "fit",
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", pipeline["data"] / "features.csv",
                "--out", out,
                "--covariate-set", "age,sex,race",
            )
            == 0
        )
        from normgauge import load_bundle

        columns = load_bundle(out).schema.column_names
        assert "race_A" in columns
        assert "race_B" in columns
        assert "race_W" not in columns
        model_doc = json.loads((out / "model.json").read_text())
        assert model_doc["design_schema"]["race_reference"] == "W"


class TestExitCodes:
    def test_missing_features_file_exit_two(self, pipeline, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = run_cli(
            "fit",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", missing,
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    # hand edits of a fitted bundle: (file, key path, new value from the old
    # one or None to delete the key, text the error message must contain);
    # an empty key path edits the whole document
    BUNDLE_EDITS = {
        "model-not-an-object": ("model.json", [], lambda doc: [doc], "model.json"),
        "region-list-not-a-list": ("model.json", ["regions"], lambda r: 5, "model.json"),
        "reversed-knots": ("model.json", ["design_schema", "knots"], lambda k: k[::-1], "knots"),
        "text-knot": ("model.json", ["design_schema", "knots", 0], lambda k: "abc", "model.json"),
        "text-degree": ("model.json", ["design_schema", "degree"], lambda d: "x", "model.json"),
        "no-design-schema": ("model.json", ["design_schema"], None, "design_schema"),
        "no-config": ("model.json", ["config"], None, "config"),
        "no-weights": ("regions.json", ["regions", 0, "weights"], None, "regions.json"),
        "chol-not-square": (
            "regions.json",
            ["regions", 0, "chol_precision"],
            lambda c: [row[:-1] for row in c],
            "chol_precision",
        ),
        "nan-warp": (
            "regions.json",
            ["regions", 0, "hyperparams", "warp", "epsilon"],
            lambda e: "nan",
            "regions.json",
        ),
        "nan-log-alpha": (
            "regions.json",
            ["regions", 0, "hyperparams", "log_alpha"],
            lambda v: "nan",
            "log_alpha",
        ),
        "nan-log-beta": (
            "regions.json",
            ["regions", 0, "hyperparams", "log_beta"],
            lambda v: "nan",
            "log_beta",
        ),
        "nan-weight": (
            "regions.json", ["regions", 0, "weights", 1], lambda v: "nan", "weights"
        ),
        "inf-chol-precision": (
            "regions.json",
            ["regions", 0, "chol_precision", 0, 0],
            lambda v: "inf",
            "chol_precision",
        ),
        "nan-train-z-mean": (
            "regions.json", ["regions", 0, "train_z_mean"], lambda v: "nan", "train_z_mean"
        ),
        "nan-train-z-var": (
            "regions.json", ["regions", 0, "train_z_var"], lambda v: "nan", "train_z_var"
        ),
        "zero-train-z-var": (
            "regions.json", ["regions", 0, "train_z_var"], lambda v: 0.0, "train_z_var"
        ),
    }

    @pytest.mark.parametrize("edit", sorted(BUNDLE_EDITS))
    def test_reversed_knots_in_bundle_exit_three(self, pipeline, tmp_path, capsys, edit):
        name, keys, change, named = self.BUNDLE_EDITS[edit]
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["fit"], bundle)
        root = [json.loads((bundle / name).read_text())]
        keys = [0, *keys]
        parent = functools.reduce(lambda d, k: d[k], keys[:-1], root)
        if change is None:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = change(parent[keys[-1]])
        (bundle / name).write_text(json.dumps(root[0]))
        code = run_cli(
            "evaluate",
            "--bundle", bundle,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_region_mismatch_exit_three(self, pipeline, tmp_path, capsys):
        renamed = tmp_path / "features.csv"
        text = (pipeline["data"] / "features.csv").read_text()
        renamed.write_text(text.replace("region_000", "region_zzz", 1))
        code = run_cli(
            "evaluate",
            "--bundle", pipeline["fit"],
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", renamed,
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert "region_000" in capsys.readouterr().err

    def test_missing_required_option_exit_two(self, capsys):
        assert run_cli("fit", "--out", "somewhere") == 2
        err = capsys.readouterr().err
        assert "--covariates" in err and "--features" in err

    def test_bad_contrast_exit_two(self, pipeline, tmp_path, capsys):
        code = run_cli(
            "audit",
            "--deviations", pipeline["eval"] / "deviations.csv",
            "--errors", pipeline["eval"] / "errors.csv",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", tmp_path / "out",
            "--contrasts", "WA",
        )
        assert code == 2
        assert "WA" in capsys.readouterr().err

    def test_absent_contrast_group_exit_two(self, pipeline, tmp_path, capsys):
        code = run_cli(
            "audit",
            "--deviations", pipeline["eval"] / "deviations.csv",
            "--errors", pipeline["eval"] / "errors.csv",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", tmp_path / "out",
            "--contrasts", "W:Q",
        )
        assert code == 2
        assert "'Q'" in capsys.readouterr().err


class TestAuditParity:
    def audit(self, pipeline, out, *extra):
        return run_cli(
            "audit",
            "--deviations", pipeline["eval"] / "deviations.csv",
            "--errors", pipeline["eval"] / "errors.csv",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", out,
            "--contrasts", "W:A", "W:B",
            *extra,
        )

    def test_deviation_metrics_do_not_depend_on_the_model(self, pipeline, tmp_path):
        assert self.audit(pipeline, tmp_path / "bare") == 0
        bare = json.loads((tmp_path / "bare" / "parity.json").read_text())
        full = json.loads((pipeline["audit"] / "parity.json").read_text())
        assert set(bare["per_group"]) == set(full["per_group"]) == {"A", "B", "W"}
        for label, entry in bare["per_group"].items():
            for key in ("n", "mean_abs_deviation", "mean_deviation", "extreme_rate"):
                assert entry[key] == full["per_group"][label][key], (label, key)
            assert entry["explained_variance"] is None
            assert entry["msll"] is None
        for key in ("mean_abs_deviation", "extreme_rate"):
            assert bare["gaps"][key] == full["gaps"][key]
        assert bare["gaps"]["explained_variance"] is None
        assert bare["gaps"]["msll"] is None

    @pytest.mark.parametrize("given", ["--bundle", "--features"])
    def test_half_given_model_exit_two(self, pipeline, tmp_path, capsys, given):
        source = {
            "--bundle": pipeline["fit"],
            "--features": pipeline["data"] / "features.csv",
        }
        assert self.audit(pipeline, tmp_path / "out", given, source[given]) == 2
        err = capsys.readouterr().err
        assert "provide both --bundle and --features or neither" in err
        assert not (tmp_path / "out").exists()


class TestClampWarning:
    def test_logged_once_per_scoring_command(self, pipeline, tmp_path, caplog):
        data, fit, ev = pipeline["data"], tmp_path / "fit", tmp_path / "eval"
        # synthetic ages span 20-70, so a 30-60 knot range clamps some of them
        assert (
            run_cli(
                "fit",
                "--covariates", data / "covariates.csv",
                "--features", data / "features.csv",
                "--out", fit,
                "--default-train-frac", "0.8",
                "--knot-lo", "30",
                "--knot-hi", "60",
            )
            == 0
        )
        commands = {
            "evaluate": [
                "--bundle", fit,
                "--covariates", data / "covariates.csv",
                "--features", data / "features.csv",
                "--ids", fit / "test_ids.txt",
                "--out", ev,
            ],
            "audit": [
                "--deviations", ev / "deviations.csv",
                "--errors", ev / "errors.csv",
                "--covariates", data / "covariates.csv",
                "--out", tmp_path / "audit",
                "--contrasts", "W:A", "W:B",
                "--bundle", fit,
                "--features", data / "features.csv",
            ],
        }
        for command, argv in commands.items():
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="normgauge"):
                assert run_cli(command, *argv) == 0
            clamped = [r for r in caplog.records if "clamped" in r.getMessage()]
            assert len(clamped) == 1, command

    def test_fit_logged_once(self, pipeline, tmp_path, caplog):
        # fit scores its training cohort on the design it fitted on
        data = pipeline["data"]
        with caplog.at_level(logging.WARNING, logger="normgauge"):
            assert (
                run_cli(
                    "fit",
                    "--covariates", data / "covariates.csv",
                    "--features", data / "features.csv",
                    "--out", tmp_path / "fit",
                    "--default-train-frac", "0.8",
                    "--knot-lo", "30",
                    "--knot-hi", "60",
                )
                == 0
            )
        clamped = [r for r in caplog.records if "clamped" in r.getMessage()]
        assert len(clamped) == 1


# run in a fresh interpreter: the exit code, then the public scipy subpackages
# loaded at exit, one line of JSON
_SCIPY_PROBE = """
import json, sys
from normgauge.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = {n.split(".")[1] for n in sys.modules if n.startswith("scipy.")}
print(json.dumps([code, sorted(p for p in loaded if p[0] != "_" and p != "version")]))
"""


# imports the package and evaluates the evidence and its gradient, then
# prints every scipy module loaded, one line of JSON
_EVIDENCE_PROBE = """
import json, sys
import numpy as np
from normgauge import Hyperparams, neg_log_evidence, neg_log_evidence_grad
phi, y = np.column_stack([np.ones(5), np.arange(5.0)]), np.array([0.5, 1.0, 2.5, 3.0, 4.5])
neg_log_evidence(phi, y, Hyperparams())
neg_log_evidence_grad(phi, y, Hyperparams())
print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] == "scipy")))
"""


def _probe(source, *argv):
    """Run source in a fresh interpreter; its last line of output, parsed as JSON."""
    src = str(Path(normgauge.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", source, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _scipy_after(*argv):
    code, loaded = _probe(_SCIPY_PROBE, *argv)
    return code, set(loaded)


class TestImportCost:
    """Each command imports only the scipy parts it calls: importing scipy is
    most of a command's start-up."""

    def test_package_import_loads_no_scipy(self):
        assert _scipy_after() == (0, set())

    def test_evidence_functions_load_no_scipy(self):
        assert _probe(_EVIDENCE_PROBE) == []

    # public scipy subpackages a command may load. The fixture's noise is
    # Gaussian, so every region's free-warp run is screened out and fit only
    # scores.
    ALLOWED = {
        "synth": set(),
        "report": set(),
        "evaluate": set(),
        "audit": {"special"},
        "fit": set(),
        "classify": set(),
    }

    @pytest.mark.parametrize("command", sorted(ALLOWED))
    def test_command_loads_only_what_it_calls(self, pipeline, tmp_path, command):
        allowed = self.ALLOWED[command]
        data, fit, ev = pipeline["data"], pipeline["fit"], pipeline["eval"]
        argv = {
            "synth": ["--spec", pipeline["root"] / "spec.json"],
            "report": ["--run-dir", pipeline["root"], "--out", tmp_path / "report.md"],
            "evaluate": [
                "--bundle", fit, "--covariates", data / "covariates.csv",
                "--features", data / "features.csv", "--ids", fit / "test_ids.txt",
            ],
            "audit": [
                "--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
                "--covariates", data / "covariates.csv", "--contrasts", "W:A",
                "--bundle", fit, "--features", data / "features.csv",
            ],
            "fit": [
                "--covariates", data / "covariates.csv",
                "--features", data / "features.csv", "--default-train-frac", "0.8",
            ],
            "classify": [
                "--deviations", ev / "deviations.csv",
                "--covariates", data / "covariates.csv", "--folds", "4",
            ],
        }[command]
        if command != "report":
            argv += ["--out", tmp_path / "out"]
        code, loaded = _scipy_after(command, *argv)
        assert code == 0
        assert loaded <= allowed, f"{command} loaded {sorted(loaded - allowed)}"
        assert "stats" not in loaded and "interpolate" not in loaded

    def test_fit_with_a_free_warp_run_loads_no_scipy(self, tmp_path):
        spec = write_spec(
            tmp_path / "spec.json",
            noise_sd=0.5,
            noise_skew={"epsilon": 0.5, "log_delta": -0.3},
        )
        assert run_cli("synth", "--spec", spec, "--out", tmp_path / "data") == 0
        code, loaded = _scipy_after(
            "fit",
            "--covariates", tmp_path / "data" / "covariates.csv",
            "--features", tmp_path / "data" / "features.csv",
            "--out", tmp_path / "fit",
        )
        assert code == 0
        assert loaded == set()
        # the free-warp fit ran and won somewhere
        warps = [
            r["hyperparams"]["warp"]
            for r in json.loads((tmp_path / "fit" / "regions.json").read_text())["regions"]
        ]
        assert not all(WarpParams.from_dict(w).is_identity() for w in warps)


class TestReportResilience:
    def test_missing_audit_noted_but_exit_zero(self, pipeline, tmp_path):
        run_dir = tmp_path / "partial"
        run_dir.mkdir()
        fit_dir = run_dir / "fit"
        fit_dir.mkdir()
        for name in ("fit_metrics.csv", "demographics.json"):
            fit_dir.joinpath(name).write_bytes(
                (pipeline["fit"] / name).read_bytes()
            )
        out = tmp_path / "report.md"
        assert run_cli("report", "--run-dir", run_dir, "--out", out) == 0
        text = out.read_text()
        assert "table4.csv not found; section skipped" in text
        assert "clf_metrics.csv not found; section skipped" in text
        assert "## 2. Model fit" in text

    def test_missing_run_dir_exit_two(self, tmp_path, capsys):
        assert run_cli("report", "--run-dir", tmp_path / "ghost") == 2
        assert "ghost" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

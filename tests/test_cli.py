"""End-to-end tests for the normgauge command line."""

import csv
import filecmp
import functools
import gc
import hashlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import normgauge
import normgauge.blr
import normgauge.cli
import normgauge.cohort
from normgauge import WarpParams
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
            "fit": ["model.json", "regions.json", "train_ids.txt", "test_ids.txt",
                    "demographics.json", "run_config.json"],
            "eval": ["deviations.csv", "errors.csv", "metrics.csv", "group_fit.json",
                     "run_config.json"],
            "audit": ["audit_summary.csv", "audit_tests.csv", "table4.csv",
                      "parity.json", "run_config.json"],
            "clf": ["clf_metrics.csv", "roc_points.csv", "confusion.csv",
                    "run_config.json"],
        }
        for key, names in expected.items():
            for name in names:
                assert (pipeline[key] / name).is_file(), f"{key}/{name}"
        assert (pipeline["root"] / "report.md").is_file()
        # evaluate scores a cohort; fit writes no metrics of its own
        assert not (pipeline["fit"] / "fit_metrics.csv").exists()

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
        # section 2 shows the held-out metrics and names the file it read
        assert "\n4 regions (eval/metrics.csv).\n" in text

    def test_run_config_echoes_resolved_options(self, pipeline):
        cfg = json.loads((pipeline["fit"] / "run_config.json").read_text())
        assert cfg["command"] == "fit"
        assert cfg["seed"] == 3
        assert cfg["default_train_frac"] == 0.8
        assert cfg["covariate_set"] == "age,sex"


class TestEvaluateOnTrain:
    def test_metrics_match_fit_exactly(self, pipeline, tmp_path):
        # the in-sample metrics: the bytes of the fit_metrics.csv that fit
        # wrote for this cohort before that file was deleted
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
        assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == (
            "b3e1450a4976666dd92caf88e79978260b3e08291d434fde99092d56704b9516"
        )

    def test_ids_file_is_read_as_utf8(self, pipeline, tmp_path):
        # the ids file is UTF-8 as fit writes it, whatever the locale; with
        # this flag and filter, a read in the locale's encoding is an error
        out = _python(
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-c", "import sys; from normgauge.cli import main; sys.exit(main())",
            "evaluate",
            "--bundle", pipeline["fit"],
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--ids", pipeline["fit"] / "test_ids.txt",
            "--out", tmp_path / "out",
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "out" / "deviations.csv").read_bytes() == (
            pipeline["eval"] / "deviations.csv"
        ).read_bytes()

    def test_concurrent_matrix_writes_warn_nothing(self, pipeline, tmp_path, monkeypatch):
        # with BLAS threads left to the library, the two matrices are still
        # written by a fork that no thread or fork warning objects to
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        out = _python(
            "-W", "error",
            "-c", "import sys; from normgauge.cli import main; sys.exit(main())",
            "evaluate",
            "--bundle", pipeline["fit"],
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--ids", pipeline["fit"] / "test_ids.txt",
            "--out", tmp_path / "out",
        )
        assert out.returncode == 0, out.stderr
        assert "Warning" not in out.stderr and "fork" not in out.stderr
        for name in ("deviations.csv", "errors.csv", "metrics.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (
                pipeline["eval"] / name
            ).read_bytes()


class TestAuditBytes:
    """The four audit tables of the pipeline, pinned by their SHA-256 as the
    audit wrote them when the CLI assembled its tables itself; only
    parity.json depends on the model (EV and MSLL)."""

    DIGESTS = {
        "audit_summary.csv": "877fa510f1a7a918f66278b895de4b20f6751126d8adf953bdb02adf33807539",
        "audit_tests.csv": "40e578a68f2d3527b33ecc706ba7efffca8f2810e33c5e987af2e6bc6cf9a383",
        "table4.csv": "b82d014f8a7b5538ced649a247f1b22367c4189da3633159a30bb12fce2e846a",
    }
    WITH_MODEL = {
        **DIGESTS,
        "parity.json": "084993a3c6cd1cb53a21e522ebed62c25661b0dda22bd44feb7bc130ecbb8d97",
    }
    BARE = {
        **DIGESTS,
        "parity.json": "a1dd892ccf0bd18bbc78e18c9d52246cbe64d6eb612595e14d58bf0f745062f8",
    }

    @staticmethod
    def digests(out):
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("audit_summary.csv", "audit_tests.csv", "table4.csv", "parity.json")
        }

    def test_with_model(self, pipeline):
        assert self.digests(pipeline["audit"]) == self.WITH_MODEL

    def test_without_model(self, pipeline, tmp_path):
        out = tmp_path / "audit"
        assert (
            run_cli(
                "audit",
                "--deviations", pipeline["eval"] / "deviations.csv",
                "--errors", pipeline["eval"] / "errors.csv",
                "--covariates", pipeline["data"] / "covariates.csv",
                "--out", out,
                "--contrasts", "W:A", "W:B",
            )
            == 0
        )
        assert self.digests(out) == self.BARE


class TestClassifyBytes:
    """The three classify outputs of the pipeline, and of an unpenalized run
    on its files, pinned by their SHA-256 as classify wrote them when every
    binary fit started from zero. At l2 > 0 a start changes only how many
    Newton steps reach the unique optimum; at l2 = 0 every fit still starts
    from zero."""

    NAMES = ("clf_metrics.csv", "roc_points.csv", "confusion.csv")

    @staticmethod
    def digests(out):
        return [hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in TestClassifyBytes.NAMES]

    def test_pipeline(self, pipeline):
        assert self.digests(pipeline["clf"]) == [
            "51411fa16800a7f5144b50bbeef9d195542cb68395571804609906200455cf8d",
            "49e03071e310e3883204b6397c532b7be1b8609276747a4cc57670dcae221ed4",
            "de399a20c79c1fb94856cc8be46f06810ad0b4b7cc6b34bdc79cbf9e5a3d941b",
        ]

    @pytest.mark.parametrize(
        "flags, want",
        [
            (("--l2", "0"), [
                "f3812cb97568580f63549ce9ff6b19e51740e91672e878b439f84dbd0096244b",
                "0b9eb1156e932404eda9c8cc33b5e0c5b6aa7eb218e9ef37c88721cf0ef9cc11",
                "cd2e261061713a7198148bccf1e5f2dc0fa49fb153916f82836b930d349fc33f",
            ]),
        ],
        ids=["l2-zero"],
    )
    def test_from_zero(self, pipeline, tmp_path, flags, want):
        out = tmp_path / "clf"
        assert run_cli("classify", *required_flags(pipeline, "classify", out), *flags) == 0
        assert self.digests(out) == want


class TestDeterminism:
    def test_forked_fit_warns_nothing(self, pipeline, tmp_path, monkeypatch):
        # with BLAS threads left to the library, the regions are still fitted
        # by forks that no thread or fork warning objects to
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        out = _python(
            "-W", "error",
            "-c", "import sys; from normgauge.cli import main; sys.exit(main())",
            "fit",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", tmp_path / "fit",
            "--default-train-frac", "0.8",
            "--seed", "3",
        )
        assert out.returncode == 0, out.stderr
        assert "Warning" not in out.stderr and "fork" not in out.stderr
        for name in ("model.json", "regions.json"):
            assert (tmp_path / "fit" / name).read_bytes() == (
                pipeline["fit"] / name
            ).read_bytes()

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
        for name in ("model.json", "regions.json",
                     "train_ids.txt", "test_ids.txt", "demographics.json"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
        for name in ("model.json", "regions.json"):
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
        monkeypatch.setattr(normgauge.blr, "_MAX_ITER", 1)
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
        monkeypatch.setattr(normgauge.blr, "_MAX_ITER", 1)
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

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (("--standardize",), None, "unrecognized arguments: --standardize"),
            (("--holdout-fraction", "0.2"), None,
             "unrecognized arguments: --holdout-fraction 0.2"),
            ((), {"standardize": True}, "unknown config key(s) ['standardize']"),
        ],
        ids=["standardize", "holdout-fraction", "standardize-config"],
    )
    def test_removed_modes_exit_two(self, pipeline, tmp_path, capsys, flags, config,
                                    message):
        # cross-validation on the deviations as written is the one evaluation
        out = tmp_path / "clf"
        if config is not None:
            path = tmp_path / "classify.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            flags = ("--config", path)
        try:
            code = self.classify(pipeline, out, *flags)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_svg(self, pipeline, tmp_path, capsys):
        # the option is gone: as a flag or a config key it is unknown
        out = tmp_path / "clf_svg"
        with pytest.raises(SystemExit) as exc:
            self.classify(pipeline, out, "--svg")
        assert exc.value.code == 2
        assert "unrecognized arguments: --svg" in capsys.readouterr().err
        config = tmp_path / "svg.json"
        config.write_text(json.dumps({"svg": True}), encoding="utf-8")
        assert self.classify(pipeline, out, "--config", config) == 2
        assert "unknown config key(s) ['svg']" in capsys.readouterr().err
        assert not out.exists()


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
        "knots": 5, "degree": 3, "knot_lo": None, "knot_hi": None,
        "min_qc": None, "train_frac": None, "default_train_frac": None,
        "seed": 0, "workers": 1,
    },
    "evaluate": {"ids": None, "race_labels": "A,B,W"},
    "audit": {"q": 0.05, "threshold": 2.0, "bundle": None, "features": None,
              "race_labels": "A,B,W"},
    "classify": {"folds": 5, "l2": 1.0, "seed": 0, "race_labels": "A,B,W"},
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
            ({"covariate_set": "age,sex,race"}, ["--covariate-set", "age,sex"],
             {"covariate_set": "age,sex"}),
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

    def test_linear_age_config_key_rejected(self, pipeline, tmp_path, capsys):
        # the option is gone, so a file that sets it names an unknown key
        config = tmp_path / "old.json"
        config.write_text(json.dumps({"include_linear_age": False}), encoding="utf-8")
        out = tmp_path / "x"
        code = run_cli("fit", "--config", config, *required_flags(pipeline, "fit", out))
        assert code == 2
        assert "unknown config key(s) ['include_linear_age']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("classify", "folds", "five"),
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

    def fit(self, pipeline, out, fractions):
        return run_cli(
            "fit",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", out,
            "--covariate-set", "age,sex,race",
            "--train-frac", fractions,
        )

    def test_race_absent_from_training_has_no_level(self, pipeline, tmp_path, capsys):
        out = tmp_path / "fit_race"
        assert self.fit(pipeline, out, "A=0,B=0.8,W=0.8") == 0
        from normgauge import load_bundle

        assert load_bundle(out).schema.race_levels == ("B",)
        # an A subject has no level to score with
        code = run_cli(
            "evaluate",
            "--bundle", out,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", tmp_path / "eval",
        )
        assert code == 3
        assert "unseen race level(s): ['A']" in capsys.readouterr().err

    def test_reference_absent_from_training_exit_two(self, pipeline, tmp_path, capsys):
        assert self.fit(pipeline, tmp_path / "fit_race", "A=0.8,B=0.8,W=0") == 2
        assert "race reference level 'W'" in capsys.readouterr().err


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

    def test_features_without_regions_exit_two(self, pipeline, tmp_path, capsys):
        with open(pipeline["data"] / "features.csv", newline="", encoding="utf-8") as fh:
            ids = [row[0] for row in csv.reader(fh)]
        features = tmp_path / "features.csv"
        features.write_text("".join(f"{sid}\n" for sid in ids), encoding="utf-8")
        out = tmp_path / "fit"
        code = run_cli(
            "fit",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", features,
            "--out", out,
        )
        assert code == 2
        assert "no region columns" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_region_exit_four(self, pipeline, tmp_path, capsys):
        # the paper's regions plus one of sinh(200 N(0, 1)) responses, up to ~1e225
        with open(pipeline["data"] / "features.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rng = np.random.default_rng(0)
        huge = np.sinh(np.clip(200.0 * rng.normal(size=len(rows) - 1), -520, 520))
        rows[0].append("huge")
        for row, value in zip(rows[1:], huge.tolist()):
            row.append(repr(value))
        features = tmp_path / "features.csv"
        with open(features, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "fit",
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", features,
                "--default-train-frac", "0.5",
                "--out", out,
            )
        assert code == 4
        assert "region 'huge'" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_logistic_hessian_exit_four(self, pipeline, tmp_path, capsys):
        # a constant column repeats the bias column, and a ridge of 1e-300 is
        # lost to rounding on the Hessian's diagonal
        lines = (pipeline["eval"] / "deviations.csv").read_text(encoding="utf-8").splitlines()
        deviations = tmp_path / "deviations.csv"
        deviations.write_text(
            "".join(f"{line},{'const' if i == 0 else '1.0'}\n" for i, line in enumerate(lines)),
            encoding="utf-8",
        )
        out = tmp_path / "clf"
        out.mkdir()
        code = run_cli(
            "classify",
            "--deviations", deviations,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--l2", "1e-300",
            "--out", out,
        )
        assert code == 4
        assert "singular at --l2 1e-300" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_bundle_write_leaves_no_bundle(self, pipeline, tmp_path, monkeypatch):
        write_json = normgauge.blr.dump_json

        def failing_regions_write(obj, path, *args, **kwargs):
            if Path(path).name == "regions.json":
                raise OSError("no space left on device")
            write_json(obj, path, *args, **kwargs)

        monkeypatch.setattr(normgauge.blr, "dump_json", failing_regions_write)
        out = tmp_path / "fit"
        with pytest.raises(OSError, match="no space left"):
            run_cli(
                "fit",
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", pipeline["data"] / "features.csv",
                "--out", out,
            )
        assert list(out.iterdir()) == []

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
        "no-basis": ("model.json", ["config", "basis"], None, "basis"),
        "no-race-reference-level": (
            "model.json", ["config", "race_reference_level"], None, "race_reference_level"
        ),
        "no-race-levels": (
            "model.json", ["design_schema", "race_levels"], None, "race_levels"
        ),
        "no-sex-positive-label": (
            "model.json", ["design_schema", "sex_positive_label"], None, "sex_positive_label"
        ),
        "no-region-list": ("model.json", ["regions"], None, "regions"),
        "no-provenance": ("model.json", ["provenance"], None, "provenance"),
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
        "no-response-mean": (
            "regions.json", ["regions", 0, "response_mean"], None, "response_mean"
        ),
        "no-response-sd": ("regions.json", ["regions", 0, "response_sd"], None, "response_sd"),
        "inf-response-mean": (
            "regions.json", ["regions", 0, "response_mean"], lambda v: "inf", "response_mean"
        ),
        "nan-response-sd": (
            "regions.json", ["regions", 0, "response_sd"], lambda v: "nan", "response_sd"
        ),
        "inf-response-sd": (
            "regions.json", ["regions", 0, "response_sd"], lambda v: "inf", "response_sd"
        ),
        "zero-response-sd": (
            "regions.json", ["regions", 0, "response_sd"], lambda v: 0.0, "response_sd"
        ),
        "negative-response-sd": (
            "regions.json", ["regions", 0, "response_sd"], lambda v: -v, "response_sd"
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_knots", 1, "n_knots must be >= 2, got 1"),
            ("degree", 0, "degree must be >= 1, got 0"),
            ("knot_range", [60, 30], "degenerate knot range (60, 30)"),
        ],
    )
    def test_rejected_config_value_in_bundle_exit_three(
        self, pipeline, tmp_path, capsys, key, value, message
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["fit"], bundle)
        meta = json.loads((bundle / "model.json").read_text())
        meta["config"]["basis"][key] = value
        (bundle / "model.json").write_text(json.dumps(meta))
        code = run_cli(
            "evaluate",
            "--bundle", bundle,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {bundle / 'model.json'}: {message}\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _with_linear_age_keys(pipeline, bundle, value):
        """A copy of the pipeline's bundle whose model.json records
        include_linear_age = value, as older bundles do."""
        shutil.copytree(pipeline["fit"], bundle)
        meta = json.loads((bundle / "model.json").read_text())
        meta["design_schema"]["include_linear_age"] = value
        meta["config"]["basis"]["include_linear_age"] = value
        (bundle / "model.json").write_text(json.dumps(meta))
        return bundle

    def _evaluate(self, pipeline, bundle, out):
        return run_cli(
            "evaluate",
            "--bundle", bundle,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--ids", pipeline["fit"] / "test_ids.txt",
            "--out", out,
        )

    def test_bundle_with_linear_age_column_exit_three(self, pipeline, tmp_path, capsys):
        bundle = self._with_linear_age_keys(pipeline, tmp_path / "bundle", True)
        assert self._evaluate(pipeline, bundle, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle / 'model.json'}: ")
        assert "linear-age column" in err and "refit" in err
        assert not (tmp_path / "out").exists()

    def test_bundle_without_linear_age_column_scores_as_before(self, pipeline, tmp_path):
        bundle = self._with_linear_age_keys(pipeline, tmp_path / "bundle", False)
        assert self._evaluate(pipeline, bundle, tmp_path / "old") == 0
        assert self._evaluate(pipeline, pipeline["fit"], tmp_path / "new") == 0
        for name in ("deviations.csv", "errors.csv", "metrics.csv"):
            assert filecmp.cmp(tmp_path / "old" / name, tmp_path / "new" / name,
                               shallow=False), name
        # group_fit.json differs only by the digest of the edited model.json
        old, new = (json.loads((tmp_path / d / "group_fit.json").read_text())
                    for d in ("old", "new"))
        assert old["sha256"].pop("model") != new["sha256"].pop("model")
        assert old == new

    def test_no_linear_age_flag_exit_two(self, pipeline, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "fit",
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", pipeline["data"] / "features.csv",
                "--out", tmp_path / "fit",
                "--no-linear-age",
            )
        assert exc.value.code == 2
        assert "--no-linear-age" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_missing_regions_file_exit_two(self, pipeline, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(pipeline["fit"], bundle)
        (bundle / "regions.json").unlink()
        code = run_cli(
            "evaluate",
            "--bundle", bundle,
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: file not found: {bundle / 'regions.json'}\n"
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

    # checked before any file is read, the missing ones here included, and
    # whether or not some contrast is testable
    @pytest.mark.parametrize("q", ["0", "1", "1.5", "-0.1", "nan"])
    def test_fdr_level_out_of_range_exit_two(self, tmp_path, capsys, q):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "out"
        code = run_cli(
            "audit", "--deviations", missing, "--errors", missing,
            "--covariates", missing, "--out", out, "--contrasts", "W:A", "--q", q,
        )
        assert code == 2
        assert f"error: --q must be in (0, 1), got {float(q)}" in capsys.readouterr().err
        assert not out.exists()

    # a numeric flag value the command cannot use is an input error, raised
    # before the first output file is written
    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_audit_threshold_not_finite_exit_two(self, pipeline, tmp_path, capsys, threshold):
        out = tmp_path / "out"
        code = run_cli("audit", *required_flags(pipeline, "audit", out), "--threshold", threshold)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --threshold must be finite and positive, got {float(threshold)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--l2", "nan"], "l2_strength must be finite and >= 0, got nan"),
            (["--l2", "inf"], "l2_strength must be finite and >= 0, got inf"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["l2-nan", "l2-inf", "seed"],
    )
    def test_classify_unusable_number_exit_two(self, pipeline, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = run_cli("classify", *required_flags(pipeline, "classify", out), *flags)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--knot-lo", "20", "--knot-hi", "inf"], "knot range must be finite, got (20.0, inf)"),
            (["--seed", "-1", "--default-train-frac", "0.8"], "seed must be >= 0, got -1"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["knot-inf", "split-seed", "seed"],
    )
    def test_fit_unusable_number_exit_two(self, pipeline, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = run_cli("fit", *required_flags(pipeline, "fit", out), *flags)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_synth_negative_seed_exit_two(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("synth", *required_flags(pipeline, "synth", out), "--seed", "-1")
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_per_group": ["A"]}, "spec key 'n_per_group' is malformed (AttributeError"),
            ({"n_regions": "x"}, "spec key 'n_regions' is malformed (ValueError"),
            ({"noise_skew": {"epsilon": "a", "log_delta": 0.0}},
             "spec key 'noise_skew' is malformed (ValueError"),
            ({"age_range": [20, 40, 60]}, "spec key 'age_range' is malformed (ValueError"),
            ({"age_range": [20, math.inf]}, "invalid age range (20.0, inf)"),
            ({"sex_offsets": [0.1, 0.2]}, "sex_offsets must be a number or 4 numbers"),
            ({"n_region": 3, "noise_SD": 0.5},
             "spec has unknown key(s) ['n_region', 'noise_SD']"),
            ({"noise_sd": math.nan}, "noise_sd must be positive and finite, got nan"),
            ({"region_names": ["region_000"]},
             "spec key 'region_names' does not match n_regions"),
            # a count or seed is a JSON integer: none of these is truncated
            ({"n_per_group": {"A": 5.9, "B": 4}},
             "spec key 'n_per_group' is malformed (ValueError: expected an integer, got 5.9)"),
            ({"n_per_group": {"A": True, "B": 4}},
             "spec key 'n_per_group' is malformed (ValueError: expected an integer, got True)"),
            ({"n_per_group": {"A": "5", "B": 4}},
             "spec key 'n_per_group' is malformed (ValueError: expected an integer, got '5')"),
            ({"n_regions": 2.7},
             "spec key 'n_regions' is malformed (ValueError: expected an integer, got 2.7)"),
            ({"n_regions": True},
             "spec key 'n_regions' is malformed (ValueError: expected an integer, got True)"),
            ({"seed": 1.5}, "spec key 'seed' is malformed (ValueError: expected an integer, got 1.5)"),
            ({"seed": False},
             "spec key 'seed' is malformed (ValueError: expected an integer, got False)"),
            ({"seed": "1"}, "spec key 'seed' is malformed (ValueError: expected an integer, got '1')"),
        ],
        ids=["groups-list", "regions-text", "skew-text", "age-triple", "age-infinite",
             "sex-offsets-short", "unknown-keys", "noise-nan", "region-names",
             "count-fraction", "count-bool", "count-text", "regions-fraction", "regions-bool",
             "seed-fraction", "seed-bool", "seed-text"],
    )
    def test_synth_malformed_spec_exit_two(self, tmp_path, capsys, overrides, message):
        spec = write_spec(tmp_path / "spec.json", **overrides)
        out = tmp_path / "out"
        assert run_cli("synth", "--spec", spec, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_train_fraction_exit_two(self, pipeline, tmp_path, capsys):
        out = tmp_path / "fit"
        code = run_cli(
            "fit",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", pipeline["data"] / "features.csv",
            "--out", out,
            "--train-frac", "A=0.1,A=0.9",
            "--default-train-frac", "0.8",
        )
        assert code == 2
        assert "train fraction for 'A' given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_contrast_exit_two(self, pipeline, tmp_path, capsys):
        def audit(out, *contrasts):
            return run_cli(
                "audit",
                "--deviations", pipeline["eval"] / "deviations.csv",
                "--errors", pipeline["eval"] / "errors.csv",
                "--covariates", pipeline["data"] / "covariates.csv",
                "--out", out,
                "--contrasts", *contrasts,
            )

        assert audit(tmp_path / "repeated", "W:A", "W:B", "W:A") == 2
        assert "contrast 'W:A' given twice" in capsys.readouterr().err
        assert not (tmp_path / "repeated").exists()
        # the two directions of one pair are two contrasts
        assert audit(tmp_path / "both", "W:A", "A:W") == 0

    @pytest.mark.parametrize("command", ["audit", "classify"])
    def test_missing_covariates_file_exit_two(self, pipeline, tmp_path, capsys, command):
        missing = tmp_path / "nope.csv"
        out = tmp_path / "out"
        argv = required_flags(pipeline, command, out)
        argv[argv.index("--covariates") + 1] = missing
        assert run_cli(command, *argv) == 2
        assert f"error: file not found: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, name",
        [
            ("fit", "--covariates", "covariates.csv"),
            ("classify", "--covariates", "covariates.csv"),
            ("classify", "--deviations", "deviations.csv"),
            ("classify", "--config", "config.json"),
        ],
    )
    def test_input_not_utf8_exit_two(self, pipeline, tmp_path, capsys, command, flag, name):
        # byte 0xe9 (Latin-1 e-acute) on the second line of a valid file
        out = tmp_path / "out"
        argv = required_flags(pipeline, command, out)
        if flag == "--config":
            text = '{\n  "seed": 0\n}\n'
        else:
            text = Path(argv[argv.index(flag) + 1]).read_text(encoding="utf-8")
            argv[argv.index(flag):argv.index(flag) + 2] = []
        lines = text.splitlines(keepends=True)
        bad = tmp_path / name
        bad.write_bytes(lines[0].encode() + b"\xe9" + "".join(lines[1:]).encode())
        assert run_cli(command, *argv, flag, bad) == 2
        err = capsys.readouterr().err
        assert f"error: {bad} line 2: byte 0xe9 is not UTF-8 text" in err
        assert "Traceback" not in err
        assert not out.exists()

    # --deviations goes through read_matrix_csv's byte read, --covariates
    # through read_text
    @pytest.mark.parametrize("flag", ["--deviations", "--covariates"])
    def test_directory_input_exit_two(self, pipeline, tmp_path, capsys, flag):
        out = tmp_path / "out"
        argv = required_flags(pipeline, "classify", out)
        directory = tmp_path / "a-directory.csv"
        directory.mkdir()
        argv[argv.index(flag) + 1] = directory
        assert run_cli("classify", *argv) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {directory}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_id_in_ids_file_exit_two(self, pipeline, tmp_path, capsys):
        held_out = (pipeline["fit"] / "test_ids.txt").read_text(encoding="utf-8").split()
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"{sid}\n" for sid in [*held_out[:3], held_out[1]]), encoding="utf-8")
        out = tmp_path / "out"
        argv = required_flags(pipeline, "evaluate", out)
        assert run_cli("evaluate", *argv, "--ids", ids) == 2
        assert f"error: {ids}: duplicate id '{held_out[1]}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "classify"])
    def test_repeated_matrix_id_exit_two(self, pipeline, tmp_path, capsys, command):
        matrices = {}
        for name in ("deviations", "errors"):
            text = (pipeline["eval"] / f"{name}.csv").read_text(encoding="utf-8")
            last = text.splitlines()[-1]
            matrices[name] = tmp_path / f"{name}.csv"
            matrices[name].write_text(text + last + "\n", encoding="utf-8")
        repeated = last.split(",")[0]
        out = tmp_path / "out"
        common = (
            "--deviations", matrices["deviations"],
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", out,
        )
        if command == "audit":
            code = run_cli(
                "audit", *common, "--errors", matrices["errors"], "--contrasts", "W:A"
            )
        else:
            code = run_cli("classify", *common, "--folds", "3")
        assert code == 2
        assert f"duplicate id '{repeated}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    @pytest.mark.parametrize(
        "command, name",
        [("audit", "deviations"), ("audit", "errors"), ("classify", "deviations")],
    )
    def test_non_finite_matrix_cell_exit_two(
        self, pipeline, tmp_path, capsys, command, name, cell
    ):
        # rejected as a non-finite feature value is, before anything is written
        matrices = {}
        for key in ("deviations", "errors"):
            matrices[key] = tmp_path / f"{key}.csv"
            shutil.copyfile(pipeline["eval"] / f"{key}.csv", matrices[key])
        header, first, *rest = matrices[name].read_text(encoding="utf-8").splitlines()
        sid, _, cells = first.partition(",")
        spoiled = f"{sid},{cell},{cells.partition(',')[2]}"
        matrices[name].write_text("\n".join([header, spoiled, *rest]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        common = (
            "--deviations", matrices["deviations"],
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", out,
        )
        if command == "audit":
            code = run_cli(
                "audit", *common, "--errors", matrices["errors"], "--contrasts", "W:A"
            )
        else:
            code = run_cli("classify", *common, "--folds", "3")
        assert code == 2
        assert f"error: {matrices[name]}: non-finite values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "classify"])
    def test_matrix_without_regions_exit_two(self, pipeline, tmp_path, capsys, command):
        matrices = {}
        for name in ("deviations", "errors"):
            lines = (pipeline["eval"] / f"{name}.csv").read_text(encoding="utf-8").splitlines()
            matrices[name] = tmp_path / f"{name}.csv"
            matrices[name].write_text(
                "".join(line.split(",")[0] + "\n" for line in lines), encoding="utf-8"
            )
        out = tmp_path / "out"
        common = (
            "--deviations", matrices["deviations"],
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", out,
        )
        if command == "audit":
            code = run_cli(
                "audit", *common, "--errors", matrices["errors"], "--contrasts", "W:A"
            )
        else:
            code = run_cli("classify", *common, "--folds", "3")
        assert code == 2
        assert f"{matrices['deviations']}: no region columns" in capsys.readouterr().err
        assert not out.exists()


def _outputs(root):
    """Every file under root but run_config.json, by path relative to root."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run_config.json"
    }


class TestSidecars:
    def test_outputs_do_not_depend_on_sidecars(self, pipeline, tmp_path):
        """Each matrix a command reads is taken from its sidecar in the
        pipeline and parsed here: every output, the sidecars that evaluate
        writes again included, is the same byte for byte."""
        for key, name in (("data", "features.csv"), ("eval", "deviations.csv"),
                          ("eval", "errors.csv")):
            assert (pipeline[key] / f"{name}.cache").is_file(), name
        bare = {}
        for key in ("data", "eval"):
            bare[key] = tmp_path / "inputs" / key
            shutil.copytree(pipeline[key], bare[key])
            for sidecar in bare[key].glob("*.cache"):
                sidecar.unlink()
        data, ev = bare["data"], bare["eval"]
        out = {key: tmp_path / key for key in ("fit", "eval", "audit", "clf")}
        assert run_cli(
            "fit", "--covariates", data / "covariates.csv", "--features", data / "features.csv",
            "--out", out["fit"], "--default-train-frac", "0.8", "--seed", "3",
        ) == 0
        assert run_cli(
            "evaluate", "--bundle", pipeline["fit"], "--covariates", data / "covariates.csv",
            "--features", data / "features.csv", "--ids", pipeline["fit"] / "test_ids.txt",
            "--out", out["eval"],
        ) == 0
        assert run_cli(
            "audit", "--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
            "--covariates", data / "covariates.csv", "--out", out["audit"],
            "--contrasts", "W:A", "W:B", "--bundle", pipeline["fit"],
            "--features", data / "features.csv",
        ) == 0
        assert run_cli(
            "classify", "--deviations", ev / "deviations.csv",
            "--covariates", data / "covariates.csv", "--out", out["clf"], "--folds", "4",
        ) == 0
        assert not list((tmp_path / "inputs").rglob("*.cache"))
        for key, directory in out.items():
            assert _outputs(directory) == _outputs(pipeline[key]), key
        assert (out["eval"] / "deviations.csv.cache").is_file()


class TestUnusedFeatureRows:
    """fit parses the training rows of the features file, evaluate the --ids
    rows and audit the scored ids' rows; a cell of any other row is never
    parsed, but every row's id and cell count is still read."""

    @staticmethod
    def spoil(pipeline, tmp_path, text):
        """The pipeline's features.csv with the first held-out row's line made
        `text`, which may use {sid} and {cells}; returns the file, the id, its
        record number and the first region's name."""
        sid = (pipeline["fit"] / "test_ids.txt").read_text(encoding="utf-8").split()[0]
        lines = (pipeline["data"] / "features.csv").read_text(encoding="utf-8").split("\n")
        k = next(i for i, line in enumerate(lines) if line.split(",")[0] == sid)
        lines[k] = text.format(sid=sid, cells=lines[k].split(",", 2)[2])
        features = tmp_path / "features.csv"
        features.write_text("\n".join(lines), encoding="utf-8")
        return features, sid, k + 1, lines[0].split(",")[1]

    def fit(self, pipeline, features, out):
        return run_cli(
            "fit",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--features", features,
            "--out", out,
            "--default-train-frac", "0.8",
            "--seed", "3",
        )

    @pytest.mark.parametrize("cell", ["abc", "nan", "-inf", ""])
    def test_bad_cell_in_a_held_out_row(self, pipeline, tmp_path, capsys, cell):
        features, sid, record, region = self.spoil(pipeline, tmp_path, "{sid},%s,{cells}" % cell)
        out = tmp_path / "fit"
        assert self.fit(pipeline, features, out) == 0
        for path in sorted(pipeline["fit"].iterdir()):
            if path.name != "run_config.json":
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        # evaluating the row parses it, and fails as any read of it fails
        ids = tmp_path / "ids.txt"
        ids.write_text(f"{sid}\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(
            "evaluate", *required_flags(pipeline, "evaluate", tmp_path / "eval"),
            "--features", features, "--ids", ids,
        )
        assert code == 2
        err = capsys.readouterr().err
        if cell in ("nan", "-inf"):
            assert f"error: {features}: non-finite feature values" in err
        else:
            assert (
                f"error: {features} row {record}, column '{region}': "
                f"cannot parse '{cell}' as a number"
            ) in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("short", [True, False], ids=["short", "long"])
    def test_ragged_held_out_row_fails_fit(self, pipeline, tmp_path, capsys, short):
        text = "{sid},1.5" if short else "{sid},1,{cells},2"
        features, _, record, _ = self.spoil(pipeline, tmp_path, text)
        n_cells = len(features.read_text(encoding="utf-8").split("\n")[0].split(","))
        got = 2 if short else n_cells + 1
        assert self.fit(pipeline, features, tmp_path / "fit") == 3
        assert f"error: {features} row {record}: expected {n_cells} cells, got {got}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "fit").exists()


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

    def test_covariates_read_once(self, pipeline, tmp_path, monkeypatch):
        # the scored ids' races and the covariates digest that the group
        # fit's check compares share one read of the covariates file
        calls = []
        read_covariates = normgauge.cohort.read_covariates

        def counting(*args, **kwargs):
            calls.append(args)
            return read_covariates(*args, **kwargs)

        # the command imports read_covariates from cohort when it runs
        monkeypatch.setattr(normgauge.cohort, "read_covariates", counting)
        out = tmp_path / "audit"
        assert self.audit(pipeline, out, "--bundle", pipeline["fit"],
                          "--features", pipeline["data"] / "features.csv") == 0
        assert len(calls) == 1
        for name in ("audit_summary.csv", "audit_tests.csv", "table4.csv", "parity.json"):
            assert (out / name).read_bytes() == (pipeline["audit"] / name).read_bytes()

    def test_untestable_contrast_logged_once(self, pipeline, tmp_path, caplog):
        # one A row among the scored ids: W vs A is untestable for both metrics
        with open(pipeline["data"] / "covariates.csv", newline="", encoding="utf-8") as fh:
            race = {row["id"]: row["race"] for row in csv.DictReader(fh)}
        matrices = {}
        for name in ("deviations", "errors"):
            lines = (pipeline["eval"] / f"{name}.csv").read_text(encoding="utf-8").splitlines()
            a_rows = [line for line in lines[1:] if race[line.split(",")[0]] == "A"]
            kept = [line for line in lines if line not in a_rows[1:]]
            matrices[name] = tmp_path / f"{name}.csv"
            matrices[name].write_text("\n".join(kept) + "\n", encoding="utf-8")
        n_w = sum(race[line.split(",")[0]] == "W" for line in kept[1:])
        with caplog.at_level(logging.WARNING, logger="normgauge"):
            code = run_cli(
                "audit",
                "--deviations", matrices["deviations"], "--errors", matrices["errors"],
                "--covariates", pipeline["data"] / "covariates.csv",
                "--out", tmp_path / "audit", "--contrasts", "W:A", "W:B",
            )
        assert code == 0
        untestable = [r.getMessage() for r in caplog.records if "untestable" in r.getMessage()]
        assert untestable == [f"contrast W vs A untestable: group sizes {n_w} and 1"]
        with open(tmp_path / "audit" / "table4.csv", newline="", encoding="utf-8") as fh:
            pct = {(r["contrast"], r["metric"]): r["pct_significant"] for r in csv.DictReader(fh)}
        assert pct[("W:A", "deviation")] == pct[("W:A", "error")] == ""
        assert pct[("W:B", "deviation")] != ""

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

    def test_row_order_of_the_matrices_does_not_matter(self, pipeline, tmp_path):
        # audit and classify read the matrices' rows in sorted-id order, the
        # order evaluate writes; the rows, shuffled alike in both files here,
        # are matched to it by id, so every reduction, Welch test and fold
        # sees the same rows in the same order and each output is the same
        # bytes. The shuffled files are not the deviations.csv that a group
        # fit records, so the audit runs without --bundle.
        for name in ("deviations.csv", "errors.csv"):
            header, *rows = (pipeline["eval"] / name).read_text(encoding="utf-8").splitlines()
            # one seed and one length: the same shuffle of both files
            order = np.random.default_rng(0).permutation(len(rows))
            text = "\n".join([header, *(rows[k] for k in order)]) + "\n"
            (tmp_path / name).write_text(text, encoding="utf-8")
        code = run_cli(
            "audit",
            "--deviations", tmp_path / "deviations.csv",
            "--errors", tmp_path / "errors.csv",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", tmp_path / "audit",
            "--contrasts", "W:A", "W:B",
        )
        assert code == 0
        code = run_cli(
            "classify",
            "--deviations", tmp_path / "deviations.csv",
            "--covariates", pipeline["data"] / "covariates.csv",
            "--out", tmp_path / "clf",
            "--folds", "4",
        )
        assert code == 0
        assert TestAuditBytes.digests(tmp_path / "audit") == TestAuditBytes.BARE
        assert _outputs(tmp_path / "clf") == _outputs(pipeline["clf"])

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

    @pytest.mark.parametrize("missing", ["--bundle", "--features"])
    def test_failed_model_load_writes_nothing(self, pipeline, tmp_path, capsys, missing):
        source = {
            "--bundle": pipeline["fit"],
            "--features": pipeline["data"] / "features.csv",
            missing: tmp_path / "nope",
        }
        out = tmp_path / "out"
        out.mkdir()
        assert self.audit(pipeline, out, *[str(a) for kv in source.items() for a in kv]) == 2
        assert str(tmp_path / "nope") in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestGroupFitReuse:
    """audit --bundle --features takes EV and MSLL from the group_fit.json
    that evaluate wrote beside --deviations, and from nowhere else: blr is
    never imported. A file that does not record exactly the files given, or
    is not one evaluate wrote, exits 3; a missing one exits 2. Either way
    audit writes nothing."""

    @staticmethod
    def copy_inputs(pipeline, root):
        """The pipeline's data, bundle and evaluate outputs, copied under root."""
        for key in ("data", "fit", "eval"):
            shutil.copytree(pipeline[key], root / key)
        return {key: root / key for key in ("data", "fit", "eval")}

    @staticmethod
    def audit(inputs, out, monkeypatch):
        """Run audit --bundle --features on inputs into out, made empty
        first, with any import of normgauge.blr failing; its exit code."""
        out.mkdir(parents=True)
        ev, data = inputs["eval"], inputs["data"]
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "normgauge.blr", None)
            return run_cli(
                "audit", "--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
                "--covariates", data / "covariates.csv", "--out", out,
                "--contrasts", "W:A", "W:B", "--bundle", inputs["fit"],
                "--features", data / "features.csv",
            )

    @staticmethod
    def edit_line(path, k, edit):
        """Rewrite line k of a text file by edit(cells) on its comma-split cells."""
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[k] = ",".join(edit(lines[k].split(",")))
        path.write_text("\n".join(lines), encoding="utf-8")

    def test_reuse_only_where_every_input_matches(self, pipeline, tmp_path, monkeypatch, capsys):
        inputs = self.copy_inputs(pipeline, tmp_path / "in")
        group_fit = inputs["eval"] / "group_fit.json"
        recorded = group_fit.read_bytes()
        scored_id = (inputs["fit"] / "test_ids.txt").read_text(encoding="utf-8").split()[0]
        features_line = next(
            k for k, line in enumerate(
                (inputs["data"] / "features.csv").read_text(encoding="utf-8").split("\n"))
            if line.split(",")[0] == scored_id
        )
        covariates_line = next(
            k for k, line in enumerate(
                (inputs["data"] / "covariates.csv").read_text(encoding="utf-8").split("\n"))
            if line.split(",")[0] == scored_id
        )

        def other_bundle():
            assert run_cli(
                "fit", "--covariates", inputs["data"] / "covariates.csv",
                "--features", inputs["data"] / "features.csv", "--out", inputs["fit"],
                "--default-train-frac", "0.8", "--seed", "3", "--knots", "4",
            ) == 0

        def feature_cell():
            (inputs["data"] / "features.csv.cache").unlink()
            self.edit_line(inputs["data"] / "features.csv", features_line,
                           lambda cells: [cells[0], repr(float(cells[1]) + 0.5), *cells[2:]])

        def covariates():
            # an older age for one scored subject: the same groups, another design
            self.edit_line(inputs["data"] / "covariates.csv", covariates_line,
                           lambda cells: [cells[0], repr(float(cells[1]) + 7.0), *cells[2:]])

        def row_order():
            for name in ("deviations.csv", "errors.csv"):
                path = inputs["eval"] / name
                lines = path.read_text(encoding="utf-8").splitlines()
                path.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n",
                                encoding="utf-8")

        def version():
            doc = json.loads(recorded)
            doc["version"] = "0.0.0"
            group_fit.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

        def truncated():
            group_fit.write_bytes(recorded[: len(recorded) // 2])

        # each stale file, and the check that its message names
        stale = {
            "bundle": (other_bundle, "recorded model SHA-256 does not match"),
            "feature-cell": (feature_cell, "recorded features SHA-256 does not match"),
            "covariates": (covariates, "recorded covariates SHA-256 does not match"),
            "row-order": (row_order, "recorded deviations SHA-256 does not match"),
            "version": (version, "written by version 0.0.0"),
            "truncated": (truncated, "not valid JSON"),
        }
        assert self.audit(inputs, tmp_path / "fresh", monkeypatch) == 0
        assert TestAuditBytes.digests(tmp_path / "fresh") == TestAuditBytes.WITH_MODEL
        for name, (make_stale, check) in stale.items():
            shutil.rmtree(tmp_path / "in")
            inputs = self.copy_inputs(pipeline, tmp_path / "in")
            make_stale()
            capsys.readouterr()
            assert self.audit(inputs, tmp_path / name, monkeypatch) == 3, name
            err = capsys.readouterr().err
            assert err.startswith(f"error: {group_fit}: {check}"), (name, err)
            assert err.endswith("; run evaluate again on these inputs\n"), (name, err)
            assert list((tmp_path / name).iterdir()) == [], name
        shutil.rmtree(tmp_path / "in")
        inputs = self.copy_inputs(pipeline, tmp_path / "in")
        group_fit.unlink()
        assert self.audit(inputs, tmp_path / "deleted", monkeypatch) == 2
        assert capsys.readouterr().err == f"error: file not found: {group_fit}\n"
        assert list((tmp_path / "deleted").iterdir()) == []

    def test_audit_takes_the_recorded_values(self, pipeline, tmp_path, monkeypatch):
        inputs = self.copy_inputs(pipeline, tmp_path / "in")
        group_fit = inputs["eval"] / "group_fit.json"
        doc = json.loads(group_fit.read_bytes())
        ev = doc["groups"]["A"]["explained_variance"]
        doc["groups"]["A"]["explained_variance"] = math.nextafter(ev, math.inf)
        group_fit.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert self.audit(inputs, tmp_path / "out", monkeypatch) == 0
        got = (tmp_path / "out" / "parity.json").read_bytes()
        parity = json.loads(got)
        assert parity["per_group"]["A"]["explained_variance"] == math.nextafter(ev, math.inf)
        assert got != (pipeline["audit"] / "parity.json").read_bytes()

    def test_group_fit_bytes_do_not_depend_on_paths(self, pipeline, tmp_path):
        texts = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            inputs = self.copy_inputs(pipeline, root)
            assert run_cli(
                "evaluate", "--bundle", inputs["fit"],
                "--covariates", inputs["data"] / "covariates.csv",
                "--features", inputs["data"] / "features.csv",
                "--ids", inputs["fit"] / "test_ids.txt", "--out", root / "out",
            ) == 0
            texts.append((root / "out" / "group_fit.json").read_text(encoding="utf-8"))
        assert texts[0] == texts[1] == (pipeline["eval"] / "group_fit.json").read_text(
            encoding="utf-8")
        doc = json.loads(texts[0])
        assert texts[0] == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert str(tmp_path) not in texts[0]
        assert doc["version"] == normgauge.__version__
        files = {
            "covariates": pipeline["data"] / "covariates.csv",
            "features": pipeline["data"] / "features.csv",
            "model": pipeline["fit"] / "model.json",
            "regions": pipeline["fit"] / "regions.json",
            "deviations": pipeline["eval"] / "deviations.csv",
        }
        assert doc["sha256"] == {
            role: hashlib.sha256(path.read_bytes()).hexdigest() for role, path in files.items()
        }
        assert set(doc["groups"]) == {"A", "B", "W"}


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
        # fit counts the training ages its design clamped
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


# run in a fresh interpreter: the exit code, then every scipy module loaded at
# exit, private ones included, one line of JSON
_SCIPY_PROBE = """
import json, sys
from normgauge.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(n for n in sys.modules if n.split(".")[0] == "scipy")]))
"""


# imports the package and has the fitting engine evaluate the evidence and its
# derivatives at a non-identity warp, then prints every scipy module loaded,
# one line of JSON
_EVIDENCE_PROBE = """
import json, sys
import numpy as np
from normgauge.blr import _Spectrum, _WarpedEvidence
phi, y = np.column_stack([np.ones(5), np.arange(5.0)]), np.array([0.5, 1.0, 2.5, 3.0, 4.5])
theta = np.array([[0.0, 0.0, 0.3, -0.2]])
nll, grad, hess = _WarpedEvidence(_Spectrum.of(phi), y[None, :]).derivatives(theta)
assert all(np.isfinite(v).all() for v in (nll, grad, hess))
print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] == "scipy")))
"""


# runs one command, if given, and prints its exit code and the numpy package
# and normgauge submodules loaded, one line of JSON
_LOADED_PROBE = """
import json, sys
import normgauge
code = 0
if sys.argv[1:]:
    from normgauge.cli import main
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(
    n for n in sys.modules
    if n == "numpy" or (n.startswith("normgauge.") and n != "normgauge._version")
)]))
"""


def _python(*args):
    """Run the interpreter with the package's source on the path."""
    src = str(Path(normgauge.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True
    )


def _probe(source, *argv):
    """Run source in a fresh interpreter; its last line of output, parsed as JSON."""
    out = _python("-c", source, *argv)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


class TestImportCost:
    """No command loads any scipy module, private ones included: numpy is the
    only run-time dependency, and importing scipy would be most of a
    command's start-up."""

    def test_package_import_loads_no_scipy(self):
        assert _probe(_SCIPY_PROBE) == [0, []]

    def test_evidence_functions_load_no_scipy(self):
        assert _probe(_EVIDENCE_PROBE) == []

    @staticmethod
    def argv(pipeline, tmp_path, command):
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
        return argv

    # the fixture's noise is Gaussian, so every region's free-warp run is
    # screened out and fit only scores
    @pytest.mark.parametrize(
        "command", ["audit", "classify", "evaluate", "fit", "report", "synth"]
    )
    def test_command_loads_only_what_it_calls(self, pipeline, tmp_path, command):
        argv = self.argv(pipeline, tmp_path, command)
        assert _probe(_SCIPY_PROBE, command, *argv) == [0, []]

    def test_package_import_loads_no_submodule(self):
        code, loaded = _probe(_LOADED_PROBE)
        assert code == 0 and loaded == []

    # each command imports its modules when it runs; these are the ones that
    # most of a command's start-up would otherwise go to
    @pytest.mark.parametrize(
        "command, unused",
        [
            ("report", ["numpy", "normgauge.cohort", "normgauge.serialize"]),
            ("classify", ["normgauge.audit", "normgauge.blr", "normgauge.design",
                          "normgauge.synth", "normgauge.warp"]),
            ("synth", ["normgauge.audit", "normgauge.blr", "normgauge.classify",
                       "normgauge.design"]),
            ("fit", ["normgauge.audit", "normgauge.classify", "normgauge.synth"]),
            ("evaluate", ["normgauge.audit", "normgauge.classify", "normgauge.synth"]),
            # the fixture's evaluate wrote a group_fit.json of these inputs
            ("audit", ["normgauge.blr", "normgauge.classify", "normgauge.design",
                       "normgauge.synth", "normgauge.warp"]),
        ],
    )
    def test_command_loads_no_module_it_does_not_call(self, pipeline, tmp_path, command, unused):
        code, loaded = _probe(_LOADED_PROBE, command, *self.argv(pipeline, tmp_path, command))
        assert code == 0
        assert not set(unused) & set(loaded), sorted(set(unused) & set(loaded))

    def test_fit_with_a_free_warp_run_loads_no_scipy(self, tmp_path):
        spec = write_spec(
            tmp_path / "spec.json",
            noise_sd=0.5,
            noise_skew={"epsilon": 1.0, "log_delta": -0.3},
        )
        assert run_cli("synth", "--spec", spec, "--out", tmp_path / "data") == 0
        assert _probe(
            _SCIPY_PROBE,
            "fit",
            "--covariates", tmp_path / "data" / "covariates.csv",
            "--features", tmp_path / "data" / "features.csv",
            "--out", tmp_path / "fit",
        ) == [0, []]
        # the free-warp fit ran and won somewhere
        warps = [
            r["hyperparams"]["warp"]
            for r in json.loads((tmp_path / "fit" / "regions.json").read_text())["regions"]
        ]
        assert not all(WarpParams.from_dict(w).is_identity() for w in warps)


# registers an exit handler before the CLI does, runs one command and exits
# with its code; atexit runs handlers last in, first out, so this one runs
# after the CLI's and prints the freeze count that the CLI's left
_EXIT_PROBE = """
import atexit, gc, json, sys
atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))
from normgauge.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestExitHook:
    """A command's process moves every live object to the permanent
    generation at exit, so the shutdown collections skip them; an in-process
    main freezes nothing."""

    @pytest.mark.parametrize("code", [0, 2])
    def test_process_exits_frozen(self, pipeline, tmp_path, code):
        run_dir = pipeline["root"] if code == 0 else tmp_path / "missing"
        out = _python(
            "-c", _EXIT_PROBE, "report", "--run-dir", run_dir, "--out", tmp_path / "report.md"
        )
        assert out.returncode == code, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) > 0

    def test_in_process_main_freezes_nothing(self, pipeline, tmp_path):
        before = gc.get_freeze_count()
        argv = TestImportCost.argv(pipeline, tmp_path, "classify")
        assert run_cli("classify", *argv) == 0
        assert run_cli("report", "--run-dir", tmp_path / "missing") == 2
        assert gc.get_freeze_count() == before


class TestClosesWhatItOpens:
    """Every command closes each file it opens, failed commands included, so
    that no output waits on a garbage collection to be flushed: the exit hook
    leaves none to run."""

    def test_no_command_leaves_a_file_to_the_collector(self, tmp_path, monkeypatch):
        caught = []
        monkeypatch.setattr(sys, "unraisablehook", caught.append)

        def check(code, *argv):
            # an unclosed file warns where it is freed: at once, or in the collection
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                assert run_cli(*argv) == code, argv
                gc.collect()

        data, fit, ev = tmp_path / "data", tmp_path / "fit", tmp_path / "eval"
        matrices = ("--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv")
        covariates = ("--covariates", data / "covariates.csv")
        features = ("--features", data / "features.csv")
        check(0, "synth", "--spec", write_spec(tmp_path / "spec.json"), "--out", data)
        check(0, "fit", *covariates, *features, "--default-train-frac", "0.8", "--out", fit)
        check(0, "evaluate", "--bundle", fit, *covariates, *features,
              "--ids", fit / "test_ids.txt", "--out", ev)
        check(0, "audit", *matrices, *covariates, "--contrasts", "W:A", "W:B",
              "--bundle", fit, *features, "--out", tmp_path / "audit")
        check(0, "audit", *matrices, *covariates, "--contrasts", "W:A",
              "--out", tmp_path / "audit-plain")
        check(0, "classify", "--deviations", ev / "deviations.csv", *covariates,
              "--folds", "4", "--out", tmp_path / "clf")
        check(0, "report", "--run-dir", tmp_path)
        # a matrix of ids alone, read and then rejected
        lines = (ev / "deviations.csv").read_text(encoding="utf-8").splitlines()
        ids = tmp_path / "ids.csv"
        ids.write_text("".join(line.split(",")[0] + "\n" for line in lines), encoding="utf-8")
        check(2, "audit", "--deviations", ids, "--errors", ids, *covariates,
              "--contrasts", "W:A", "--out", tmp_path / "audit-ids")
        # a features file whose first region the bundle does not know
        renamed = tmp_path / "renamed.csv"
        text = (data / "features.csv").read_text(encoding="utf-8")
        renamed.write_text(text.replace("region_000", "region_zzz", 1), encoding="utf-8")
        check(3, "evaluate", "--bundle", fit, *covariates, "--features", renamed,
              "--out", tmp_path / "eval-renamed")
        assert caught == []


class TestReportResilience:
    def test_missing_audit_noted_but_exit_zero(self, pipeline, tmp_path):
        run_dir = tmp_path / "partial"
        run_dir.mkdir()
        for key, name in (("eval", "metrics.csv"), ("fit", "demographics.json")):
            run_dir.joinpath(key).mkdir()
            run_dir.joinpath(key, name).write_bytes((pipeline[key] / name).read_bytes())
        out = tmp_path / "report.md"
        assert run_cli("report", "--run-dir", run_dir, "--out", out) == 0
        text = out.read_text()
        assert "table4.csv not found; section skipped" in text
        assert "clf_metrics.csv not found; section skipped" in text
        assert "## 2. Model fit" in text

    def test_missing_run_dir_exit_two(self, tmp_path, capsys):
        assert run_cli("report", "--run-dir", tmp_path / "ghost") == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["eval/metrics.csv", "audit/table4.csv", "audit/parity.json",
                 "clf/clf_metrics.csv"]
    )
    def test_artifact_not_utf8_exit_two(self, pipeline, tmp_path, capsys, name):
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline["root"], run_dir, ignore=shutil.ignore_patterns("*.md"))
        bad = run_dir / name
        lines = bad.read_bytes().split(b"\n")
        bad.write_bytes(b"\n".join([lines[0], b"\xe9" + lines[1], *lines[2:]]))
        out = tmp_path / "report.md"
        assert run_cli("report", "--run-dir", run_dir, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: {bad} line 2: byte 0xe9 is not UTF-8 text" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPublicNames:
    def test_exported_names(self):
        # an export is a deliberate edit of this list
        assert normgauge.__all__ == [
            "AuditTables",
            "BasisConfig",
            "ClassifierConfig",
            "ClassifierReport",
            "Cohort",
            "CohortSchema",
            "DesignMatrix",
            "DesignSchema",
            "DeviationMatrix",
            "Hyperparams",
            "InputError",
            "ModelConfig",
            "NormativeModel",
            "NormgaugeError",
            "NumericalError",
            "OvrLogisticModel",
            "RegionFitMetrics",
            "RegionModel",
            "RegionPrediction",
            "SchemaError",
            "SplitSpec",
            "SynthSpec",
            "WarpParams",
            "WelchResult",
            "apply_design",
            "audit",
            "audit_tables",
            "bh_fdr",
            "blr",
            "classify",
            "cohort",
            "cross_validate",
            "decision_scores",
            "demographics_summary",
            "design",
            "deviations",
            "errors",
            "explained_variance",
            "fit_design",
            "fit_normative",
            "fit_region",
            "generate",
            "group_difference",
            "load_bundle",
            "load_cohort",
            "predict_region",
            "qc_filter",
            "roc_points",
            "save_bundle",
            "save_cohort",
            "serialize",
            "spline_basis",
            "stratified_folds",
            "stratified_split",
            "synth",
            "t_two_sided_p",
            "warp",
            "warp_forward",
            "warp_inverse",
        ]


    def test_every_name_imports_from_its_module(self):
        assert dir(normgauge) == normgauge.__all__
        for name in normgauge.__all__:
            scope = {}
            exec(f"from normgauge import {name}", scope)
            value = getattr(normgauge, name)
            assert scope[name] is value
            if isinstance(value, type(normgauge)):
                assert value.__name__ == f"normgauge.{name}"
            else:
                assert getattr(sys.modules[value.__module__], name) is value
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            normgauge.nope
        # a cohort holds its subjects as columns, not as row objects
        with pytest.raises(AttributeError, match="has no attribute 'Subject'"):
            normgauge.Subject


class TestReportStatistics:
    """The report takes its means, medians and SDs in pure Python, in numpy's
    summation order, so its figures are numpy's to the bit."""

    def test_equal_to_numpy_bitwise(self):
        from normgauge.cli import _mean, _median, _sd

        rng = np.random.default_rng(21)
        for n in range(1, 601):
            # magnitudes across 12 decades, so that the summation order shows
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6, size=n)
            vals = values.tolist()
            assert repr(_mean(vals)) == repr(float(np.mean(values))), n
            assert repr(_median(vals)) == repr(float(np.median(values))), n
            if n > 1:
                assert repr(_sd(vals)) == repr(float(np.std(values, ddof=1))), n


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

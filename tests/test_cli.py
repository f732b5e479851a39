"""End-to-end tests for the normgauge command line."""

import filecmp
import functools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normgauge.cli
from normgauge import OptimizerSettings, fit_normative
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

    def test_default_fit_flags_nothing(self, pipeline):
        regions = json.loads((pipeline["fit"] / "regions.json").read_text())["regions"]
        assert all(r["converged"] for r in regions)


class TestConfigFile:
    def test_flag_overrides_config_file(self, pipeline, tmp_path):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"knots": 6, "seed": 9}), encoding="utf-8")
        out = tmp_path / "fit_cfg"
        assert (
            run_cli(
                "fit",
                "--config", config,
                "--covariates", pipeline["data"] / "covariates.csv",
                "--features", pipeline["data"] / "features.csv",
                "--out", out,
                "--knots", "4",
            )
            == 0
        )
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["knots"] == 4
        assert cfg["seed"] == 9

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


class TestImportCost:
    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats alone adds about 0.45 s to every command's start-up
        src = str(Path(normgauge.cli.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, normgauge.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


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

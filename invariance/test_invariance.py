"""The CLI's outputs do not depend on how or where it runs.

    python -m pytest invariance

Each test runs the commands as `python -m normgauge.cli` in subprocesses and
compares the files they write; one also calls main() in its own process. On
Linux with two or more usable CPUs, fit's regions, the matrix CSVs' row
chunks and classify's binary fits run in forked children, each on one BLAS
thread; under `taskset -c 0` they run in-process at the BLAS library's
thread count, and with OPENBLAS_NUM_THREADS=1 everything runs on one BLAS
thread. The module fails, rather than skips, on a host where the forked paths would not run. It needs
no scipy, and takes about 20 s on two CPUs.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

# the in-process paths: one usable CPU, or one BLAS thread
VARIANTS = {
    "one-cpu": {"prefix": ("taskset", "-c", "0")},
    "one-thread": {"env": {"OPENBLAS_NUM_THREADS": "1"}},
}
SKEW = {"noise_sd": 0.5, "noise_skew": {"epsilon": 1.0, "log_delta": -0.3}}


def run(*argv, prefix=(), env=None, code=0):
    """Run `python -m normgauge.cli ARGV` after the command prefix, with env
    added to this process's environment; assert its exit code."""
    done = subprocess.run(
        [*prefix, sys.executable, "-m", "normgauge.cli", *map(str, argv)],
        env={**os.environ, **(env or {})}, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == code, f"{argv}\n{done.stderr}"
    return done


def same_bytes(a, b, names):
    """Each named file holds the same bytes under directory a as under b."""
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (a / name, b / name)


@pytest.fixture(autouse=True, scope="module")
def forked_host():
    """Fail, not skip, where the forked paths or the one-CPU runs cannot run."""
    assert shutil.which("taskset"), "taskset is needed for the one-CPU runs"
    assert len(os.sched_getaffinity(0)) >= 2, "2 or more usable CPUs are needed to fork"


def pipeline_stages(root):
    """The argv of synth, fit, evaluate, audit, classify and report, run from
    root / "spec.json" and writing under root."""
    data, fit, ev = root / "data", root / "fit", root / "eval"
    yield "synth", "--spec", root / "spec.json", "--out", data
    yield ("fit", "--covariates", data / "covariates.csv", "--features", data / "features.csv",
           "--out", fit, "--default-train-frac", "0.8")
    yield ("evaluate", "--bundle", fit, "--covariates", data / "covariates.csv",
           "--features", data / "features.csv", "--ids", fit / "test_ids.txt", "--out", ev)
    yield ("audit", "--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
           "--covariates", data / "covariates.csv", "--contrasts", "W:A", "W:B",
           "--bundle", fit, "--features", data / "features.csv", "--out", root / "audit")
    yield ("classify", "--deviations", ev / "deviations.csv",
           "--covariates", data / "covariates.csv", "--folds", "4", "--out", root / "clf")
    yield "report", "--run-dir", root


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth, fit, evaluate, audit, classify and report, each exiting 0."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = {"n_per_group": {"A": 30, "B": 30, "W": 140}, "n_regions": 4,
            "noise_sd": 0.25, "seed": 0}
    (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    for argv in pipeline_stages(root):
        run(*argv)
    return root


def test_pipeline(pipeline):
    """An evaluate rerun, and one of a bundle whose JSON floats are 17-digit
    e-notation, as bundles were once written, give the same bytes."""
    assert (pipeline / "report.md").stat().st_size > 0
    data, fit = pipeline / "data", pipeline / "fit"
    shutil.copytree(fit, pipeline / "fit17")
    token = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')

    def as_17_digits(match):
        text = match.group()
        if text.startswith('"') or not any(c in text for c in ".eE"):
            return text
        return format(float(text), ".16e")

    for path in (pipeline / "fit17").glob("*.json"):
        text = path.read_text(encoding="utf-8")
        path.write_text(token.sub(as_17_digits, text), encoding="utf-8")
    for bundle, out, names in (
        (fit, "eval2", ["group_fit.json"]), (pipeline / "fit17", "eval17", []),
    ):
        run("evaluate", "--bundle", bundle, "--covariates", data / "covariates.csv",
            "--features", data / "features.csv", "--ids", fit / "test_ids.txt",
            "--out", pipeline / out)
        same_bytes(pipeline / "eval", pipeline / out,
                   ["deviations.csv", "errors.csv", "metrics.csv", *names])


def test_in_process(pipeline, tmp_path):
    """The pipeline's commands called as main() in this process write the same
    bytes as the command processes, every file but run_config.json."""
    from normgauge.cli import main

    shutil.copy(pipeline / "spec.json", tmp_path / "spec.json")
    for argv in pipeline_stages(tmp_path):
        assert main([str(a) for a in argv]) == 0, argv

    def outputs(root, tops):
        return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))
                if path.is_file() and path.name != "run_config.json"
                and path.relative_to(root).parts[0] in tops}

    # the pipeline's own files; other tests add runs beside them
    tops = {path.name for path in tmp_path.iterdir()}
    assert {"data", "fit", "eval", "audit", "clf", "report.md"} <= tops
    got, want = outputs(tmp_path, tops), outputs(pipeline, tops)
    assert got.keys() == want.keys()
    assert [path for path in got if got[path] != want[path]] == []


def test_imports_and_unused_rows(pipeline, tmp_path):
    """Each command loads only the modules it runs: report no numpy and no
    blr, classify no blr, and audit --bundle --features no blr where
    evaluate's group_fit.json matches its inputs. fit parses only its
    training rows, so a non-numeric cell in a held-out row leaves its bundle
    unchanged, and evaluate, which parses that row, exits 2 naming it."""
    data, fit, ev = pipeline / "data", pipeline / "fit", pipeline / "eval"
    assert (ev / "group_fit.json").stat().st_size > 0
    for unused, argv in (
        ({"numpy", "normgauge.blr"},
         ("report", "--run-dir", pipeline, "--out", tmp_path / "report.md")),
        ({"normgauge.blr"},
         ("classify", "--deviations", ev / "deviations.csv", "--covariates",
          data / "covariates.csv", "--folds", "4", "--out", tmp_path / "clf")),
        ({"normgauge.blr"},
         ("audit", "--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
          "--covariates", data / "covariates.csv", "--contrasts", "W:A", "W:B",
          "--bundle", fit, "--features", data / "features.csv", "--out", tmp_path / "audit")),
    ):
        # the -X importtime report, one line per module loaded
        stderr = run(*argv, env={"PYTHONPROFILEIMPORTTIME": "1"}).stderr
        loaded = {line.rsplit("|", 1)[1].strip()
                  for line in stderr.splitlines() if line.startswith("import time:")}
        assert "normgauge._textio" in loaded, stderr
        assert not loaded & unused, (argv[0], loaded & unused)
    same_bytes(pipeline / "audit", tmp_path / "audit", ["parity.json"])

    sid = (fit / "test_ids.txt").read_text(encoding="utf-8").split()[0]
    lines = (data / "features.csv").read_text(encoding="utf-8").split("\n")
    k = next(i for i, line in enumerate(lines) if line.split(",")[0] == sid)
    lines[k] = ",".join([sid, "abc", *lines[k].split(",")[2:]])
    spoiled = tmp_path / "spoiled.csv"
    spoiled.write_text("\n".join(lines), encoding="utf-8")
    run("fit", "--covariates", data / "covariates.csv", "--features", spoiled,
        "--out", tmp_path / "fit", "--default-train-frac", "0.8")
    same_bytes(fit, tmp_path / "fit", ["model.json", "regions.json"])
    (tmp_path / "ids.txt").write_text(sid + "\n", encoding="utf-8")
    stderr = run("evaluate", "--bundle", fit, "--covariates", data / "covariates.csv",
                 "--features", spoiled, "--ids", tmp_path / "ids.txt",
                 "--out", tmp_path / "eval", code=2).stderr
    assert f"spoiled.csv row {k + 1}, column" in stderr


def test_split_fit(tmp_path):
    """The bundle is the same bytes whether fit splits its regions across
    forked children or not. A region's fit depends only on its own column,
    so the odd regions, fitted together and one at a time, match their
    entries in the full fit, and so do their rows of metrics.csv and their
    columns of deviations.csv and errors.csv when each bundle is evaluated."""
    spec = {"n_per_group": {"A": 30, "B": 30, "W": 140}, "n_regions": 6, **SKEW, "seed": 0}
    (tmp_path / "skewed.json").write_text(json.dumps(spec), encoding="utf-8")
    data = tmp_path / "data"
    run("synth", "--spec", tmp_path / "skewed.json", "--out", data)
    with open(data / "features.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    odd = range(2, len(rows[0]), 2)  # region_001, region_003, ...
    kept = {"odd": list(odd), **{rows[0][j]: [j] for j in odd}}
    features = {"fit": data / "features.csv"}
    for name, columns in kept.items():
        features[f"keep-{name}"] = tmp_path / f"keep-{name}.csv"
        with open(features[f"keep-{name}"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [row[0], *(row[j] for j in columns)] for row in rows)

    def fit(name, path, **how):
        run("fit", "--covariates", data / "covariates.csv", "--features", path,
            "--default-train-frac", "0.8", "--out", tmp_path / name, **how)

    for name, path in features.items():
        fit(name, path)
    full = tmp_path / "fit"
    for name, how in VARIANTS.items():
        fit(name, data / "features.csv", **how)
        same_bytes(full, tmp_path / name, ["model.json", "regions.json"])
    for name, path in features.items():
        run("evaluate", "--bundle", tmp_path / name, "--covariates", data / "covariates.csv",
            "--features", path, "--ids", full / "test_ids.txt", "--out", tmp_path / name / "eval")

    def by_region(bundle):
        regions = json.loads((bundle / "regions.json").read_text(encoding="utf-8"))["regions"]
        with open(bundle / "eval" / "metrics.csv", newline="", encoding="utf-8") as fh:
            metrics = {row[0]: row for row in csv.reader(fh)}
        return {r["region"]: (r, metrics[r["region"]]) for r in regions}

    warps = [entry["hyperparams"]["warp"] for entry, _ in by_region(full).values()]
    assert sum(w["epsilon"] != 0 or w["log_delta"] != 0 for w in warps) >= 2
    assert len(kept) == 4

    def columns(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return {column[0]: (column, [row[0] for row in rows]) for column in zip(*rows)}

    for name in features:
        assert by_region(tmp_path / name).items() <= by_region(full).items(), name
        for matrix in ("deviations.csv", "errors.csv"):
            got = columns(tmp_path / name / "eval" / matrix)
            assert len(got) > 1 and got.items() <= columns(full / "eval" / matrix).items()


def test_row_chunked(tmp_path):
    """synth, evaluate, audit and classify write the same bytes whether their
    matrix rows and binary fits run in forked chunks or not, the sidecars and
    evaluate's group_fit.json included. A reading stage takes a matrix from
    its sidecar, and audit its EV and MSLL from group_fit.json; with these
    deleted before each stage, or with the two sidecars of evaluate swapped,
    so that neither matches its CSV, the outputs are again the same bytes."""
    spec = {"n_per_group": {"A": 40, "B": 40, "W": 170}, "n_regions": 7,
            "noise_sd": 0.25, "seed": 1}
    (tmp_path / "rows.json").write_text(json.dumps(spec), encoding="utf-8")
    run("synth", "--spec", tmp_path / "rows.json", "--out", tmp_path / "fit-data")
    fit = tmp_path / "fit"
    run("fit", "--covariates", tmp_path / "fit-data" / "covariates.csv",
        "--features", tmp_path / "fit-data" / "features.csv",
        "--default-train-frac", "0.8", "--out", fit)
    # defaults, the unpenalized basis path, and a holdout
    classify = {"clf": (), "clf-l2": ("--l2", "0", "--standardize"),
                "clf-holdout": ("--holdout-fraction", "0.3")}

    def stages(root):
        data, ev = root / "data", root / "eval"
        yield "synth", "--spec", tmp_path / "rows.json", "--out", data
        yield ("evaluate", "--bundle", fit, "--covariates", data / "covariates.csv",
               "--features", data / "features.csv", "--ids", fit / "test_ids.txt", "--out", ev)
        yield ("audit", "--deviations", ev / "deviations.csv", "--errors", ev / "errors.csv",
               "--covariates", data / "covariates.csv", "--contrasts", "W:A", "W:B",
               "--bundle", fit, "--features", data / "features.csv", "--out", root / "audit")
        for name, flags in classify.items():
            yield ("classify", "--deviations", ev / "deviations.csv",
                   "--covariates", data / "covariates.csv", *flags, "--out", root / name)

    for name, how in [("default", {}), *VARIANTS.items()]:
        for argv in stages(tmp_path / name):
            run(*argv, **how)
    uncached, stale = tmp_path / "uncached", tmp_path / "stale"
    for argv in stages(uncached):
        for path in [*uncached.glob("*/*.cache"), uncached / "eval" / "group_fit.json"]:
            path.unlink(missing_ok=True)
        run(*argv)
    for argv in stages(stale):
        if argv[0] == "audit":
            z, e = stale / "eval" / "deviations.csv.cache", stale / "eval" / "errors.csv.cache"
            z_sidecar = z.read_bytes()
            z.write_bytes(e.read_bytes())
            e.write_bytes(z_sidecar)
        run(*argv)

    default = tmp_path / "default"
    outputs = ["data/features.csv", "data/covariates.csv", "eval/deviations.csv",
               "eval/errors.csv", "audit/audit_summary.csv", "audit/audit_tests.csv",
               "audit/table4.csv", "audit/parity.json",
               *(f"{clf}/{name}" for clf in classify
                 for name in ("clf_metrics.csv", "roc_points.csv", "confusion.csv"))]
    for name in VARIANTS:
        same_bytes(default, tmp_path / name, [
            *outputs, "data/features.csv.cache", "eval/deviations.csv.cache",
            "eval/errors.csv.cache", "eval/group_fit.json"])
    for other in (uncached, stale):
        same_bytes(default, other, outputs)


def test_affine_copies(tmp_path):
    """Each region is fitted on its column standardized by its training mean
    and SD, so the fit and evaluation of a x1e5 copy and of a +1e3 copy of
    the features give every Z of the unscaled run to within 1e-6, the budget
    of the affine oracle in tests/test_blr.py."""
    spec = {"n_per_group": {"A": 30, "B": 30, "W": 140}, "n_regions": 4, **SKEW, "seed": 2}
    (tmp_path / "affine.json").write_text(json.dumps(spec), encoding="utf-8")
    data = tmp_path / "data"
    run("synth", "--spec", tmp_path / "affine.json", "--out", data)
    with open(data / "features.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    features = {"features": data / "features.csv"}
    for name, move in (("scaled", lambda v: v * 1e5), ("shifted", lambda v: v + 1e3)):
        features[name] = tmp_path / f"{name}.csv"
        with open(features[name], "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header)
            out.writerows([row[0], *(repr(move(float(v))) for v in row[1:])] for row in rows)
    for name, path in features.items():
        run("fit", "--covariates", data / "covariates.csv", "--features", path,
            "--default-train-frac", "0.8", "--out", tmp_path / f"fit-{name}")
        run("evaluate", "--bundle", tmp_path / f"fit-{name}",
            "--covariates", data / "covariates.csv", "--features", path,
            "--ids", tmp_path / "fit-features" / "test_ids.txt", "--out", tmp_path / f"eval-{name}")

    def deviations(name):
        with open(tmp_path / f"eval-{name}" / "deviations.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        return header, [row[0] for row in rows], [[float(v) for v in row[1:]] for row in rows]

    regions = json.loads((tmp_path / "fit-features" / "regions.json").read_text())["regions"]
    assert sum(r["hyperparams"]["warp"] != {"epsilon": 0.0, "log_delta": 0.0}
               for r in regions) >= 1
    header, ids, unit = deviations("features")
    for name in ("scaled", "shifted"):
        got_header, got_ids, got = deviations(name)
        assert (got_header, got_ids) == (header, ids), name
        worst = max(abs(a - b) for row, ref in zip(got, unit) for a, b in zip(row, ref))
        assert worst <= 1e-6, (name, worst)

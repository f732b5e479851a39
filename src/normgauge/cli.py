"""Command-line entry points.

Subcommands: synth, fit, evaluate, audit, classify, report. Every command
accepts --config pointing at a JSON object of option values; explicit flags
override the file. The fully resolved configuration is echoed to
run_config.json in the output directory, and outputs contain no timestamps,
so reruns with the same inputs are byte-identical. Exit codes: 0 success,
2 input/configuration problems, 3 schema mismatches, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .audit import (
    bh_fdr,
    group_difference,
    group_parity,
    group_summary,
    significant_fraction,
)
from .blr import (
    deviations,
    fit_normative,
    load_bundle,
    region_metrics,
    save_bundle,
)
from .cohort import (
    CohortSchema,
    SplitSpec,
    demographics_summary,
    load_cohort,
    qc_filter,
    read_covariates,
    save_cohort,
    stratified_split,
)
from .classify import (
    ClassifierConfig,
    cross_validate,
    evaluate_holdout,
    render_roc_svg,
    write_clf_metrics,
    write_confusion,
    write_roc_points,
)
from .design import BasisConfig, ModelConfig, fit_design
from .errors import InputError, NormgaugeError, SchemaError
from .serialize import dump_json, load_json, read_matrix_csv, write_csv, write_matrix_csv
from .synth import SynthSpec, generate

log = logging.getLogger(__name__)


def _resolve(args: argparse.Namespace, defaults: dict, required: tuple[str, ...]) -> dict:
    """Defaults, overlaid by the --config file, overlaid by explicit flags."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = load_json(config_path)
        if not isinstance(file_cfg, dict):
            raise InputError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise InputError(f"{config_path}: unknown config key(s) {unknown}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    missing = [k for k in required if cfg.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise InputError(f"missing required option(s): {flags}")
    return cfg


def _write_run_config(out_dir: Path, command: str, cfg: dict) -> None:
    doc = {"command": command, "version": __version__}
    for key in sorted(cfg):
        val = cfg[key]
        doc[key] = str(val) if isinstance(val, Path) else val
    dump_json(doc, out_dir / "run_config.json")


def _schema_from(cfg: dict) -> CohortSchema:
    labels = tuple(
        sorted(s.strip() for s in str(cfg["race_labels"]).split(",") if s.strip())
    )
    if not labels:
        raise InputError("race_labels must name at least one label")
    return CohortSchema(race_labels=labels)


def _parse_fractions(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(
                f"bad train fraction entry '{part}' (expected LABEL=FRACTION)"
            )
        label, _, frac = part.partition("=")
        try:
            out[label.strip()] = float(frac)
        except ValueError:
            raise InputError(f"bad train fraction value '{frac}'") from None
    return out


def _metrics_rows(metrics) -> list[list]:
    return [
        [m.region, m.explained_variance, m.msll, m.skew, m.kurtosis] for m in metrics
    ]


_METRICS_HEADER = ["region", "explained_variance", "msll", "skew", "kurtosis"]


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args, {"spec": None, "out": None, "seed": None}, required=("spec", "out")
    )
    spec_doc = load_json(cfg["spec"])
    if not isinstance(spec_doc, dict):
        raise InputError(f"{cfg['spec']}: spec must be a JSON object")
    if cfg["seed"] is not None:
        spec_doc["seed"] = int(cfg["seed"])
    spec = SynthSpec.from_dict(spec_doc)
    cohort, truth = generate(spec)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_cohort(cohort, out / "covariates.csv", out / "features.csv")
    dump_json(truth, out / "truth.json")
    cfg["seed"] = spec.seed
    _write_run_config(out, "synth", cfg)
    log.info(
        "wrote %d subjects x %d regions to %s", cohort.n_subjects, cohort.n_regions, out
    )
    return 0


_FIT_DEFAULTS = {
    "covariates": None,
    "features": None,
    "out": None,
    "covariate_set": "age,sex",
    "race_reference": "W",
    "race_labels": "A,B,W",
    "knots": 5,
    "degree": 3,
    "include_linear_age": True,
    "knot_lo": None,
    "knot_hi": None,
    "min_qc": None,
    "train_frac": None,
    "default_train_frac": None,
    "seed": 0,
    "workers": 1,
}


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _FIT_DEFAULTS, required=("covariates", "features", "out"))
    schema = _schema_from(cfg)
    cohort, _report = load_cohort(cfg["covariates"], cfg["features"], schema)
    cohort = qc_filter(cohort, cfg["min_qc"])
    if cohort.n_subjects == 0:
        raise InputError("no subjects left to fit after loading and QC")

    if cfg["train_frac"] is not None or cfg["default_train_frac"] is not None:
        fractions = _parse_fractions(cfg["train_frac"] or "")
        split = SplitSpec(
            fractions=fractions,
            seed=int(cfg["seed"]),
            default_fraction=cfg["default_train_frac"],
        )
        train, test = stratified_split(cohort, split)
    else:
        train, test = cohort, cohort.subset([])

    knot_range = None
    if cfg["knot_lo"] is not None and cfg["knot_hi"] is not None:
        knot_range = (float(cfg["knot_lo"]), float(cfg["knot_hi"]))
    elif (cfg["knot_lo"] is None) != (cfg["knot_hi"] is None):
        raise InputError("provide both --knot-lo and --knot-hi or neither")
    covariate_set = tuple(
        s.strip() for s in str(cfg["covariate_set"]).split(",") if s.strip()
    )
    model_config = ModelConfig(
        covariates=covariate_set,
        basis=BasisConfig(
            n_knots=int(cfg["knots"]),
            degree=int(cfg["degree"]),
            knot_range=knot_range,
            include_linear_age=bool(cfg["include_linear_age"]),
        ),
        race_reference_level=str(cfg["race_reference"]),
    )
    design = fit_design(train, model_config)
    model = fit_normative(
        train,
        model_config,
        workers=int(cfg["workers"]),
        seed=int(cfg["seed"]),
        design=design,
    )
    metrics = region_metrics(deviations(model, train, design))

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        save_bundle(model, out)
        created += [out / "model.json", out / "regions.json"]
        path = out / "fit_metrics.csv"
        write_csv(path, _METRICS_HEADER, _metrics_rows(metrics))
        created.append(path)
        for name, part in (("train_ids.txt", train), ("test_ids.txt", test)):
            path = out / name
            path.write_text("".join(f"{sid}\n" for sid in part.ids), encoding="utf-8")
            created.append(path)
        path = out / "demographics.json"
        dump_json(
            {"train": demographics_summary(train), "test": demographics_summary(test)},
            path,
        )
        created.append(path)
        _write_run_config(out, "fit", cfg)
    except BaseException:
        # never leave a partial bundle behind
        for path in created:
            path.unlink(missing_ok=True)
        raise
    n_flagged = sum(1 for rm in model.region_models if not rm.converged)
    if n_flagged:
        log.warning("%d region(s) flagged as not converged", n_flagged)
    log.info(
        "fit %d regions on %d training subjects (%d held out)",
        train.n_regions,
        train.n_subjects,
        test.n_subjects,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    defaults = {
        "bundle": None,
        "covariates": None,
        "features": None,
        "out": None,
        "ids": None,
        "race_labels": "A,B,W",
    }
    cfg = _resolve(args, defaults, required=("bundle", "covariates", "features", "out"))
    model = load_bundle(cfg["bundle"])
    schema = _schema_from(cfg)
    cohort, _report = load_cohort(cfg["covariates"], cfg["features"], schema)
    if cfg["ids"] is not None:
        ids_path = Path(cfg["ids"])
        if not ids_path.exists():
            raise InputError(f"file not found: {ids_path}")
        wanted = [line.strip() for line in ids_path.read_text().splitlines() if line.strip()]
        cohort = cohort.subset_by_ids(wanted)
    if cohort.n_subjects == 0:
        raise InputError("no subjects to evaluate")
    dm = deviations(model, cohort)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "deviations.csv", list(dm.ids), list(dm.regions), dm.Z)
    write_matrix_csv(out / "errors.csv", list(dm.ids), list(dm.regions), dm.E)
    write_csv(out / "metrics.csv", _METRICS_HEADER, _metrics_rows(region_metrics(dm)))
    _write_run_config(out, "evaluate", cfg)
    log.info("scored %d subjects x %d regions", dm.Z.shape[0], dm.Z.shape[1])
    return 0


def _parse_contrasts(raw: list[str]) -> list[tuple[str, str]]:
    contrasts = []
    for item in raw:
        g1, sep, g2 = str(item).partition(":")
        if not sep or not g1 or not g2 or g1 == g2:
            raise InputError(
                f"bad contrast '{item}' (expected GROUP_ONE:GROUP_TWO)"
            )
        contrasts.append((g1, g2))
    return contrasts


def cmd_audit(args: argparse.Namespace) -> int:
    defaults = {
        "deviations": None,
        "errors": None,
        "covariates": None,
        "out": None,
        "contrasts": None,
        "q": 0.05,
        "threshold": 2.0,
        "bundle": None,
        "features": None,
        "race_labels": "A,B,W",
    }
    cfg = _resolve(
        args, defaults, required=("deviations", "errors", "covariates", "out", "contrasts")
    )
    if (cfg["bundle"] is None) != (cfg["features"] is None):
        raise InputError("provide both --bundle and --features or neither")
    ids_z, regions_z, z_matrix = read_matrix_csv(cfg["deviations"])
    ids_e, regions_e, e_matrix = read_matrix_csv(cfg["errors"])
    if ids_z != ids_e or regions_z != regions_e:
        raise SchemaError("deviations and errors files disagree on ids or regions")
    schema = _schema_from(cfg)
    cov_map, _ = read_covariates(Path(cfg["covariates"]), schema)
    missing = [sid for sid in ids_z if sid not in cov_map]
    if missing:
        raise InputError(
            f"{len(missing)} scored id(s) missing from covariates "
            f"(first few: {missing[:5]})"
        )
    groups = [cov_map[sid].race for sid in ids_z]
    present = set(groups)
    contrasts = _parse_contrasts(list(cfg["contrasts"]))
    for g1, g2 in contrasts:
        for g in (g1, g2):
            if g not in present:
                raise InputError(f"contrast group '{g}' absent from the scored cohort")

    q = float(cfg["q"])
    threshold = float(cfg["threshold"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    summary = group_summary(z_matrix, groups, regions_z, threshold)
    rows = []
    for label in summary.groups:
        for j, region in enumerate(summary.regions):
            rows.append(
                [
                    label,
                    region,
                    summary.group_sizes[label],
                    summary.mean_deviation[label][j],
                    summary.pct_extreme_pos[label][j],
                    summary.pct_extreme_neg[label][j],
                    summary.pct_extreme_total[label][j],
                ]
            )
    write_csv(
        out / "audit_summary.csv",
        [
            "group",
            "region",
            "n",
            "mean_deviation",
            "pct_extreme_pos",
            "pct_extreme_neg",
            "pct_extreme_total",
        ],
        rows,
    )

    test_rows = []
    table4_rows = []
    for metric_name, matrix in (("deviation", z_matrix), ("error", e_matrix)):
        for contrast in contrasts:
            welch = group_difference(matrix, groups, contrast)
            flags = np.zeros(len(regions_z), dtype=bool)
            testable = welch.testable
            if testable.any():
                flags[testable] = bh_fdr(welch.p[testable], q)
                pct = 100.0 * significant_fraction(flags[testable])
            else:
                pct = float("nan")
            contrast_label = f"{contrast[0]}:{contrast[1]}"
            for j, region in enumerate(regions_z):
                test_rows.append(
                    [
                        contrast_label,
                        metric_name,
                        region,
                        welch.t[j],
                        welch.p[j],
                        int(flags[j]),
                    ]
                )
            table4_rows.append([contrast_label, metric_name, pct])
    write_csv(
        out / "audit_tests.csv",
        ["contrast", "metric", "region", "t", "p", "fdr_flag"],
        test_rows,
    )
    write_csv(
        out / "table4.csv", ["contrast", "metric", "pct_significant"], table4_rows
    )

    scored = None
    if cfg["bundle"] is not None:
        model = load_bundle(cfg["bundle"])
        cohort, _ = load_cohort(cfg["covariates"], cfg["features"], schema)
        cohort = cohort.subset_by_ids(list(ids_z))
        scored = deviations(model, cohort)
    parity = group_parity(z_matrix, groups, threshold, scored)
    dump_json(
        {
            "threshold": threshold,
            "q": q,
            "method": {
                "test": "welch_two_sample",
                "correction": "benjamini_hochberg",
            },
            "per_group": parity.per_group,
            "gaps": parity.gaps,
        },
        out / "parity.json",
    )
    _write_run_config(out, "audit", cfg)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    defaults = {
        "deviations": None,
        "covariates": None,
        "out": None,
        "folds": 5,
        "l2": 1.0,
        "seed": 0,
        "standardize": False,
        "holdout_fraction": None,
        "svg": False,
        "race_labels": "A,B,W",
    }
    cfg = _resolve(args, defaults, required=("deviations", "covariates", "out"))
    ids, _regions, z_matrix = read_matrix_csv(cfg["deviations"])
    schema = _schema_from(cfg)
    cov_map, _ = read_covariates(Path(cfg["covariates"]), schema)
    missing = [sid for sid in ids if sid not in cov_map]
    if missing:
        raise InputError(
            f"{len(missing)} scored id(s) missing from covariates "
            f"(first few: {missing[:5]})"
        )
    labels = [cov_map[sid].race for sid in ids]
    clf_config = ClassifierConfig(
        l2_strength=float(cfg["l2"]),
        n_folds=int(cfg["folds"]),
        seed=int(cfg["seed"]),
        standardize=bool(cfg["standardize"]),
    )
    if cfg["holdout_fraction"] is not None:
        report = evaluate_holdout(
            z_matrix, labels, clf_config, test_fraction=float(cfg["holdout_fraction"])
        )
    else:
        report = cross_validate(z_matrix, labels, clf_config)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_clf_metrics(out / "clf_metrics.csv", report)
    write_roc_points(out / "roc_points.csv", report)
    write_confusion(out / "confusion.csv", report)
    if cfg["svg"]:
        render_roc_svg(report, out / "roc.svg")
    _write_run_config(out, "classify", cfg)
    log.info(
        "macro AUC %.3f over %d classes", report.macro_mean("auc"), len(report.classes)
    )
    return 0


def _find_artifact(run_dir: Path, name: str) -> Path | None:
    direct = run_dir / name
    if direct.exists():
        return direct
    hits = sorted(p for p in run_dir.glob(f"*/{name}") if p.is_file())
    return hits[0] if hits else None


def _read_csv_dicts(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _fmt(value: float | None, digits: int = 3) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}"


def _demographics_section(path: Path | None) -> list[str]:
    lines = ["## 1. Cohort demographics", ""]
    if path is None:
        lines += ["_demographics.json not found; section skipped._", ""]
        return lines
    doc = load_json(path)
    races = sorted(
        {r for split in doc.values() for r in split.get("race_pct", {})}
    )
    header = ["Split", "N", "Age mean (sd)", "F %", "M %"] + [f"{r} %" for r in races]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for split_name in ("train", "test"):
        split = doc.get(split_name)
        if split is None:
            continue
        age = (
            f"{_fmt(split['age_mean'], 1)} ({_fmt(split['age_sd'], 1)})"
            if split.get("age_mean") is not None
            else "-"
        )
        row = [
            split_name,
            str(split["n"]),
            age,
            _fmt(split["sex_pct"].get("F"), 1),
            _fmt(split["sex_pct"].get("M"), 1),
        ] + [_fmt(split["race_pct"].get(r), 1) for r in races]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


def _fit_section(path: Path | None) -> list[str]:
    lines = ["## 2. Model fit", ""]
    if path is None:
        lines += ["_fit metrics not found; section skipped._", ""]
        return lines
    rows = _read_csv_dicts(path)
    lines.append(f"{len(rows)} regions ({path.name}).")
    lines.append("")
    lines.append("| Metric | Mean | Median | Min | Max |")
    lines.append("|---|---|---|---|---|")
    for metric in ("explained_variance", "msll", "skew", "kurtosis"):
        vals = [float(r[metric]) for r in rows if r.get(metric)]
        if not vals:
            lines.append(f"| {metric} | - | - | - | - |")
            continue
        arr = np.asarray(vals)
        lines.append(
            f"| {metric} | {_fmt(float(arr.mean()))} | {_fmt(float(np.median(arr)))} "
            f"| {_fmt(float(arr.min()))} | {_fmt(float(arr.max()))} |"
        )
    lines.append("")
    return lines


def _audit_section(table4: Path | None, parity: Path | None) -> list[str]:
    lines = ["## 3. Subgroup audit", ""]
    lines.append(
        "Group differences use Welch two-sample tests per region with "
        "Benjamini-Hochberg FDR correction across regions."
    )
    lines.append("")
    if table4 is None:
        lines += ["_table4.csv not found; section skipped._", ""]
    else:
        lines.append("| Contrast | Metric | % significant regions |")
        lines.append("|---|---|---|")
        for row in _read_csv_dicts(table4):
            pct = row.get("pct_significant", "")
            pct_text = _fmt(float(pct), 1) if pct else "-"
            lines.append(f"| {row['contrast']} | {row['metric']} | {pct_text} |")
        lines.append("")
    if parity is not None:
        doc = load_json(parity)
        gaps = doc.get("gaps", {})
        if gaps:
            lines.append("Parity gaps (max - min across groups):")
            lines.append("")
            lines.append("| Metric | Gap |")
            lines.append("|---|---|")
            for metric in sorted(gaps):
                lines.append(f"| {metric} | {_fmt(gaps[metric])} |")
            lines.append("")
    return lines


def _classifier_section(path: Path | None) -> list[str]:
    lines = ["## 4. Attribute prediction from deviations", ""]
    if path is None:
        lines += ["_clf_metrics.csv not found; section skipped._", ""]
        return lines
    rows = _read_csv_dicts(path)
    by_class: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        cls = row["class"]
        entry = by_class.setdefault(cls, {"auc": [], "precision": [], "recall": [], "f": []})
        for metric in entry:
            if row.get(metric):
                entry[metric].append(float(row[metric]))
    lines.append("| Class | AUC | Precision | Recall | F |")
    lines.append("|---|---|---|---|---|")

    def cell(vals: list[float]) -> str:
        if not vals:
            return "-"
        mean = float(np.mean(vals))
        if len(vals) < 2:
            return _fmt(mean)
        return f"{_fmt(mean)} +/- {_fmt(float(np.std(vals, ddof=1)))}"

    macro: dict[str, list[float]] = {"auc": [], "precision": [], "recall": [], "f": []}
    for cls in sorted(by_class):
        entry = by_class[cls]
        lines.append(
            f"| {cls} | {cell(entry['auc'])} | {cell(entry['precision'])} "
            f"| {cell(entry['recall'])} | {cell(entry['f'])} |"
        )
        for metric in macro:
            if entry[metric]:
                macro[metric].append(float(np.mean(entry[metric])))
    lines.append(
        "| macro | "
        + " | ".join(
            _fmt(float(np.mean(macro[m]))) if macro[m] else "-"
            for m in ("auc", "precision", "recall", "f")
        )
        + " |"
    )
    lines.append("")
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {"run_dir": None, "out": None}, required=("run_dir",))
    run_dir = Path(cfg["run_dir"])
    if not run_dir.is_dir():
        raise InputError(f"run directory not found: {run_dir}")
    out_path = Path(cfg["out"]) if cfg["out"] else run_dir / "report.md"

    fit_metrics_path = _find_artifact(run_dir, "fit_metrics.csv") or _find_artifact(
        run_dir, "metrics.csv"
    )
    lines = ["# Normative modeling report", ""]
    lines += _demographics_section(_find_artifact(run_dir, "demographics.json"))
    lines += _fit_section(fit_metrics_path)
    lines += _audit_section(
        _find_artifact(run_dir, "table4.csv"), _find_artifact(run_dir, "parity.json")
    )
    lines += _classifier_section(_find_artifact(run_dir, "clf_metrics.csv"))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines).rstrip() + "\n", encoding="utf-8")
    log.info("wrote %s", out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgauge",
        description="Normative models over tabular features, with subgroup audits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file of option values; flags override")

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    add_common(p)
    p.add_argument("--spec", help="JSON generator spec")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a normative model")
    add_common(p)
    p.add_argument("--covariates", help="covariates CSV")
    p.add_argument("--features", help="features CSV")
    p.add_argument("--out", help="bundle output directory")
    p.add_argument("--covariate-set", dest="covariate_set",
                   help="age,sex | age,sex,site | age,sex,race")
    p.add_argument("--race-reference", dest="race_reference")
    p.add_argument("--race-labels", dest="race_labels")
    p.add_argument("--knots", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--no-linear-age", dest="include_linear_age",
                   action="store_const", const=False)
    p.add_argument("--knot-lo", dest="knot_lo", type=float)
    p.add_argument("--knot-hi", dest="knot_hi", type=float)
    p.add_argument("--min-qc", dest="min_qc", type=float)
    p.add_argument("--train-frac", dest="train_frac",
                   help="per-race fractions, e.g. A=0.02,B=0.05,W=0.93")
    p.add_argument("--default-train-frac", dest="default_train_frac", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--workers", type=int, help="accepted for compatibility; has no effect"
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score a cohort against a fitted bundle")
    add_common(p)
    p.add_argument("--bundle", help="model bundle directory")
    p.add_argument("--covariates")
    p.add_argument("--features")
    p.add_argument("--out")
    p.add_argument("--ids", help="file with one subject id per line")
    p.add_argument("--race-labels", dest="race_labels")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="test deviations for group differences")
    add_common(p)
    p.add_argument("--deviations")
    p.add_argument("--errors")
    p.add_argument("--covariates")
    p.add_argument("--out")
    p.add_argument("--contrasts", nargs="+", help="pairs like W:A W:B")
    p.add_argument("--q", type=float, help="FDR level")
    p.add_argument("--threshold", type=float, help="|Z| extreme threshold")
    p.add_argument("--bundle", help="optional bundle for per-group EV/MSLL")
    p.add_argument("--features", help="optional features CSV for per-group EV/MSLL")
    p.add_argument("--race-labels", dest="race_labels")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("classify", help="predict race from deviation profiles")
    add_common(p)
    p.add_argument("--deviations")
    p.add_argument("--covariates")
    p.add_argument("--out")
    p.add_argument("--folds", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--standardize", action="store_const", const=True)
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--svg", action="store_const", const=True)
    p.add_argument("--race-labels", dest="race_labels")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="assemble a markdown report from run outputs")
    add_common(p)
    p.add_argument("--run-dir", dest="run_dir")
    p.add_argument("--out", help="report path (default RUN_DIR/report.md)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except NormgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

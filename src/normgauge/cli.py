"""Command-line entry points.

Subcommands: synth, fit, evaluate, audit, classify, report. Each option is
declared once, as a flag with its default and type. Every command accepts
--config pointing at a JSON object of option values keyed by dest name; the
file's values, typed as the flags type their text, become the command's
defaults, so the precedence is default < file < flag. The fully resolved
configuration is echoed to run_config.json in the output directory, and
outputs contain no timestamps, so reruns with the same inputs are
byte-identical. Exit codes: 0 success, 2 input/configuration problems,
3 schema mismatches, 4 numerical failures.

Each command imports the modules it runs inside its own function, numpy
included, so a command pays at start-up only for what it calls: `classify`
loads no blr, design, audit, synth or warp, `synth` no blr, and `report`, whose
statistics are taken in pure Python (_sum), no numpy at all. Importing this
module loads only the standard library, the exceptions and the JSON helpers.

A pipeline scores its held-out cohort once. `evaluate` writes the per-group
fit of its scoring pass to group_fit.json with the SHA-256 of the bytes it
read and of the deviations.csv it wrote; `audit --bundle --features` takes
EV and MSLL from that file where every recorded digest is that of the file
it was given, and then loads no blr at all. Otherwise it scores the cohort
again; the outputs are the same bytes either way.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import importlib.util
import io
import json
import logging
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._textio import (
    MODEL_FILE,
    REGIONS_FILE,
    dump_json,
    load_json,
    read_bytes,
    read_text,
    recorded_digests,
    sha256_of,
)
from ._version import __version__
from .errors import InputError, NormgaugeError, SchemaError

if TYPE_CHECKING:
    from .cohort import Cohort, CohortSchema

log = logging.getLogger(__name__)


class _ConfigFile(argparse.Action):
    """--config FILE: the file's values become the command's defaults.

    The first parse sets them; `main` then parses again, so a flag still
    beats the file and the file beats the flag's own default.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        doc = load_json(path)
        if not isinstance(doc, dict):
            raise InputError(f"{path}: config must be a JSON object")
        options = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
        unknown = sorted(set(doc) - set(options))
        if unknown:
            raise InputError(f"{path}: unknown config key(s) {unknown}")
        for key, value in doc.items():
            try:
                parser.set_defaults(**{key: _typed(options[key], value)})
            except (TypeError, ValueError):
                raise InputError(
                    f"{path}: config key '{key}' has a bad value {json.dumps(value)}"
                ) from None
        namespace.config = path


def _typed(action: argparse.Action, value):
    """A config value as its flag would set it; ValueError if no flag could."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # on/off flags take only true or false
        if isinstance(value, bool):
            return value
    elif action.nargs == "+":
        if isinstance(value, list) and value:
            return [_typed_text(action, v) for v in value]
    else:
        return _typed_text(action, value)
    raise ValueError(value)


def _typed_text(action: argparse.Action, value):
    # a JSON number stands for its text, so "knots": 5.5 fails as --knots 5.5 does
    if isinstance(value, str) or (action.type and type(value) in (int, float)):
        return action.type(str(value)) if action.type else value
    raise ValueError(value)


def _resolve(args: argparse.Namespace, required: tuple[str, ...]) -> dict:
    """The command's options from the parsed flags; each `required` one must be set."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    missing = [k for k in required if cfg[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise InputError(f"missing required option(s): {flags}")
    return cfg


def _write_run_config(out_dir: Path, command: str, cfg: dict) -> None:
    doc = {"command": command, "version": __version__, **dict(sorted(cfg.items()))}
    dump_json(doc, out_dir / "run_config.json")


def _schema_from(cfg: dict) -> CohortSchema:
    from .cohort import CohortSchema

    labels = tuple(
        sorted(s.strip() for s in cfg["race_labels"].split(",") if s.strip())
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
        label = label.strip()
        if label in out:
            raise InputError(f"train fraction for '{label}' given twice")
        try:
            out[label] = float(frac)
        except ValueError:
            raise InputError(f"bad train fraction value '{frac}'") from None
    return out


def _by_id(ids: list[str]) -> list[int]:
    """Every row of a matrix file, in sorted-id order: read_matrix_csv's rows
    for audit and classify, so that their outputs follow the ids, not the
    file's row order (a scoring pass holds its rows in that order too)."""
    return sorted(range(len(ids)), key=ids.__getitem__)


def _races(ids: list[str], covariates: Cohort) -> list[str]:
    """The race of each scored id, from read_covariates' cohort."""
    index = {sid: i for i, sid in enumerate(covariates.ids)}
    missing = [sid for sid in ids if sid not in index]
    if missing:
        raise InputError(
            f"{len(missing)} scored id(s) missing from covariates "
            f"(first few: {missing[:5]})"
        )
    return [covariates.races[index[sid]] for sid in ids]


def _metrics_rows(metrics) -> list[list]:
    return [
        [m.region, m.explained_variance, m.msll, m.skew, m.kurtosis] for m in metrics
    ]


_METRICS_HEADER = ["region", "explained_variance", "msll", "skew", "kurtosis"]


def cmd_synth(args: argparse.Namespace) -> int:
    from .cohort import save_cohort
    from .synth import SynthSpec, generate

    cfg = _resolve(args, required=("spec", "out"))
    spec_doc = load_json(cfg["spec"])
    if not isinstance(spec_doc, dict):
        raise InputError(f"{cfg['spec']}: spec must be a JSON object")
    if cfg["seed"] is not None:
        spec_doc["seed"] = cfg["seed"]
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


def cmd_fit(args: argparse.Namespace) -> int:
    from .blr import deviations, fit_normative, save_bundle
    from .cohort import (
        SplitSpec,
        demographics_summary,
        load_cohort,
        qc_filter,
        stratified_split,
    )
    from .design import BasisConfig, ModelConfig
    from .serialize import write_csv

    cfg = _resolve(args, required=("covariates", "features", "out"))
    schema = _schema_from(cfg)
    test = None

    def training(cohort: Cohort) -> Cohort:
        """QC and the split of the joined subjects; only the training split's
        feature rows are parsed, and the held-out split keeps no regions."""
        nonlocal test
        cohort = qc_filter(cohort, cfg["min_qc"])
        if cohort.n_subjects == 0:
            raise InputError("no subjects left to fit after loading and QC")
        if cfg["train_frac"] is not None or cfg["default_train_frac"] is not None:
            fractions = _parse_fractions(cfg["train_frac"] or "")
            split = SplitSpec(
                fractions=fractions,
                seed=cfg["seed"],
                default_fraction=cfg["default_train_frac"],
            )
            train, test = stratified_split(cohort, split)
        else:
            train, test = cohort, cohort.subset([])
        return train

    train = load_cohort(cfg["covariates"], cfg["features"], schema, keep=training)

    knot_range = None
    if cfg["knot_lo"] is not None and cfg["knot_hi"] is not None:
        knot_range = (cfg["knot_lo"], cfg["knot_hi"])
    elif (cfg["knot_lo"] is None) != (cfg["knot_hi"] is None):
        raise InputError("provide both --knot-lo and --knot-hi or neither")
    covariate_set = tuple(
        s.strip() for s in cfg["covariate_set"].split(",") if s.strip()
    )
    model_config = ModelConfig(
        covariates=covariate_set,
        basis=BasisConfig(
            n_knots=cfg["knots"],
            degree=cfg["degree"],
            knot_range=knot_range,
        ),
        race_reference_level=cfg["race_reference"],
    )
    model = fit_normative(
        train, model_config, workers=cfg["workers"], seed=cfg["seed"]
    )
    metrics = deviations(model, train).metrics

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    # save_bundle writes two files, so both count as created before it runs
    created = [out / "model.json", out / "regions.json"]
    try:
        save_bundle(model, out)
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
    log.info(
        "fit %d regions on %d training subjects (%d held out)",
        train.n_regions,
        train.n_subjects,
        test.n_subjects,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .blr import deviations, load_bundle
    from .cohort import load_cohort
    from .serialize import _unique_ids, write_csv, write_matrix_csvs

    cfg = _resolve(args, required=("bundle", "covariates", "features", "out"))

    def scored(cohort: Cohort) -> Cohort:
        """The --ids subset of the joined subjects, if given; only its feature
        rows are parsed."""
        if cfg["ids"] is None:
            return cohort
        path = Path(cfg["ids"])
        wanted = [line.strip() for line in read_text(path).splitlines() if line.strip()]
        return cohort.subset_by_ids(_unique_ids(path, wanted))

    # the digests of the bytes scored, for group_fit.json
    with recorded_digests() as read:
        model = load_bundle(cfg["bundle"])
        schema = _schema_from(cfg)
        cohort = load_cohort(cfg["covariates"], cfg["features"], schema, keep=scored)
    dm = deviations(model, cohort)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    ids, regions = list(dm.ids), list(dm.regions)
    deviations_sha256, _ = write_matrix_csvs(
        [
            (out / "deviations.csv", ids, regions, dm.Z),
            (out / "errors.csv", ids, regions, dm.E),
        ]
    )
    write_csv(out / "metrics.csv", _METRICS_HEADER, _metrics_rows(dm.metrics))
    digests = {role: read[path] for role, path in _scoring_inputs(cfg).items()}
    digests["deviations"] = deviations_sha256
    _write_group_fit(out / _GROUP_FIT_FILE, dm.group_fit, dm.clamped, digests)
    _write_run_config(out, "evaluate", cfg)
    log.info("scored %d subjects x %d regions", dm.Z.shape[0], dm.Z.shape[1])
    return 0


_GROUP_FIT_FILE = "group_fit.json"
# group_fit.json's format line: a change of its contents takes a new number
_GROUP_FIT_FORMAT = "normgauge group fit 1"


def _scoring_inputs(cfg: dict) -> dict[str, Path]:
    """The files that evaluate's scoring pass reads, and audit --bundle
    --features rescores from, by their names in group_fit.json."""
    bundle = Path(cfg["bundle"])
    return {
        "covariates": Path(cfg["covariates"]),
        "features": Path(cfg["features"]),
        "model": bundle / MODEL_FILE,
        "regions": bundle / REGIONS_FILE,
    }


def _write_group_fit(
    path: Path, fit: dict[str, dict], clamped: int, digests: dict[str, str]
) -> None:
    """Write a scoring pass's per-group fit (DeviationMatrix.group_fit) and
    its count of clamped ages, with the SHA-256 of its inputs and of the
    deviations.csv written from it, keys sorted.

    A fit with a non-finite value is not written, as JSON cannot hold it;
    audit then scores again and fails as it always has.
    """
    doc = {
        "clamped": clamped,
        "format": _GROUP_FIT_FORMAT,
        "groups": {label: dict(sorted(entry.items())) for label, entry in fit.items()},
        "sha256": dict(sorted(digests.items())),
        "version": __version__,
    }
    with contextlib.suppress(ValueError):
        dump_json(doc, path)


def _recorded_group_fit(
    cfg: dict, read: dict[Path, str], sizes: dict[str, int]
) -> dict[str, dict] | None:
    """The per-group fit in the group_fit.json beside --deviations, where it
    was written for exactly these inputs; else None, and audit scores again.

    It is trusted only if its format and package version are this one's, the
    SHA-256 of every input it records (the bundle's two files, --features,
    --covariates, --deviations) is that of the file given here, and its
    groups and their sizes are the audited rows'. read holds the digests of
    the files already read; the others are read here, and one that cannot be
    read leaves the error to the scoring pass. A trusted file's count of
    clamped ages is logged as the scoring pass logs it.
    """
    try:
        doc = json.loads(Path(cfg["deviations"]).with_name(_GROUP_FIT_FILE).read_bytes())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(doc, dict)
        or doc.get("format") != _GROUP_FIT_FORMAT
        or doc.get("version") != __version__
    ):
        return None
    digests = {"deviations": read[Path(cfg["deviations"])]}
    try:
        for role, path in _scoring_inputs(cfg).items():
            digests[role] = read[path] if path in read else sha256_of(path, read_bytes(path))
    except InputError:
        return None
    groups, clamped = doc.get("groups"), doc.get("clamped")
    if (
        doc.get("sha256") != digests
        or type(clamped) is not int
        or not isinstance(groups, dict)
        or groups.keys() != sizes.keys()
    ):
        return None
    for label, entry in groups.items():
        if (
            not isinstance(entry, dict)
            or set(entry) != {"explained_variance", "msll", "n"}
            or entry["n"] != sizes[label]
            or type(entry["msll"]) is not float
            or type(entry["explained_variance"]) not in (float, type(None))
        ):
            return None
    if clamped:
        log.warning("clamped %d age(s) outside the fitted range", clamped)
    return groups


def _parse_contrasts(raw: list[str]) -> list[tuple[str, str]]:
    contrasts = []
    for item in raw:
        g1, sep, g2 = item.partition(":")
        if not sep or not g1 or not g2 or g1 == g2:
            raise InputError(
                f"bad contrast '{item}' (expected GROUP_ONE:GROUP_TWO)"
            )
        if (g1, g2) in contrasts:
            raise InputError(f"contrast '{item}' given twice")
        contrasts.append((g1, g2))
    return contrasts


def cmd_audit(args: argparse.Namespace) -> int:
    import numpy as np

    from .audit import (
        bh_fdr,
        group_difference,
        group_parity,
        group_summary,
        significant_fraction,
    )
    from .cohort import _join_features, read_covariates
    from .serialize import read_matrix_csv, write_csv

    cfg = _resolve(
        args, required=("deviations", "errors", "covariates", "out", "contrasts")
    )
    if (cfg["bundle"] is None) != (cfg["features"] is None):
        raise InputError("provide both --bundle and --features or neither")
    q = cfg["q"]
    if not 0.0 < q < 1.0:
        raise InputError(f"--q must be in (0, 1), got {q}")
    with recorded_digests() as read:
        ids_z, regions_z, z_matrix = read_matrix_csv(cfg["deviations"], _by_id)
        ids_e, regions_e, e_matrix = read_matrix_csv(cfg["errors"], _by_id)
        if ids_z != ids_e or regions_z != regions_e:
            raise SchemaError("deviations and errors files disagree on ids or regions")
        schema = _schema_from(cfg)
        covariates, incomplete = read_covariates(Path(cfg["covariates"]), schema)
    groups = _races(ids_z, covariates)
    sizes = collections.Counter(groups)
    contrasts = _parse_contrasts(cfg["contrasts"])
    for g1, g2 in contrasts:
        for g in (g1, g2):
            if g not in sizes:
                raise InputError(f"contrast group '{g}' absent from the scored cohort")
        # group_difference gives such a contrast NaN in every region, for each
        # metric; it is reported once
        if min(sizes[g1], sizes[g2]) < 2:
            log.warning(
                "contrast %s vs %s untestable: group sizes %d and %d",
                g1, g2, sizes[g1], sizes[g2],
            )

    threshold = cfg["threshold"]
    # every input is read and every result computed before the first write,
    # so a failed audit leaves no partial output tree behind
    fit = None
    if cfg["bundle"] is not None:
        # EV and MSLL from evaluate's scoring pass, where it was of these inputs
        fit = _recorded_group_fit(cfg, read, sizes)
        if fit is None:
            from .blr import deviations, load_bundle

            model = load_bundle(cfg["bundle"])
            # the covariates read above, not read again; only the scored ids'
            # feature rows are parsed
            cohort = _join_features(
                covariates, incomplete, Path(cfg["features"]),
                keep=lambda joined: joined.subset_by_ids(ids_z),
            )
            fit = deviations(model, cohort).group_fit
    parity = group_parity(z_matrix, groups, threshold, fit)

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

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
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
    write_csv(
        out / "audit_tests.csv",
        ["contrast", "metric", "region", "t", "p", "fdr_flag"],
        test_rows,
    )
    write_csv(
        out / "table4.csv", ["contrast", "metric", "pct_significant"], table4_rows
    )
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
    from .classify import (
        ClassifierConfig,
        cross_validate,
        evaluate_holdout,
        render_roc_svg,
        write_clf_metrics,
        write_confusion,
        write_roc_points,
    )
    from .cohort import read_covariates
    from .serialize import read_matrix_csv

    cfg = _resolve(args, required=("deviations", "covariates", "out"))
    if cfg["svg"] and importlib.util.find_spec("matplotlib") is None:
        # fail before any output is written, not after the cross-validation
        raise InputError(
            "matplotlib is required to render roc.svg (install the 'plots' extra)"
        )
    ids, _regions, z_matrix = read_matrix_csv(cfg["deviations"], _by_id)
    covariates, _ = read_covariates(Path(cfg["covariates"]), _schema_from(cfg))
    labels = _races(ids, covariates)
    clf_config = ClassifierConfig(
        l2_strength=cfg["l2"],
        n_folds=cfg["folds"],
        seed=cfg["seed"],
        standardize=cfg["standardize"],
    )
    if cfg["holdout_fraction"] is not None:
        report = evaluate_holdout(
            z_matrix, labels, clf_config, test_fraction=cfg["holdout_fraction"]
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
    # through read_text, so that a file that is not UTF-8 exits 2
    with io.StringIO(read_text(path), newline="") as fh:
        return list(csv.DictReader(fh))


def _sum(values: list[float]) -> float:
    """The sum in numpy's pairwise order, so that the report's statistics are
    the doubles np.mean, np.median and np.std give, without loading numpy.

    A plain loop below 8 values, 8 running sums up to 128, and above that the
    sums of two halves cut at a multiple of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[n - n % 8:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _sum(values[:half]) + _sum(values[half:])


def _mean(values: list[float]) -> float:
    return _sum(values) / len(values)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else _mean(ordered[mid - 1:mid + 1])


def _sd(values: list[float]) -> float:
    """The sample standard deviation (ddof 1) of two or more values."""
    mean = _mean(values)
    return math.sqrt(_sum([(v - mean) * (v - mean) for v in values]) / (len(values) - 1))


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
        lines.append(
            f"| {metric} | {_fmt(_mean(vals))} | {_fmt(_median(vals))} "
            f"| {_fmt(min(vals))} | {_fmt(max(vals))} |"
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
        mean = _mean(vals)
        if len(vals) < 2:
            return _fmt(mean)
        return f"{_fmt(mean)} +/- {_fmt(_sd(vals))}"

    macro: dict[str, list[float]] = {"auc": [], "precision": [], "recall": [], "f": []}
    for cls in sorted(by_class):
        entry = by_class[cls]
        lines.append(
            f"| {cls} | {cell(entry['auc'])} | {cell(entry['precision'])} "
            f"| {cell(entry['recall'])} | {cell(entry['f'])} |"
        )
        for metric in macro:
            if entry[metric]:
                macro[metric].append(_mean(entry[metric]))
    lines.append(
        "| macro | "
        + " | ".join(
            _fmt(_mean(macro[m])) if macro[m] else "-"
            for m in ("auc", "precision", "recall", "f")
        )
        + " |"
    )
    lines.append("")
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve(args, required=("run_dir",))
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", action=_ConfigFile, help="JSON file of option values; flags override"
    )

    def add_parser(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[common])

    def add_race_labels(p: argparse.ArgumentParser) -> None:
        p.add_argument("--race-labels", dest="race_labels", default="A,B,W")

    p = add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--spec", help="JSON generator spec")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = add_parser("fit", help="fit a normative model")
    p.add_argument("--covariates", help="covariates CSV")
    p.add_argument("--features", help="features CSV")
    p.add_argument("--out", help="bundle output directory")
    p.add_argument("--covariate-set", dest="covariate_set", default="age,sex",
                   help="age,sex | age,sex,site | age,sex,race")
    p.add_argument("--race-reference", dest="race_reference", default="W")
    add_race_labels(p)
    p.add_argument("--knots", type=int, default=5)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--knot-lo", dest="knot_lo", type=float)
    p.add_argument("--knot-hi", dest="knot_hi", type=float)
    p.add_argument("--min-qc", dest="min_qc", type=float)
    p.add_argument("--train-frac", dest="train_frac",
                   help="per-race fractions, e.g. A=0.02,B=0.05,W=0.93")
    p.add_argument("--default-train-frac", dest="default_train_frac", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p.set_defaults(func=cmd_fit)

    p = add_parser("evaluate", help="score a cohort against a fitted bundle")
    p.add_argument("--bundle", help="model bundle directory")
    p.add_argument("--covariates")
    p.add_argument("--features")
    p.add_argument("--out")
    p.add_argument("--ids", help="file with one subject id per line")
    add_race_labels(p)
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("audit", help="test deviations for group differences")
    p.add_argument("--deviations")
    p.add_argument("--errors")
    p.add_argument("--covariates")
    p.add_argument("--out")
    p.add_argument("--contrasts", nargs="+", help="pairs like W:A W:B")
    p.add_argument("--q", type=float, default=0.05, help="FDR level")
    p.add_argument("--threshold", type=float, default=2.0, help="|Z| extreme threshold")
    p.add_argument("--bundle", help="optional bundle for per-group EV/MSLL")
    p.add_argument("--features", help="optional features CSV for per-group EV/MSLL")
    add_race_labels(p)
    p.set_defaults(func=cmd_audit)

    p = add_parser("classify", help="predict race from deviation profiles")
    p.add_argument("--deviations")
    p.add_argument("--covariates")
    p.add_argument("--out")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--svg", action="store_true")
    add_race_labels(p)
    p.set_defaults(func=cmd_classify)

    p = add_parser("report", help="assemble a markdown report from run outputs")
    p.add_argument("--run-dir", dest="run_dir")
    p.add_argument("--out", help="report path (default RUN_DIR/report.md)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        args = parser.parse_args(argv)
        if args.config:
            # parse again now that the file's values are the command's defaults
            args = parser.parse_args(argv)
        return args.func(args)
    except NormgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

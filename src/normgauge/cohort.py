"""Cohort data model: covariate columns, responses, CSV I/O, QC filtering, splits.

A Cohort holds one column per covariate, as each audit reads one covariate
across all rows: ids; ages, a read-only float array; sexes, races and sites,
tuples with None for a missing site; and qc_scores, a read-only float array
with NaN for a missing score. responses[i] is the row of ids[i].

Covariates CSV contract: header `id,age,sex,race[,site][,qc_score]`; site and
qc_score are optional columns. Features CSV contract: header `id,<region>,...`
with one numeric column per region. Subjects present in only one file are
dropped (counted in a warning); rows missing a required covariate value
are likewise dropped and counted. A cohort read from files holds its
subjects in sorted-id order, which is the canonical order for every
downstream output.

read_covariates gives the covariates as a Cohort with no regions. The join
needs only the features file's ids, so load_cohort can hand the joined
subjects, as a Cohort with no regions, to a `keep` function (QC and the
split for `fit`, the --ids subset for `evaluate`) and parse the feature rows of
the subjects it keeps, and no others. A cell of a row not kept is never parsed
or checked; every row's id and cell count still is.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, SchemaError
from .serialize import read_matrix_csv, read_text, write_csv, write_matrix_csv

log = logging.getLogger(__name__)

REQUIRED_COVARIATES = ("id", "age", "sex", "race")
OPTIONAL_COVARIATES = ("site", "qc_score")
# sex is binary-coded
SEX_LABELS = ("F", "M")


@dataclass(frozen=True)
class CohortSchema:
    """Declared race labels; sex labels are always SEX_LABELS."""

    race_labels: tuple[str, ...] = ("A", "B", "W")


@dataclass(frozen=True, kw_only=True)
class Cohort:
    """Covariate columns and responses in one row order (see the module
    docstring); row i of each belongs to ids[i]. sites and qc_scores default
    to all missing. Every sex must be one of SEX_LABELS and every race one of
    the schema's declared labels. A cohort of covariates alone has regions ()
    and responses of shape (n, 0)."""

    ids: tuple[str, ...]
    ages: np.ndarray
    sexes: tuple[str, ...]
    races: tuple[str, ...]
    sites: tuple[str | None, ...] | None = None
    qc_scores: np.ndarray | None = None
    regions: tuple[str, ...]
    responses: np.ndarray
    schema: CohortSchema = field(default_factory=CohortSchema)

    def __post_init__(self) -> None:
        n = len(self.ids)
        columns = {
            "ids": tuple(self.ids),
            "ages": np.array(self.ages, dtype=float),
            "sexes": tuple(self.sexes),
            "races": tuple(self.races),
            "sites": (None,) * n if self.sites is None else tuple(self.sites),
            "qc_scores": np.full(n, np.nan)
            if self.qc_scores is None
            else np.array(self.qc_scores, dtype=float),
        }
        for name, column in columns.items():
            shape = column.shape if isinstance(column, np.ndarray) else (len(column),)
            if shape != (n,):
                raise SchemaError(f"{name} column of shape {shape} does not match {n} ids")
        responses = np.asarray(self.responses, dtype=float)
        if responses.shape != (n, len(self.regions)):
            raise SchemaError(
                f"responses shape {responses.shape} does not match "
                f"{n} subjects x {len(self.regions)} regions"
            )
        if responses.size and not np.all(np.isfinite(responses)):
            raise InputError("responses contain non-finite values")
        if len(set(self.regions)) != len(self.regions):
            raise SchemaError("duplicate region names")
        if len(set(self.ids)) != n:
            raise InputError("duplicate subject ids")
        for name, column, declared in (
            ("sex", columns["sexes"], SEX_LABELS),
            ("race", columns["races"], self.schema.race_labels),
        ):
            undeclared = sorted(set(column) - set(declared))
            if undeclared:
                raise InputError(
                    f"{name} label(s) {undeclared} not in declared labels {list(declared)}"
                )
        columns.update(regions=tuple(self.regions), responses=responses.copy())
        for name, column in columns.items():
            if isinstance(column, np.ndarray):
                column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def subset(self, indices: Sequence[int]) -> "Cohort":
        """New cohort from a subset of rows, preserving canonical order."""
        idx = sorted(int(i) for i in indices)

        def take(column: tuple) -> tuple:
            return tuple(column[i] for i in idx)

        return Cohort(
            ids=take(self.ids),
            ages=self.ages[idx],
            sexes=take(self.sexes),
            races=take(self.races),
            sites=take(self.sites),
            qc_scores=self.qc_scores[idx],
            regions=self.regions,
            responses=self.responses[idx],
            schema=self.schema,
        )

    def subset_by_ids(self, ids: Sequence[str]) -> "Cohort":
        index = {sid: i for i, sid in enumerate(self.ids)}
        missing = [sid for sid in ids if sid not in index]
        if missing:
            raise InputError(
                f"{len(missing)} requested id(s) not in cohort "
                f"(first few: {missing[:5]})"
            )
        return self.subset([index[sid] for sid in ids])

    def content_hash(self) -> str:
        """Order-stable SHA-256 over every covariate and the response bytes:
        one `id|age|sex|race|site|qc_score` line per row, a missing site or
        qc_score empty, then the region names and the responses."""
        rows = zip(
            self.ids,
            map(repr, self.ages.tolist()),
            self.sexes,
            self.races,
            (site or "" for site in self.sites),
            ("" if math.isnan(q) else repr(q) for q in self.qc_scores.tolist()),
        )
        h = hashlib.sha256("".join("|".join(row) + "\n" for row in rows).encode())
        h.update(",".join(self.regions).encode())
        h.update(np.ascontiguousarray(self.responses, dtype=float).tobytes())
        return h.hexdigest()


def _parse_float(cell: str, path: Path, line_no: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InputError(
            f"{path} row {line_no}, column '{column}': cannot parse '{cell}' as a number"
        ) from None
    if not math.isfinite(value):
        raise InputError(
            f"{path} row {line_no}, column '{column}': non-finite value '{cell}'"
        )
    return value


def read_covariates(path: Path, schema: CohortSchema) -> tuple[Cohort, int]:
    """Parse a covariates CSV into a Cohort with no regions, in sorted-id
    order, plus the count of rows dropped for a missing required covariate.

    A missing file, or one that is not UTF-8, raises InputError naming it.
    """
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        known = REQUIRED_COVARIATES + OPTIONAL_COVARIATES
        for col in REQUIRED_COVARIATES:
            if col not in header:
                raise SchemaError(f"{path}: missing required column '{col}'")
        for col in header:
            if col not in known:
                raise SchemaError(f"{path}: unknown column '{col}'")
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column in header")
        # each cell by its column's position, None for an absent optional one
        i_id, i_age, i_sex, i_race, i_site, i_qc = (
            header.index(col) if col in header else None
            for col in REQUIRED_COVARIATES + OPTIONAL_COVARIATES
        )

        rows: list[tuple] = []
        seen: set[str] = set()
        incomplete = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path} row {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            sid = row[i_id].strip()
            if not sid:
                raise InputError(f"{path} row {line_no}: empty id")
            if sid in seen:
                raise InputError(f"{path} row {line_no}: duplicate id '{sid}'")
            age_text, sex, race = row[i_age].strip(), row[i_sex].strip(), row[i_race].strip()
            if not (age_text and sex and race):
                incomplete += 1
                continue
            age = _parse_float(age_text, path, line_no, "age")
            if age <= 0:
                raise InputError(
                    f"{path} row {line_no}, column 'age': must be positive, got {age}"
                )
            if sex not in SEX_LABELS:
                raise InputError(
                    f"{path} row {line_no}, column 'sex': "
                    f"'{sex}' not in declared labels {list(SEX_LABELS)}"
                )
            if race not in schema.race_labels:
                raise InputError(
                    f"{path} row {line_no}, column 'race': "
                    f"'{race}' not in declared labels {list(schema.race_labels)}"
                )
            site = (row[i_site].strip() or None) if i_site is not None else None
            qc_text = row[i_qc].strip() if i_qc is not None else ""
            qc = _parse_float(qc_text, path, line_no, "qc_score") if qc_text else math.nan
            seen.add(sid)
            rows.append((sid, age, sex, race, site, qc))
    # ids are unique, so the sort compares ids alone
    rows.sort()
    ids, ages, sexes, races, sites, qc_scores = zip(*rows) if rows else ((),) * 6
    covariates = Cohort(
        ids=ids,
        ages=ages,
        sexes=sexes,
        races=races,
        sites=sites,
        qc_scores=qc_scores,
        regions=(),
        responses=np.empty((len(ids), 0)),
        schema=schema,
    )
    return covariates, incomplete


def load_cohort(
    covariates_path: str | Path,
    features_path: str | Path,
    schema: CohortSchema | None = None,
    keep: Callable[[Cohort], Cohort] | None = None,
) -> Cohort:
    """Inner-join covariates and features on id; canonical sorted-id order.

    Warns of the subjects dropped and of the incomplete covariate rows. The
    join needs only the features file's ids. keep, where given, maps the
    joined subjects, as a Cohort with no regions, to the cohort of those
    whose feature rows are wanted; only their rows are parsed and checked,
    and the cohort returned holds them.
    """
    schema = schema or CohortSchema()
    cov_path, feat_path = Path(covariates_path), Path(features_path)
    # both files must exist before either is parsed
    if not cov_path.exists():
        raise InputError(f"file not found: {cov_path}")
    if not feat_path.exists():
        raise InputError(f"file not found: {feat_path}")
    covariates, incomplete = read_covariates(cov_path, schema)
    joined: Cohort | None = None

    def rows(feat_ids: list[str]) -> list[int]:
        nonlocal joined
        feat_index = {sid: i for i, sid in enumerate(feat_ids)}
        common = [i for i, sid in enumerate(covariates.ids) if sid in feat_index]
        unmatched = (covariates.n_subjects - len(common)) + (len(feat_ids) - len(common))
        if unmatched:
            log.warning(
                "dropped %d subject(s) present in only one input file", unmatched
            )
        if incomplete:
            log.warning("dropped %d row(s) with missing required covariates", incomplete)
        joined = covariates.subset(common)
        if keep is not None:
            joined = keep(joined)
        return [feat_index[sid] for sid in joined.ids]

    _, regions, values = read_matrix_csv(feat_path, rows)
    if values.size and not np.all(np.isfinite(values)):
        raise InputError(f"{feat_path}: non-finite feature values")
    return dataclasses.replace(joined, regions=tuple(regions), responses=values)


def save_cohort(
    cohort: Cohort, covariates_path: str | Path, features_path: str | Path
) -> None:
    """Write the two canonical CSVs; load_cohort(save_cohort(c)) round-trips exactly.

    The site and qc_score columns are written where any subject has one."""
    header = list(REQUIRED_COVARIATES)
    columns = [cohort.ids, cohort.ages.tolist(), cohort.sexes, cohort.races]
    if any(site is not None for site in cohort.sites):
        header.append("site")
        columns.append(cohort.sites)
    if not np.all(np.isnan(cohort.qc_scores)):
        header.append("qc_score")
        # a NaN, a missing qc_score, is written as an empty cell
        columns.append(cohort.qc_scores.tolist())
    write_csv(covariates_path, header, zip(*columns))
    write_matrix_csv(features_path, list(cohort.ids), list(cohort.regions), cohort.responses)


def qc_filter(cohort: Cohort, min_qc: float | None) -> Cohort:
    """Keep subjects with qc_score >= min_qc; threshold ties are kept."""
    if min_qc is None:
        return cohort
    missing = np.flatnonzero(np.isnan(cohort.qc_scores))
    if missing.size:
        raise InputError(
            f"qc filtering requested but {missing.size} subject(s) have no qc_score "
            f"(first few: {[cohort.ids[i] for i in missing[:5]]})"
        )
    keep = np.flatnonzero(cohort.qc_scores >= min_qc)
    if not keep.size:
        log.warning("qc filter at %s removed every subject", min_qc)
    return cohort.subset(keep)


@dataclass(frozen=True)
class SplitSpec:
    """Per-race train fractions, with a default for unlisted races, and a seed.

    The split is stratified by race only.
    """

    fractions: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    default_fraction: float | None = None

    def __post_init__(self) -> None:
        for label, frac in self.fractions.items():
            if not (0.0 <= frac <= 1.0):
                raise InputError(
                    f"train fraction for '{label}' must be in [0, 1], got {frac}"
                )
        if self.default_fraction is not None and not (0.0 <= self.default_fraction <= 1.0):
            raise InputError(
                f"default train fraction must be in [0, 1], got {self.default_fraction}"
            )
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def stratified_split(cohort: Cohort, spec: SplitSpec) -> tuple[Cohort, Cohort]:
    """Deterministic per-race split: train gets floor(f * n), at least 1 when f > 0.

    Membership within a race group is the first k of a permutation drawn
    from a seeded stream keyed by (seed, the label's index among the declared
    labels in sorted order). So a group's split is independent of the other
    groups, and stays the same when every member of another declared group
    is missing.
    """
    races = np.array(cohort.races, dtype=object)
    labels = sorted(set(cohort.races))
    stream = {label: i for i, label in enumerate(sorted(cohort.schema.race_labels))}
    for label in spec.fractions:
        if label not in labels:
            raise InputError(f"train fraction given for absent race label '{label}'")

    train_idx: list[int] = []
    for label in labels:
        members = np.flatnonzero(races == label)
        frac = spec.fractions.get(label, spec.default_fraction)
        if frac is None:
            raise InputError(f"no train fraction for race label '{label}'")
        # the 1e-9 nudge keeps decimal fractions like 0.3 * 10 from flooring to 2
        k = int(math.floor(frac * len(members) + 1e-9))
        if frac > 0 and k == 0:
            k = 1
        k = min(k, len(members))
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, stream[label]]))
        train_idx.extend(rng.permutation(members)[:k].tolist())
        if k == len(members):
            log.warning("race group '%s' has an empty test split", label)

    in_test = np.ones(cohort.n_subjects, dtype=bool)
    in_test[train_idx] = False
    test_idx = np.flatnonzero(in_test)
    if not test_idx.size:
        log.warning("test split is empty")
    return cohort.subset(train_idx), cohort.subset(test_idx)


def demographics_summary(cohort: Cohort) -> dict:
    """Counts and percentages used for cohort description tables."""
    n = cohort.n_subjects
    ages = cohort.ages
    # in the order of the declared labels, which hold every label present
    sexes, races = Counter(cohort.sexes), Counter(cohort.races)
    sex_counts = {label: sexes[label] for label in SEX_LABELS}
    race_counts = {label: races[label] for label in cohort.schema.race_labels}
    pct = lambda c: (100.0 * c / n) if n else 0.0
    return {
        "n": n,
        "age_mean": float(ages.mean()) if n else None,
        "age_sd": float(ages.std(ddof=1)) if n > 1 else None,
        "sex_pct": {k: pct(v) for k, v in sex_counts.items()},
        "race_pct": {k: pct(v) for k, v in race_counts.items()},
        "race_counts": race_counts,
    }

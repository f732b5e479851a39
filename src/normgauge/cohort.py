"""Cohort data model: subjects, responses, CSV I/O, QC filtering, splits.

Covariates CSV contract: header `id,age,sex,race[,site][,qc_score]`; site and
qc_score are optional columns. Features CSV contract: header `id,<region>,...`
with one numeric column per region. Subjects present in only one file are
dropped (counted in a warning); rows missing a required covariate value
are likewise dropped and counted. A cohort's subjects are always held in
sorted-id order, which is the canonical order for every downstream output.

The join needs only the features file's ids, so load_cohort can hand the
joined subjects, as a Cohort with no regions, to a `keep` function (QC and the
split for `fit`, the --ids subset for `evaluate`) and parse the feature rows of
the subjects it keeps, and no others. A cell of a row not kept is never parsed
or checked; every row's id and cell count still is.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, SchemaError
from .serialize import read_matrix_csv, read_text, write_csv, write_matrix_csv

log = logging.getLogger(__name__)

REQUIRED_COVARIATES = ("id", "age", "sex", "race")
OPTIONAL_COVARIATES = ("site", "qc_score")


@dataclass(frozen=True)
class CohortSchema:
    """Declared categorical label sets. Race is extensible; sex is binary-coded."""

    sex_labels: tuple[str, ...] = ("F", "M")
    race_labels: tuple[str, ...] = ("A", "B", "W")


@dataclass(frozen=True)
class Subject:
    id: str
    age: float
    sex: str
    race: str
    site: str | None = None
    qc_score: float | None = None


@dataclass(frozen=True)
class Cohort:
    """Aligned subjects and responses; responses[i, d] belongs to subjects[i]."""

    subjects: tuple[Subject, ...]
    regions: tuple[str, ...]
    responses: np.ndarray
    schema: CohortSchema = field(default_factory=CohortSchema)

    def __post_init__(self) -> None:
        responses = np.asarray(self.responses, dtype=float)
        if responses.shape != (len(self.subjects), len(self.regions)):
            raise SchemaError(
                f"responses shape {responses.shape} does not match "
                f"{len(self.subjects)} subjects x {len(self.regions)} regions"
            )
        if responses.size and not np.all(np.isfinite(responses)):
            raise InputError("responses contain non-finite values")
        if len(set(self.regions)) != len(self.regions):
            raise SchemaError("duplicate region names")
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate subject ids")
        responses = responses.copy()
        responses.setflags(write=False)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.subjects)

    def ages(self) -> np.ndarray:
        return np.array([s.age for s in self.subjects], dtype=float)

    def races(self) -> tuple[str, ...]:
        return tuple(s.race for s in self.subjects)

    def subset(self, indices: Sequence[int]) -> "Cohort":
        """New cohort from a subset of rows, preserving canonical order."""
        idx = sorted(int(i) for i in indices)
        return Cohort(
            subjects=tuple(self.subjects[i] for i in idx),
            regions=self.regions,
            responses=self.responses[idx],
            schema=self.schema,
        )

    def subset_by_ids(self, ids: Sequence[str]) -> "Cohort":
        index = {s.id: i for i, s in enumerate(self.subjects)}
        missing = [sid for sid in ids if sid not in index]
        if missing:
            raise InputError(
                f"{len(missing)} requested id(s) not in cohort "
                f"(first few: {missing[:5]})"
            )
        return self.subset([index[sid] for sid in ids])

    def content_hash(self) -> str:
        """Order-stable SHA-256 over all subject fields and response bytes."""
        h = hashlib.sha256()
        for s in self.subjects:
            h.update(
                "|".join(
                    [
                        s.id,
                        repr(s.age),
                        s.sex,
                        s.race,
                        s.site or "",
                        "" if s.qc_score is None else repr(s.qc_score),
                    ]
                ).encode()
            )
            h.update(b"\n")
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


def read_covariates(
    path: Path, schema: CohortSchema
) -> tuple[dict[str, Subject], int]:
    """Parse a covariates CSV into id -> Subject plus an incomplete-row count.

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

        subjects: dict[str, Subject] = {}
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
            if sid in subjects:
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
            if sex not in schema.sex_labels:
                raise InputError(
                    f"{path} row {line_no}, column 'sex': "
                    f"'{sex}' not in declared labels {list(schema.sex_labels)}"
                )
            if race not in schema.race_labels:
                raise InputError(
                    f"{path} row {line_no}, column 'race': "
                    f"'{race}' not in declared labels {list(schema.race_labels)}"
                )
            site = (row[i_site].strip() or None) if i_site is not None else None
            qc_text = row[i_qc].strip() if i_qc is not None else ""
            qc = _parse_float(qc_text, path, line_no, "qc_score") if qc_text else None
            subjects[sid] = Subject(
                id=sid, age=age, sex=sex, race=race, site=site, qc_score=qc
            )
    return subjects, incomplete


def load_cohort(
    covariates_path: str | Path,
    features_path: str | Path,
    schema: CohortSchema | None = None,
    keep: Callable[[Cohort], Cohort] | None = None,
) -> Cohort:
    """Inner-join covariates and features on id; canonical sorted-id order.

    keep, where given, chooses the subjects whose feature rows are parsed;
    see _join_features.
    """
    schema = schema or CohortSchema()
    cov_path, feat_path = Path(covariates_path), Path(features_path)
    # both files must exist before either is parsed
    if not cov_path.exists():
        raise InputError(f"file not found: {cov_path}")
    if not feat_path.exists():
        raise InputError(f"file not found: {feat_path}")
    subjects, incomplete = read_covariates(cov_path, schema)
    return _join_features(subjects, incomplete, feat_path, schema, keep)


def _join_features(
    subjects: dict[str, Subject],
    incomplete: int,
    feat_path: Path,
    schema: CohortSchema,
    keep: Callable[[Cohort], Cohort] | None = None,
) -> Cohort:
    """Join read_covariates' subjects to a features CSV on id, warning of the
    subjects dropped and of the incomplete covariate rows.

    The join needs only the features file's ids. keep, where given, maps the
    joined subjects, as a Cohort with no regions, to the cohort of those whose
    feature rows are wanted; only their rows are parsed and checked, and the
    cohort returned holds them.
    """
    joined: Cohort | None = None

    def rows(feat_ids: list[str]) -> list[int]:
        nonlocal joined
        feat_index = {sid: i for i, sid in enumerate(feat_ids)}
        common = sorted(set(subjects) & set(feat_index))
        unmatched = (len(subjects) - len(common)) + (len(feat_ids) - len(common))
        if unmatched:
            log.warning(
                "dropped %d subject(s) present in only one input file", unmatched
            )
        if incomplete:
            log.warning("dropped %d row(s) with missing required covariates", incomplete)
        joined = Cohort(
            subjects=tuple(subjects[sid] for sid in common),
            regions=(),
            responses=np.empty((len(common), 0)),
            schema=schema,
        )
        if keep is not None:
            joined = keep(joined)
        return [feat_index[s.id] for s in joined.subjects]

    _, regions, values = read_matrix_csv(feat_path, rows)
    if values.size and not np.all(np.isfinite(values)):
        raise InputError(f"{feat_path}: non-finite feature values")
    return Cohort(
        subjects=joined.subjects, regions=tuple(regions), responses=values, schema=schema
    )


def save_cohort(
    cohort: Cohort, covariates_path: str | Path, features_path: str | Path
) -> None:
    """Write the two canonical CSVs; load_cohort(save_cohort(c)) round-trips exactly."""
    has_site = any(s.site is not None for s in cohort.subjects)
    has_qc = any(s.qc_score is not None for s in cohort.subjects)
    header = list(REQUIRED_COVARIATES)
    if has_site:
        header.append("site")
    if has_qc:
        header.append("qc_score")
    rows = []
    for s in cohort.subjects:
        row: list = [s.id, s.age, s.sex, s.race]
        if has_site:
            row.append(s.site)
        if has_qc:
            row.append(s.qc_score)
        rows.append(row)
    write_csv(covariates_path, header, rows)
    write_matrix_csv(features_path, list(cohort.ids), list(cohort.regions), cohort.responses)


def qc_filter(cohort: Cohort, min_qc: float | None) -> Cohort:
    """Keep subjects with qc_score >= min_qc; threshold ties are kept."""
    if min_qc is None:
        return cohort
    missing = [s.id for s in cohort.subjects if s.qc_score is None]
    if missing:
        raise InputError(
            f"qc filtering requested but {len(missing)} subject(s) have no qc_score "
            f"(first few: {missing[:5]})"
        )
    keep = [i for i, s in enumerate(cohort.subjects) if s.qc_score >= min_qc]
    if not keep:
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


def stratified_split(cohort: Cohort, spec: SplitSpec) -> tuple[Cohort, Cohort]:
    """Deterministic per-race split: train gets floor(f * n), at least 1 when f > 0.

    Membership within a race group is the first k of a permutation drawn
    from a seeded stream keyed by (seed, group index in sorted label order),
    so it is independent of the other groups.
    """
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(cohort.subjects):
        groups.setdefault(s.race, []).append(i)
    for label in spec.fractions:
        if label not in groups:
            raise InputError(f"train fraction given for absent race label '{label}'")

    train_idx: list[int] = []
    for gi, label in enumerate(sorted(groups)):
        members = groups[label]
        frac = spec.fractions.get(label, spec.default_fraction)
        if frac is None:
            raise InputError(f"no train fraction for race label '{label}'")
        # the 1e-9 nudge keeps decimal fractions like 0.3 * 10 from flooring to 2
        k = int(math.floor(frac * len(members) + 1e-9))
        if frac > 0 and k == 0:
            k = 1
        k = min(k, len(members))
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, gi]))
        order = [int(i) for i in rng.permutation(members)]
        train_idx.extend(order[:k])
        if k == len(members):
            log.warning("race group '%s' has an empty test split", label)

    train_set = set(train_idx)
    test_idx = [i for i in range(cohort.n_subjects) if i not in train_set]
    if not test_idx:
        log.warning("test split is empty")
    return cohort.subset(train_idx), cohort.subset(test_idx)


def demographics_summary(cohort: Cohort) -> dict:
    """Counts and percentages used for cohort description tables."""
    n = cohort.n_subjects
    ages = cohort.ages()
    sex_counts: dict[str, int] = {label: 0 for label in cohort.schema.sex_labels}
    race_counts: dict[str, int] = {label: 0 for label in cohort.schema.race_labels}
    for s in cohort.subjects:
        sex_counts[s.sex] = sex_counts.get(s.sex, 0) + 1
        race_counts[s.race] = race_counts.get(s.race, 0) + 1
    pct = lambda c: (100.0 * c / n) if n else 0.0
    return {
        "n": n,
        "age_mean": float(ages.mean()) if n else None,
        "age_sd": float(ages.std(ddof=1)) if n > 1 else None,
        "sex_pct": {k: pct(v) for k, v in sex_counts.items()},
        "race_pct": {k: pct(v) for k, v in race_counts.items()},
        "race_counts": race_counts,
    }

"""Design matrices: clamped cubic B-spline age basis plus categorical encodings.

The age basis is a clamped B-spline: `degree` repeated boundary knots around
`n_knots` evenly spaced interior anchors, giving n_knots + degree - 1 columns
that sum to 1 at every age in range (partition of unity). Ages outside the
fitted range are clamped to the nearest boundary rather than extrapolated,
and the clamp count is reported. Categorical covariates enter as one-hot
columns with a dropped reference level; sex is a single indicator (M = 1).
The fitted schema is serializable so train and test expansions are identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.interpolate import BSpline

from .cohort import Cohort, Subject
from .errors import InputError, SchemaError

log = logging.getLogger(__name__)

ALLOWED_COVARIATE_SETS = (
    ("age", "sex"),
    ("age", "sex", "site"),
    ("age", "sex", "race"),
)


@dataclass(frozen=True)
class BasisConfig:
    """Spline basis shape; knot_range defaults to the training age range."""

    n_knots: int = 5
    degree: int = 3
    knot_range: tuple[float, float] | None = None
    include_linear_age: bool = True

    def __post_init__(self) -> None:
        if self.n_knots < 2:
            raise InputError(f"n_knots must be >= 2, got {self.n_knots}")
        if self.degree < 1:
            raise InputError(f"degree must be >= 1, got {self.degree}")
        if self.knot_range is not None and not self.knot_range[0] < self.knot_range[1]:
            raise InputError(f"degenerate knot range {self.knot_range}")


@dataclass(frozen=True)
class ModelConfig:
    """Which covariates enter the design, and how race is referenced."""

    covariates: tuple[str, ...] = ("age", "sex")
    basis: BasisConfig = field(default_factory=BasisConfig)
    race_reference_level: str = "W"

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.covariates))
        allowed = {tuple(sorted(c)): c for c in ALLOWED_COVARIATE_SETS}
        if ordered not in allowed:
            raise InputError(
                f"covariate set {list(self.covariates)} not supported; "
                f"choose one of {[list(c) for c in ALLOWED_COVARIATE_SETS]}"
            )
        object.__setattr__(self, "covariates", allowed[ordered])

    def to_dict(self) -> dict:
        return {
            "covariates": list(self.covariates),
            "race_reference_level": self.race_reference_level,
            "basis": {
                "n_knots": self.basis.n_knots,
                "degree": self.basis.degree,
                "knot_range": list(self.basis.knot_range)
                if self.basis.knot_range
                else None,
                "include_linear_age": self.basis.include_linear_age,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        basis = d.get("basis", {})
        knot_range = basis.get("knot_range")
        return cls(
            covariates=tuple(d["covariates"]),
            race_reference_level=d.get("race_reference_level", "W"),
            basis=BasisConfig(
                n_knots=int(basis.get("n_knots", 5)),
                degree=int(basis.get("degree", 3)),
                knot_range=tuple(knot_range) if knot_range else None,
                include_linear_age=bool(basis.get("include_linear_age", True)),
            ),
        )


@dataclass(frozen=True)
class DesignSchema:
    """Everything needed to rebuild the exact design columns for new subjects."""

    knots: tuple[float, ...]
    degree: int
    include_linear_age: bool
    sex_positive_label: str = "M"
    site_reference: str | None = None
    site_levels: tuple[str, ...] = ()
    race_reference: str | None = None
    race_levels: tuple[str, ...] = ()

    @property
    def knot_lo(self) -> float:
        return self.knots[self.degree]

    @property
    def knot_hi(self) -> float:
        return self.knots[-(self.degree + 1)]

    @property
    def n_spline(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def column_names(self) -> tuple[str, ...]:
        names = [f"age_spline_{i}" for i in range(self.n_spline)]
        if self.include_linear_age:
            names.append("age")
        names.append(f"sex_{self.sex_positive_label}")
        names.extend(f"site_{s}" for s in self.site_levels)
        names.extend(f"race_{r}" for r in self.race_levels)
        return tuple(names)

    @property
    def n_columns(self) -> int:
        return len(self.column_names)

    def to_dict(self) -> dict:
        return {
            "knots": list(self.knots),
            "degree": self.degree,
            "include_linear_age": self.include_linear_age,
            "sex_positive_label": self.sex_positive_label,
            "site_reference": self.site_reference,
            "site_levels": list(self.site_levels),
            "race_reference": self.race_reference,
            "race_levels": list(self.race_levels),
            "column_names": list(self.column_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DesignSchema":
        return cls(
            knots=tuple(float(k) for k in d["knots"]),
            degree=int(d["degree"]),
            include_linear_age=bool(d["include_linear_age"]),
            sex_positive_label=d.get("sex_positive_label", "M"),
            site_reference=d.get("site_reference"),
            site_levels=tuple(d.get("site_levels", ())),
            race_reference=d.get("race_reference"),
            race_levels=tuple(d.get("race_levels", ())),
        )


@dataclass
class DesignMatrix:
    values: np.ndarray
    schema: DesignSchema
    clamp_count: int = 0
    # the subjects the rows were built from, so a caller handed a design can
    # check that it belongs to a cohort
    subjects: tuple[Subject, ...] = field(default=(), repr=False, compare=False)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.column_names


def spline_basis(ages: np.ndarray, schema: DesignSchema) -> tuple[np.ndarray, int]:
    """Evaluate the clamped spline columns; returns (basis, clamp count)."""
    ages = np.asarray(ages, dtype=float)
    lo, hi = schema.knot_lo, schema.knot_hi
    clamp_count = int(np.count_nonzero((ages < lo) | (ages > hi)))
    clamped = np.clip(ages, lo, hi)
    basis = BSpline.design_matrix(
        clamped, np.asarray(schema.knots, dtype=float), schema.degree
    ).toarray()
    return basis, clamp_count


def apply_design(subjects: Sequence[Subject], schema: DesignSchema) -> DesignMatrix:
    """Expand subjects into design rows under a fitted schema.

    Ages outside the knot range are clamped (spline and linear column alike)
    and counted. Unseen site or race levels raise a schema error naming them.
    """
    ages = np.array([s.age for s in subjects], dtype=float)
    basis, clamp_count = spline_basis(ages, schema)
    if clamp_count:
        log.warning("clamped %d age(s) outside the fitted range", clamp_count)
    cols = [basis]
    if schema.include_linear_age:
        cols.append(np.clip(ages, schema.knot_lo, schema.knot_hi)[:, None])
    sex = np.array(
        [1.0 if s.sex == schema.sex_positive_label else 0.0 for s in subjects]
    )
    cols.append(sex[:, None])

    if schema.site_reference is not None:
        known = {schema.site_reference, *schema.site_levels}
        unseen = sorted({str(s.site) for s in subjects if s.site not in known})
        if unseen:
            raise SchemaError(f"unseen site level(s): {unseen}")
        for level in schema.site_levels:
            cols.append(
                np.array([1.0 if s.site == level else 0.0 for s in subjects])[:, None]
            )
    if schema.race_reference is not None:
        known = {schema.race_reference, *schema.race_levels}
        unseen = sorted({s.race for s in subjects if s.race not in known})
        if unseen:
            raise SchemaError(f"unseen race level(s): {unseen}")
        for level in schema.race_levels:
            cols.append(
                np.array([1.0 if s.race == level else 0.0 for s in subjects])[:, None]
            )
    values = np.hstack(cols) if subjects else np.empty((0, schema.n_columns))
    return DesignMatrix(
        values=values, schema=schema, clamp_count=clamp_count, subjects=tuple(subjects)
    )


def fit_design(cohort: Cohort, config: ModelConfig) -> DesignMatrix:
    """Fit the schema on a training cohort and expand it; schema rides along."""
    if cohort.n_subjects == 0:
        raise InputError("cannot fit a design on an empty cohort")
    basis_cfg = config.basis
    if basis_cfg.knot_range is not None:
        lo, hi = basis_cfg.knot_range
    else:
        ages = cohort.ages()
        lo, hi = float(ages.min()), float(ages.max())
    if not lo < hi:
        raise InputError(f"degenerate age range [{lo}, {hi}]")
    knots = (
        [lo] * basis_cfg.degree
        + list(np.linspace(lo, hi, basis_cfg.n_knots))
        + [hi] * basis_cfg.degree
    )

    site_reference = None
    site_levels: tuple[str, ...] = ()
    if "site" in config.covariates:
        missing = [s.id for s in cohort.subjects if s.site is None]
        if missing:
            raise InputError(
                f"site covariate requested but {len(missing)} subject(s) have no site "
                f"(first few: {missing[:5]})"
            )
        observed = sorted({str(s.site) for s in cohort.subjects})
        site_reference = observed[0]
        site_levels = tuple(observed[1:])

    race_reference = None
    race_levels: tuple[str, ...] = ()
    if "race" in config.covariates:
        labels = sorted(cohort.schema.race_labels)
        if config.race_reference_level not in labels:
            raise InputError(
                f"race reference level '{config.race_reference_level}' "
                f"not in declared labels {labels}"
            )
        race_reference = config.race_reference_level
        race_levels = tuple(l for l in labels if l != race_reference)

    schema = DesignSchema(
        knots=tuple(float(k) for k in knots),
        degree=basis_cfg.degree,
        include_linear_age=basis_cfg.include_linear_age,
        site_reference=site_reference,
        site_levels=site_levels,
        race_reference=race_reference,
        race_levels=race_levels,
    )
    return apply_design(cohort.subjects, schema)

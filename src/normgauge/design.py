"""Design matrices: clamped cubic B-spline age basis plus categorical encodings.

The age basis is a clamped B-spline: `degree` repeated boundary knots around
`n_knots` evenly spaced interior anchors, giving n_knots + degree - 1 columns
that sum to 1 at every age in range (partition of unity). Ages outside the
fitted range are clamped to the nearest boundary rather than extrapolated,
and the clamp count is reported. The basis is evaluated in numpy by de Boor's
recursion (de Boor 1978, *A Practical Guide to Splines*), with its operations
in the order scipy's `BSpline.design_matrix` runs them, so the columns are
bitwise equal to scipy's without importing `scipy.interpolate`. Categorical
covariates enter as one-hot columns, one per level present in the training
cohort, with a dropped reference level; sex is a single indicator (M = 1). A B-spline of degree >= 1 reproduces every linear
function of age, so the spline is the whole age term: a linear-age column
would lie in its span.
The fitted schema is serializable so train and test expansions are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cohort import Cohort
from .errors import InputError, SchemaError

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

    def __post_init__(self) -> None:
        if self.n_knots < 2:
            raise InputError(f"n_knots must be >= 2, got {self.n_knots}")
        if self.degree < 1:
            raise InputError(f"degree must be >= 1, got {self.degree}")
        if self.knot_range is not None:
            if not all(map(math.isfinite, self.knot_range)):
                raise InputError(f"knot range must be finite, got {self.knot_range}")
            if not self.knot_range[0] < self.knot_range[1]:
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
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        basis = d["basis"]
        knot_range = basis["knot_range"]
        return cls(
            covariates=tuple(d["covariates"]),
            race_reference_level=d["race_reference_level"],
            basis=BasisConfig(
                n_knots=int(basis["n_knots"]),
                degree=int(basis["degree"]),
                knot_range=tuple(knot_range) if knot_range else None,
            ),
        )


@dataclass(frozen=True)
class DesignSchema:
    """Everything needed to rebuild the exact design columns for new subjects."""

    knots: tuple[float, ...]
    degree: int
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
            "sex_positive_label": self.sex_positive_label,
            "site_reference": self.site_reference,
            "site_levels": list(self.site_levels),
            "race_reference": self.race_reference,
            "race_levels": list(self.race_levels),
            "column_names": list(self.column_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DesignSchema":
        if d.get("include_linear_age"):
            raise SchemaError(
                "the bundle was fitted with a linear-age column, which this "
                "version no longer builds; refit it"
            )
        knots = tuple(float(k) for k in d["knots"])
        degree = int(d["degree"])
        # spline_basis trusts its knots, so a read schema's are checked here
        t = np.array(knots)
        if degree < 1 or len(knots) < 2 * degree + 2:
            raise SchemaError(
                f"design schema knots {list(knots)} do not fit degree {degree}: "
                "need degree >= 1 and at least 2 * degree + 2 knots"
            )
        if not (np.all(np.isfinite(t)) and np.all(t[1:] >= t[:-1])):
            raise SchemaError(
                f"design schema knots must be finite and non-decreasing, got {list(knots)}"
            )
        if not t[degree] < t[-(degree + 1)]:
            raise SchemaError(
                f"design schema knots {list(knots)} leave an empty age range "
                f"[{t[degree]}, {t[-(degree + 1)]}]"
            )
        return cls(
            knots=knots,
            degree=degree,
            sex_positive_label=d["sex_positive_label"],
            site_reference=d["site_reference"],
            site_levels=tuple(d["site_levels"]),
            race_reference=d["race_reference"],
            race_levels=tuple(d["race_levels"]),
        )


@dataclass
class DesignMatrix:
    values: np.ndarray
    schema: DesignSchema
    clamp_count: int = 0


def spline_basis(ages: np.ndarray, schema: DesignSchema) -> tuple[np.ndarray, int]:
    """Evaluate the clamped spline columns; returns (basis, clamp count).

    Each age is clamped into [knot_lo, knot_hi] and placed in the last knot
    span [t[l], t[l+1]) that holds it, l in [degree, n_spline - 1], so knot_hi
    falls in the last span. The degree + 1 non-zero B-splines of that span,
    columns l - degree .. l, come from de Boor's recursion on degree, with
    each step's operations in the order of scipy's `_deBoor_D`: the result is
    bitwise equal to `BSpline.design_matrix(...).toarray()`. An empty `ages`
    gives a (0, n_spline) basis.
    """
    ages = np.asarray(ages, dtype=float)
    t = np.asarray(schema.knots, dtype=float)
    k = schema.degree
    lo, hi = schema.knot_lo, schema.knot_hi
    clamp_count = int(np.count_nonzero((ages < lo) | (ages > hi)))
    x = np.clip(ages, lo, hi)
    span = np.clip(np.searchsorted(t, x, side="right") - 1, k, schema.n_spline - 1)
    h = np.zeros((x.size, k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            xb = t[span + n]
            xa = t[span + n - j]
            # a zero-width knot interval contributes nothing
            live = xb != xa
            w = np.divide(hh[:, n - 1], xb - xa, out=np.zeros(x.size), where=live)
            h[:, n - 1] = np.where(live, h[:, n - 1] + w * (xb - x), h[:, n - 1])
            h[:, n] = np.where(live, w * (x - xa), 0.0)
    basis = np.zeros((x.size, schema.n_spline))
    np.put_along_axis(basis, span[:, None] - k + np.arange(k + 1), h, axis=1)
    return basis, clamp_count


def apply_design(cohort: Cohort, schema: DesignSchema) -> DesignMatrix:
    """Expand a cohort's covariates into design rows under a fitted schema.

    Ages outside the knot range are clamped to its nearest end before the
    spline is evaluated, and counted in clamp_count; the warning about them
    comes from blr.fit_normative for a training cohort and from
    blr.deviations, once per scoring pass, for a scored one. Unseen site or
    race levels raise a schema error naming them.
    """
    basis, clamp_count = spline_basis(cohort.ages, schema)
    cols = [basis, _indicators(cohort.sexes, (schema.sex_positive_label,))]
    if schema.site_reference is not None:
        known = {schema.site_reference, *schema.site_levels}
        unseen = sorted({str(site) for site in set(cohort.sites) - known})
        if unseen:
            raise SchemaError(f"unseen site level(s): {unseen}")
        cols.append(_indicators(cohort.sites, schema.site_levels))
    if schema.race_reference is not None:
        known = {schema.race_reference, *schema.race_levels}
        unseen = sorted(set(cohort.races) - known)
        if unseen:
            raise SchemaError(f"unseen race level(s): {unseen}")
        cols.append(_indicators(cohort.races, schema.race_levels))
    values = np.hstack(cols)
    return DesignMatrix(values=values, schema=schema, clamp_count=clamp_count)


def _indicators(column: Sequence[str | None], levels: Sequence[str]) -> np.ndarray:
    """The (N, len(levels)) one-hot columns of a label column: 1.0 where a
    row holds the level, else 0.0."""
    labels = np.array(column, dtype=object)[:, None]
    return (labels == np.array(levels, dtype=object)).astype(float)


def fit_design(cohort: Cohort, config: ModelConfig) -> DesignMatrix:
    """Fit the schema on a training cohort and expand it; schema rides along."""
    if cohort.n_subjects == 0:
        raise InputError("cannot fit a design on an empty cohort")
    basis_cfg = config.basis
    if basis_cfg.knot_range is not None:
        lo, hi = basis_cfg.knot_range
    else:
        ages = cohort.ages
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
        missing = [sid for sid, site in zip(cohort.ids, cohort.sites) if site is None]
        if missing:
            raise InputError(
                f"site covariate requested but {len(missing)} subject(s) have no site "
                f"(first few: {missing[:5]})"
            )
        observed = sorted(set(cohort.sites))
        site_reference = observed[0]
        site_levels = tuple(observed[1:])

    race_reference = None
    race_levels: tuple[str, ...] = ()
    if "race" in config.covariates:
        # like site, the levels are those present, so no column is all zero
        present = sorted(set(cohort.races))
        if config.race_reference_level not in present:
            raise InputError(
                f"race reference level '{config.race_reference_level}' "
                f"absent from the training cohort, which holds {present}"
            )
        race_reference = config.race_reference_level
        race_levels = tuple(l for l in present if l != race_reference)

    schema = DesignSchema(
        knots=tuple(float(k) for k in knots),
        degree=basis_cfg.degree,
        site_reference=site_reference,
        site_levels=site_levels,
        race_reference=race_reference,
        race_levels=race_levels,
    )
    return apply_design(cohort, schema)

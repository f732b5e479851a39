"""Subgroup audits: extreme-deviation summaries, Welch tests, FDR, parity.

Group comparisons use Welch's unequal-variance two-sample t statistic with
Welch-Satterthwaite degrees of freedom; subgroup sizes here are routinely very
unbalanced, which is exactly where the pooled-variance test misbehaves.
Multiple testing across regions is handled per contrast-metric pair with the
Benjamini-Hochberg step-up rule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .blr import DeviationMatrix, NormativeModel, deviations, explained_variance
from .cohort import Cohort
from .errors import InputError

log = logging.getLogger(__name__)

DEFAULT_EXTREME_THRESHOLD = 2.0


@dataclass
class GroupSummary:
    """Per group x region: mean deviation and extreme-score proportions.

    Declared groups with no members carry NaN rows; a missing group is
    reported as missing, never as a zero rate.
    """

    groups: tuple[str, ...]
    regions: tuple[str, ...]
    group_sizes: dict[str, int]
    mean_deviation: dict[str, np.ndarray]
    pct_extreme_pos: dict[str, np.ndarray]
    pct_extreme_neg: dict[str, np.ndarray]
    pct_extreme_total: dict[str, np.ndarray]
    threshold: float


def group_summary(
    z_matrix: np.ndarray,
    groups: Sequence[str],
    regions: Sequence[str] | None = None,
    threshold: float = DEFAULT_EXTREME_THRESHOLD,
    group_labels: Sequence[str] | None = None,
) -> GroupSummary:
    """Summarize deviations per group; proportions count |Z| beyond threshold."""
    if threshold <= 0:
        raise InputError(f"extreme threshold must be positive, got {threshold}")
    z_matrix = np.atleast_2d(np.asarray(z_matrix, dtype=float))
    groups = list(groups)
    if len(groups) != z_matrix.shape[0]:
        raise InputError(
            f"{len(groups)} group labels for {z_matrix.shape[0]} deviation rows"
        )
    d_count = z_matrix.shape[1]
    if regions is None:
        regions = tuple(f"region_{i}" for i in range(d_count))
    labels = tuple(group_labels) if group_labels else tuple(sorted(set(groups)))

    sizes: dict[str, int] = {}
    mean_dev: dict[str, np.ndarray] = {}
    pos: dict[str, np.ndarray] = {}
    neg: dict[str, np.ndarray] = {}
    total: dict[str, np.ndarray] = {}
    group_arr = np.asarray(groups)
    for label in labels:
        rows = z_matrix[group_arr == label]
        sizes[label] = rows.shape[0]
        if rows.shape[0] == 0:
            nan_row = np.full(d_count, np.nan)
            mean_dev[label] = nan_row
            pos[label] = nan_row.copy()
            neg[label] = nan_row.copy()
            total[label] = nan_row.copy()
            continue
        mean_dev[label] = rows.mean(axis=0)
        pos[label] = np.mean(rows > threshold, axis=0)
        neg[label] = np.mean(rows < -threshold, axis=0)
        total[label] = pos[label] + neg[label]
    return GroupSummary(
        groups=labels,
        regions=tuple(regions),
        group_sizes=sizes,
        mean_deviation=mean_dev,
        pct_extreme_pos=pos,
        pct_extreme_neg=neg,
        pct_extreme_total=total,
        threshold=threshold,
    )


@dataclass
class WelchResult:
    """Per-region Welch t, two-sided p, and degrees of freedom.

    Untestable regions (a group below 2 members) carry NaN in all three.
    The t sign follows group_one minus group_two.
    """

    contrast: tuple[str, str]
    t: np.ndarray
    p: np.ndarray
    df: np.ndarray

    @property
    def testable(self) -> np.ndarray:
        return np.isfinite(self.p)


def group_difference(
    values: np.ndarray,
    groups: Sequence[str],
    contrast: tuple[str, str],
) -> WelchResult:
    """Welch two-sample test per region (column) for group_one vs group_two."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    group_arr = np.asarray(list(groups))
    if group_arr.shape[0] != values.shape[0]:
        raise InputError(
            f"{group_arr.shape[0]} group labels for {values.shape[0]} rows"
        )
    g1, g2 = contrast
    x = values[group_arr == g1]
    y = values[group_arr == g2]
    d_count = values.shape[1]
    if x.shape[0] < 2 or y.shape[0] < 2:
        nan_row = np.full(d_count, np.nan)
        log.warning(
            "contrast %s vs %s untestable: group sizes %d and %d",
            g1, g2, x.shape[0], y.shape[0],
        )
        return WelchResult(contrast=(g1, g2), t=nan_row, p=nan_row.copy(), df=nan_row.copy())

    n1, n2 = x.shape[0], y.shape[0]
    mean_diff = x.mean(axis=0) - y.mean(axis=0)
    v1 = x.var(axis=0, ddof=1) / n1
    v2 = y.var(axis=0, ddof=1) / n2
    se2 = v1 + v2
    t = np.empty(d_count)
    p = np.empty(d_count)
    df = np.empty(d_count)
    degenerate = se2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_reg = mean_diff / np.sqrt(se2)
        df_reg = np.square(se2) / (np.square(v1) / (n1 - 1) + np.square(v2) / (n2 - 1))
    ok = ~degenerate
    t[ok] = t_reg[ok]
    df[ok] = df_reg[ok]
    # two-sided p from Student's t survival function, as scipy.stats.t.sf does
    p[ok] = 2.0 * special.stdtr(df_reg[ok], -np.abs(t_reg[ok]))
    # zero variance in both groups: equal means are a perfect null, unequal
    # means are an unambiguous difference
    for j in np.nonzero(degenerate)[0]:
        if mean_diff[j] == 0.0:
            t[j], p[j], df[j] = 0.0, 1.0, float(n1 + n2 - 2)
        else:
            t[j] = np.inf if mean_diff[j] > 0 else -np.inf
            p[j], df[j] = 0.0, float(n1 + n2 - 2)
    return WelchResult(contrast=(g1, g2), t=t, p=p, df=df)


def bh_fdr(p_values: np.ndarray, q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up: boolean flags at FDR level q.

    Flags every p at or below the largest p(k) with p(k) <= k*q/m. All-ones
    input yields no flags; ties at the cutoff are all flagged.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise InputError("p-values must be one-dimensional")
    if not (0.0 < q < 1.0):
        raise InputError(f"FDR level must be in (0, 1), got {q}")
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(~np.isfinite(p)) or np.any((p < 0.0) | (p > 1.0)):
        raise InputError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = np.arange(1, m + 1) * (q / m)
    passing = np.nonzero(sorted_p <= thresholds)[0]
    if passing.size == 0:
        return np.zeros(m, dtype=bool)
    cutoff = sorted_p[passing[-1]]
    return p <= cutoff


def significant_fraction(flags: np.ndarray) -> float:
    """Share of testable regions flagged; exactly flagged / total."""
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return float("nan")
    return float(np.count_nonzero(flags)) / flags.size


@dataclass
class ParityReport:
    """Per-group aggregate performance plus max-min gaps across groups.

    A metric no group has (EV and MSLL without a model) has gap None.
    """

    groups: tuple[str, ...]
    per_group: dict[str, dict]
    gaps: dict[str, float | None]
    threshold: float


_PARITY_METRICS = ("explained_variance", "msll", "mean_abs_deviation", "extreme_rate")


def group_parity(
    z_matrix: np.ndarray,
    groups: Sequence[str],
    threshold: float = DEFAULT_EXTREME_THRESHOLD,
    scored: DeviationMatrix | None = None,
) -> ParityReport:
    """Per-group parity as reductions over each group's rows.

    Mean |Z|, mean Z and the extreme rate pool all of a group's cells of
    z_matrix. EV and MSLL need the model's scoring pass of the same rows,
    `scored`: each is the mean over regions of the per-region metric on the
    group's rows. Without it they are None.
    """
    z_matrix = np.atleast_2d(np.asarray(z_matrix, dtype=float))
    group_arr = np.asarray(list(groups))
    if group_arr.shape[0] != z_matrix.shape[0]:
        raise InputError(
            f"{group_arr.shape[0]} group labels for {z_matrix.shape[0]} deviation rows"
        )
    labels = tuple(sorted(set(group_arr.tolist())))
    per_group: dict[str, dict] = {}
    for label in labels:
        mask = group_arr == label
        z = z_matrix[mask]
        entry: dict = {"n": int(z.shape[0]), "explained_variance": None, "msll": None}
        if scored is not None:
            regions = range(scored.y.shape[1])
            evs = [
                explained_variance(scored.y[mask, j], scored.yhat[mask, j])
                for j in regions
            ]
            evs = [ev for ev in evs if ev is not None]
            entry["explained_variance"] = float(np.mean(evs)) if evs else None
            entry["msll"] = float(
                np.mean([np.mean(scored.log_loss[mask, j]) for j in regions])
            )
        entry["mean_abs_deviation"] = float(np.mean(np.abs(z)))
        entry["mean_deviation"] = float(np.mean(z))
        entry["extreme_rate"] = float(np.mean(np.abs(z) > threshold))
        per_group[label] = entry

    gaps: dict[str, float | None] = {}
    for metric in _PARITY_METRICS:
        vals = [e[metric] for e in per_group.values() if e[metric] is not None]
        gaps[metric] = float(max(vals) - min(vals)) if vals else None
    return ParityReport(groups=labels, per_group=per_group, gaps=gaps, threshold=threshold)


def parity_report(
    model: NormativeModel,
    cohort: Cohort,
    threshold: float = DEFAULT_EXTREME_THRESHOLD,
    groups: Sequence[str] | None = None,
) -> ParityReport:
    """Score the cohort once and report parity across race groups.

    `groups` overrides the cohort's race labels; see group_parity.
    """
    scored = deviations(model, cohort)
    group_of = list(groups) if groups is not None else list(cohort.races())
    return group_parity(scored.Z, group_of, threshold, scored)

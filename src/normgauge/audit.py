"""Subgroup audits: extreme-deviation summaries, Welch tests, FDR, parity.

audit_tables is the audit: from deviations Z, errors E and each row's group it
returns every table `normgauge audit` writes, the per-group extreme rates,
the per-region Welch tests with their FDR flags, Table 4's % of significant
regions and the per-group parity, from one pass over the groups' rows.
group_difference, bh_fdr and t_two_sided_p are its steps.

Group comparisons use Welch's unequal-variance two-sample t statistic with
Welch-Satterthwaite degrees of freedom; subgroup sizes here are routinely very
unbalanced, which is exactly where the pooled-variance test misbehaves.
Multiple testing across regions is handled per contrast-metric pair with the
Benjamini-Hochberg step-up rule.

The two-sided p of a t statistic is the regularized incomplete beta function
I_x(df/2, 1/2) at x = df / (df + t^2), computed in numpy by t_two_sided_p. It
takes the symmetry switch of Numerical Recipes section 6.4: below x = (a + 1)
/ (a + b + 2) a continued fraction gives p itself, above it the fraction of
the mirrored function gives 1 - p. The fraction is Abramowitz & Stegun 26.5.9
in z = x / (1 - x), evaluated by the modified Lentz method. For I_x(a, 1/2)
its partial numerators are all positive, so the p side never subtracts; the
fraction in x that Numerical Recipes uses loses about df * 1e-16 relative
there. ln B(a, 1/2) comes from its asymptotic series at a >= 20, where lgamma
differences lose digits. Against scipy's 2 * stdtr(df, -|t|), p is within a
relative 4e-13 for df in [1, 1e7] and |t| up to 1e3 wherever p >= 1e-300, and
no pair takes more than 62 iterations.

The parity's mean |Z|, mean Z and extreme rate are reductions of Z. Its EV
and MSLL are the model's: they arrive as a per-group fit (the group_fit of a
blr.deviations scoring pass, or the same values that `evaluate` wrote to
group_fit.json), so this module imports nothing from blr.
"""

from __future__ import annotations

import collections
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, NumericalError

log = logging.getLogger(__name__)


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
    """Welch two-sample test per region (column) for group_one vs group_two.

    A group with fewer than two members leaves the contrast untestable: t, p
    and df are NaN in every region, and `testable` is all False. The caller,
    which knows how often it tests the same groups, reports it.
    """
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
        # Welch-Satterthwaite df with each variance taken relative to se2
        # first, so no square underflows however small the values are
        r1, r2 = v1 / se2, v2 / se2
        df_reg = 1.0 / (np.square(r1) / (n1 - 1) + np.square(r2) / (n2 - 1))
    ok = ~degenerate
    t[ok] = t_reg[ok]
    df[ok] = df_reg[ok]
    p[ok] = t_two_sided_p(t_reg[ok], df_reg[ok])
    # zero variance in both groups: equal means are a perfect null, unequal
    # means are an unambiguous difference
    for j in np.nonzero(degenerate)[0]:
        if mean_diff[j] == 0.0:
            t[j], p[j], df[j] = 0.0, 1.0, float(n1 + n2 - 2)
        else:
            t[j] = np.inf if mean_diff[j] > 0 else -np.inf
            p[j], df[j] = 0.0, float(n1 + n2 - 2)
    return WelchResult(contrast=(g1, g2), t=t, p=p, df=df)


# tolerance and iteration cap of the continued fraction in t_two_sided_p; no
# (t, df) pair needs more than 62 iterations
_CF_TOL = 1e-15
_CF_MAX_ITER = 300
# the modified Lentz method's stand-in for a zero denominator
_CF_TINY = 1e-300
_HALF_LOG_PI = 0.5 * math.log(math.pi)


def t_two_sided_p(t, df) -> np.ndarray:
    """Two-sided p of Student's t, P(|T| >= |t|) at df degrees of freedom.

    Elementwise over the broadcast t and df; see the module docstring for the
    method and its accuracy. t = 0 gives exactly 1 and |t| = inf gives 0;
    infinite df gives the normal tail. A NaN or a df <= 0 gives NaN. Raises
    NumericalError if the continued fraction does not converge.
    """
    t, df = np.broadcast_arrays(
        np.abs(np.asarray(t, dtype=float)), np.asarray(df, dtype=float)
    )
    p = np.full(t.shape, np.nan)
    valid = df > 0.0
    p[valid & (t == 0.0)] = 1.0
    p[valid & np.isinf(t)] = 0.0
    inner = valid & (t > 0.0) & np.isfinite(t)
    normal = inner & np.isinf(df)
    p[normal] = [math.erfc(v / math.sqrt(2.0)) for v in t[normal]]
    body = inner & np.isfinite(df)
    p[body] = _finite_t_tail(t[body], df[body])
    return p


def _finite_t_tail(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """I_x(a, 1/2) at a = df / 2 and x = 1 / (1 + s), s = t^2 / df; t, df > 0."""
    a = 0.5 * df
    with np.errstate(over="ignore"):
        s = np.square(t) / df
    # ln s stays finite where s over- or underflows
    log_s = 2.0 * np.log(t) - np.log(df)
    log1p_s = np.where(np.isinf(s), log_s, np.log1p(s))
    # x^a (1 - x)^(1/2) / B(a, 1/2), with ln x = -log1p(s)
    front = np.exp(-a * log1p_s + 0.5 * (log_s - log1p_s) - _log_beta_half(a))
    # x < (a + 1) / (a + b + 2): expand I_x(a, 1/2), else I_(1-x)(1/2, a)
    direct = (a + 1.0) * s > 1.5
    a_cf = np.where(direct, a, 0.5)
    z = np.where(direct, 1.0 / np.where(direct, s, 1.0), s)
    tail = front * (1.0 + z) / a_cf * _beta_cf(a_cf, np.where(direct, 0.5, a), z)
    return np.where(direct, tail, 1.0 - tail)


def _log_beta_half(a: np.ndarray) -> np.ndarray:
    """ln B(a, 1/2) = ln Gamma(a) + ln Gamma(1/2) - ln Gamma(a + 1/2), for a > 0.

    From a = 20 on, ln Gamma(a + 1/2) - ln Gamma(a) is its asymptotic series
    to the 1/a^7 term, which is within 4e-15 of it there.
    """
    out = np.empty(a.shape)
    small = a < 20.0
    out[small] = [math.lgamma(v) - math.lgamma(v + 0.5) for v in a[small]]
    big = a[~small]
    inv = 1.0 / big
    inv2 = inv * inv
    out[~small] = -0.5 * np.log(big) + inv * (
        1 / 8 - inv2 * (1 / 192 - inv2 * (1 / 640 - inv2 * (17 / 14336)))
    )
    return out + _HALF_LOG_PI


def _nonzero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)


def _beta_cf(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1 / (1 + e1 / (1 + e2 / (1 + ...))) of Abramowitz & Stegun 26.5.9.

    I_x(a, b) = x^a (1 - x)^b (1 + z) / (a B(a, b)) times this fraction, with
    z = x / (1 - x), e_(2m+1) = -(a + m)(b - 1 - m) z / ((a + 2m)(a + 2m + 1))
    and e_(2m) = m (a + b - 1 + m) z / ((a + 2m - 1)(a + 2m)). Modified Lentz,
    two terms per iteration as in Numerical Recipes' betacf; each entry stops
    once its last step changes the value by at most _CF_TOL.
    """
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    c = np.ones(a.shape)
    d = 1.0 / _nonzero(1.0 - (b - 1.0) * z / (a + 1.0))
    h = d.copy()
    for m in range(1, _CF_MAX_ITER + 1):
        for e in (
            m * (a + b - 1.0 + m) * z / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (b - 1.0 - m) * z / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / _nonzero(1.0 + e * d)
            c = _nonzero(1.0 + e / c)
            step = d * c
            h = h * step
        done = np.abs(step - 1.0) <= _CF_TOL
        out[idx[done]] = h[done]
        keep = ~done
        if not keep.any():
            return out
        idx, a, b, z, c, d, h = (v[keep] for v in (idx, a, b, z, c, d, h))
    raise NumericalError(
        f"t tail: the continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations for {idx.size} (t, df) pairs"
    )


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


@dataclass
class AuditTables:
    """Every table of a subgroup audit, as `normgauge audit` writes them.

    summary, tests and table4 are each a (header, rows) pair, the contents of
    audit_summary.csv, audit_tests.csv and table4.csv; parity is the whole
    parity.json document.
    """

    summary: tuple[tuple[str, ...], list[list]]
    tests: tuple[tuple[str, ...], list[list]]
    table4: tuple[tuple[str, ...], list[list]]
    parity: dict


_PARITY_METRICS = ("explained_variance", "msll", "mean_abs_deviation", "extreme_rate")


def audit_tables(
    z: np.ndarray,
    e: np.ndarray,
    groups: Sequence[str],
    regions: Sequence[str],
    contrasts: Sequence[tuple[str, str]],
    q: float = 0.05,
    threshold: float = 2.0,
    fit: Mapping[str, Mapping] | None = None,
) -> AuditTables:
    """The audit of deviations z and errors e (subjects x regions) by group.

    Per group, in sorted order: each region's mean deviation and the shares
    of its Z beyond +threshold and below -threshold (audit_summary), and the
    group's parity entry, whose mean |Z|, mean Z and extreme rate pool all of
    the group's cells. Per metric (Z, then E) and contrast: each region's
    Welch t, p and BH-FDR flag at level q over the testable regions (tests),
    and Table 4's % of testable regions flagged, empty where none is
    testable (table4). A contrast with a group of fewer than two members is
    untestable, and one warning says so, whatever the number of metrics.

    EV and MSLL need the model: `fit` is the per-group fit of its scoring
    pass of the same rows (DeviationMatrix.group_fit), or the same values
    read back, and must hold every group with its size. Without `fit` they
    are None. The threshold must be finite and positive, q in (0, 1), every
    contrast's groups among the labels, and there must be a region.
    """
    if not 0 < threshold < math.inf:
        raise InputError(f"extreme threshold must be finite and positive, got {threshold}")
    if not 0.0 < q < 1.0:
        raise InputError(f"FDR level must be in (0, 1), got {q}")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    e = np.atleast_2d(np.asarray(e, dtype=float))
    regions = list(regions)
    if not regions:
        raise InputError("the deviation matrix has no region columns")
    if z.shape != e.shape or z.shape[1] != len(regions):
        raise InputError(
            f"deviations {z.shape}, errors {e.shape} and {len(regions)} regions disagree"
        )
    group_arr = np.asarray(list(groups))
    if group_arr.shape[0] != z.shape[0]:
        raise InputError(f"{group_arr.shape[0]} group labels for {z.shape[0]} deviation rows")
    sizes = collections.Counter(group_arr.tolist())
    for g1, g2 in contrasts:
        for g in (g1, g2):
            if g not in sizes:
                raise InputError(f"contrast group '{g}' absent from the scored cohort")
        if min(sizes[g1], sizes[g2]) < 2:
            log.warning(
                "contrast %s vs %s untestable: group sizes %d and %d",
                g1, g2, sizes[g1], sizes[g2],
            )
    if fit is not None and {label: g["n"] for label, g in fit.items()} != sizes:
        raise InputError(f"the per-group fit is not of these rows' groups {dict(sizes)}")

    summary: list[list] = []
    per_group: dict[str, dict] = {}
    for label in sorted(sizes):
        rows = z[group_arr == label]
        pos = np.mean(rows > threshold, axis=0)
        neg = np.mean(rows < -threshold, axis=0)
        summary.extend(
            [label, region, rows.shape[0], *cells]
            for region, *cells in zip(regions, rows.mean(axis=0), pos, neg, pos + neg)
        )
        abs_rows = np.abs(rows)
        per_group[label] = {
            "n": int(rows.shape[0]),
            "explained_variance": None if fit is None else fit[label]["explained_variance"],
            "msll": None if fit is None else fit[label]["msll"],
            "mean_abs_deviation": float(np.mean(abs_rows)),
            "mean_deviation": float(np.mean(rows)),
            "extreme_rate": float(np.mean(abs_rows > threshold)),
        }
    gaps: dict[str, float | None] = {}
    for metric in _PARITY_METRICS:
        vals = [entry[metric] for entry in per_group.values() if entry[metric] is not None]
        gaps[metric] = float(max(vals) - min(vals)) if vals else None

    tests: list[list] = []
    table4: list[list] = []
    for metric, values in (("deviation", z), ("error", e)):
        for contrast in contrasts:
            welch = group_difference(values, group_arr, contrast)
            testable = welch.testable
            flags = np.zeros(len(regions), dtype=bool)
            pct = math.nan
            if testable.any():
                flags[testable] = bh_fdr(welch.p[testable], q)
                pct = 100.0 * (np.count_nonzero(flags) / np.count_nonzero(testable))
            label = f"{contrast[0]}:{contrast[1]}"
            tests.extend(
                [label, metric, region, t, p, int(flag)]
                for region, t, p, flag in zip(regions, welch.t, welch.p, flags)
            )
            table4.append([label, metric, pct])

    return AuditTables(
        summary=(
            ("group", "region", "n", "mean_deviation",
             "pct_extreme_pos", "pct_extreme_neg", "pct_extreme_total"),
            summary,
        ),
        tests=(("contrast", "metric", "region", "t", "p", "fdr_flag"), tests),
        table4=(("contrast", "metric", "pct_significant"), table4),
        parity={
            "threshold": threshold,
            "q": q,
            "method": {"test": "welch_two_sample", "correction": "benjamini_hochberg"},
            "per_group": per_group,
            "gaps": gaps,
        },
    )

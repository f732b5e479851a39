"""Subgroup audits: extreme-deviation summaries, Welch tests, FDR, parity.

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

Parity (group_parity) reduces the deviations by group itself. Its EV and
MSLL are the model's: they arrive as a per-group fit (the group_fit of a
blr.deviations scoring pass, or the same values that `evaluate` wrote to
group_fit.json), so this module imports nothing from blr.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, NumericalError

DEFAULT_EXTREME_THRESHOLD = 2.0


@dataclass
class GroupSummary:
    """Per group x region: mean deviation and extreme-score proportions.

    The groups are the distinct labels of the rows, in sorted order.
    """

    groups: tuple[str, ...]
    regions: tuple[str, ...]
    group_sizes: dict[str, int]
    mean_deviation: dict[str, np.ndarray]
    pct_extreme_pos: dict[str, np.ndarray]
    pct_extreme_neg: dict[str, np.ndarray]
    pct_extreme_total: dict[str, np.ndarray]


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < math.inf:
        raise InputError(f"extreme threshold must be finite and positive, got {threshold}")


def group_summary(
    z_matrix: np.ndarray,
    groups: Sequence[str],
    regions: Sequence[str] | None = None,
    threshold: float = DEFAULT_EXTREME_THRESHOLD,
) -> GroupSummary:
    """Summarize deviations per group; proportions count |Z| beyond threshold."""
    _check_threshold(threshold)
    z_matrix = np.atleast_2d(np.asarray(z_matrix, dtype=float))
    groups = list(groups)
    if len(groups) != z_matrix.shape[0]:
        raise InputError(
            f"{len(groups)} group labels for {z_matrix.shape[0]} deviation rows"
        )
    if regions is None:
        regions = tuple(f"region_{i}" for i in range(z_matrix.shape[1]))
    labels = tuple(sorted(set(groups)))

    sizes: dict[str, int] = {}
    mean_dev: dict[str, np.ndarray] = {}
    pos: dict[str, np.ndarray] = {}
    neg: dict[str, np.ndarray] = {}
    total: dict[str, np.ndarray] = {}
    group_arr = np.asarray(groups)
    for label in labels:
        rows = z_matrix[group_arr == label]
        sizes[label] = rows.shape[0]
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


_PARITY_METRICS = ("explained_variance", "msll", "mean_abs_deviation", "extreme_rate")


def group_parity(
    z_matrix: np.ndarray,
    groups: Sequence[str],
    threshold: float = DEFAULT_EXTREME_THRESHOLD,
    fit: Mapping[str, Mapping] | None = None,
) -> ParityReport:
    """Per-group parity as reductions over each group's rows.

    Mean |Z|, mean Z and the extreme rate pool all of a group's cells of
    z_matrix. EV and MSLL need the model: `fit` is the per-group fit of its
    scoring pass of the same rows (DeviationMatrix.group_fit), or the same
    values read back, and must hold every group with its size. Without
    `fit` they are None. The threshold must be finite and positive.
    """
    _check_threshold(threshold)
    z_matrix = np.atleast_2d(np.asarray(z_matrix, dtype=float))
    group_arr = np.asarray(list(groups))
    if group_arr.shape[0] != z_matrix.shape[0]:
        raise InputError(
            f"{group_arr.shape[0]} group labels for {z_matrix.shape[0]} deviation rows"
        )
    sizes = collections.Counter(group_arr.tolist())
    labels = tuple(sorted(sizes))
    if fit is not None and {label: g["n"] for label, g in fit.items()} != sizes:
        raise InputError(f"the per-group fit is not of these rows' groups {dict(sizes)}")
    per_group: dict[str, dict] = {}
    for label in labels:
        z = z_matrix[group_arr == label]
        entry: dict = {"n": int(z.shape[0]), "explained_variance": None, "msll": None}
        if fit is not None:
            entry["explained_variance"] = fit[label]["explained_variance"]
            entry["msll"] = fit[label]["msll"]
        entry["mean_abs_deviation"] = float(np.mean(np.abs(z)))
        entry["mean_deviation"] = float(np.mean(z))
        entry["extreme_rate"] = float(np.mean(np.abs(z) > threshold))
        per_group[label] = entry

    gaps: dict[str, float | None] = {}
    for metric in _PARITY_METRICS:
        vals = [e[metric] for e in per_group.values() if e[metric] is not None]
        gaps[metric] = float(max(vals) - min(vals)) if vals else None
    return ParityReport(groups=labels, per_group=per_group, gaps=gaps)

"""Acceptance checks for the package; one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they complete. Criteria with a runtime budget fail if they exceed it.
"""

import filecmp
import functools
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from evidence_reference import engine_evidence, warp_derivative, warp_log_jacobian
from scipy.integrate import quad
from scipy.special import stdtr
from test_classify import permutation_null_auc

from normgauge import (
    Hyperparams,
    ModelConfig,
    SplitSpec,
    SynthSpec,
    WarpParams,
    bh_fdr,
    cross_validate,
    deviations,
    fit_normative,
    generate,
    group_difference,
    roc_points,
    significant_fraction,
    stratified_split,
    warp_forward,
    warp_inverse,
)
from normgauge.cli import main as cli_main


def criterion(num, desc, budget=None):
    """Print exactly one verdict line per criterion, then defer to pytest."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {num}] FAIL - {desc}: {exc}")
                raise
            elapsed = time.monotonic() - start
            extra = f"{detail}; " if detail else ""
            if budget is not None and elapsed > budget:
                print(
                    f"[criterion {num}] FAIL - {desc} "
                    f"({extra}{elapsed:.1f}s exceeded {budget:.0f}s budget)"
                )
                raise AssertionError(
                    f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"
                )
            print(f"[criterion {num}] PASS - {desc} ({extra}{elapsed:.1f}s)")
            return None

        return run

    return wrap


@criterion(1, "warp round-trip and derivative correctness", budget=1.0)
def test_criterion_1_warp():
    rng = np.random.default_rng(41)
    grid = np.linspace(-100.0, 100.0, 401)
    worst_rt = 0.0
    worst_fd = 0.0
    for _ in range(100):
        params = WarpParams(
            epsilon=rng.uniform(-2.0, 2.0), log_delta=rng.uniform(-1.5, 1.5)
        )
        back = warp_inverse(np.asarray(warp_forward(grid, params)), params)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - grid))))
        h = 1e-6
        fd = (np.asarray(warp_forward(grid + h, params))
              - np.asarray(warp_forward(grid - h, params))) / (2 * h)
        deriv = np.asarray(warp_derivative(grid, params))
        worst_fd = max(worst_fd, float(np.max(np.abs(deriv - fd) / np.abs(fd))))
    assert worst_rt < 1e-10, f"round-trip error {worst_rt:.2e}"
    assert worst_fd < 1e-6, f"derivative FD error {worst_fd:.2e}"
    return f"round-trip {worst_rt:.1e}, derivative {worst_fd:.1e}"


@criterion(2, "evidence matches hand value and quadrature oracle", budget=10.0)
def test_criterion_2_evidence():
    hand = 4.720516544076734
    got = engine_evidence(
        np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), Hyperparams()
    )[0]
    assert abs(got - hand) < 1e-6, f"worked example off by {abs(got - hand):.2e}"

    phi = np.array([[0.5], [1.0], [1.5]])
    y = np.array([0.3, 1.2, 2.0])
    warp = WarpParams(epsilon=0.3, log_delta=-0.2)
    h = Hyperparams(log_alpha=math.log(1.3), log_beta=math.log(2.1), warp=warp)
    z = np.asarray(warp_forward(y, warp))

    def integrand(w):
        prior = math.exp(-0.5 * h.alpha * w * w) * math.sqrt(h.alpha / (2 * math.pi))
        resid = z - phi[:, 0] * w
        lik = math.exp(-0.5 * h.beta * float(resid @ resid)) * (
            h.beta / (2 * math.pi)
        ) ** 1.5
        return prior * lik

    integral, _ = quad(integrand, -30.0, 30.0, epsabs=1e-14, epsrel=1e-12)
    oracle = -(math.log(integral) + float(np.sum(np.asarray(warp_log_jacobian(y, warp)))))
    warped = engine_evidence(phi, y, h)[0]
    rel = abs(warped - oracle) / abs(oracle)
    assert rel < 1e-4, f"quadrature mismatch {rel:.2e}"
    return f"worked diff {abs(got - hand):.1e}, quadrature rel {rel:.1e}"


@criterion(3, "evidence gradient matches finite differences", budget=10.0)
def test_criterion_3_gradient():
    rng = np.random.default_rng(77)
    n, m = 50, 4
    phi = rng.normal(size=(n, m))
    y = rng.normal(1.0, 0.8, size=n)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        theta = np.array(
            [
                rng.uniform(-1.5, 1.5),
                rng.uniform(-1.5, 1.5),
                rng.uniform(-0.8, 0.8),
                rng.uniform(-0.5, 0.5),
            ]
        )
        grad = engine_evidence(phi, y, Hyperparams.from_vector(theta))[1]
        fd = np.empty(4)
        for k in range(4):
            hi, lo = theta.copy(), theta.copy()
            hi[k] += step
            lo[k] -= step
            fd[k] = (
                engine_evidence(phi, y, Hyperparams.from_vector(hi))[0]
                - engine_evidence(phi, y, Hyperparams.from_vector(lo))[0]
            ) / (2 * step)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-2))
        worst = max(worst, float(rel))
    assert worst < 1e-5, f"gradient relative error {worst:.2e}"
    return f"max relative error {worst:.1e}"


@criterion(4, "held-out deviations are calibrated at N=10^4", budget=30.0)
def test_criterion_4_calibration():
    spec = SynthSpec(
        n_per_group={"W": 12000},
        n_regions=2,
        sex_offsets=0.2,
        noise_sd=0.25,
        seed=404,
    )
    cohort, _ = generate(spec)
    train = cohort.subset(np.arange(2000))
    test = cohort.subset(np.arange(2000, 12000))
    model = fit_normative(train, ModelConfig())
    dm = deviations(model, test)
    mean = float(dm.Z.mean())
    var = float(dm.Z.var())
    tail = float(np.mean(np.abs(dm.Z) > 2.0))
    assert -0.05 < mean < 0.05, f"mean Z {mean:.4f}"
    assert 0.9 < var < 1.1, f"var Z {var:.4f}"
    assert 0.035 < tail < 0.055, f"|Z|>2 rate {tail:.4f}"
    return f"mean {mean:.3f}, var {var:.3f}, tail {tail:.4f}"


@criterion(5, "BH-FDR matches exhaustive oracle and controls the null")
def test_criterion_5_fdr():
    def oracle(p, q):
        sorted_p = np.sort(p)
        m = p.size
        k_max = 0
        for k in range(1, m + 1):
            if sorted_p[k - 1] <= k * q / m:
                k_max = k
        if k_max == 0:
            return np.zeros(m, dtype=bool)
        return p <= sorted_p[k_max - 1]

    rng = np.random.default_rng(55)
    m = 148
    for i in range(1000):
        p = rng.random(m)
        if rng.random() < 0.5:
            k = int(rng.integers(1, 40))
            p[:k] = rng.random(k) * 0.01
        got = bh_fdr(p, q=0.05)
        want = oracle(p, 0.05)
        assert np.array_equal(got, want), f"oracle mismatch on vector {i}"

    null_rng = np.random.default_rng(56)
    hits = 0
    reps = 200
    for _ in range(reps):
        if bh_fdr(null_rng.random(m), q=0.05).any():
            hits += 1
    rate = hits / reps
    assert rate <= 0.07, f"null flag rate {rate:.3f}"
    return f"1000 oracle matches, null rate {rate:.3f}"


def _table4_run(include_race):
    spec = SynthSpec(
        n_per_group={"A": 1000, "B": 1000, "W": 1000},
        n_regions=148,
        group_offsets={"A": -0.5, "B": -0.5, "W": 0.0},
        noise_sd=0.25,
        seed=600,
    )
    cohort, _ = generate(spec)
    split = SplitSpec(fractions={"A": 0.01, "B": 0.01, "W": 0.93}, seed=6)
    train, test = stratified_split(cohort, split)
    covariates = ("age", "sex", "race") if include_race else ("age", "sex")
    model = fit_normative(train, ModelConfig(covariates=covariates), workers=4)
    dm = deviations(model, test)
    races = list(test.races)
    group_means = {
        g: float(dm.Z[np.asarray(races) == g].mean()) for g in ("A", "B", "W")
    }
    pct = {}
    for g in ("A", "B"):
        welch = group_difference(dm.Z, races, ("W", g))
        # the numpy t tail against scipy's, at every (t, df) of the audit
        want = 2.0 * stdtr(welch.df, -np.abs(welch.t))
        np.testing.assert_allclose(welch.p, want, rtol=1e-12, atol=0)
        flags = bh_fdr(welch.p[welch.testable], q=0.05)
        pct[g] = significant_fraction(flags)
    return group_means, pct


@criterion(6, "race-included modeling absorbs injected group offsets", budget=300.0)
def test_criterion_6_table4_pattern():
    blind_means, blind_pct = _table4_run(include_race=False)
    incl_means, incl_pct = _table4_run(include_race=True)
    for g in ("A", "B"):
        assert -2.2 < blind_means[g] < -1.8, f"race-blind mean Z[{g}] {blind_means[g]:.3f}"
        assert abs(incl_means[g]) < 0.1, f"race-included mean Z[{g}] {incl_means[g]:.3f}"
        assert incl_pct[g] < blind_pct[g], (
            f"% significant for {g}: included {incl_pct[g]:.3f} "
            f"not below blind {blind_pct[g]:.3f}"
        )
    assert abs(blind_means["W"]) < 0.1, f"race-blind mean Z[W] {blind_means['W']:.3f}"
    assert blind_pct["A"] > 0.5 and blind_pct["B"] > 0.5
    return (
        f"blind mean Z A/B {blind_means['A']:.2f}/{blind_means['B']:.2f}, "
        f"included {incl_means['A']:.3f}/{incl_means['B']:.3f}; "
        f"%sig blind {100 * blind_pct['A']:.0f}/{100 * blind_pct['B']:.0f}, "
        f"included {100 * incl_pct['A']:.0f}/{100 * incl_pct['B']:.0f}"
    )


@criterion(7, "race stays predictable from race-included deviations", budget=300.0)
def test_criterion_7_race_prediction():
    rng = np.random.default_rng(700)
    d = 148
    spec = SynthSpec(
        n_per_group={"A": 1000, "B": 1000, "W": 1000},
        n_regions=d,
        group_offsets={
            "A": rng.uniform(-0.5, 0.5, d),
            "B": rng.uniform(-0.5, 0.5, d),
            "W": 0.0,
        },
        noise_sd=0.25,
        seed=700,
    )
    cohort, _ = generate(spec)
    split = SplitSpec(fractions={"A": 0.02, "B": 0.05, "W": 0.8}, seed=7)
    train, test = stratified_split(cohort, split)
    model = fit_normative(
        train, ModelConfig(covariates=("age", "sex", "race")), workers=4
    )
    dm = deviations(model, test)
    labels = list(test.races)
    report = cross_validate(dm.Z, labels)
    macro_auc = report.macro_mean("auc")
    null_auc = permutation_null_auc(dm.Z, labels, n_permutations=5, seed=1)
    assert macro_auc > 0.7, f"macro AUC {macro_auc:.3f}"
    assert 0.45 <= null_auc <= 0.55, f"permutation null AUC {null_auc:.3f}"
    return f"macro AUC {macro_auc:.3f}, permutation null {null_auc:.3f}"


@criterion(8, "classifier metric oracles")
def test_criterion_8_classifier_oracles():
    _, _, auc = roc_points(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert auc == 0.75, f"worked ROC AUC {auc}"

    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        scores = rng.integers(0, 6, 60).astype(float)
        labels = (rng.random(60) < 0.5).astype(int)
        if labels.min() == labels.max():
            continue
        _, _, got = roc_points(scores, labels)
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        mw = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) / (pos.size * neg.size)
        worst = max(worst, abs(got - mw))
    assert worst < 1e-12, f"AUC vs Mann-Whitney gap {worst:.2e}"

    x = rng.normal(size=(120, 3))
    labels = ["A"] * 40 + ["B"] * 40 + ["W"] * 40
    x[:40] += 1.0
    x[40:80] -= 1.0
    report = cross_validate(x, labels)
    row_gap = float(np.max(np.abs(report.confusion_pooled.sum(axis=1) - 1.0)))
    assert row_gap < 1e-12, f"confusion row sums off by {row_gap:.2e}"
    return f"MW gap {worst:.1e}, confusion row gap {row_gap:.1e}"


def _run_pipeline(root: Path, workers: int) -> None:
    spec_path = root / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "n_per_group": {"A": 40, "B": 40, "W": 120},
                "n_regions": 8,
                "group_offsets": {"A": -0.5, "B": -0.5},
                "noise_sd": 0.25,
                "seed": 9,
            }
        ),
        encoding="utf-8",
    )
    steps = [
        ["synth", "--spec", spec_path, "--out", root / "data"],
        [
            "fit",
            "--covariates", root / "data" / "covariates.csv",
            "--features", root / "data" / "features.csv",
            "--out", root / "fit",
            "--default-train-frac", "0.8",
            "--workers", str(workers),
        ],
        [
            "evaluate",
            "--bundle", root / "fit",
            "--covariates", root / "data" / "covariates.csv",
            "--features", root / "data" / "features.csv",
            "--ids", root / "fit" / "test_ids.txt",
            "--out", root / "eval",
        ],
        [
            "audit",
            "--deviations", root / "eval" / "deviations.csv",
            "--errors", root / "eval" / "errors.csv",
            "--covariates", root / "data" / "covariates.csv",
            "--out", root / "audit",
            "--contrasts", "W:A", "W:B",
        ],
        [
            "classify",
            "--deviations", root / "eval" / "deviations.csv",
            "--covariates", root / "data" / "covariates.csv",
            "--out", root / "clf",
            "--folds", "4",
        ],
        ["report", "--run-dir", root],
    ]
    for argv in steps:
        code = cli_main([str(a) for a in argv])
        assert code == 0, f"step {argv[0]} exited {code}"


def _tree_files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@criterion(9, "end-to-end pipeline is byte-identical across runs and workers")
def test_criterion_9_determinism(tmp_path):
    # run twice into the same paths: every byte must match, config echo included
    root = tmp_path / "run"
    root.mkdir()
    _run_pipeline(root, workers=1)
    files = _tree_files(root)
    snapshot = {rel: (root / rel).read_bytes() for rel in files}
    shutil.rmtree(root)
    root.mkdir()
    _run_pipeline(root, workers=1)
    assert _tree_files(root) == files
    for rel in files:
        assert (root / rel).read_bytes() == snapshot[rel], (
            f"{rel} differs between identical reruns"
        )

    # 8 workers in a sibling tree: all artifacts match; run_config.json is
    # excluded because it intentionally records the differing paths and
    # worker count
    eight = tmp_path / "eight"
    eight.mkdir()
    _run_pipeline(eight, workers=8)
    assert _tree_files(eight) == files
    compared = 0
    for rel in files:
        if rel.name == "run_config.json":
            continue
        assert filecmp.cmp(root / rel, eight / rel, shallow=False), (
            f"{rel} differs between 1 and 8 workers"
        )
        compared += 1
    return f"{len(files)} files rerun-identical, {compared} worker-invariant"

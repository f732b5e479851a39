"""Tests for the warped Bayesian regression core: evidence, fits, deviations, metrics."""

import dataclasses
import logging
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from evidence_reference import (
    CholeskyEvidence,
    engine_evidence,
    reference_deviations,
    warp_log_jacobian,
)
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from normgauge import (
    BasisConfig,
    Cohort,
    DeviationMatrix,
    Hyperparams,
    InputError,
    ModelConfig,
    NormativeModel,
    RegionModel,
    SchemaError,
    SynthSpec,
    WarpParams,
    apply_design,
    deviations,
    explained_variance,
    fit_design,
    fit_metrics,
    fit_normative,
    fit_region,
    generate,
    load_bundle,
    predict_region,
    region_metrics,
    save_bundle,
    warp_forward,
    warp_inverse,
)
from normgauge import blr, serialize
from normgauge.blr import (
    _fit_regions,
    _normality_statistic,
    _precision_cholesky,
    _Spectrum,
    _spectral_state,
    _warp_engagement_margin,
    _WarpedEvidence,
)
from normgauge.errors import NumericalError

# the CPU probe itself, which the usable_cpus fixture replaces
SCHED_GETAFFINITY = getattr(os, "sched_getaffinity", None)


def make_cohort(ages, responses, sexes=None, races=None, regions=None):
    n = len(ages)
    sexes = sexes or ["F" if i % 2 == 0 else "M" for i in range(n)]
    races = races or ["W"] * n
    responses = np.asarray(responses, dtype=float)
    if responses.ndim == 1:
        responses = responses[:, None]
    regions = regions or tuple(f"r{k}" for k in range(responses.shape[1]))
    return Cohort(
        ids=tuple(f"s{i:05d}" for i in range(n)),
        ages=ages,
        sexes=sexes,
        races=races,
        regions=tuple(regions),
        responses=responses,
    )


class TestEvidenceValue:
    def test_worked_single_feature_example(self):
        # phi = [[1],[1]], y = [1,3], alpha = beta = 1, identity warp:
        # A = 3, m = 4/3, E(m) = 7/3 - 1/2 ln alpha... collected by hand:
        # NLL = 7/3 + (1/2) ln 3 + ln(2 pi)
        phi = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        h = Hyperparams(log_alpha=0.0, log_beta=0.0)
        expected = 7.0 / 3.0 + 0.5 * math.log(3.0) + math.log(2.0 * math.pi)
        assert engine_evidence(phi, y, h)[0] == pytest.approx(expected, abs=1e-12)

    def test_identity_warp_matches_closed_form_gaussian(self):
        # with identity warp the evidence is the Gaussian marginal
        # y ~ N(0, phi phi^T / alpha + I / beta), an independent closed form
        rng = np.random.default_rng(12)
        for _ in range(10):
            n, m = 12, 3
            phi = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            h = Hyperparams(log_alpha=rng.uniform(-1, 1), log_beta=rng.uniform(-1, 1))
            cov = phi @ phi.T / h.alpha + np.eye(n) / h.beta
            oracle = -multivariate_normal.logpdf(y, mean=np.zeros(n), cov=cov)
            assert engine_evidence(phi, y, h)[0] == pytest.approx(oracle, rel=1e-10)

    def test_warped_matches_quadrature_oracle(self):
        # brute-force integral over the single weight on a 3-point problem
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

        integral, err = quad(integrand, -30.0, 30.0, epsabs=1e-14, epsrel=1e-12)
        log_jac = float(np.sum(np.asarray(warp_log_jacobian(y, warp))))
        oracle = -(math.log(integral) + log_jac)
        assert engine_evidence(phi, y, h)[0] == pytest.approx(oracle, rel=1e-4)
        assert err < 1e-10

    def test_warp_jacobian_shifts_evidence(self):
        # identity warp evidence differs from warped evidence by more than the
        # Jacobian alone unless the warp is identity; sanity on the plumbing
        phi = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        base = engine_evidence(phi, y, Hyperparams())[0]
        warped = engine_evidence(
            phi, y, Hyperparams(warp=WarpParams(epsilon=0.2, log_delta=0.1))
        )[0]
        assert warped != pytest.approx(base, abs=1e-6)


class TestEvidenceGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(77)
        n, m = 50, 4
        phi = rng.normal(size=(n, m))
        y = rng.normal(1.0, 0.8, size=n)
        step = 1e-5
        for _ in range(20):
            theta = np.array(
                [
                    rng.uniform(-1.5, 1.5),
                    rng.uniform(-1.5, 1.5),
                    rng.uniform(-0.8, 0.8),
                    rng.uniform(-0.5, 0.5),
                ]
            )
            h = Hyperparams.from_vector(theta)
            grad = engine_evidence(phi, y, h)[1]
            fd = np.empty(4)
            for k in range(4):
                hi = theta.copy()
                lo = theta.copy()
                hi[k] += step
                lo[k] -= step
                fd[k] = (
                    engine_evidence(phi, y, Hyperparams.from_vector(hi))[0]
                    - engine_evidence(phi, y, Hyperparams.from_vector(lo))[0]
                ) / (2 * step)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_posterior_mean_is_ridge_solution(self):
        # the engine's posterior mean, rotated back from the eigenbasis, solves
        # the ridge problem on the warped responses
        rng = np.random.default_rng(31)
        for _ in range(10):
            n, m = 40, 5
            phi = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            h = Hyperparams(
                log_alpha=rng.uniform(-1, 1),
                log_beta=rng.uniform(-1, 1),
                warp=WarpParams(epsilon=rng.uniform(-0.5, 0.5), log_delta=rng.uniform(-0.3, 0.3)),
            )
            theta = np.array([h.log_alpha, h.log_beta, h.warp.epsilon, h.warp.log_delta])
            spectrum = _Spectrum.of(phi)
            state, _, _, _ = _WarpedEvidence(spectrum, y[None, :]).evaluate(theta[None, :])
            z = warp_forward(y, h.warp)
            ridge = np.linalg.solve(
                phi.T @ phi + (h.alpha / h.beta) * np.eye(m), phi.T @ z
            )
            np.testing.assert_allclose(spectrum.u @ state.weights[0], ridge, atol=1e-10)


class TestFitRegion:
    def test_recovers_noise_precision_on_gaussian_data(self):
        rng = np.random.default_rng(42)
        n = 500
        x = rng.uniform(-1, 1, n)
        y = 2.0 + 0.0 * x + rng.normal(0.0, 0.1, n)
        phi = np.column_stack([np.ones(n), x])
        model = fit_region(phi, y, region="gauss")
        h = model.hyperparams
        # beta is the noise precision of the standardized column
        assert 0.8 <= h.beta / model.response_sd**2 / 100.0 <= 1.25
        assert abs(h.warp.epsilon) < 0.1
        assert model.converged

    def test_gaussian_data_does_not_engage_warp(self):
        rng = np.random.default_rng(8)
        n = 400
        x = rng.uniform(-1, 1, n)
        phi = np.column_stack([np.ones(n), x, x * x])
        y = 1.5 - 0.7 * x + rng.normal(0.0, 0.3, n)
        model = fit_region(phi, y, region="gauss")
        assert abs(model.nll - model.nll_identity) < 1e-3
        assert model.hyperparams.warp.is_identity()

    def test_skewed_data_engages_warp(self):
        rng = np.random.default_rng(7)
        n = 500
        x = rng.uniform(-1, 1, n)
        phi = np.column_stack([np.ones(n), x])
        truth = WarpParams(epsilon=0.5, log_delta=-0.3)
        z_latent = 0.8 + 0.6 * x + rng.normal(0.0, 1.0, n)
        y = np.asarray(warp_inverse(z_latent, truth))
        model = fit_region(phi, y, region="skew")
        h = model.hyperparams
        assert not h.warp.is_identity()
        assert model.nll < model.nll_identity - 10.0
        # the warp acts on the standardized column, so its parameters are not
        # truth's; the fitted median and 5% and 95% quantiles of y are
        grid = np.linspace(-1.0, 1.0, 21)
        pred = predict_region(model, np.column_stack([np.ones(grid.size), grid]))
        sd = np.sqrt(pred.noise_variance + pred.model_variance)
        for q, tol in ((-1.645, 0.3), (0.0, 0.1), (1.645, 0.3)):
            fitted = model.response_mean + model.response_sd * np.asarray(
                warp_inverse(pred.zhat + q * sd, h.warp)
            )
            expected = np.asarray(warp_inverse(0.8 + 0.6 * grid + q, truth))
            assert np.max(np.abs(fitted - expected)) < tol * np.std(y), q

    def test_constant_response_rejected(self):
        phi = np.ones((5, 1))
        with pytest.raises(InputError):
            fit_region(phi, np.full(5, 3.3), region="flat")

    def test_too_few_observations_rejected(self):
        with pytest.raises(InputError):
            fit_region(np.ones((1, 1)), np.array([1.0]), region="tiny")

    def test_input_shapes_checked(self):
        phi, y = np.ones((3, 1)), np.ones(3)
        with pytest.raises(InputError):
            fit_region(phi[:, 0], y)
        with pytest.raises(InputError):
            fit_region(phi, y[:, None])
        with pytest.raises(SchemaError, match="3 rows but responses have 2"):
            fit_region(phi, y[:2])

    def test_overflowing_squares_rejected_before_fitting(self):
        # three ordinary regions and one of sinh(200 N(0, 1)) responses, up to ~1e225
        rng = np.random.default_rng(4)
        ages = rng.uniform(20, 70, 300)
        ordinary = 0.02 * ages[:, None] + rng.normal(0.0, 0.25, (300, 3))
        huge = np.sinh(np.clip(200.0 * rng.normal(size=300), -520, 520))
        cohort = make_cohort(
            ages, np.column_stack([ordinary, huge]), regions=("a", "b", "c", "huge")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="region 'huge'"):
                fit_normative(cohort)

    def test_overflowing_sum_of_squares_rejected(self):
        # each square is finite, their sum is not
        y = np.where(np.arange(300) % 2 == 0, 1.2e154, -1.2e154)
        assert np.isfinite(np.square(y)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="region 'big'"):
                fit_region(np.ones((300, 1)), y, region="big")

    def test_underflowing_variance_rejected(self):
        # the column varies, but its variance underflows to a subnormal, too
        # coarse to standardize by
        y = np.where(np.arange(300) % 2 == 0, 0.0, 1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="region 'tiny'.*underflows"):
                fit_region(np.ones((300, 1)), y, region="tiny")

    def test_nll_path_monotone_nonincreasing(self):
        rng = np.random.default_rng(15)
        for seed in range(3):
            r = np.random.default_rng(seed)
            n = 120
            x = r.uniform(-1, 1, n)
            phi = np.column_stack([np.ones(n), x])
            y = 0.5 + x + r.normal(0, 0.4, n)
            model = fit_region(phi, y, region="p")
            path = np.asarray(model.nll_path)
            assert path.size >= 1
            assert np.all(np.diff(path) <= 1e-9)

    def test_iteration_cap_flags_regions(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 400
        x = rng.uniform(-1, 1, n)
        phi = np.column_stack([np.ones(n), x, x * x])
        gauss = 1.5 - 0.7 * x + rng.normal(0.0, 0.3, n)
        skewed = np.asarray(
            warp_inverse(0.8 + 0.6 * x + rng.normal(0.0, 1.0, n), WarpParams(0.5, -0.3))
        )
        for y in (gauss, skewed):
            assert fit_region(phi, y, region="r").converged
        monkeypatch.setattr(blr, "_MAX_ITER", 1)
        for y in (gauss, skewed):
            assert not fit_region(phi, y, region="r").converged

    def test_held_out_deviation_calibration(self):
        # fit on draws from a known process, score fresh draws from it
        rng = np.random.default_rng(100)
        n_train, n_test = 800, 4000
        ages = rng.uniform(20, 70, n_train + n_test)
        y = 0.02 * ages + 1.0 + rng.normal(0, 0.25, ages.size)
        cohort = make_cohort(ages, y)
        train = cohort.subset(np.arange(n_train))
        test = cohort.subset(np.arange(n_train, n_train + n_test))
        model = fit_normative(train, ModelConfig())
        dev = deviations(model, test)
        assert abs(float(dev.Z.mean())) < 0.08
        assert 0.85 < float(dev.Z.var()) < 1.15


class TestSpectralEngine:
    """The fit's Cholesky-free evidence against the Cholesky reference in
    evidence_reference.py."""

    @staticmethod
    def design_and_response(kind):
        rng = np.random.default_rng(5)
        n = 300
        if kind == "full-rank":
            phi = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        else:
            ages = rng.uniform(20, 70, n)
            phi = fit_design(make_cohort(ages, np.zeros(n)), ModelConfig()).values
        y = phi @ rng.normal(0.0, 0.5, phi.shape[1]) + rng.normal(0.3, 0.4, n)
        return phi, y

    @pytest.mark.parametrize("kind", ["full-rank", "default"])
    def test_matches_cholesky_reference_at_random_theta(self, kind):
        phi, y = self.design_and_response(kind)
        if kind == "default":
            # the linear-age column lies in the span of the cubic B-splines,
            # so G has a numerically zero eigenvalue
            assert phi.shape[1] == 9 and np.linalg.matrix_rank(phi) == 8
        problem = CholeskyEvidence(phi, y)
        spectrum = _Spectrum.of(phi)
        warped = _WarpedEvidence(spectrum, y[None, :])
        rng = np.random.default_rng(11)
        compared = 0
        for _ in range(25):
            theta = np.array(
                [
                    rng.uniform(-3, 3),
                    rng.uniform(-3, 3),
                    rng.uniform(-0.8, 0.8),
                    rng.uniform(-0.5, 0.5),
                ]
            )
            h = Hyperparams.from_vector(theta)
            try:
                st = problem.state(h)
            except NumericalError:
                continue
            value, grad, _ = warped.derivatives(theta[None, :])
            assert value[0] == pytest.approx(st.nll, rel=1e-9)
            np.testing.assert_allclose(grad[0], problem.grad(h, st), rtol=1e-9)

            # identity warp: evidence, gradient, margin and Cholesky factor
            h_id = Hyperparams(log_alpha=theta[0], log_beta=theta[1])
            st_id = problem.state(h_id)
            state = _spectral_state(spectrum, y[None, :], theta[0:1], theta[1:2])
            assert state.nll[0] == pytest.approx(st_id.nll, rel=1e-9)
            np.testing.assert_allclose(
                state.grad[0], problem.grad(h_id, st_id)[:2], rtol=1e-9
            )
            logdet = 2.0 * float(np.sum(np.log(np.diag(st_id.chol))))
            a_inv = sla.cho_solve((st_id.chol, True), np.eye(phi.shape[1]))
            reference_margin = (
                0.5 * logdet
                - 0.5 * phi.shape[1] * h_id.log_alpha
                + 0.5 * (phi.shape[1] - h_id.alpha * float(np.trace(a_inv)))
                + math.log(phi.shape[0])
            )
            margin = _warp_engagement_margin(spectrum, state, theta[0:1])
            assert margin[0] == pytest.approx(reference_margin, rel=1e-9)
            np.testing.assert_allclose(
                _precision_cholesky(spectrum, state.lam[0]),
                st_id.chol,
                rtol=1e-9,
                atol=1e-9 * float(np.max(np.abs(st_id.chol))),
            )
            compared += 1
        assert compared >= 20

    def test_identity_fit_is_stationary_for_the_reference(self, monkeypatch):
        phi, y = self.design_and_response("full-rank")
        monkeypatch.setattr(blr, "_TOL", 1e-15)
        monkeypatch.setattr(blr, "_GRAD_TOL", 1e-10)
        model = fit_region(phi, y, region="gauss")
        assert model.hyperparams.warp.is_identity()
        # the fit runs on the standardized column and reports its NLL in
        # response units, N ln SD above the standardized one
        assert (model.response_mean, model.response_sd) == (np.mean(y), np.std(y))
        y_std = (y - model.response_mean) / model.response_sd
        nll, grad = engine_evidence(phi, y_std, model.hyperparams)
        assert np.max(np.abs(grad[:2])) < 1e-8
        assert model.nll == pytest.approx(nll + y.size * math.log(model.response_sd), rel=1e-12)

    def test_batched_fit_matches_single_region_fits(self):
        rng = np.random.default_rng(21)
        n = 200
        ages = rng.uniform(20, 70, n)
        responses = np.column_stack(
            [0.02 * ages + rng.normal(0, s, n) for s in (0.1, 0.3, 1.0)]
        )
        cohort = make_cohort(ages, responses)
        model = fit_normative(cohort, ModelConfig())
        phi = fit_design(cohort, ModelConfig()).values
        for d, batched in enumerate(model.region_models):
            single = fit_region(phi, responses[:, d], region=batched.region)
            assert single.to_dict() == batched.to_dict()


class TestNormalityScreen:
    """A region skips its free-warp run when its identity residuals look
    Gaussian. Oracle: the same fit with the screen switched off (share 0)
    runs every free run, and must give the same region models."""

    N = 400

    @classmethod
    def ages_and_design(cls):
        rng = np.random.default_rng(0)
        ages = rng.uniform(20, 70, cls.N)
        return ages, fit_design(make_cohort(ages, np.zeros(cls.N)), ModelConfig()).values

    @classmethod
    def responses(cls, kind):
        """Four regions of one noise family about an age trend centred on 0.
        The warp acts on y itself: about a mean near 2, symmetric noise does
        not engage it at all, and the oracle would check nothing."""
        ages, phi = cls.ages_and_design()
        rng = np.random.default_rng(1)
        n = cls.N
        trend = 0.2 * (ages - 45.0) / 25.0
        if kind == "student-t":
            noise = [rng.standard_t(df, n) for df in (3, 5, 10, 30)]
        elif kind == "laplace":
            noise = [rng.laplace(0.0, 1.0, n) for _ in range(4)]
        elif kind == "bimodal":
            noise = [
                rng.choice([-s, s], n) + rng.normal(0.0, 1.0, n) for s in (0.8, 1.2, 1.6, 2.0)
            ]
        elif kind == "age-band-skew":
            # skewed noise only between ages 60 and 70, Gaussian elsewhere
            band = ages > 60.0
            noise = [
                np.where(
                    band,
                    warp_inverse(rng.normal(0.0, 1.0, n), WarpParams(eps, -0.3)),
                    rng.normal(0.0, 1.0, n),
                )
                for eps in (0.3, 0.5, 1.0, 2.0)
            ]
        elif kind == "skewed-warp":
            noise = [
                warp_inverse(rng.normal(0.0, 1.0, n), WarpParams(eps, -0.3))
                for eps in (0.1, 0.3, 0.5, 0.8)
            ]
        else:
            noise = [rng.normal(0.0, 1.0, n) for _ in range(4)]
        return phi, np.column_stack([trend + 0.25 * np.asarray(e) for e in noise])

    @staticmethod
    def fit(phi, responses):
        regions = tuple(f"r{d}" for d in range(responses.shape[1]))
        return _fit_regions(phi, responses, regions)

    @staticmethod
    def assert_same_models(screened, unscreened):
        for a, b in zip(screened, unscreened, strict=True):
            for f in dataclasses.fields(RegionModel):
                if f.name == "screened":
                    continue
                got, expected = getattr(a, f.name), getattr(b, f.name)
                if isinstance(got, np.ndarray):
                    np.testing.assert_array_equal(got, expected, err_msg=f.name)
                else:
                    assert got == expected, (a.region, f.name)

    @pytest.mark.parametrize(
        "kind", ["student-t", "laplace", "bimodal", "age-band-skew", "skewed-warp"]
    )
    def test_screen_never_changes_the_fit(self, monkeypatch, kind):
        phi, responses = self.responses(kind)
        screened = self.fit(phi, responses)
        monkeypatch.setattr(blr, "_SCREEN_SHARE", 0.0)
        unscreened = self.fit(phi, responses)
        assert not any(rm.screened for rm in unscreened)
        # the free run decides the result somewhere, so a wrong skip would show
        assert any(not rm.hyperparams.warp.is_identity() for rm in unscreened)
        self.assert_same_models(screened, unscreened)

    def test_gaussian_regions_skip_the_free_run(self, monkeypatch):
        phi, responses = self.responses("gaussian")
        # one usable CPU: the free fit runs as one chunk in this process,
        # where the calls below are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rows = []  # rows sent to the batched free fit, per call
        fit_free = blr._fit_free
        monkeypatch.setattr(
            blr,
            "_fit_free",
            lambda problem, x0, *rest: rows.append(len(x0)) or fit_free(problem, x0, *rest),
        )
        screened = self.fit(phi, responses)
        assert sum(rows) == 0
        assert all(rm.screened for rm in screened)
        monkeypatch.setattr(blr, "_SCREEN_SHARE", 0.0)
        unscreened = self.fit(phi, responses)
        assert rows == [responses.shape[1]]
        self.assert_same_models(screened, unscreened)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_statistic_never_skips(self, monkeypatch, value):
        phi, responses = self.responses("gaussian")
        monkeypatch.setattr(
            blr, "_normality_statistic", lambda r: np.full(r.shape[0], value)
        )
        assert not any(rm.screened for rm in self.fit(phi, responses))

    def test_statistic_is_half_jarque_bera(self):
        rng = np.random.default_rng(4)
        rows = np.vstack(
            [rng.normal(size=300), rng.standard_t(4, 300), rng.exponential(size=300)]
        )
        expected = [stats.jarque_bera(row).statistic / 2.0 for row in rows]
        np.testing.assert_allclose(_normality_statistic(rows), expected, rtol=1e-12)
        assert np.isnan(_normality_statistic(np.ones((1, 10)))[0])

    def test_screened_flag_stays_out_of_the_bundle(self):
        phi, responses = self.responses("gaussian")
        (model, *_) = self.fit(phi, responses)
        assert model.screened
        assert "screened" not in model.to_dict()
        assert not RegionModel.from_dict(model.to_dict()).screened


class TestFreeFit:
    """The batched free-warp fit: its analytic Hessian, its optimum against a
    tightly converged scipy L-BFGS-B, and the independence of its rows."""

    N = 300

    @pytest.mark.parametrize("kind", ["full-rank", "default"])
    def test_hessian_matches_central_differences_of_gradient(self, kind):
        phi, y = TestSpectralEngine.design_and_response(kind)
        warped = _WarpedEvidence(_Spectrum.of(phi), y[None, :])
        rng = np.random.default_rng(17)
        step = 1e-5
        for _ in range(20):
            theta = np.array(
                [[rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-0.8, 0.8),
                  rng.uniform(-0.5, 0.5)]]
            )
            hess = warped.derivatives(theta)[2][0]
            fd = np.empty((4, 4))
            for k in range(4):
                hi, lo = theta.copy(), theta.copy()
                hi[0, k] += step
                lo[0, k] -= step
                fd[:, k] = (
                    warped.derivatives(hi)[1][0] - warped.derivatives(lo)[1][0]
                ) / (2 * step)
            np.testing.assert_allclose(
                hess, fd, rtol=1e-6, atol=1e-6 * float(np.max(np.abs(fd)))
            )
            np.testing.assert_array_equal(hess, hess.T)

    @classmethod
    def regions(cls, kind):
        """Four regions of one noise family on the default design."""
        rng = np.random.default_rng(2)
        n = cls.N
        ages = rng.uniform(20, 70, n)
        phi = fit_design(make_cohort(ages, np.zeros(n)), ModelConfig()).values
        trend = 0.3 * (ages - 45.0) / 25.0
        if kind == "gaussian":
            noise = [rng.normal(0.0, s, n) for s in (0.2, 0.5, 1.0, 2.0)]
        elif kind == "skewed":
            noise = [
                0.5 * warp_inverse(rng.normal(0.0, 1.0, n), WarpParams(eps, -0.3))
                for eps in (0.2, 0.5, 1.0, 1.5)
            ]
        elif kind == "student-t":
            noise = [0.5 * rng.standard_t(df, n) for df in (2, 3, 5, 10)]
        elif kind == "bimodal":
            noise = [
                0.3 * (rng.choice([-s, s], n) + rng.normal(0.0, 1.0, n))
                for s in (1.0, 1.5, 2.0, 3.0)
            ]
        else:
            # skewed noise that the design explains none of: the free fit
            # heads out along the ridge, log_alpha toward its bound
            trend = 0.0
            noise = [
                warp_inverse(rng.normal(0.0, s, n), WarpParams(0.5, -0.3))
                for s in (0.5, 1.0, 1.5, 2.0)
            ]
        return phi, np.vstack([1.0 + trend + np.asarray(e) for e in noise])

    @staticmethod
    def starts(spectrum, rows):
        """The x0 and leaning starts of each row, by the rule _fit_block applies
        to its standardized rows."""
        x0 = np.zeros((len(rows), 4))
        x0[:, 1] = -np.log(np.var(rows, axis=1))
        theta_id, state, _, _ = blr._fit_identity(spectrum, rows, x0[:, :2])
        return x0, blr._leaning_start(theta_id, state.residual)

    @classmethod
    def fit_free(cls, phi, rows, problem=None):
        spectrum = _Spectrum.of(phi)
        x0, leaning = cls.starts(spectrum, rows)
        problem = problem or _WarpedEvidence(spectrum, rows)
        return x0, blr._fit_free(problem, x0, leaning)

    @pytest.mark.parametrize("kind", ["gaussian", "skewed", "student-t", "bimodal", "ridge"])
    def test_no_worse_than_tight_lbfgsb(self, kind):
        phi, rows = self.regions(kind)
        x0, (theta, nll, _, stop, _) = self.fit_free(phi, rows)
        assert stop == [blr._MET] * len(rows)
        for d, y in enumerate(rows):
            warped = _WarpedEvidence(_Spectrum.of(phi), y[None, :])

            def objective(x):
                value, grad, _ = warped.derivatives(x[None, :])
                if not (np.isfinite(value[0]) and np.all(np.isfinite(grad))):
                    return 1e300, np.zeros(4)
                return value[0], grad[0]

            oracle = minimize(
                objective, x0[d], jac=True, method="L-BFGS-B",
                bounds=blr._BOUNDS_FREE, options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 5000},
            )
            assert nll[d] <= oracle.fun + 1e-6 * max(abs(oracle.fun), 1.0), (d, theta[d])
        if kind == "ridge":
            assert np.max(theta[:, 0]) > 15.0

    def test_overflowing_row_leaves_the_other_rows_unchanged(self):
        phi, rows = self.regions("skewed")
        spectrum = _Spectrum.of(phi)
        alone = self.fit_free(phi, rows[:3])[1]

        # every trial step of the last row overflows, as exp(u) does when
        # delta grows too far
        problem = _WarpedEvidence(spectrum, rows)
        exact = problem.derivatives
        calls = []

        def overflowing(theta, rows=slice(None)):
            nll, grad, hess = exact(theta, rows)
            if calls:
                last = np.asarray(rows) == 3
                nll[last] = np.inf
                grad[last] = np.nan
            calls.append(1)
            return nll, grad, hess

        problem.derivatives = overflowing
        theta, nll, _, stop, _ = self.fit_free(phi, rows, problem)[1]
        assert stop[3] == blr._STALLED
        np.testing.assert_allclose(theta[:3], alone[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(nll[:3], alone[1], rtol=1e-10)
        assert stop[:3] == alone[3]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitFreeFit:
    """fit_normative cuts the regions into contiguous chunks, one per usable
    CPU, and fits every chunk after the first in a forked child. Oracle: the
    one batched solve over all regions, which no cut may change by a single
    bit."""

    def test_every_contiguous_chunk_matches_the_whole_solve(self):
        blocks = [
            TestFreeFit.regions(kind) for kind in ("gaussian", "skewed", "student-t", "bimodal")
        ]
        phi = blocks[0][0]
        rows = np.vstack([kind_rows[1:3] for _, kind_rows in blocks])
        spectrum = _Spectrum.of(phi)
        x0, leaning = TestFreeFit.starts(spectrum, rows)

        def fit(chunk):
            problem = _WarpedEvidence(spectrum, rows[chunk])
            return blr._fit_free(problem, x0[chunk], leaning[chunk])

        whole = fit(slice(None))
        assert np.any(whole[0][:, 2] != 0.0)
        for a in range(len(rows)):
            for b in range(a + 1, len(rows) + 1):
                part = fit(slice(a, b))
                for got, expected in zip(part[:3], whole[:3]):
                    assert got.tobytes() == expected[a:b].tobytes(), (a, b)
                assert part[3:] == tuple(lists[a:b] for lists in whole[3:]), (a, b)

    @staticmethod
    def cohort():
        """Eight regions of skewed and bimodal noise; the first and last are
        not screened, and two bimodal ones are."""
        ages, _ = TestNormalityScreen.ages_and_design()
        responses = np.column_stack(
            [TestNormalityScreen.responses(kind)[1] for kind in ("skewed-warp", "bimodal")]
        )
        return make_cohort(ages, responses)

    @pytest.mark.parametrize("forks", ["forked"], indirect=True)
    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_split_bundle_bytes_match_the_serial_fit(self, tmp_path, forks, monkeypatch, cpus):
        pids, _ = forks
        cohort = self.cohort()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        split = fit_normative(cohort, ModelConfig())
        assert_no_child_left()
        free = sum(not rm.screened for rm in split.region_models)
        assert 2 <= free < cohort.n_regions
        assert len(pids) == min(cpus, cohort.n_regions) - 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = fit_normative(cohort, ModelConfig())
        assert len(pids) == min(cpus, cohort.n_regions) - 1
        save_bundle(split, tmp_path / "split")
        save_bundle(serial, tmp_path / "serial")
        for name in ("model.json", "regions.json"):
            assert (tmp_path / "split" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
    def test_forked_parts_run_one_blas_thread_each_pinned(
        self, tmp_path, monkeypatch, usable_cpus
    ):
        pids, cpus = usable_cpus
        blas = serialize._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, set_ = blas
        seen = sorted(os.sched_getaffinity(0))  # the CPUs the probe reports
        records = tmp_path / "parts.txt"
        fit_block = blr._fit_block

        def recording(spectrum, y_rows, mean, sd, regions):
            # appended from every part, a forked child's included
            with open(records, "a", encoding="utf-8") as fh:
                cpus_now = sorted(SCHED_GETAFFINITY(0))
                fh.write(f"{regions[0]} {get()} {' '.join(map(str, cpus_now))}\n")
            return fit_block(spectrum, y_rows, mean, sd, regions)

        monkeypatch.setattr(blr, "_fit_block", recording)
        cohort = self.cohort()
        before = get()
        set_(2)
        try:
            split = fit_normative(cohort, ModelConfig())
            assert get() == 2
            monkeypatch.setattr(serialize, "_fork_slots", lambda: 1)
            serial = fit_normative(cohort, ModelConfig())
        finally:
            set_(before)
        assert len(pids) == cpus - 1
        assert_no_child_left()
        lines = records.read_text(encoding="utf-8").splitlines()
        parts = sorted(lines[:-1], key=lambda line: cohort.regions.index(line.split()[0]))
        got = [tuple(map(int, line.split()[1:])) for line in parts]
        if cpus == 1:
            assert got == [(2, *sorted(SCHED_GETAFFINITY(0)))]
        else:
            # part k on the k-th CPU; a part whose CPU this process may not
            # run on stays on the caller's, the first
            own = SCHED_GETAFFINITY(0)
            assert got == [(1, cpu if cpu in own else seen[0]) for cpu in seen]
        save_bundle(split, tmp_path / "split")
        save_bundle(serial, tmp_path / "serial")
        for name in ("model.json", "regions.json"):
            assert (tmp_path / "split" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    @staticmethod
    def fail_on_region(monkeypatch, cohort, column, error):
        """Make the free fit raise `error` on any chunk holding region `column`."""
        y = np.ascontiguousarray(cohort.responses[:, column])
        marker = np.arcsinh((y - np.mean(y)) / np.std(y))
        fit_free = blr._fit_free

        def failing(problem, *rest):
            if any(np.array_equal(row, marker) for row in problem.asinh_y):
                raise error
            return fit_free(problem, *rest)

        monkeypatch.setattr(blr, "_fit_free", failing)

    def test_failing_child_chunk_raises_the_serial_error(self, forks, monkeypatch):
        pids, forked = forks
        cohort = self.cohort()
        # the last region lies in the child's chunk; only an in-process
        # rerun of that chunk raises here
        self.fail_on_region(monkeypatch, cohort, -1, NumericalError("broke in the last region"))
        with pytest.raises(NumericalError, match="^broke in the last region$"):
            fit_normative(cohort, ModelConfig())
        assert len(pids) == (1 if forked else 0)
        assert_no_child_left()

    def test_caller_error_leaves_no_child(self, forks, monkeypatch):
        pids, forked = forks
        cohort = self.cohort()
        self.fail_on_region(monkeypatch, cohort, 0, RuntimeError("broke in the first region"))
        with pytest.raises(RuntimeError, match="first region"):
            fit_normative(cohort, ModelConfig())
        assert len(pids) == (1 if forked else 0)
        assert_no_child_left()

    @pytest.mark.parametrize("forks", ["forked"], indirect=True)
    def test_no_fork_while_another_thread_runs(self, forks):
        pids, _ = forks
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            fit_normative(self.cohort(), ModelConfig())
        finally:
            release.set()
            thread.join()
        assert pids == []


class TestRegionIndependence:
    """A region's model, standardization included, is a function of its own
    column and the design alone. Oracle: fit_region on that column, which
    the batched fit of all regions, and a fit of every other region, must
    match bit for bit at any number of usable CPUs."""

    @staticmethod
    def cohort():
        """Sixteen regions: Gaussian, skewed, Student-t and bimodal noise."""
        ages, phi = TestNormalityScreen.ages_and_design()
        kinds = ("gaussian", "skewed-warp", "student-t", "bimodal")
        responses = np.column_stack(
            [TestNormalityScreen.responses(kind)[1] for kind in kinds]
        )
        return make_cohort(ages, responses), phi

    @staticmethod
    def state(rm):
        return rm.to_dict(), rm.nll_identity, rm.screened, rm.nll_path

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_region_fit_ignores_the_regions_beside_it(self, monkeypatch, cpus):
        cohort, phi = self.cohort()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        batched = fit_normative(cohort, ModelConfig()).region_models
        assert any(rm.screened for rm in batched)
        assert any(not rm.hyperparams.warp.is_identity() for rm in batched)
        alternate = {}
        for start in (0, 1):
            columns = np.arange(start, cohort.n_regions, 2)
            part = make_cohort(
                cohort.ages,
                cohort.responses[:, columns],
                regions=[cohort.regions[d] for d in columns],
            )
            for rm in fit_normative(part, ModelConfig()).region_models:
                alternate[rm.region] = rm
        for d, rm in enumerate(batched):
            column = np.ascontiguousarray(cohort.responses[:, d])
            alone = fit_region(phi, column, region=rm.region)
            # each region is fitted on its column standardized by the
            # column's own mean and population SD
            assert (alone.response_mean, alone.response_sd) == (np.mean(column), np.std(column))
            assert self.state(rm) == self.state(alone), rm.region
            assert self.state(alternate[rm.region]) == self.state(alone), rm.region


class TestScaleBound:
    """Each column is fitted standardized by its mean and SD, so a response's
    units do not change its fit. Oracle: the same curve at scale 1, whose
    evidence in response units shifts by exactly N ln(scale). A region whose
    precision is still held at a bound of log_alpha or log_beta, as when its
    response is nearly a function of the covariates, is flagged."""

    N = 300

    @classmethod
    def fit(cls, scale, noise_sd=0.25):
        rng = np.random.default_rng(0)
        ages = rng.uniform(20, 70, cls.N)
        y = (0.02 * ages + rng.normal(0.0, noise_sd, cls.N)) * scale
        phi = fit_design(make_cohort(ages, np.zeros(cls.N)), ModelConfig()).values
        return _fit_regions(phi, y[:, None], ("r",))[0]

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_ordinary_scales_converge(self, scale):
        model = self.fit(scale)
        assert model.converged
        assert model.nll - self.N * math.log(scale) == pytest.approx(
            self.fit(1.0).nll, abs=1e-3
        )

    @pytest.mark.parametrize("scale", [1e5, 1e-6, 1e60, 1e80])
    def test_extreme_scales_fit_as_scale_one(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = self.fit(scale)
        unit = self.fit(1.0)
        assert model.converged
        assert model.nll - self.N * math.log(scale) == pytest.approx(unit.nll, abs=1e-3)
        assert model.response_sd / scale == pytest.approx(unit.response_sd, rel=1e-12)
        for name in ("log_alpha", "log_beta"):
            got, expected = getattr(model.hyperparams, name), getattr(unit.hyperparams, name)
            assert got == pytest.approx(expected, rel=1e-6), name

    def test_near_function_of_the_covariates_is_flagged(self, caplog):
        # residual SD about 1e-7 of the column's: log_beta ends on its upper bound
        with caplog.at_level(logging.WARNING, logger="normgauge.blr"):
            model = self.fit(1.0, noise_sd=2.5e-8)
        assert model.hyperparams.log_beta == blr._BOUNDS_FREE[1][1]
        assert not model.converged
        assert f"'r' ({blr._SCALE_AT_BOUND};" in caplog.text
        assert "rescale" not in caplog.text


@pytest.fixture(scope="module")
def affine_cohort():
    cohort, _ = generate(
        SynthSpec(n_per_group={"W": 3000}, n_regions=2, noise_sd=0.25, seed=3)
    )
    return cohort


class TestAffineInvariance:
    """Shifting or rescaling the responses must not break calibration.

    The default design is rank-deficient; a Cholesky-based fit could stall at
    its start point on shifted data and still report convergence, leaving
    held-out Z variances near 0.13.
    """

    @pytest.mark.parametrize(
        "shift,scale",
        [(0.0, 1.0), (10.0, 1.0), (100.0, 1.0), (1000.0, 1.0), (0.0, 1000.0), (0.0, 0.001)],
    )
    def test_held_out_z_variance(self, affine_cohort, shift, scale):
        cohort = dataclasses.replace(
            affine_cohort, responses=affine_cohort.responses * scale + shift
        )
        train = cohort.subset(np.arange(1500))
        test = cohort.subset(np.arange(1500, 3000))
        model = fit_normative(train, ModelConfig())
        assert all(rm.converged for rm in model.region_models)
        z_var = float(deviations(model, test).Z.var())
        assert 0.9 <= z_var <= 1.1, f"held-out Z variance {z_var:.3f}"


# Budget of held-out Z across response units. A shifted or scaled response
# differs from the exact affine image of the unit one by a rounding of at most
# 2^-53 (|shift| + scale |y|), under 1e-13 of the column's SD for shifts up to
# 1e3 at scale 1. The fit amplifies that little, but its stopping rule can end
# the moved column's free fit one Newton step before or after the unit one's,
# within _TOL of the optimum: over 120 cohorts of 200 subjects and 4 regions,
# each moved by x1e5, x1e-6 and +1e3, Z moved by at most 2.9e-8 (median
# 1.7e-13). The grid below stays under 3e-13.
AFFINE_Z_BUDGET = 1e-6


@pytest.fixture(scope="module", params=["gauss", "skewed"])
def unit_scores(request):
    """A cohort in unit scale, and the held-out Z and E of a fit on it."""
    skewed = request.param == "skewed"
    cohort, _ = generate(
        SynthSpec(
            n_per_group={"W": 1000},
            n_regions=4,
            noise_sd=0.5 if skewed else 0.25,
            noise_skew=WarpParams(epsilon=0.5, log_delta=-0.3) if skewed else None,
            seed=3,
        )
    )
    dev = TestAffineOracle.scores(cohort, 0.0, 1.0)
    return cohort, dev


class TestAffineOracle:
    """A response's units must not change its deviations. Oracle: the fit
    and held-out scoring of the same cohort in unit scale, whose Z every
    shifted or rescaled copy must reproduce within AFFINE_Z_BUDGET, and whose
    E it must reproduce times the scale."""

    @staticmethod
    def scores(cohort, shift, scale):
        moved = dataclasses.replace(cohort, responses=cohort.responses * scale + shift)
        model = fit_normative(moved.subset(np.arange(600)))
        assert all(rm.converged for rm in model.region_models)
        return deviations(model, moved.subset(np.arange(600, 1000)))

    @pytest.mark.parametrize(
        "shift,scale",
        [(0.0, 1e-6), (0.0, 1e-3), (0.0, 1e3), (0.0, 1e5), (10.0, 1.0), (1e3, 1.0), (1e3, 1e5)],
    )
    def test_held_out_deviations_agree(self, unit_scores, shift, scale):
        cohort, unit = unit_scores
        moved = self.scores(cohort, shift, scale)
        np.testing.assert_allclose(moved.Z, unit.Z, rtol=0.0, atol=AFFINE_Z_BUDGET)
        np.testing.assert_allclose(moved.E / scale, unit.E, rtol=0.0, atol=AFFINE_Z_BUDGET)


class TestPredictRegion:
    def worked_model(self):
        # m = 4/3, A = 3, beta = 1, identity warp (the worked 1-feature fit)
        return RegionModel(
            region="r0",
            weights=np.array([4.0 / 3.0]),
            chol_precision=np.array([[math.sqrt(3.0)]]),
            hyperparams=Hyperparams(log_alpha=0.0, log_beta=0.0),
            train_z_mean=2.0,
            train_z_var=1.0,
            n_train=2,
        )

    def test_worked_prediction(self):
        pred = predict_region(self.worked_model(), np.array([[1.0]]))
        assert pred.zhat[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert pred.model_variance[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert pred.noise_variance == pytest.approx(1.0, abs=1e-15)

    def test_zero_row_maps_to_origin(self):
        pred = predict_region(self.worked_model(), np.array([[0.0]]))
        assert pred.zhat[0] == 0.0
        assert pred.model_variance[0] == 0.0

    def test_identity_warp_predicts_in_latent_units(self):
        pred = predict_region(self.worked_model(), np.array([[1.0], [0.5]]))
        np.testing.assert_array_equal(pred.yhat, pred.zhat)

    def test_wrong_column_count_rejected(self):
        with pytest.raises(SchemaError):
            predict_region(self.worked_model(), np.ones((2, 3)))

    @pytest.mark.parametrize(
        "noise_skew",
        [None, WarpParams(epsilon=0.5, log_delta=-0.3)],
        ids=["gauss", "skewed"],
    )
    def test_variance_matches_two_sided_cholesky_solve(self, noise_skew):
        # oracle: phi^T A^-1 phi by scipy's cho_solve, on fitted bundles of the
        # rank-deficient default design (condition of A up to 6e5 here)
        cohort, _ = generate(
            SynthSpec(
                n_per_group={"W": 400},
                n_regions=2,
                noise_sd=0.5,
                noise_skew=noise_skew,
                seed=8,
            )
        )
        model = fit_normative(cohort.subset(np.arange(300)))
        warped = [not rm.hyperparams.warp.is_identity() for rm in model.region_models]
        assert any(warped) == (noise_skew is not None)
        held_out = cohort.subset(np.arange(300, 400))
        phi = apply_design(held_out, model.schema).values
        for rm in model.region_models:
            oracle = np.einsum(
                "ij,ji->i", phi, sla.cho_solve((rm.chol_precision, True), phi.T)
            )
            got = predict_region(rm, phi).model_variance
            np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)


def pinned_config():
    return ModelConfig(basis=BasisConfig(knot_range=(20.0, 70.0)))


def engineered_model_and_cohort(y_values, beta=1.0, model_var=None):
    """Zero-weight model: zhat = 0, so Z is warp(y) over the predictive sd."""
    y_values = np.asarray(y_values, dtype=float)
    ages = np.linspace(25.0, 65.0, y_values.size)
    cohort = make_cohort(ages, y_values)
    config = pinned_config()
    design = fit_design(cohort, config)
    m_dim = design.values.shape[1]
    if model_var is None:
        precision = 1e16
    else:
        # isotropic A^{-1} with phi^T A^{-1} phi = model_var for row 0
        norm2 = float(design.values[0] @ design.values[0])
        precision = norm2 / model_var
    region = RegionModel(
        region="r0",
        weights=np.zeros(m_dim),
        chol_precision=np.eye(m_dim) * math.sqrt(precision),
        hyperparams=Hyperparams(log_alpha=0.0, log_beta=math.log(beta)),
        train_z_mean=0.0,
        train_z_var=1.0,
        n_train=max(y_values.size, 2),
    )
    model = NormativeModel(
        region_models=(region,), config=config, schema=design.schema
    )
    return model, cohort


class TestDeviations:
    def test_worked_z_score(self):
        # z - zhat = 1 with sigma^2 = 0.16 and sigma*^2 = 0.09 gives Z = 2.0
        model, cohort = engineered_model_and_cohort(
            [1.0], beta=1.0 / 0.16, model_var=0.09
        )
        dev = deviations(model, cohort)
        assert dev.Z[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert dev.E[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_prediction_gives_zero(self):
        model, cohort = engineered_model_and_cohort([0.0, 0.0, 0.0])
        dev = deviations(model, cohort)
        np.testing.assert_allclose(dev.Z, 0.0, atol=1e-15)
        np.testing.assert_allclose(dev.E, 0.0, atol=1e-15)

    def test_region_mismatch_lists_missing(self):
        model, cohort = engineered_model_and_cohort([0.0, 1.0])
        other = dataclasses.replace(
            cohort, regions=("other",), responses=cohort.responses.copy()
        )
        with pytest.raises(SchemaError, match="r0"):
            deviations(model, other)


class TestScoringOracle:
    """deviations scores blocks of regions through triangular inverses of the
    Cholesky factors. Oracle: the former per-region scoring with a general LU
    solve (evidence_reference.reference_deviations), which Z, E, yhat and the
    log loss must match within 1e-12 absolute."""

    @staticmethod
    def assert_matches_oracle(model, cohort, z_atol=1e-12):
        got, expected = deviations(model, cohort), reference_deviations(model, cohort)
        for name in ("Z", "E", "yhat", "log_loss"):
            np.testing.assert_allclose(
                getattr(got, name),
                getattr(expected, name),
                rtol=0.0,
                atol=z_atol if name == "Z" else 1e-12,
                err_msg=name,
            )

    @pytest.mark.parametrize(
        "noise_skew",
        [None, WarpParams(epsilon=0.5, log_delta=-0.3)],
        ids=["gauss", "skewed"],
    )
    def test_fitted_cohorts(self, noise_skew):
        cohort, _ = generate(
            SynthSpec(
                n_per_group={"A": 100, "B": 100, "W": 400},
                n_regions=20,
                noise_sd=0.5,
                noise_skew=noise_skew,
                group_offsets={"A": -0.5},
                seed=2,
            )
        )
        model = fit_normative(cohort.subset(np.arange(0, 600, 2)))
        warped = [not rm.hyperparams.warp.is_identity() for rm in model.region_models]
        assert any(warped) == (noise_skew is not None)
        self.assert_matches_oracle(model, cohort.subset(np.arange(1, 600, 2)))

    @pytest.mark.parametrize(
        "noise_skew",
        [None, WarpParams(epsilon=0.5, log_delta=-0.3)],
        ids=["gauss", "skewed"],
    )
    def test_badly_conditioned_bundle(self, noise_skew):
        # the cohorts of test_variance_matches_two_sided_cholesky_solve with
        # less noise, which leaves A worse conditioned
        cohort, _ = generate(
            SynthSpec(
                n_per_group={"W": 400},
                n_regions=2,
                noise_sd=0.1,
                noise_skew=noise_skew,
                seed=8,
            )
        )
        model = fit_normative(cohort.subset(np.arange(300)))
        cond = max(
            np.linalg.cond(rm.chol_precision @ rm.chol_precision.T)
            for rm in model.region_models
        )
        assert cond > 1e6
        self.assert_matches_oracle(model, cohort.subset(np.arange(300, 400)))

    def test_region_held_at_a_scale_bound(self):
        # a response nearly a function of the covariates holds log_beta at
        # its upper bound
        rng = np.random.default_rng(0)
        ages = rng.uniform(20, 70, 400)
        y = 0.02 * ages + rng.normal(0.0, 2.5e-8, 400)
        cohort = make_cohort(ages, y)
        model = fit_normative(cohort.subset(np.arange(300)))
        (rm,) = model.region_models
        assert blr._scale_at_bound(
            [rm.hyperparams.log_alpha, rm.hyperparams.log_beta]
        ) and not rm.converged
        # zhat is O(1) on the standardized column and the predictive SD is
        # e^-10 there, so Z carries the products' rounding of zhat times e^10
        self.assert_matches_oracle(
            model, cohort.subset(np.arange(300, 400)), z_atol=1e-12 * math.exp(10.0)
        )


class TestScoringIndependence:
    """A region's scores depend only on its own model, column and the design
    rows: each column is bitwise that of a one-region model scored alone, and
    predict_region gives bitwise the pass's values. Seventeen regions leave
    the last block of the pass partly filled."""

    @staticmethod
    def model_and_cohort():
        ages, _ = TestNormalityScreen.ages_and_design()
        kinds = ("gaussian", "skewed-warp", "student-t", "bimodal", "laplace")
        responses = np.column_stack(
            [TestNormalityScreen.responses(kind)[1] for kind in kinds]
        )[:, :17]
        cohort = make_cohort(ages, responses)
        model = fit_normative(cohort.subset(np.arange(300)))
        return model, cohort

    @pytest.mark.parametrize("rows", [slice(300, 400), slice(300, 301)], ids=["100-rows", "1-row"])
    def test_each_region_scores_as_if_alone(self, rows):
        model, cohort = self.model_and_cohort()
        assert len(model.region_models) % blr._SCORE_BLOCK != 0
        assert len(model.region_models) > blr._SCORE_BLOCK
        warped = [not rm.hyperparams.warp.is_identity() for rm in model.region_models]
        assert any(warped) and not all(warped)
        test = cohort.subset(np.arange(cohort.n_subjects)[rows])
        full = deviations(model, test)
        phi = apply_design(test, model.schema).values
        for j, rm in enumerate(model.region_models):
            one = NormativeModel(region_models=(rm,), config=model.config, schema=model.schema)
            column = dataclasses.replace(
                test, regions=(rm.region,), responses=test.responses[:, [j]]
            )
            alone = deviations(one, column)
            for name in ("Z", "E", "yhat", "log_loss"):
                np.testing.assert_array_equal(
                    getattr(alone, name)[:, 0], getattr(full, name)[:, j], err_msg=name
                )
            pred = predict_region(rm, phi)
            y = (test.responses[:, j] - rm.response_mean) / rm.response_sd
            z = warp_forward(y, rm.hyperparams.warp)
            var_pred = pred.noise_variance + pred.model_variance
            np.testing.assert_array_equal((z - pred.zhat) / np.sqrt(var_pred), full.Z[:, j])
            np.testing.assert_array_equal(pred.yhat, full.yhat[:, j])
            np.testing.assert_array_equal(
                blr._log_loss_terms(z, pred.zhat, var_pred, rm.train_z_mean, rm.train_z_var),
                full.log_loss[:, j],
            )


class TestFitMetrics:
    def test_perfect_prediction_ev_one(self):
        assert explained_variance(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 1.0

    def test_worked_negative_ev(self):
        # population variances: Var(y - yhat) = 8/9, Var(y) = 2/3 -> EV = -1/3
        ev = explained_variance(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0]))
        assert ev == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_constant_response_ev_missing(self):
        assert explained_variance(np.array([2.0, 2.0]), np.array([1.0, 2.0])) is None

    def test_msll_of_trivial_model_is_zero(self):
        z = np.array([0.4, -1.2, 0.7, 2.0])
        mean, var = float(z.mean()), float(z.var())
        out = np.mean(
            blr._log_loss_terms(z, np.full(z.size, mean), np.full(z.size, var), mean, var)
        )
        assert out == 0.0

    def test_symmetric_z_moments(self):
        # Z column [-1, 0, 1]: skew 0, excess kurtosis (2/3)/(4/9) - 3 = -1.5
        model, cohort = engineered_model_and_cohort([-1.0, 0.0, 1.0])
        metrics = fit_metrics(model, cohort)[0]
        assert metrics.skew == pytest.approx(0.0, abs=1e-12)
        assert metrics.kurtosis == pytest.approx(-1.5, abs=1e-9)

    def test_fitted_model_metrics_reasonable(self):
        rng = np.random.default_rng(3)
        n = 600
        ages = rng.uniform(20, 70, n)
        y = 0.5 + 0.03 * ages + rng.normal(0, 0.2, n)
        cohort = make_cohort(ages, y)
        model = fit_normative(cohort, ModelConfig())
        metrics = fit_metrics(model, cohort)[0]
        assert metrics.explained_variance > 0.7
        assert metrics.msll < -0.5
        assert abs(metrics.skew) < 0.3
        assert abs(metrics.kurtosis) < 0.6

    def test_matches_per_region_scoring(self):
        # The reference is the former algorithm: predict each region on its
        # own and apply the public metric functions to it.
        cohort, _ = generate(
            SynthSpec(
                n_per_group={"W": 400},
                n_regions=3,
                noise_sd=0.5,
                noise_skew=WarpParams(epsilon=1.0, log_delta=-0.3),
                seed=4,
            )
        )
        model = fit_normative(cohort.subset(np.arange(250)))
        assert any(not rm.hyperparams.warp.is_identity() for rm in model.region_models)
        test = cohort.subset(np.arange(250, 400))
        phi = apply_design(test, model.schema).values
        metrics = fit_metrics(model, test)
        for j, (rm, got) in enumerate(zip(model.region_models, metrics)):
            y = test.responses[:, j]
            pred = predict_region(rm, phi)
            z = warp_forward((y - rm.response_mean) / rm.response_sd, rm.hyperparams.warp)
            var_pred = pred.noise_variance + pred.model_variance
            z_dev = (z - pred.zhat) / np.sqrt(var_pred)
            assert got.region == rm.region
            assert got.explained_variance == explained_variance(y, pred.yhat)
            assert got.msll == np.mean(
                blr._log_loss_terms(z, pred.zhat, var_pred, rm.train_z_mean, rm.train_z_var)
            )
            assert got.skew == float(stats.skew(z_dev))
            assert got.kurtosis == float(stats.kurtosis(z_dev))


class TestZMomentsMatchScipy:
    """region_metrics skew and kurtosis are bitwise scipy.stats.skew/kurtosis."""

    @staticmethod
    def scipy_moments(column):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return float(stats.skew(column)), float(stats.kurtosis(column))

    @staticmethod
    def assert_same(got, expected):
        for a, b in zip(got, expected):
            assert a == b or (math.isnan(a) and math.isnan(b)), (got, expected)

    @pytest.mark.parametrize(
        "noise_skew",
        [None, WarpParams(epsilon=0.5, log_delta=-0.3)],
        ids=["gauss", "skewed"],
    )
    def test_fitted_models(self, noise_skew):
        cohort, _ = generate(
            SynthSpec(
                n_per_group={"W": 500},
                n_regions=6,
                noise_sd=0.5,
                noise_skew=noise_skew,
                seed=8,
            )
        )
        model = fit_normative(cohort.subset(np.arange(300)))
        warped = [not rm.hyperparams.warp.is_identity() for rm in model.region_models]
        assert any(warped) == (noise_skew is not None)
        dm = deviations(model, cohort.subset(np.arange(300, 500)))
        for j, got in enumerate(region_metrics(dm)):
            expected = self.scipy_moments(dm.Z[:, j])
            self.assert_same((got.skew, got.kurtosis), expected)

    @staticmethod
    def column_metrics(column):
        n = column.size
        dm = DeviationMatrix(
            ids=tuple(f"s{i}" for i in range(n)),
            regions=("r0",),
            Z=column[:, None],
            E=np.zeros((n, 1)),
            yhat=np.zeros((n, 1)),
            log_loss=np.zeros((n, 1)),
            y=np.ones((n, 1)),
        )
        (metrics,) = region_metrics(dm)
        return metrics.skew, metrics.kurtosis

    def test_constant_columns_are_nan(self):
        for column in (np.full(40, 0.7), np.zeros(5), np.array([3.0]), np.full(9, -1e300)):
            skew, kurtosis = self.column_metrics(column)
            assert math.isnan(skew) and math.isnan(kurtosis)
            self.assert_same((skew, kurtosis), self.scipy_moments(column))

    def test_random_and_near_constant_columns(self):
        rng = np.random.default_rng(11)
        columns = [
            1e8 + rng.normal(0, 1e-9, 50),
            1e8 + rng.normal(0, 1e-6, 50),
            np.array([1.0, 1.0, 1.0 + 2e-16]),
            np.array([0.0, 1.0]),
        ]
        for k in range(300):
            n = int(rng.integers(2, 400))
            scale = 10.0 ** rng.uniform(-6, 6)
            columns.append(rng.standard_t(3 + k % 5, n) * scale + rng.normal() * scale)
        for column in columns:
            self.assert_same(self.column_metrics(column), self.scipy_moments(column))

    def test_near_constant_column_warns_nothing(self):
        # scipy.stats warns "Precision loss" here; the metrics do not
        column = 1e8 + np.random.default_rng(2).normal(0, 1e-9, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.column_metrics(column)


class TestNormativeModel:
    def small_cohort(self, seed=0, n=150, d=3):
        rng = np.random.default_rng(seed)
        ages = rng.uniform(20, 70, n)
        base = 1.0 + 0.02 * ages
        responses = base[:, None] + rng.normal(0, 0.3, (n, d))
        return make_cohort(ages, responses)

    def test_parallel_fit_is_bitwise_identical(self):
        cohort = self.small_cohort()
        m1 = fit_normative(cohort, ModelConfig(), workers=1, seed=5)
        m4 = fit_normative(cohort, ModelConfig(), workers=4, seed=5)
        for r1, r4 in zip(m1.region_models, m4.region_models):
            np.testing.assert_array_equal(r1.weights, r4.weights)
            assert r1.hyperparams == r4.hyperparams
            assert r1.nll == r4.nll

    def test_region_order_independence(self):
        cohort = self.small_cohort()
        perm = [2, 0, 1]
        permuted = dataclasses.replace(
            cohort,
            regions=tuple(cohort.regions[i] for i in perm),
            responses=cohort.responses[:, perm],
        )
        m1 = fit_normative(cohort, ModelConfig(), seed=5)
        m2 = fit_normative(permuted, ModelConfig(), seed=5)
        by_name = {r.region: r for r in m2.region_models}
        for r1 in m1.region_models:
            r2 = by_name[r1.region]
            np.testing.assert_array_equal(r1.weights, r2.weights)
            assert r1.hyperparams == r2.hyperparams

    def test_bundle_round_trip_bitwise(self, tmp_path):
        cohort = self.small_cohort(seed=2)
        model = fit_normative(cohort, ModelConfig(), seed=9)
        save_bundle(model, tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        for r1, r2 in zip(model.region_models, loaded.region_models):
            np.testing.assert_array_equal(r1.weights, r2.weights)
            np.testing.assert_array_equal(r1.chol_precision, r2.chol_precision)
            assert r1.hyperparams == r2.hyperparams
            assert r1.train_z_mean == r2.train_z_mean
            assert r1.train_z_var == r2.train_z_var
        dev1 = deviations(model, cohort)
        dev2 = deviations(loaded, cohort)
        np.testing.assert_array_equal(dev1.Z, dev2.Z)

    def test_bundle_with_17_digit_floats_loads_bitwise(self, tmp_path):
        # bundles used to print every float as format(x, ".16e"); they must
        # still load to the same doubles
        cohort = self.small_cohort(seed=4)
        model = fit_normative(cohort, ModelConfig(), seed=1)
        save_bundle(model, tmp_path / "bundle")
        token = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')

        def as_17_digits(match):
            text = match.group()
            if text.startswith('"') or not any(c in text for c in ".eE"):
                return text
            return format(float(text), ".16e")

        rewritten = 0
        for name in ("model.json", "regions.json"):
            path = tmp_path / "bundle" / name
            text = path.read_text(encoding="utf-8")
            old_text = token.sub(as_17_digits, text)
            rewritten += old_text != text
            path.write_text(old_text, encoding="utf-8")
        assert rewritten == 2
        loaded = load_bundle(tmp_path / "bundle")
        for r1, r2 in zip(model.region_models, loaded.region_models, strict=True):
            np.testing.assert_array_equal(r1.weights, r2.weights)
            np.testing.assert_array_equal(r1.chol_precision, r2.chol_precision)
            assert r1.hyperparams == r2.hyperparams
        np.testing.assert_array_equal(
            deviations(model, cohort).Z, deviations(loaded, cohort).Z
        )

    def test_provenance_recorded(self, tmp_path):
        cohort = self.small_cohort(seed=6)
        model = fit_normative(cohort, ModelConfig(), seed=33)
        assert model.provenance["seed"] == 33
        assert model.provenance["cohort_hash"] == cohort.content_hash()
        assert model.provenance["n_train"] == cohort.n_subjects

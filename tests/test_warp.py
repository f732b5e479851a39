"""Tests for the sinh-arcsinh response warp."""

import math

import numpy as np
import pytest
from evidence_reference import warp_derivative, warp_log_jacobian
from scipy.stats import kurtosis, skew

from normgauge import WarpParams, warp_forward, warp_inverse


class TestWarpForward:
    def test_zero_fixed_point(self):
        # odd function: y=0 maps to 0 whenever epsilon=0
        for log_delta in (-0.7, 0.0, 0.9):
            p = WarpParams(epsilon=0.0, log_delta=log_delta)
            assert warp_forward(0.0, p) == 0.0

    def test_identity_parameters_exact(self):
        p = WarpParams(epsilon=0.0, log_delta=0.0)
        y = np.linspace(-50.0, 50.0, 1001)
        out = np.asarray(warp_forward(y, p))
        np.testing.assert_array_equal(out, y)

    def test_double_angle_value(self):
        # sinh(2u) = 2 sinh(u) cosh(u) with u = asinh(1) gives 2*sqrt(2)
        p = WarpParams(epsilon=0.0, log_delta=math.log(2.0))
        assert warp_forward(1.0, p) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(11)
        y = np.sort(rng.uniform(-20, 20, 500))
        for _ in range(20):
            p = WarpParams(epsilon=rng.uniform(-2, 2), log_delta=rng.uniform(-1.5, 1.5))
            z = np.asarray(warp_forward(y, p))
            assert np.all(np.diff(z) > 0)


class TestWarpInverse:
    def test_round_trip_grid(self):
        rng = np.random.default_rng(3)
        z = np.linspace(-100.0, 100.0, 401)
        for _ in range(100):
            p = WarpParams(epsilon=rng.uniform(-2, 2), log_delta=rng.uniform(-1.5, 1.5))
            back = np.asarray(warp_forward(warp_inverse(z, p), p))
            assert np.max(np.abs(back - z)) < 1e-10

    def test_zero(self):
        assert warp_inverse(0.0, WarpParams(epsilon=0.0, log_delta=0.4)) == 0.0

    def test_inverse_of_forward_example(self):
        p = WarpParams(epsilon=0.0, log_delta=math.log(2.0))
        assert warp_inverse(2.0 * math.sqrt(2.0), p) == pytest.approx(1.0, abs=1e-9)

    def test_identity_parameters_exact(self):
        p = WarpParams()
        z = np.linspace(-9.0, 9.0, 101)
        np.testing.assert_array_equal(np.asarray(warp_inverse(z, p)), z)


class TestWarpJacobian:
    def test_identity_is_zero(self):
        assert warp_log_jacobian(0.0, WarpParams()) == 0.0
        y = np.linspace(-4, 4, 17)
        np.testing.assert_array_equal(np.asarray(warp_log_jacobian(y, WarpParams())), 0.0)

    def test_scale_two_at_origin(self):
        # f'(0) = delta * cosh(-epsilon); epsilon=0 gives exactly delta
        p = WarpParams(epsilon=0.0, log_delta=math.log(2.0))
        assert warp_log_jacobian(0.0, p) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        y = rng.uniform(-5, 5, 200)
        h = 1e-6
        for _ in range(10):
            p = WarpParams(epsilon=rng.uniform(-1.5, 1.5), log_delta=rng.uniform(-1, 1))
            fd = (np.asarray(warp_forward(y + h, p)) - np.asarray(warp_forward(y - h, p))) / (2 * h)
            analytic = np.asarray(warp_derivative(y, p))
            np.testing.assert_allclose(analytic, fd, rtol=1e-6)
            np.testing.assert_allclose(np.asarray(warp_log_jacobian(y, p)), np.log(analytic), rtol=1e-12)

    def test_derivative_positive(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(-30, 30, 300)
        for _ in range(20):
            p = WarpParams(epsilon=rng.uniform(-2, 2), log_delta=rng.uniform(-1.5, 1.5))
            assert np.all(np.asarray(warp_derivative(y, p)) > 0)


class TestGaussianization:
    def test_normal_draws_recovered(self):
        rng = np.random.default_rng(99)
        z = rng.standard_normal(100_000)
        for p in (WarpParams(0.8, -0.4), WarpParams(-0.5, 0.3), WarpParams(1.5, 0.0)):
            back = np.asarray(warp_forward(warp_inverse(z, p), p))
            assert abs(skew(back)) < 0.05
            assert abs(kurtosis(back)) < 0.1

    def test_inverse_skews_by_epsilon_sign(self):
        # positive epsilon shifts inverse-warped mass upward (right skew)
        rng = np.random.default_rng(17)
        z = rng.standard_normal(50_000)
        y_pos = np.asarray(warp_inverse(z, WarpParams(epsilon=0.8, log_delta=0.0)))
        y_neg = np.asarray(warp_inverse(z, WarpParams(epsilon=-0.8, log_delta=0.0)))
        assert skew(y_pos) > 0.2
        assert skew(y_neg) < -0.2


class TestWarpParams:
    def test_serialization_round_trip(self):
        p = WarpParams(epsilon=0.31, log_delta=-0.12)
        assert WarpParams.from_dict(p.to_dict()) == p
        assert set(p.to_dict()) == {"epsilon", "log_delta"}

    def test_is_identity(self):
        assert WarpParams().is_identity()
        assert not WarpParams(epsilon=1e-12).is_identity()
        assert not WarpParams(log_delta=1e-12).is_identity()

    def test_delta_positive(self):
        assert WarpParams(log_delta=-40.0).delta > 0
        assert WarpParams(log_delta=3.0).delta == pytest.approx(math.exp(3.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception):
            WarpParams(epsilon=float("nan"))

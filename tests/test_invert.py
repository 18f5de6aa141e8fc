"""Closed-form inversions and safeguard truncation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submoments.errors import MomentsOutsideModelRange, ParameterDomain
from submoments.estimators import covariance_curve, empirical_mean, lagged_covariances
from submoments.grids import SubsamplingScheme
from submoments.invert import (
    CIR_PARAMETER_NAMES,
    OU_PARAMETER_NAMES,
    ParameterBall,
    ParameterEstimate,
    decay_rate,
    invert_cir,
    invert_ou,
    ou_moment_map,
    truncate_to_ball,
)

from oracles import cir_moment_map


class TestExtract:
    """The inversion's moments ``[mean, cov(0), cov(u1)]`` read off the kernel arrays."""

    SCHEME = SubsamplingScheme(50, 0.5)

    def test_constant_sequence(self):
        cov, mean = lagged_covariances(np.full(60, 2.5), 50, (0, 2))
        assert mean[0] == 2.5
        assert cov[0, 0, 0] == 0.0 and cov[1, 0, 0] == 0.0
        with pytest.raises(MomentsOutsideModelRange):
            invert_ou([mean[0], cov[0, 0, 0], cov[1, 0, 0]], 1.0)

    def test_matches_direct_estimators(self):
        # estimate --model takes them from empirical_mean and covariance_curve,
        # the end-to-end lab from one lagged_covariances call
        arr = np.random.default_rng(61).standard_normal(60)
        cov, mean = lagged_covariances(arr, 50, (0, 2))
        assert mean[0] == empirical_mean(arr[:50])[0]
        var, cov_u1 = covariance_curve(arr, self.SCHEME, [0.0, 1.0])
        assert cov[0, 0, 0] == var.matrix[0, 0] and cov[1, 0, 0] == cov_u1.matrix[0, 0]


class TestClosedForms:
    def test_ou_worked_examples(self):
        est = invert_ou([0.0, 1.0, math.exp(-1.0)], 1.0)
        assert est.names == OU_PARAMETER_NAMES
        assert est.theta == pytest.approx([0.0, 1.0, math.sqrt(2.0)], rel=1e-12)
        est = invert_ou([5.0, 2.0, 2.0 * math.exp(-3.0)], 1.0)
        assert est.theta == pytest.approx([5.0, 3.0, math.sqrt(12.0)], rel=1e-12)

    def test_ou_round_trip(self):
        for mu in (-1.0, 0.0, 2.0):
            for rev in (0.3, 1.0, 2.5):
                for noise in (0.5, 1.0, 2.0):
                    theta = np.array([mu, rev, noise])
                    back = invert_ou(ou_moment_map(theta, 0.7), 0.7).theta
                    assert back == pytest.approx(theta, rel=1e-9)

    def test_ou_range_guards(self):
        fit = re.escape("cov at lag 1.0 (1.0) must be positive and below cov at lag 0.0 (1.0)")
        with pytest.raises(MomentsOutsideModelRange, match=fit):
            invert_ou([0.0, 1.0, 1.0], 1.0)  # not decreasing
        with pytest.raises(MomentsOutsideModelRange):
            invert_ou([0.0, 1.0, -0.5], 1.0)
        with pytest.raises(MomentsOutsideModelRange):
            invert_ou([0.0, -1.0, 0.5], 1.0)
        with pytest.raises(ParameterDomain):
            invert_ou([0.0, 1.0, 0.5], 0.0)
        with pytest.raises(ParameterDomain):
            invert_ou([0.0, 1.0], 1.0)

    def test_cir_worked_example(self):
        psi = [0.04, 0.002, 0.002 * math.exp(-2.0)]
        est = invert_cir(psi, 1.0)
        assert est.names == CIR_PARAMETER_NAMES
        assert est.theta == pytest.approx([2.0, 0.04, math.sqrt(0.2)], rel=1e-12)

    def test_cir_round_trip(self):
        for rev in (0.5, 2.0):
            for level in (0.02, 0.3):
                for vol in (0.1, 0.6):
                    theta = np.array([rev, level, vol])
                    back = invert_cir(cir_moment_map(theta, 1.5), 1.5).theta
                    assert back == pytest.approx(theta, rel=1e-9)

    def test_cir_range_guards(self):
        with pytest.raises(MomentsOutsideModelRange, match="the mean must be positive, got -0.04"):
            invert_cir([-0.04, 0.002, 0.001], 1.0)
        fit = re.escape("cov at lag 1.0 (0.002) must be positive and below cov at lag 0.0 (0.002)")
        with pytest.raises(MomentsOutsideModelRange, match=fit):
            invert_cir([0.04, 0.002, 0.002], 1.0)

    def test_forward_map_domain(self):
        with pytest.raises(ParameterDomain):
            ou_moment_map([0.0, -1.0, 1.0], 1.0)


class TestDecayRate:
    """The one rate fit behind both inversions and the realized-variance extrapolation."""

    def test_log_ratio_over_the_lag_gap(self):
        assert decay_rate(2.0, 2.0 * math.exp(-1.5), 0.5, 2.0) == pytest.approx(1.0, rel=1e-12)
        # from lag 0 the gap is the lag itself, bit for bit
        assert decay_rate(0.3, 0.1, 0.0, 0.7) == math.log(0.3 / 0.1) / 0.7
        assert decay_rate(np.float64(0.3), np.float64(0.1), 0.0, 3) == math.log(0.3 / 0.1) / 3

    @pytest.mark.parametrize(
        "k_a, k_b", [(1.0, 1.0), (1.0, 2.0), (1.0, 0.0), (-1.0, -2.0), (math.nan, 0.5), (1.0, math.nan)]
    )
    def test_outside_the_range_names_both_lags_and_values(self, k_a, k_b):
        message = f"cov at lag 2.0 ({k_b}) must be positive and below cov at lag 0.5 ({k_a})"
        with pytest.raises(MomentsOutsideModelRange, match=re.escape(message)):
            decay_rate(k_a, k_b, 0.5, 2.0)



class TestBallAndTruncation:
    def test_contains(self):
        ball = ParameterBall(center=[1.0, 0.0], radius=2.0)
        assert ball.contains([1.0, 2.0])  # distance exactly the radius
        assert not ball.contains([1.0, 2.1])

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            ParameterBall(center=[0.0], radius=0.0)
        with pytest.raises(ParameterDomain):
            ParameterBall(center=[math.nan], radius=1.0)

    def test_truncate_vector(self):
        ball = ParameterBall(center=[0.0, 0.0], radius=1.0)
        kept = truncate_to_ball(ParameterEstimate([0.3, 0.4], ("a", "b")), ball)
        assert not kept.truncated and kept.theta == pytest.approx([0.3, 0.4])
        zeroed = truncate_to_ball(ParameterEstimate([3.0, 4.0], ("a", "b")), ball)
        assert zeroed.truncated and np.array_equal(zeroed.theta, [0.0, 0.0])

    def test_truncate_estimate_keeps_metadata(self):
        est = invert_ou([0.0, 1.0, math.exp(-1.0)], 1.0)
        ball = ParameterBall(center=[0.0, 0.0, 0.0], radius=0.1)
        safe = truncate_to_ball(est, ball)
        assert safe.truncated and np.all(safe.theta == 0.0)
        assert safe.names == est.names

    @given(
        x=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
        radius=st.floats(0.1, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncation_idempotent(self, x, radius):
        ball = ParameterBall(center=[1.0, -1.0], radius=radius)
        once = truncate_to_ball(ParameterEstimate(x, ("a", "b")), ball)
        twice = truncate_to_ball(once, ball)
        assert np.array_equal(once.theta, twice.theta)


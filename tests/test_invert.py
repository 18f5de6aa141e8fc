"""Moment descriptors, closed-form inversions, and safeguard truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submoments.errors import MomentsOutsideModelRange, ParameterDomain
from submoments.estimators import empirical_mean, lagged_covariance
from submoments.grids import SubsamplingScheme
from submoments.invert import (
    CIR_PARAMETER_NAMES,
    MomentDescriptor,
    MomentVector,
    OU_PARAMETER_NAMES,
    ParameterBall,
    default_ou_descriptors,
    extract_moment_vector,
    invert_cir,
    invert_ou,
    ou_moment_map,
    truncate_to_ball,
    truncate_vector,
)
from submoments.lab import ExperimentConfig
from submoments.models import OUParams

from oracles import cir_moment_map


class TestDescriptors:
    def test_str_round_trip(self):
        assert str(MomentDescriptor.mean(3)) == "mean(3)"
        assert str(MomentDescriptor.cov(0, 1, 0.25)) == "cov(0,1)@0.25"

    def test_constructor_domain(self):
        with pytest.raises(ParameterDomain):
            MomentDescriptor(kind="median", i=0)
        with pytest.raises(ParameterDomain):
            MomentDescriptor(kind="mean", i=0, lag=1.0)
        with pytest.raises(ParameterDomain):
            MomentDescriptor.cov(0, 0, -0.5)


class TestMomentVector:
    def test_distinct_descriptors_required(self):
        d = MomentDescriptor.cov(0, 0, 0.5)
        with pytest.raises(ParameterDomain):
            MomentVector(values=[1.0, 2.0], descriptors=(d, d))

    def test_count_mismatch(self):
        with pytest.raises(ParameterDomain):
            MomentVector(values=[1.0], descriptors=())

    def test_len(self):
        mv = MomentVector([1.0, 2.0], (MomentDescriptor.mean(0), MomentDescriptor.cov()))
        assert len(mv) == 2


class TestExtract:
    SCHEME = SubsamplingScheme(50, 0.5)

    def test_constant_sequence(self):
        mv = extract_moment_vector(
            np.full(60, 2.5),
            self.SCHEME,
            [
                MomentDescriptor.mean(0),
                MomentDescriptor.cov(0, 0, 0.0),
                MomentDescriptor.cov(0, 0, 1.0),
            ],
        )
        assert mv.values[0] == 2.5
        assert mv.values[1] == 0.0 and mv.values[2] == 0.0

    def test_matches_direct_estimators(self):
        arr = np.random.default_rng(61).standard_normal(60)
        mv = extract_moment_vector(
            arr, self.SCHEME, [MomentDescriptor.mean(0), MomentDescriptor.cov(0, 0, 1.0)]
        )
        assert mv.values[0] == empirical_mean(arr[:50]).vector[0]
        direct = lagged_covariance(arr, 50, 2, 0.5)
        assert mv.values[1] == direct.matrix[0, 0]

    def test_equal_rounded_lags_agree(self):
        arr = np.random.default_rng(62).standard_normal(60)
        mv = extract_moment_vector(
            arr, self.SCHEME, [MomentDescriptor.cov(0, 0, 0.5), MomentDescriptor.cov(0, 0, 0.52)]
        )
        assert mv.values[0] == mv.values[1]
        assert mv.descriptors[0].lag != mv.descriptors[1].lag

    def test_horizon_and_index_guards(self):
        # a lag past the horizon is refused where it enters, by the sweep config
        config = ExperimentConfig(
            model=OUParams(0.0, 1.0, 1.0),
            epsilon_grid=(0.3, 0.2, 0.1),
            lags=(3.0,),
            horizon_a=2.0,
        )
        with pytest.raises(ParameterDomain, match="horizon"):
            config.validate()
        arr = np.random.default_rng(63).standard_normal(60)
        with pytest.raises(ParameterDomain, match="out of range"):
            extract_moment_vector(arr, self.SCHEME, [MomentDescriptor.mean(1)])
        with pytest.raises(ParameterDomain, match="out of range"):
            extract_moment_vector(arr, self.SCHEME, [MomentDescriptor.cov(0, 1, 0.0)])

    def test_default_descriptors(self):
        d = default_ou_descriptors(0.5)
        assert [str(x) for x in d] == ["mean(0)", "cov(0,0)@0", "cov(0,0)@0.5"]
        with pytest.raises(ParameterDomain):
            default_ou_descriptors(0.0)


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
        with pytest.raises(MomentsOutsideModelRange):
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
        with pytest.raises(MomentsOutsideModelRange):
            invert_cir([-0.04, 0.002, 0.001], 1.0)
        with pytest.raises(MomentsOutsideModelRange):
            invert_cir([0.04, 0.002, 0.002], 1.0)

    def test_forward_map_domain(self):
        with pytest.raises(ParameterDomain):
            ou_moment_map([0.0, -1.0, 1.0], 1.0)


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
        kept, clipped = truncate_vector([0.3, 0.4], ball)
        assert not clipped and kept == pytest.approx([0.3, 0.4])
        zeroed, clipped = truncate_vector([3.0, 4.0], ball)
        assert clipped and np.array_equal(zeroed, [0.0, 0.0])

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
        once, _ = truncate_vector(x, ball)
        twice, _ = truncate_vector(once, ball)
        assert np.array_equal(once, twice)


"""Design rules, bound constants, and decorrelation profile algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from submoments.errors import ParameterDomain
from submoments.grids import SubsamplingScheme
from submoments.models import OUParams, ou_decorrelation_profile
from submoments.schemes import (
    BoundInputs,
    DecorrelationProfile,
    covariance_bound_constant,
    decorrelation_sum_bound,
    error_bound_observable,
    error_bound_unobservable,
    gaussian_fourth_moment,
    observable_bound_terms,
    reference_bound_inputs,
    scheme_from_n,
    scheme_from_rho,
)

UNIT_TAIL = DecorrelationProfile.exponential(c=math.e, rate=1.0)  # tail integral 1


class TestProfiles:
    def test_exponential_tail_integral_closed_form(self):
        prof = DecorrelationProfile.exponential(c=3.0, rate=0.7)
        oracle, err = quad(lambda u: 3.0 * math.exp(-0.7 * u), 1.0, np.inf)
        assert prof.integral_tail == pytest.approx(oracle, rel=1e-9)
        assert prof.integral_full == pytest.approx(3.0 / 0.7, rel=1e-12)

    def test_unit_tail_profile(self):
        assert UNIT_TAIL.integral_tail == pytest.approx(1.0, rel=1e-12)

    def test_power_integrals(self):
        prof = DecorrelationProfile.power(c=2.0, exponent=3.0)
        assert prof.integral_tail == pytest.approx(1.0, rel=1e-12)
        assert prof.integral_full == math.inf

    def test_power_needs_integrable_tail(self):
        with pytest.raises(ParameterDomain):
            DecorrelationProfile.power(c=1.0, exponent=1.0)

    def test_tabulated_evaluate_and_integrals(self):
        # flat at 2 before the first knot, linear 2 -> 1 on [1, 3], zero after
        prof = DecorrelationProfile.tabulated([1.0, 3.0], [2.0, 1.0])
        assert prof.evaluate(0.0) == 2.0
        assert prof.evaluate(2.0) == pytest.approx(1.5)
        assert prof.evaluate(10.0) == 0.0
        assert prof.integral_full == pytest.approx(2.0 + 3.0, rel=1e-12)
        assert prof.integral_tail == pytest.approx(3.0, rel=1e-12)

    def test_tabulated_must_decrease(self):
        with pytest.raises(ParameterDomain):
            DecorrelationProfile.tabulated([1.0, 2.0], [1.0, 2.0])

    def test_negative_gap_rejected(self):
        with pytest.raises(ParameterDomain):
            UNIT_TAIL.evaluate(-0.5)


class TestBoundConstants:
    def test_covariance_constant_worked_example(self):
        # r=1, tail integral 1, nu=1, horizon 0: 8*sqrt(1) + 2.5*sqrt(1) = 10.5
        inputs = BoundInputs(
            nu=1.0, horizon_a=0.0, dim_r=1, profile=UNIT_TAIL, lipschitz_lambda=1.0
        )
        assert covariance_bound_constant(inputs) == pytest.approx(10.5, rel=1e-12)

    @pytest.mark.parametrize("field", ["nu", "horizon_a", "lipschitz_lambda"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constants_rejected(self, field, value):
        fields = dict(nu=1.0, horizon_a=1.0, dim_r=1, profile=UNIT_TAIL, lipschitz_lambda=1.0)
        with pytest.raises(ParameterDomain, match="must be finite"):
            BoundInputs(**{**fields, field: value})

    def test_unobservable_bound_formula(self):
        inputs = reference_bound_inputs()
        scheme = SubsamplingScheme(n_obs=100, big_delta=1.0)
        gamma = 8.0 + 2.5 * math.sqrt(2.0)
        expect = gamma / 10.0 + 1.0
        assert error_bound_unobservable(inputs, scheme) == pytest.approx(expect, rel=1e-12)

    def test_observable_matches_unobservable_at_zero_rho(self):
        inputs = reference_bound_inputs()
        for scheme in (scheme_from_n(1000), scheme_from_n(27), SubsamplingScheme(50, 0.3)):
            assert error_bound_observable(inputs, scheme, 0.0) == pytest.approx(
                error_bound_unobservable(inputs, scheme), rel=1e-12
            )

    def test_proxy_term(self):
        inputs = reference_bound_inputs()
        proxy, _ = observable_bound_terms(inputs, scheme_from_n(1000), rho=0.1)
        assert proxy == pytest.approx(0.4, rel=1e-12)

    def test_statistical_term_halves_when_budget_grows_eightfold(self):
        inputs = reference_bound_inputs()
        _, stat_small = observable_bound_terms(inputs, scheme_from_n(1000), 0.0)
        _, stat_big = observable_bound_terms(inputs, scheme_from_n(8000), 0.0)
        assert stat_big == pytest.approx(stat_small / 2.0, rel=1e-9)


class TestSchemeRules:
    def test_budget_rule_examples(self):
        assert scheme_from_n(1000).big_delta == pytest.approx(0.1, rel=1e-12)
        assert scheme_from_n(8).big_delta == pytest.approx(0.5, rel=1e-12)
        assert scheme_from_n(10**6, c_delta=2.0).big_delta == pytest.approx(0.02, rel=1e-12)

    def test_budget_rule_minimum(self):
        with pytest.raises(ParameterDomain):
            scheme_from_n(7)

    def test_quality_rule_example(self):
        rec = scheme_from_rho(0.1)
        assert rec.scheme.n_obs == 1000
        assert rec.scheme.big_delta == pytest.approx(0.1, rel=1e-12)
        assert rec.span == pytest.approx(100.0, rel=1e-12)

    def test_quality_rule_clamps_small_budgets(self):
        assert scheme_from_rho(0.5).scheme.n_obs == 8
        assert scheme_from_rho(0.9).scheme.n_obs == 8

    def test_quality_rule_budget_constant(self):
        assert scheme_from_rho(0.05, c_n=12.0).scheme.n_obs == 96000

    def test_quality_rule_domain(self):
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ParameterDomain):
                scheme_from_rho(bad)

    def test_predicted_error_frozen(self):
        rec = scheme_from_rho(0.1)
        gamma = 8.0 + 2.5 * math.sqrt(2.0)
        c_delta = 0.1 * 1000 ** (1.0 / 3.0)
        expect = 0.4 + (gamma / math.sqrt(c_delta) + c_delta) * 1000 ** (-1.0 / 3.0)
        assert rec.predicted_error == pytest.approx(expect, rel=1e-12)



class TestDecorrelationSum:
    def test_worked_example(self):
        prof = DecorrelationProfile.exponential(c=1.0, rate=1.0)
        g, bound = decorrelation_sum_bound(3, 1.0, prof)
        assert g == pytest.approx(math.exp(-1) + 2 * math.exp(-2), rel=1e-12)
        assert bound == pytest.approx(2.0, rel=1e-12)
        assert g <= bound

    def test_bound_holds_even_for_dense_grids(self):
        # small d with many terms is where a weaker (tail-integral) majorant
        # would fail; the full-integral one must hold
        prof = DecorrelationProfile.exponential(c=1.0, rate=1.0)
        for q in (2, 5, 20, 200):
            for d in np.logspace(-2, 1, 7):
                g, bound = decorrelation_sum_bound(q, float(d), prof)
                assert g <= bound

    def test_bound_holds_for_tabulated(self):
        prof = DecorrelationProfile.tabulated([0.5, 1.0, 4.0], [3.0, 1.0, 0.2])
        for q in (2, 10, 100):
            for d in (0.01, 0.3, 2.0):
                g, bound = decorrelation_sum_bound(q, d, prof)
                assert g <= bound

    def test_power_profile_gives_trivial_bound(self):
        g, bound = decorrelation_sum_bound(10, 0.5, DecorrelationProfile.power(1.0, 2.0))
        assert math.isfinite(g) and bound == math.inf

    @given(
        c=st.floats(0.1, 10.0),
        rate=st.floats(0.1, 5.0),
        q=st.integers(2, 300),
        d=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_bound_invariant_exponential(self, c, rate, q, d):
        prof = DecorrelationProfile.exponential(c=c, rate=rate)
        g, bound = decorrelation_sum_bound(q, d, prof)
        assert g <= bound * (1.0 + 1e-12)

    def test_domain(self):
        prof = DecorrelationProfile.exponential(1.0, 1.0)
        with pytest.raises(ParameterDomain):
            decorrelation_sum_bound(1, 1.0, prof)
        with pytest.raises(ParameterDomain):
            decorrelation_sum_bound(3, 0.0, prof)


class TestGaussianFourthMoment:
    def test_single_variable_kurtosis(self):
        assert gaussian_fourth_moment(np.ones((4, 4))) == pytest.approx(3.0)

    def test_independent_pairs(self):
        c = np.zeros((4, 4))
        c[0, 0] = c[1, 1] = c[2, 2] = c[3, 3] = 1.0
        c[0, 1] = c[1, 0] = 1.0  # Z1 = Z2
        c[2, 3] = c[3, 2] = 1.0  # Z3 = Z4, independent of the first pair
        assert gaussian_fourth_moment(c) == pytest.approx(1.0)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(2024)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T
        z = rng.multivariate_normal(np.zeros(4), cov, size=2_000_000)
        mc = float(np.mean(z[:, 0] * z[:, 1] * z[:, 2] * z[:, 3]))
        se = float(np.std(z[:, 0] * z[:, 1] * z[:, 2] * z[:, 3]) / math.sqrt(z.shape[0]))
        assert gaussian_fourth_moment(cov) == pytest.approx(mc, abs=4 * se)

    def test_asymmetric_rejected(self):
        c = np.eye(4)
        c[0, 1] = 0.5
        with pytest.raises(ParameterDomain):
            gaussian_fourth_moment(c)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T
        perm = rng.permutation(4)
        permuted = cov[np.ix_(perm, perm)]
        assert gaussian_fourth_moment(permuted) == pytest.approx(
            gaussian_fourth_moment(cov), rel=1e-12
        )


class TestOUEnvelope:
    @staticmethod
    def _word_cov_bounds(params: OUParams, gap: float, h: float) -> float:
        """Largest exact covariance between moment words separated by ``gap``.

        Words are {X_a, X_a X_b} with b - a = h; the second block starts
        ``gap`` after the first block ends.  Exact values come from Wick
        algebra on the Gaussian covariance K.
        """
        v = params.stationary_variance
        mu = params.mean
        k = lambda t: v * math.exp(-params.reversion * abs(t))
        a, b = 0.0, h
        c, d = b + gap, b + gap + h
        single_single = abs(k(c - a))
        single_pair = abs(mu * (k(c - a) + k(d - a)))
        pair_pair = abs(
            mu**2 * (k(c - a) + k(d - a) + k(c - b) + k(d - b))
            + k(c - a) * k(d - b)
            + k(d - a) * k(c - b)
        )
        return max(single_single, single_pair, pair_pair)

    def test_envelope_dominates_exact_word_covariances(self):
        for mu in (0.0, 1.0, 2.0):
            for reversion in (0.5, 1.0, 2.0):
                params = OUParams(mean=mu, reversion=reversion, noise=1.3)
                prof = ou_decorrelation_profile(params)
                for gap in (0.25, 0.5, 1.0, 2.0, 4.0):
                    for h in (0.0, 0.5, 1.0):
                        worst = self._word_cov_bounds(params, gap, h)
                        assert worst <= prof.evaluate(gap) * (1.0 + 1e-12)

    def test_degenerate_noise_has_no_envelope(self):
        with pytest.raises(ParameterDomain):
            ou_decorrelation_profile(OUParams(mean=0.0, reversion=1.0, noise=0.0))

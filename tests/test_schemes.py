"""Design rules, bound constants, and the decorrelation envelope."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from submoments.errors import ParameterDomain
from submoments.grids import SubsamplingScheme
from submoments.models import OUParams, ou_decorrelation_profile
from submoments.schemes import (
    BoundInputs,
    DecorrelationProfile,
    covariance_bound_constant,
    error_bound_observable,
    error_bound_unobservable,
    observable_bound_terms,
    reference_bound_inputs,
    scheme_from_n,
    scheme_from_rho,
)

UNIT_TAIL = DecorrelationProfile(c=math.e, rate=1.0)  # tail integral 1


class TestProfiles:
    def test_exponential_tail_integral_closed_form(self):
        prof = DecorrelationProfile(c=3.0, rate=0.7)
        oracle, err = quad(lambda u: 3.0 * math.exp(-0.7 * u), 1.0, np.inf)
        assert prof.integral_tail == pytest.approx(oracle, rel=1e-9)

    def test_unit_tail_profile(self):
        assert UNIT_TAIL.integral_tail == pytest.approx(1.0, rel=1e-12)


class TestBoundConstants:
    def test_covariance_constant_worked_example(self):
        # tail integral 1, nu=1, horizon 0: 8*sqrt(1) + 2.5*sqrt(1) = 10.5
        inputs = BoundInputs(nu=1.0, horizon_a=0.0, profile=UNIT_TAIL, lipschitz_lambda=1.0)
        assert covariance_bound_constant(inputs) == pytest.approx(10.5, rel=1e-12)

    @pytest.mark.parametrize("field", ["nu", "horizon_a", "lipschitz_lambda"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constants_rejected(self, field, value):
        fields = dict(nu=1.0, horizon_a=1.0, profile=UNIT_TAIL, lipschitz_lambda=1.0)
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
        # both rules return the unresolved scheme itself
        scheme = scheme_from_rho(0.1)
        assert type(scheme) is SubsamplingScheme and scheme.stride is None
        assert scheme.n_obs == 1000
        assert scheme.big_delta == pytest.approx(0.1, rel=1e-12)
        assert scheme.span == pytest.approx(100.0, rel=1e-12)

    def test_quality_rule_clamps_small_budgets(self):
        assert scheme_from_rho(0.5).n_obs == 8
        assert scheme_from_rho(0.9).n_obs == 8

    def test_quality_rule_budget_constant(self):
        assert scheme_from_rho(0.05, c_n=12.0).n_obs == 96000

    def test_quality_rule_domain(self):
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ParameterDomain):
                scheme_from_rho(bad)

    def test_predicted_error_frozen(self):
        # the bound at unit constants that `scheme --rho 0.1` reports
        predicted = error_bound_observable(reference_bound_inputs(), scheme_from_rho(0.1), 0.1)
        gamma = 8.0 + 2.5 * math.sqrt(2.0)
        c_delta = 0.1 * 1000 ** (1.0 / 3.0)
        expect = 0.4 + (gamma / math.sqrt(c_delta) + c_delta) * 1000 ** (-1.0 / 3.0)
        assert predicted == pytest.approx(expect, rel=1e-12)


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
                        assert worst <= prof.c * math.exp(-prof.rate * gap) * (1.0 + 1e-12)

    def test_degenerate_noise_has_no_envelope(self):
        with pytest.raises(ParameterDomain):
            ou_decorrelation_profile(OUParams(mean=0.0, reversion=1.0, noise=0.0))

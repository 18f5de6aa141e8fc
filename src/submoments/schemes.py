"""Sub-sampling design rules and theoretical error bounds.

The estimators in :mod:`submoments.estimators` see two error sources: the
statistical error of time averaging over a span ``N * big_delta`` and the
proxy error ``rho`` of the observable sequence.  The rules here balance
them: ``big_delta ~ N**(-1/3)`` when the sample count is the budget, and
``N ~ rho**-3`` with ``big_delta ~ rho`` when the proxy quality is.

Bound constants are driven by a decorrelation envelope
``f(T) = c * exp(-rate * T)``: any two moment words of the hidden process
separated by a time gap ``T`` have covariance at most ``f(T)``.  The bounds
read its integral over gaps >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomain
from .grids import SubsamplingScheme, check_positive


@dataclass(frozen=True)
class DecorrelationProfile:
    """Envelope ``f(T) = c * exp(-rate * T)`` bounding covariances of moment words at gap ``T``."""

    c: float
    rate: float

    def __post_init__(self):
        check_positive(self.c, "profile c")
        check_positive(self.rate, "profile rate")

    @property
    def integral_tail(self) -> float:
        """Integral of ``f`` over gaps >= 1."""
        return (self.c / self.rate) * math.exp(-self.rate)


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the theoretical error bounds.

    nu bounds the fourth-moment norm of the observable and hidden
    sequences, horizon_a is the largest covariance lag of interest, and
    lipschitz_lambda a Lipschitz constant of the true covariance on
    [0, horizon_a].
    """

    nu: float
    horizon_a: float
    profile: DecorrelationProfile
    lipschitz_lambda: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.nu, self.lipschitz_lambda, self.horizon_a))):
            raise ParameterDomain("nu, lipschitz_lambda and horizon_a must be finite")
        if self.nu <= 0 or self.lipschitz_lambda < 0:
            raise ParameterDomain("need nu > 0 and lipschitz_lambda >= 0")
        if self.horizon_a < 0:
            raise ParameterDomain("need horizon_a >= 0")


def reference_bound_inputs() -> BoundInputs:
    """Unit constants used when a caller wants scaling only."""
    return BoundInputs(
        nu=1.0,
        horizon_a=1.0,
        profile=DecorrelationProfile(c=math.e, rate=1.0),
        lipschitz_lambda=1.0,
    )


def covariance_bound_constant(inputs: BoundInputs) -> float:
    """Prefactor of the ``1/sqrt(N * big_delta)`` covariance error term.

    Equals ``8 * sqrt(I(f)) + 2.5 * nu**2 * sqrt(A + 1)`` with ``I(f)``
    the tail integral of the profile.
    """
    i_f = inputs.profile.integral_tail
    return 8.0 * math.sqrt(i_f) + 2.5 * inputs.nu**2 * math.sqrt(inputs.horizon_a + 1.0)


def error_bound_unobservable(inputs: BoundInputs, scheme: SubsamplingScheme) -> float:
    """Worst-case covariance error when the hidden process itself is sampled.

    Returns ``gamma / sqrt(N * big_delta) + lambda * big_delta`` where gamma
    is :func:`covariance_bound_constant`.  The first term is the
    statistical error over the span, the second the lag-rounding bias.
    """
    gamma = covariance_bound_constant(inputs)
    span = scheme.n_obs * scheme.big_delta
    return gamma / math.sqrt(span) + inputs.lipschitz_lambda * scheme.big_delta


def observable_bound_terms(
    inputs: BoundInputs, scheme: SubsamplingScheme, rho: float
) -> tuple[float, float]:
    """(proxy term, statistical term) of the observable-sequence bound.

    The proxy term is ``4 * nu * rho``.  The statistical term folds the
    hidden-process bound into a single ``N**(-1/3)`` coefficient using the
    scheme's own ``c_delta = big_delta * N**(1/3)``.
    """
    if rho < 0:
        raise ParameterDomain(f"rho must be >= 0, got {rho}")
    c_delta = scheme.big_delta * scheme.n_obs ** (1.0 / 3.0)
    gamma = covariance_bound_constant(inputs)
    c_app = gamma / math.sqrt(c_delta) + inputs.lipschitz_lambda * c_delta
    return 4.0 * inputs.nu * rho, c_app * scheme.n_obs ** (-1.0 / 3.0)


def error_bound_observable(inputs: BoundInputs, scheme: SubsamplingScheme, rho: float) -> float:
    """Covariance error bound when only the proxy sequence is sampled."""
    proxy, stat = observable_bound_terms(inputs, scheme, rho)
    return proxy + stat


def scheme_from_n(n_obs: int, c_delta: float = 1.0) -> SubsamplingScheme:
    """Sample-budget rule: ``big_delta = c_delta * n_obs**(-1/3)``.

    The stride is left unresolved; call :func:`submoments.grids.resolve_stride`
    against a concrete grid.  Requires ``n_obs >= 8`` so the asymptotic rule
    is meaningful.
    """
    if n_obs < 8:
        raise ParameterDomain(f"n_obs must be >= 8, got {n_obs}")
    check_positive(c_delta, "c_delta")
    return SubsamplingScheme(n_obs=n_obs, big_delta=c_delta * n_obs ** (-1.0 / 3.0))


def scheme_from_rho(rho: float, c_n: float = 1.0, c_delta: float = 1.0) -> SubsamplingScheme:
    """Proxy-quality rule: ``N = ceil(c_n * rho**-3)``, ``big_delta = c_delta * rho``.

    This balances the proxy and statistical error terms so the total decays
    linearly in ``rho``.  As with :func:`scheme_from_n`, the stride is left
    unresolved.
    """
    if not (0.0 < rho < 1.0):
        raise ParameterDomain(f"rho must lie in (0, 1), got {rho}")
    check_positive(c_n, "c_n")
    check_positive(c_delta, "c_delta")
    try:
        n_obs = max(8, math.ceil(c_n * rho**-3))
    except OverflowError:  # the power or the ceiling of an infinite product
        raise ParameterDomain(f"N = c_n * rho**-3 is not finite at c_n {c_n}, rho {rho}") from None
    return SubsamplingScheme(n_obs=n_obs, big_delta=c_delta * rho)

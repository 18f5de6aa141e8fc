"""Sub-sampling design rules and theoretical error bounds.

The estimators in :mod:`submoments.estimators` see two error sources: the
statistical error of time averaging over a span ``N * big_delta`` and the
proxy error ``rho`` of the observable sequence.  The rules here balance
them: ``big_delta ~ N**(-1/3)`` when the sample count is the budget, and
``N ~ rho**-3`` with ``big_delta ~ rho`` when the proxy quality is.

Bound constants are driven by a decorrelation profile ``f``: a
non-increasing positive envelope such that any two moment words of the
hidden process separated by a time gap ``T`` have covariance at most
``f(T)``.  Two integrals of ``f`` appear in the literature depending on
whether the integration starts at 0 or 1; both are exposed and each
formula uses the variant that makes it valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomain
from .grids import SubsamplingScheme, check_positive

_PROFILE_KINDS = ("exponential", "power", "tabulated")


@dataclass(frozen=True)
class DecorrelationProfile:
    """Envelope ``f(T)`` bounding covariances of moment words at gap ``T``.

    Forms: ``exponential`` ``c * exp(-rate*T)``; ``power`` ``c * T**-exponent``
    with exponent > 1; ``tabulated`` piecewise linear through decreasing
    ``(gap, value)`` knots, constant left of the first knot and zero right
    of the last.
    """

    kind: str
    c: float = 1.0
    rate: float = 1.0
    exponent: float = 2.0
    gaps: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ParameterDomain(f"unknown profile kind {self.kind!r}")
        if not np.isfinite([self.c, self.rate, self.exponent]).all():
            raise ParameterDomain("profile c, rate and exponent must be finite")
        if self.kind == "exponential":
            if self.c <= 0 or self.rate <= 0:
                raise ParameterDomain("exponential profile needs c > 0 and rate > 0")
        elif self.kind == "power":
            if self.c <= 0 or self.exponent <= 1.0:
                raise ParameterDomain("power profile needs c > 0 and exponent > 1")
        else:
            gaps = np.asarray(self.gaps, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if gaps.ndim != 1 or gaps.shape != values.shape or gaps.size < 2:
                raise ParameterDomain("tabulated profile needs matching 1-d knots, >= 2 points")
            if not (np.diff(gaps) > 0).all() or gaps[0] <= 0:
                raise ParameterDomain("tabulated gaps must be positive increasing")
            if not (values > 0).all() or not (np.diff(values) <= 0).all():
                raise ParameterDomain("tabulated values must be positive non-increasing")
            gaps.flags.writeable = False
            values.flags.writeable = False
            object.__setattr__(self, "gaps", gaps)
            object.__setattr__(self, "values", values)

    @classmethod
    def exponential(cls, c: float, rate: float) -> "DecorrelationProfile":
        return cls(kind="exponential", c=c, rate=rate)

    @classmethod
    def power(cls, c: float, exponent: float) -> "DecorrelationProfile":
        return cls(kind="power", c=c, exponent=exponent)

    @classmethod
    def tabulated(cls, gaps, values) -> "DecorrelationProfile":
        return cls(kind="tabulated", gaps=np.asarray(gaps), values=np.asarray(values))

    def evaluate(self, gap) -> np.ndarray:
        """Value of ``f`` at one gap or an array of gaps."""
        t = np.asarray(gap, dtype=float)
        if (t < 0).any():
            raise ParameterDomain("gaps must be >= 0")
        if self.kind == "exponential":
            out = self.c * np.exp(-self.rate * t)
        elif self.kind == "power":
            with np.errstate(divide="ignore"):
                out = self.c * np.power(t, -self.exponent)
        else:
            out = np.interp(t, self.gaps, self.values, left=self.values[0], right=0.0)
        return out if out.ndim else float(out)

    @property
    def integral_tail(self) -> float:
        """Integral of ``f`` over gaps >= 1."""
        if self.kind == "exponential":
            return (self.c / self.rate) * math.exp(-self.rate)
        if self.kind == "power":
            return self.c / (self.exponent - 1.0)
        return self._tab_integral(lower=1.0)

    @property
    def integral_full(self) -> float:
        """Integral of ``f`` over all gaps >= 0 (may be infinite)."""
        if self.kind == "exponential":
            return self.c / self.rate
        if self.kind == "power":
            return math.inf  # diverges at the origin for exponent > 1
        return self._tab_integral(lower=0.0)

    def _tab_integral(self, lower: float) -> float:
        hi = float(self.gaps[-1])
        if lower >= hi:
            return 0.0
        knots = np.concatenate(([lower], self.gaps[self.gaps > lower]))
        vals = np.interp(knots, self.gaps, self.values, left=self.values[0], right=0.0)
        return float(np.trapezoid(vals, knots))


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the theoretical error bounds.

    nu bounds the fourth-moment norm of the observable and hidden
    sequences, horizon_a is the largest covariance lag of interest, dim_r
    the state dimension, and lipschitz_lambda a Lipschitz constant of the
    true covariance on [0, horizon_a].
    """

    nu: float
    horizon_a: float
    dim_r: int
    profile: DecorrelationProfile
    lipschitz_lambda: float

    def __post_init__(self):
        if not np.isfinite([self.nu, self.lipschitz_lambda, self.horizon_a]).all():
            raise ParameterDomain("nu, lipschitz_lambda and horizon_a must be finite")
        if self.nu <= 0 or self.lipschitz_lambda < 0:
            raise ParameterDomain("need nu > 0 and lipschitz_lambda >= 0")
        if self.horizon_a < 0 or self.dim_r < 1:
            raise ParameterDomain("need horizon_a >= 0 and dim_r >= 1")


def reference_bound_inputs() -> BoundInputs:
    """Unit constants used when a caller wants scaling only."""
    return BoundInputs(
        nu=1.0,
        horizon_a=1.0,
        dim_r=1,
        profile=DecorrelationProfile.exponential(c=math.e, rate=1.0),
        lipschitz_lambda=1.0,
    )


def covariance_bound_constant(inputs: BoundInputs) -> float:
    """Prefactor of the ``1/sqrt(N * big_delta)`` covariance error term.

    Equals ``8 * sqrt(r * I(f)) + 2.5 * nu**2 * sqrt(A + 1)`` with ``I(f)``
    the tail integral of the profile.
    """
    i_f = inputs.profile.integral_tail
    return 8.0 * math.sqrt(inputs.dim_r * i_f) + 2.5 * inputs.nu**2 * math.sqrt(
        inputs.horizon_a + 1.0
    )


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
    n_obs = max(8, math.ceil(c_n * rho**-3))
    return SubsamplingScheme(n_obs=n_obs, big_delta=c_delta * rho)


def decorrelation_sum_bound(
    q: int, d: float, profile: DecorrelationProfile
) -> tuple[float, float]:
    """Weighted decorrelation sum and its closed-form majorant.

    Returns ``(g, bound)`` with ``g = sum_{j=1}^{q-1} j * f(j*d)`` and
    ``bound = (q - 1) * integral_full / d``.  The majorant uses the full
    integral from 0 because the Riemann comparison under a non-increasing
    ``f`` starts at the origin.
    """
    if q < 2:
        raise ParameterDomain(f"q must be >= 2, got {q}")
    if d <= 0:
        raise ParameterDomain(f"d must be > 0, got {d}")
    j = np.arange(1, q)
    g = float(np.sum(j * profile.evaluate(j * d)))
    bound = (q - 1) * profile.integral_full / d
    return g, bound


def gaussian_fourth_moment(cov) -> float:
    """E[Z1 Z2 Z3 Z4] for a zero-mean Gaussian quadruple with covariance ``cov``.

    Wick pairing: ``c01*c23 + c02*c13 + c03*c12``.  The input must be a
    symmetric 4x4 matrix.
    """
    c = np.asarray(cov, dtype=float)
    if c.shape != (4, 4):
        raise ParameterDomain(f"covariance must be 4x4, got {c.shape}")
    scale = max(1.0, float(np.abs(c).max()))
    if not np.allclose(c, c.T, rtol=0.0, atol=1e-9 * scale):
        raise ParameterDomain("covariance must be symmetric")
    return float(c[0, 1] * c[2, 3] + c[0, 2] * c[1, 3] + c[0, 3] * c[1, 2])

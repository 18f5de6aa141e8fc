"""Back out model parameters from estimated moments.

Each inversion takes three numbers of one coordinate: its mean, its
variance and its covariance at one positive lag ``u1``, read off the
arrays that :func:`submoments.estimators.lagged_covariances` returns.
Closed forms invert the scalar mean-reverting model and the square-root
variance model.  Both have an exponential covariance, so each inversion is
one rate fit, :func:`decay_rate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MomentsOutsideModelRange, ParameterDomain
# empirical_mean and lagged_covariance stay bound: perfbench/child.py traces them here
from .estimators import empirical_mean, lagged_covariance
from .grids import check_positive

# ---------------------------------------------------------------------------
# Parameter estimates and the truncation ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterBall:
    """Closed Euclidean ball used as the admissible parameter region."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        check_positive(self.radius, "radius")
        if not np.isfinite(c).all():
            raise ParameterDomain("center must be finite")

    def contains(self, theta) -> bool:
        t = np.asarray(theta, dtype=float)
        return float(np.linalg.norm(t - self.center)) <= self.radius


@dataclass(frozen=True)
class ParameterEstimate:
    """Estimated parameter vector with its parameter names.

    ``truncated`` records whether the safeguard replaced the estimate by
    the zero vector.
    """

    theta: np.ndarray
    names: tuple
    truncated: bool = False

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.theta, dtype=float))
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != t.size:
            raise ParameterDomain("names must match the parameter count")

    def as_dict(self) -> dict:
        out = {name: float(v) for name, v in zip(self.names, self.theta)}
        out["truncated"] = self.truncated
        return out


def truncate_to_ball(estimate: ParameterEstimate, ball: ParameterBall) -> ParameterEstimate:
    """Safeguarded copy of an estimate: zero vector when outside the ball."""
    if ball.contains(estimate.theta):
        return ParameterEstimate(estimate.theta, estimate.names)
    return ParameterEstimate(np.zeros_like(estimate.theta), estimate.names, truncated=True)


# ---------------------------------------------------------------------------
# Closed-form inversions
# ---------------------------------------------------------------------------

OU_PARAMETER_NAMES = ("mean", "reversion", "noise")
CIR_PARAMETER_NAMES = ("reversion", "level", "vol_of_vol")


def decay_rate(k_a, k_b, a, b) -> float:
    """``theta`` of ``K(u) = K(0) e^{-theta u}`` through ``K(a) = k_a`` and ``K(b) = k_b``, a < b.

    Covariances that are not positive and decreasing lie outside the model's range.
    """
    if not (k_a > 0 and k_b > 0 and k_b < k_a):
        raise MomentsOutsideModelRange(f"cov at lag {b} ({k_b}) must be positive and below cov at lag {a} ({k_a})")
    return math.log(k_a / k_b) / (b - a)


def _moments(psi, u1: float) -> np.ndarray:
    """``psi`` as three floats, for an inversion at the positive lag ``u1``."""
    check_positive(u1, "u1")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (3,):
        raise ParameterDomain(f"expected 3 moments, got shape {psi.shape}")
    return psi


def invert_ou(psi, u1: float) -> ParameterEstimate:
    """Closed-form mean-reverting fit from ``[mean, cov(0), cov(u1)]``.

    reversion = log(cov0 / cov_u1) / u1 and noise^2 = 2 * reversion * cov0.
    """
    mu, k0, k1 = _moments(psi, u1)
    reversion = decay_rate(k0, k1, 0.0, u1)
    noise = math.sqrt(2.0 * reversion * k0)
    return ParameterEstimate(np.array([mu, reversion, noise]), OU_PARAMETER_NAMES)


def ou_moment_map(theta, u1: float) -> np.ndarray:
    """Forward map ``theta -> [mean, cov(0), cov(u1)]`` for the scalar model."""
    check_positive(u1, "u1")
    mu, reversion, noise = np.asarray(theta, dtype=float)
    if reversion <= 0 or noise <= 0:
        raise ParameterDomain("reversion and noise must be > 0")
    var = noise**2 / (2.0 * reversion)
    return np.array([mu, var, var * math.exp(-reversion * u1)])


def invert_cir(psi, u1: float) -> ParameterEstimate:
    """Closed-form square-root-variance fit from ``[mean, var, cov(u1)]``.

    level = mean, reversion = log(var / cov_u1) / u1 and
    vol_of_vol^2 = 2 * reversion * var / level.
    """
    mean_v, var_v, k1 = _moments(psi, u1)
    if not mean_v > 0:
        raise MomentsOutsideModelRange(f"the mean must be positive, got {mean_v}")
    reversion = decay_rate(var_v, k1, 0.0, u1)
    vol = math.sqrt(2.0 * reversion * var_v / mean_v)
    return ParameterEstimate(np.array([reversion, mean_v, vol]), CIR_PARAMETER_NAMES)

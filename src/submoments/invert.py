"""Back out model parameters from estimated moments.

Each inversion takes three numbers of one coordinate: its mean, its
variance and its covariance at one positive lag ``u1``, read off the
arrays that :func:`submoments.estimators.lagged_covariances` returns.
Closed forms invert the scalar mean-reverting model and the square-root
variance model.
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


def invert_ou(psi, u1: float) -> ParameterEstimate:
    """Closed-form mean-reverting fit from ``[mean, cov(0), cov(u1)]``.

    reversion = log(cov0 / cov_u1) / u1 and noise^2 = 2 * reversion * cov0.
    The covariances must be positive and strictly decreasing, otherwise the
    moments lie outside the model's range.
    """
    check_positive(u1, "u1")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (3,):
        raise ParameterDomain(f"expected 3 moments, got shape {psi.shape}")
    mu, k0, k1 = psi
    if not (k0 > 0 and k1 > 0):
        raise MomentsOutsideModelRange(f"covariances must be positive, got {k0}, {k1}")
    if not k1 < k0:
        raise MomentsOutsideModelRange(
            f"cov at lag {u1} ({k1}) must be below cov at lag 0 ({k0})"
        )
    reversion = math.log(k0 / k1) / u1
    noise = math.sqrt(2.0 * reversion * k0)
    return ParameterEstimate(
        theta=np.array([mu, reversion, noise]),
        names=OU_PARAMETER_NAMES,
    )


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
    check_positive(u1, "u1")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (3,):
        raise ParameterDomain(f"expected 3 moments, got shape {psi.shape}")
    mean_v, var_v, k1 = psi
    if not (mean_v > 0 and var_v > 0 and k1 > 0):
        raise MomentsOutsideModelRange(
            f"moments must be positive, got {mean_v}, {var_v}, {k1}"
        )
    if not k1 < var_v:
        raise MomentsOutsideModelRange(
            f"cov at lag {u1} ({k1}) must be below the variance ({var_v})"
        )
    reversion = math.log(var_v / k1) / u1
    vol = math.sqrt(2.0 * reversion * var_v / mean_v)
    return ParameterEstimate(
        theta=np.array([reversion, mean_v, vol]),
        names=CIR_PARAMETER_NAMES,
    )

"""Back out model parameters from a vector of estimated moments.

A moment vector pairs values with descriptors saying which statistic each
entry is (a mean coordinate or a covariance entry at some lag).  Closed
forms invert the scalar mean-reverting model and the square-root
variance model.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    MomentsOutsideModelRange,
    ParameterDomain,
)
# empirical_mean and lagged_covariance stay bound: perfbench/child.py traces them here
from .estimators import empirical_mean, lag_index, lagged_covariance, lagged_covariances
from .grids import SubsamplingScheme

# ---------------------------------------------------------------------------
# Moment vectors
# ---------------------------------------------------------------------------

_DESCRIPTOR_RE = re.compile(
    r"^(?:mean\((?P<mi>\d+)\)|cov\((?P<ci>\d+),(?P<cj>\d+)\)@(?P<lag>[0-9.eE+-]+))$"
)


@dataclass(frozen=True)
class MomentDescriptor:
    """Names one statistic: ``mean(i)`` or ``cov(i,j)@lag``."""

    kind: str
    i: int
    j: int = 0
    lag: float = 0.0

    def __post_init__(self):
        if self.kind not in ("mean", "cov"):
            raise ParameterDomain(f"descriptor kind must be mean or cov, got {self.kind!r}")
        if self.i < 0 or self.j < 0:
            raise ParameterDomain("coordinate indices must be >= 0")
        if self.lag < 0:
            raise ParameterDomain(f"lag must be >= 0, got {self.lag}")
        if self.kind == "mean" and self.lag != 0.0:
            raise ParameterDomain("mean descriptors carry no lag")

    @classmethod
    def mean(cls, i: int = 0) -> "MomentDescriptor":
        return cls(kind="mean", i=i)

    @classmethod
    def cov(cls, i: int = 0, j: int = 0, lag: float = 0.0) -> "MomentDescriptor":
        return cls(kind="cov", i=i, j=j, lag=float(lag))

    @classmethod
    def parse(cls, text: str) -> "MomentDescriptor":
        m = _DESCRIPTOR_RE.match(text.strip())
        if not m:
            raise ParameterDomain(f"cannot parse moment descriptor {text!r}")
        if m.group("mi") is not None:
            return cls.mean(int(m.group("mi")))
        return cls.cov(int(m.group("ci")), int(m.group("cj")), float(m.group("lag")))

    def __str__(self) -> str:
        if self.kind == "mean":
            return f"mean({self.i})"
        return f"cov({self.i},{self.j})@{self.lag:g}"


@dataclass(frozen=True)
class MomentVector:
    """Moment values with their descriptors, pairwise distinct."""

    values: np.ndarray
    descriptors: tuple

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        vals.flags.writeable = False
        desc = tuple(self.descriptors)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "descriptors", desc)
        if vals.ndim != 1 or vals.size < 1:
            raise ParameterDomain("moment vector must be a non-empty 1-d array")
        if len(desc) != vals.size:
            raise ParameterDomain("descriptor count must match value count")
        if len(set(desc)) != len(desc):
            raise ParameterDomain("moment descriptors must be pairwise distinct")

    def __len__(self) -> int:
        return self.values.size


def extract_moment_vector(
    samples,
    scheme: SubsamplingScheme,
    descriptors,
    horizon_a: float | None = None,
) -> MomentVector:
    """Evaluate the named statistics on one coarse sequence.

    ``samples`` must supply ``n_obs`` plus the largest rounded lag shift.
    Means are taken over the first ``n_obs`` samples, as the covariances
    are, and all covariances come from one :func:`lagged_covariances` call.
    """
    desc = tuple(
        d if isinstance(d, MomentDescriptor) else MomentDescriptor.parse(d)
        for d in descriptors
    )
    covs = [d for d in desc if d.kind == "cov"]
    if horizon_a is not None:
        for d in covs:
            if d.lag > horizon_a:
                raise ParameterDomain(f"lag {d.lag} exceeds horizon {horizon_a}")
    kappas = [lag_index(d.lag, scheme.big_delta) for d in covs]
    cov, mean_vec = lagged_covariances(samples, scheme.n_obs, kappas)
    matrices = dict(zip(covs, cov))
    out = np.empty(len(desc))
    for pos, d in enumerate(desc):
        if d.kind == "mean":
            if d.i >= mean_vec.size:
                raise ParameterDomain(f"mean coordinate {d.i} out of range")
            out[pos] = mean_vec[d.i]
        else:
            mat = matrices[d]
            if d.i >= mat.shape[0] or d.j >= mat.shape[1]:
                raise ParameterDomain(f"covariance index ({d.i},{d.j}) out of range")
            out[pos] = mat[d.i, d.j]
    return MomentVector(values=out, descriptors=desc)


def default_ou_descriptors(u1: float) -> tuple:
    """Mean, variance, and one positive-lag covariance of the scalar model."""
    if u1 <= 0:
        raise ParameterDomain(f"u1 must be > 0, got {u1}")
    return (
        MomentDescriptor.mean(0),
        MomentDescriptor.cov(0, 0, 0.0),
        MomentDescriptor.cov(0, 0, u1),
    )


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
        if self.radius <= 0 or not np.isfinite(self.radius):
            raise ParameterDomain(f"radius must be positive, got {self.radius}")
        if not np.isfinite(c).all():
            raise ParameterDomain("center must be finite")

    def contains(self, theta) -> bool:
        t = np.asarray(theta, dtype=float)
        return float(np.linalg.norm(t - self.center)) <= self.radius


@dataclass(frozen=True)
class ParameterEstimate:
    """Estimated parameter vector with provenance.

    ``truncated`` records whether the safeguard replaced the estimate by
    the zero vector.
    """

    theta: np.ndarray
    names: tuple
    truncated: bool = False
    moments: MomentVector | None = None

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
        if self.moments is not None:
            out["moments"] = {
                str(d): float(v)
                for d, v in zip(self.moments.descriptors, self.moments.values)
            }
        return out


def truncate_vector(theta, ball: ParameterBall) -> tuple[np.ndarray, bool]:
    """Zero the vector when it falls outside the closed ball."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if ball.contains(t):
        return t, False
    return np.zeros_like(t), True


def truncate_to_ball(estimate: ParameterEstimate, ball: ParameterBall) -> ParameterEstimate:
    """Safeguarded copy of an estimate: zero vector when outside the ball."""
    theta, clipped = truncate_vector(estimate.theta, ball)
    return ParameterEstimate(
        theta=theta,
        names=estimate.names,
        truncated=clipped,
        moments=estimate.moments,
    )


# ---------------------------------------------------------------------------
# Closed-form inversions
# ---------------------------------------------------------------------------

OU_PARAMETER_NAMES = ("mean", "reversion", "noise")
CIR_PARAMETER_NAMES = ("reversion", "level", "vol_of_vol")


def _positive_lag(u1: float) -> None:
    if u1 <= 0 or not np.isfinite(u1):
        raise ParameterDomain(f"u1 must be a positive lag, got {u1}")


def invert_ou(psi, u1: float, moments: MomentVector | None = None) -> ParameterEstimate:
    """Closed-form mean-reverting fit from ``[mean, cov(0), cov(u1)]``.

    reversion = log(cov0 / cov_u1) / u1 and noise^2 = 2 * reversion * cov0.
    The covariances must be positive and strictly decreasing, otherwise the
    moments lie outside the model's range.
    """
    _positive_lag(u1)
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
        moments=moments,
    )


def ou_moment_map(theta, u1: float) -> np.ndarray:
    """Forward map ``theta -> [mean, cov(0), cov(u1)]`` for the scalar model."""
    _positive_lag(u1)
    mu, reversion, noise = np.asarray(theta, dtype=float)
    if reversion <= 0 or noise <= 0:
        raise ParameterDomain("reversion and noise must be > 0")
    var = noise**2 / (2.0 * reversion)
    return np.array([mu, var, var * math.exp(-reversion * u1)])


def invert_cir(psi, u1: float, moments: MomentVector | None = None) -> ParameterEstimate:
    """Closed-form square-root-variance fit from ``[mean, var, cov(u1)]``.

    level = mean, reversion = log(var / cov_u1) / u1 and
    vol_of_vol^2 = 2 * reversion * var / level.
    """
    _positive_lag(u1)
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
        moments=moments,
    )

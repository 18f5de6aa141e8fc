"""Back out model parameters from a vector of estimated moments.

A moment vector pairs values with descriptors saying which statistic each
entry is (a mean coordinate or a covariance entry at some lag).  Closed
forms exist for the scalar mean-reverting model and the square-root
variance model; other moment maps go through a ball-constrained
Gauss-Newton solver with finite-difference Jacobians.
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
from .estimators import empirical_mean, lag_index, lagged_covariance
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
    Covariance requests at equal rounded lag share one computation.
    """
    desc = tuple(
        d if isinstance(d, MomentDescriptor) else MomentDescriptor.parse(d)
        for d in descriptors
    )
    cache: dict[int, np.ndarray] = {}
    mean_vec = None
    out = np.empty(len(desc))
    for pos, d in enumerate(desc):
        if d.kind == "mean":
            if mean_vec is None:
                mean_vec = empirical_mean(samples).vector
            if d.i >= mean_vec.size:
                raise ParameterDomain(f"mean coordinate {d.i} out of range")
            out[pos] = mean_vec[d.i]
        else:
            if horizon_a is not None and d.lag > horizon_a:
                raise ParameterDomain(f"lag {d.lag} exceeds horizon {horizon_a}")
            kappa = lag_index(d.lag, scheme.big_delta)
            if kappa not in cache:
                cache[kappa] = lagged_covariance(
                    samples, scheme.n_obs, kappa, scheme.big_delta, lag_requested=d.lag
                ).matrix
            mat = cache[kappa]
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

    def project(self, theta) -> np.ndarray:
        """Closest point of the ball (theta itself when inside)."""
        t = np.asarray(theta, dtype=float)
        gap = t - self.center
        dist = float(np.linalg.norm(gap))
        if dist <= self.radius:
            return t
        return self.center + gap * (self.radius / dist)


@dataclass(frozen=True)
class SolverDiagnostics:
    iterations: int
    residual_norm: float
    converged: bool
    at_boundary: bool = False


@dataclass(frozen=True)
class ParameterEstimate:
    """Estimated parameter vector with provenance.

    ``truncated`` records whether the safeguard replaced the estimate by
    the zero vector.  ``diagnostics`` is present for iteratively solved
    estimates.
    """

    theta: np.ndarray
    names: tuple
    truncated: bool = False
    diagnostics: SolverDiagnostics | None = None
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
        if self.diagnostics is not None:
            out["solver"] = {
                "iterations": self.diagnostics.iterations,
                "residual_norm": self.diagnostics.residual_norm,
                "converged": self.diagnostics.converged,
                "at_boundary": self.diagnostics.at_boundary,
            }
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
        diagnostics=estimate.diagnostics,
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


def cir_moment_map(theta, u1: float) -> np.ndarray:
    """Forward map ``theta -> [mean, var, cov(u1)]`` for the variance process."""
    _positive_lag(u1)
    reversion, level, vol = np.asarray(theta, dtype=float)
    if reversion <= 0 or level <= 0 or vol <= 0:
        raise ParameterDomain("all square-root parameters must be > 0")
    var = vol**2 * level / (2.0 * reversion)
    return np.array([level, var, var * math.exp(-reversion * u1)])


# ---------------------------------------------------------------------------
# Generic least-squares inversion
# ---------------------------------------------------------------------------


def _fd_jacobian(forward_map, theta: np.ndarray, base: np.ndarray) -> np.ndarray:
    jac = np.empty((base.size, theta.size))
    for k in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[k]))
        probe = theta.copy()
        probe[k] += h
        jac[:, k] = (forward_map(probe) - base) / h
    return jac


def invert_least_squares(
    forward_map,
    psi_hat,
    init,
    ball: ParameterBall,
    max_iter: int = 100,
    step_tol: float = 1e-10,
) -> ParameterEstimate:
    """Ball-constrained Gauss-Newton fit of a moment map.

    Minimizes ``||forward_map(theta) - psi_hat||`` from ``init`` (which must
    lie in the ball).  Steps use finite-difference Jacobians with relative
    probe size 1e-6, a halving line search, and projection back onto the
    ball.  Convergence means the accepted step fell below ``step_tol`` or
    the residual stalled; hitting the iteration cap returns the current
    point with ``converged=False`` rather than raising.
    """
    psi_hat = np.asarray(psi_hat, dtype=float)
    theta = np.array(init, dtype=float)
    if not ball.contains(theta):
        raise ParameterDomain("initial point must lie inside the ball")
    resid = forward_map(theta) - psi_hat
    rnorm = float(np.linalg.norm(resid))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = _fd_jacobian(forward_map, theta, resid + psi_hat)
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        accepted = False
        for _ in range(25):
            candidate = ball.project(theta + step)
            try:
                cand_resid = forward_map(candidate) - psi_hat
            except ParameterDomain:
                step *= 0.5
                continue
            cand_norm = float(np.linalg.norm(cand_resid))
            if cand_norm <= rnorm or np.allclose(candidate, theta):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent direction left: stalled
            break
        moved = float(np.linalg.norm(candidate - theta))
        stalled = abs(rnorm - cand_norm) <= 1e-14 * (1.0 + rnorm)
        theta, resid, rnorm = candidate, cand_resid, cand_norm
        if moved < step_tol * (1.0 + float(np.linalg.norm(theta))) or stalled:
            converged = True
            break
    at_boundary = math.isclose(
        float(np.linalg.norm(theta - ball.center)), ball.radius, rel_tol=1e-9
    )
    diag = SolverDiagnostics(
        iterations=iterations,
        residual_norm=rnorm,
        converged=converged,
        at_boundary=at_boundary,
    )
    k = theta.size
    names = tuple(f"theta_{i}" for i in range(k))
    return ParameterEstimate(theta=theta, names=names, diagnostics=diag)

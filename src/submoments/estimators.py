"""Empirical mean and lagged covariance estimators on sub-sampled sequences.

Given coarse samples ``s_1, ..., s_{N+kappa}`` spaced ``big_delta`` apart,
the estimators are

    mean        = (1/N) sum_{n=1}^{N} s_n
    shifted     = (1/N) sum_{n=1}^{N} s_{n+kappa}
    cov(kappa)  = (1/N) sum_{n=1}^{N} (s_n - mean)(s_{n+kappa} - shifted)*

where ``kappa`` is the requested continuous lag rounded to the coarse grid.
The centered-product form above is used throughout; it is algebraically
identical to "average of products minus product of averages" but does not
cancel two large numbers against each other.

Sums are taken with numpy's pairwise reduction (not a BLAS dot), which
keeps the accumulation error at the square-root-of-log level even for
million-sample sequences and makes results independent of BLAS vendor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, ParameterDomain, SchemeTooShortForLag
from .grids import SubsamplingScheme

#: required ratio of sample count to lag shift
MIN_N_OVER_KAPPA = 10


def lag_index(lag_u: float, big_delta: float) -> int:
    """Closest coarse-grid index to a continuous lag, ties to even.

    ``lag_index(0, d) = 0`` for every step, and the represented lag
    ``kappa * big_delta`` is always within half a step of the request.
    """
    if big_delta <= 0 or not np.isfinite(big_delta):
        raise ParameterDomain(f"big_delta must be positive, got {big_delta}")
    if lag_u < 0 or not np.isfinite(lag_u):
        raise ParameterDomain(f"lag must be a finite value >= 0, got {lag_u}")
    return round(lag_u / big_delta)


def _as_matrix(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ParameterDomain(f"samples must be 1-d or 2-d, got ndim={arr.ndim}")
    return arr


def _pairwise_mean(block: np.ndarray) -> np.ndarray:
    return np.sum(block, axis=0) / block.shape[0]


@dataclass(frozen=True)
class MeanEstimate:
    """Empirical mean of one coarse sequence."""

    vector: np.ndarray
    n_obs: int
    big_delta: float | None = None


def empirical_mean(samples, big_delta: float | None = None) -> MeanEstimate:
    """Mean of the coarse samples, one entry per coordinate."""
    arr = _as_matrix(samples)
    if arr.shape[0] < 1:
        raise InsufficientData("need at least one sample")
    return MeanEstimate(vector=_pairwise_mean(arr), n_obs=arr.shape[0], big_delta=big_delta)


@dataclass(frozen=True)
class LaggedCovarianceEstimate:
    """Covariance matrix estimate at one coarse lag."""

    matrix: np.ndarray
    lag_requested: float
    lag_used: float
    kappa: int
    n_obs: int
    big_delta: float


def _check_lengths(arr: np.ndarray, n_obs: int, kappa: int) -> None:
    if n_obs < 2:
        raise ParameterDomain(f"n_obs must be >= 2, got {n_obs}")
    if kappa < 0:
        raise ParameterDomain(f"kappa must be >= 0, got {kappa}")
    if arr.shape[0] < n_obs + kappa:
        raise InsufficientData(
            f"need {n_obs + kappa} samples for n_obs={n_obs} kappa={kappa}, "
            f"got {arr.shape[0]}"
        )
    if kappa > 0 and n_obs < MIN_N_OVER_KAPPA * kappa:
        raise SchemeTooShortForLag(
            f"n_obs={n_obs} is below {MIN_N_OVER_KAPPA} * kappa={kappa}; "
            "the averaging window is too short for this lag"
        )


def _centered_cross_product(arr: np.ndarray, n_obs: int, kappa: int):
    lead = arr[:n_obs]
    lagged = arr[kappa : kappa + n_obs]
    mean = _pairwise_mean(lead)
    shifted = mean if kappa == 0 else _pairwise_mean(lagged)
    prod = (lead - mean)[:, :, None] * (lagged - shifted)[:, None, :]
    matrix = np.sum(prod, axis=0) / n_obs
    return matrix, mean, shifted


def lagged_covariance(
    samples,
    n_obs: int,
    kappa: int,
    big_delta: float,
    lag_requested: float | None = None,
) -> LaggedCovarianceEstimate:
    """Lagged covariance matrix of a coarse sequence.

    Entry (i, j) estimates ``Cov(X_t(i), X_{t + kappa*big_delta}(j))``.
    Extra trailing samples beyond ``n_obs + kappa`` are ignored.  Requires
    ``n_obs >= 2`` and, for positive lags, ``n_obs >= 10 * kappa`` so the
    average spans many decorrelation windows.
    """
    if big_delta <= 0 or not np.isfinite(big_delta):
        raise ParameterDomain(f"big_delta must be positive, got {big_delta}")
    arr = _as_matrix(samples)
    _check_lengths(arr, n_obs, kappa)
    matrix, _, _ = _centered_cross_product(arr, n_obs, kappa)
    if lag_requested is None:
        lag_requested = kappa * big_delta
    return LaggedCovarianceEstimate(
        matrix=matrix,
        lag_requested=float(lag_requested),
        lag_used=kappa * big_delta,
        kappa=kappa,
        n_obs=n_obs,
        big_delta=big_delta,
    )


def covariance_curve(
    samples,
    scheme: SubsamplingScheme,
    lags,
    horizon_a: float | None = None,
) -> list[LaggedCovarianceEstimate]:
    """Covariance estimates at several requested lags on one scheme.

    Lags are rounded to the coarse grid first; requests that round to the
    same ``kappa`` share one computation.  ``horizon_a`` optionally caps the
    admissible lag.
    """
    lag_list = [float(u) for u in lags]
    if horizon_a is not None:
        for u in lag_list:
            if u > horizon_a:
                raise ParameterDomain(f"lag {u} exceeds horizon {horizon_a}")
    arr = _as_matrix(samples)
    cache: dict[int, np.ndarray] = {}
    out = []
    for u in lag_list:
        kappa = lag_index(u, scheme.big_delta)
        if kappa not in cache:
            _check_lengths(arr, scheme.n_obs, kappa)
            cache[kappa], _, _ = _centered_cross_product(arr, scheme.n_obs, kappa)
        out.append(
            LaggedCovarianceEstimate(
                matrix=cache[kappa],
                lag_requested=u,
                lag_used=kappa * scheme.big_delta,
                kappa=kappa,
                n_obs=scheme.n_obs,
                big_delta=scheme.big_delta,
            )
        )
    return out


def estimates_to_csv(estimates, path) -> None:
    """Write covariance estimates as CSV rows.

    Columns: lag_requested, lag_used, n_obs, big_delta, then the matrix
    entries row-major (``k_i_j``).
    """
    estimates = list(estimates)
    if not estimates:
        raise ParameterDomain("no estimates to write")
    r = estimates[0].matrix.shape[0]
    header = ["lag_requested", "lag_used", "n_obs", "big_delta"]
    header += [f"k_{i}_{j}" for i in range(r) for j in range(r)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for est in estimates:
            if est.matrix.shape != (r, r):
                raise ParameterDomain("estimates mix matrix sizes")
            row = [
                repr(float(est.lag_requested)),
                repr(float(est.lag_used)),
                str(est.n_obs),
                repr(float(est.big_delta)),
            ]
            row += [repr(float(v)) for v in est.matrix.ravel()]
            fh.write(",".join(row) + "\n")

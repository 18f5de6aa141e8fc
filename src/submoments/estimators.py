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

Every covariance, in this module, in the CLI and in the lab, comes from
one kernel, :func:`lagged_covariances`.  It takes each mean column as one
``np.sum``, then walks numpy's pairwise split tree over the ``N`` rows
down to leaves of at most ``_LEAF`` rows.  At a leaf it centres the lead
rows once and, for each distinct kappa, the lagged rows, into two
leaf-sized buffers; it multiplies them and sums each product.  The leaf
sums are added in the tree's order.  So the kernel holds a few leaf
buffers rather than ``N``-long copies, and its results carry the bits of
one ``np.sum`` over each full ``N``-long product.

Sums are taken with numpy's pairwise reduction (not a BLAS dot), which
keeps the accumulation error at the square-root-of-log level even for
million-sample sequences and makes results independent of BLAS vendor.
Each mean column and each covariance entry is its own 1-d reduction:
``np.sum(axis=0)`` over an ``(N, r)`` array is pairwise only when r = 1,
and adds the rows one after another otherwise.  A contiguous 1-d
``np.sum`` of ``n`` values splits at ``n2 = n // 2`` rounded down to a
multiple of 8 while ``n`` exceeds its 128-value block (Higham, *Accuracy
and Stability of Numerical Algorithms*, section 4.2); the tree depends on
the length alone, which is what lets a leaf's own ``np.sum`` stand in for
its subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, ParameterDomain, SchemeTooShortForLag
from .grids import SubsamplingScheme

#: required ratio of sample count to lag shift
MIN_N_OVER_KAPPA = 10

#: largest row range the covariance kernel centres and sums in one piece
_LEAF = 1 << 15


def lag_index(lag_u: float, big_delta: float) -> int:
    """Closest coarse-grid index to a continuous lag, ties to even.

    ``lag_index(0, d) = 0`` for every step, and the represented lag
    ``kappa * big_delta`` is always within half a step of the request.
    """
    if big_delta <= 0 or not np.isfinite(big_delta):
        raise ParameterDomain(f"big_delta must be positive, got {big_delta}")
    if lag_u < 0 or not np.isfinite(lag_u):
        raise ParameterDomain(f"lag must be a finite value >= 0, got {lag_u}")
    ratio = lag_u / big_delta
    if not np.isfinite(ratio):
        raise ParameterDomain(f"lag {lag_u} / coarse step {big_delta} overflows")
    return round(ratio)


def _as_matrix(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ParameterDomain(f"samples must be 1-d or 2-d, got ndim={arr.ndim}")
    return arr


def _pairwise_mean(block: np.ndarray) -> np.ndarray:
    return np.array([np.sum(block[:, j]) for j in range(block.shape[1])]) / block.shape[0]


def empirical_mean(samples) -> np.ndarray:
    """Mean of the coarse samples, one entry per coordinate."""
    arr = _as_matrix(samples)
    if arr.shape[0] < 1:
        raise InsufficientData("need at least one sample")
    return _pairwise_mean(arr)


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


def _tree_sums(arr, lo, n, mean, lags, bufs) -> np.ndarray:
    """Centred lagged product sums over rows ``lo .. lo+n-1``, one per lag and (i, j).

    ``lags`` holds ``(kappa, mean of the lagged block)`` pairs; ``bufs`` the
    lead, lagged and product buffers of at least ``min(n, _LEAF)`` rows.

    Splits where numpy's pairwise sum splits until a range fits a leaf,
    then adds the two halves, as that sum does.  A module-level function
    rather than a closure: a self-referencing closure is a reference cycle
    that keeps ``arr`` alive until the cyclic collector runs.
    """
    if n > _LEAF:
        n2 = n // 2
        n2 -= n2 % 8
        return _tree_sums(arr, lo, n2, mean, lags, bufs) + _tree_sums(
            arr, lo + n2, n - n2, mean, lags, bufs
        )
    lead_c, lagged_c, product = (buf[:n] for buf in bufs)
    np.subtract(arr[lo : lo + n], mean, out=lead_c)
    r = arr.shape[1]
    sums = np.empty((len(lags), r, r))
    for li, (kappa, shifted) in enumerate(lags):
        if kappa == 0:
            block = lead_c
        else:
            block = np.subtract(arr[lo + kappa : lo + kappa + n], shifted, out=lagged_c)
        for i in range(r):
            for j in range(r):
                sums[li, i, j] = np.sum(np.multiply(lead_c[:, i], block[:, j], out=product))
    return sums


def lagged_covariances(samples, n_obs: int, kappas) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrices at several coarse lags, and the lead-block mean.

    Returns ``(cov, mean)``: ``cov[l]`` is the ``(r, r)`` estimate at
    ``kappas[l]``, each distinct kappa computed once, and ``mean`` is the
    mean of the first ``n_obs`` samples.  Every kappa is length-checked.
    Working memory is a few ``_LEAF``-row buffers, whatever ``n_obs``.
    """
    arr = _as_matrix(samples)
    kappas = [int(k) for k in kappas]
    for kappa in kappas or [0]:
        _check_lengths(arr, n_obs, kappa)
    distinct = list(dict.fromkeys(kappas))
    r = arr.shape[1]
    mean = _pairwise_mean(arr[:n_obs])
    lags = [(k, _pairwise_mean(arr[k : k + n_obs]) if k else mean) for k in distinct]
    rows = min(n_obs, _LEAF)
    lead_c = np.empty((rows, r))
    lagged_c = np.empty((rows, r))
    # at r = 1 each lagged column is read once, so its product overwrites it
    product = lagged_c[:, 0] if r == 1 else np.empty(rows)
    cov = _tree_sums(arr, 0, n_obs, mean, lags, (lead_c, lagged_c, product))
    cov /= n_obs
    return cov[[distinct.index(kappa) for kappa in kappas]], mean


def lagged_covariance(samples, n_obs: int, kappa: int, big_delta: float) -> LaggedCovarianceEstimate:
    """Lagged covariance matrix of a coarse sequence.

    Entry (i, j) estimates ``Cov(X_t(i), X_{t + kappa*big_delta}(j))``; the
    estimate reports ``kappa * big_delta`` as both the requested and the
    used lag.  Extra trailing samples beyond ``n_obs + kappa`` are ignored.
    Requires ``n_obs >= 2`` and, for positive lags, ``n_obs >= 10 * kappa``
    so the average spans many decorrelation windows.
    """
    if big_delta <= 0 or not np.isfinite(big_delta):
        raise ParameterDomain(f"big_delta must be positive, got {big_delta}")
    cov, _ = lagged_covariances(samples, n_obs, [kappa])
    lag = kappa * big_delta
    return LaggedCovarianceEstimate(
        matrix=cov[0],
        lag_requested=float(lag),
        lag_used=lag,
        kappa=kappa,
        n_obs=n_obs,
        big_delta=big_delta,
    )


def covariance_curve(samples, scheme: SubsamplingScheme, lags) -> list[LaggedCovarianceEstimate]:
    """Covariance estimates at several requested lags on one scheme.

    Lags are rounded to the coarse grid first; requests that round to the
    same ``kappa`` share one computation.
    """
    lag_list = [float(u) for u in lags]
    kappas = [lag_index(u, scheme.big_delta) for u in lag_list]
    cov, _ = lagged_covariances(samples, scheme.n_obs, kappas)
    matrices = dict(zip(kappas, cov))  # one matrix object per distinct kappa
    return [
        LaggedCovarianceEstimate(
            matrix=matrices[kappa],
            lag_requested=u,
            lag_used=kappa * scheme.big_delta,
            kappa=kappa,
            n_obs=scheme.n_obs,
            big_delta=scheme.big_delta,
        )
        for u, kappa in zip(lag_list, kappas)
    ]


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

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
one kernel, :func:`lagged_covariances`.  It walks numpy's pairwise split
tree over the ``N`` rows down to leaves of at most ``_LEAF`` rows, twice:
first summing each column of the lead and lagged blocks, for the means,
then centring the lead rows once and, for each distinct kappa, the
lagged rows, into two leaf-sized buffers, multiplying them and summing
each product.  The leaf sums are added in the tree's order.  Each leaf
takes one window of rows ``lo .. lo + n + max(kappa) - 1``: a view of an
array, or the rows of a :class:`~submoments.grids.FileSequence` read into a
reused buffer, so a sequence on disk is reduced without being loaded.
The kernel holds a few leaf buffers rather than ``N``-long copies, and
its results carry the bits of one ``np.sum`` over each full ``N``-long
column and product.

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
its subtree.  numpy sums a strided float64 column along the same tree, in
one pass rather than in buffered chunks, so a strided leaf has the bits
of its contiguous copy (``TestBlockedKernel`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, ParameterDomain, SchemeTooShortForLag
from .grids import SubsamplingScheme, check_positive

#: required ratio of sample count to lag shift
MIN_N_OVER_KAPPA = 10

#: largest row range the covariance kernel centres and sums in one piece
_LEAF = 1 << 15


def lag_index(lag_u: float, big_delta: float) -> int:
    """Closest coarse-grid index to a continuous lag, ties to even.

    ``lag_index(0, d) = 0`` for every step, and the represented lag
    ``kappa * big_delta`` is always within half a step of the request.
    """
    check_positive(big_delta, "big_delta")
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


def _source(samples):
    """``(shape, reader)`` of an ``(N, r)`` sequence held in memory, in a file or in blocks.

    ``reader(rows)`` returns ``window(lo, n)``, rows ``lo .. lo+n-1`` as an
    ``(n, r)`` array for ``n <= rows``: a view of an array, or of the one
    buffer a :class:`FileSequence` reads each window into.  Any object with
    a ``shape`` and a ``window_reader`` of that form is read through it, as
    the replication engine in :mod:`submoments.lab` reads a path it holds in
    blocks.  Each kernel call takes one reader and walks its windows from
    row 0 upwards, twice when it computes covariances.
    """
    if hasattr(samples, "window_reader"):
        return samples.shape, samples.window_reader
    arr = _as_matrix(samples)
    return arr.shape, lambda rows: lambda lo, n: arr[lo : lo + n]


def _tree_sums(leaf, lo: int, n: int) -> np.ndarray:
    """``leaf(lo', n')`` summed over numpy's pairwise split of rows ``lo .. lo+n-1``.

    Splits where numpy's pairwise sum splits until a range fits a leaf,
    then adds the two halves, as that sum does.  A module-level function
    rather than a closure: a self-referencing closure is a reference cycle
    that keeps the input alive until the cyclic collector runs.
    """
    if n > _LEAF:
        n2 = n // 2
        n2 -= n2 % 8
        return _tree_sums(leaf, lo, n2) + _tree_sums(leaf, lo + n2, n - n2)
    return leaf(lo, n)


def _means(window, n_obs: int, r: int, starts: list, span: int) -> np.ndarray:
    """Means of rows ``k .. k+n_obs-1`` for each ``k`` in ``starts``, shape ``(len(starts), r)``.

    Each leaf reads rows ``lo .. lo+n+span-1`` once and sums every column of
    every shifted block, so each mean carries the bits of one ``np.sum``
    over its ``n_obs``-long column.
    """

    def leaf(lo, n):
        rows = window(lo, n + span)
        return np.array([[np.sum(rows[k : k + n, j]) for j in range(r)] for k in starts])

    return _tree_sums(leaf, 0, n_obs) / n_obs


def empirical_mean(samples) -> np.ndarray:
    """Mean of the coarse samples, one entry per coordinate."""
    (length, r), reader = _source(samples)
    if length < 1:
        raise InsufficientData("need at least one sample")
    return _means(reader(min(length, _LEAF)), length, r, [0], 0)[0]


@dataclass(frozen=True)
class LaggedCovarianceEstimate:
    """Covariance matrix estimate at one coarse lag, with the lead-block mean."""

    matrix: np.ndarray
    lag_requested: float
    lag_used: float
    kappa: int
    n_obs: int
    big_delta: float
    mean: np.ndarray  # of the first n_obs samples, as the kernel centres them


def check_lag_window(n_obs: int, kappa: int) -> None:
    """Refuse an average over ``n_obs`` samples as too short for a lag of ``kappa`` > 0."""
    if kappa > 0 and n_obs < MIN_N_OVER_KAPPA * kappa:
        raise SchemeTooShortForLag(
            f"n_obs={n_obs} is below {MIN_N_OVER_KAPPA} * kappa={kappa}; "
            "the averaging window is too short for this lag"
        )


def _check_lengths(length: int, n_obs: int, kappa: int) -> None:
    if n_obs < 2:
        raise ParameterDomain(f"n_obs must be >= 2, got {n_obs}")
    if kappa < 0:
        raise ParameterDomain(f"kappa must be >= 0, got {kappa}")
    if length < n_obs + kappa:
        raise InsufficientData(
            f"need {n_obs + kappa} samples for n_obs={n_obs} kappa={kappa}, "
            f"got {length}"
        )
    check_lag_window(n_obs, kappa)


def lagged_covariances(samples, n_obs: int, kappas) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrices at several coarse lags, and the lead-block mean.

    Returns ``(cov, mean)``: ``cov[l]`` is the ``(r, r)`` estimate at
    ``kappas[l]``, each distinct kappa computed once, and ``mean`` is the
    mean of the first ``n_obs`` samples.  Every kappa is length-checked.
    ``samples`` is an array or a :class:`FileSequence`; the kernel walks its
    rows twice, for the means and then for the centred products, one window
    of ``n + max(kappas)`` rows per leaf.  Working memory is a few
    leaf-sized buffers, whatever ``n_obs``.
    """
    (length, r), reader = _source(samples)
    kappas = [int(k) for k in kappas]
    for kappa in kappas or [0]:
        _check_lengths(length, n_obs, kappa)
    distinct = list(dict.fromkeys(kappas))
    span = max(distinct, default=0)
    rows = min(n_obs, _LEAF)
    window = reader(rows + span)
    starts = list(dict.fromkeys([0, *distinct]))
    means = dict(zip(starts, _means(window, n_obs, r, starts, span)))
    mean = means[0]
    lead_c = np.empty((rows, r))
    lagged_c = np.empty((rows, r))
    # at r = 1 each lagged column is read once, so its product overwrites it
    product = lagged_c[:, 0] if r == 1 else np.empty(rows)

    def leaf(lo, n):
        """Centred product sums over rows ``lo .. lo+n-1``, one per distinct kappa and (i, j)."""
        block = window(lo, n + span)
        lead = np.subtract(block[:n], mean, out=lead_c[:n])
        sums = np.empty((len(distinct), r, r))
        for li, kappa in enumerate(distinct):
            if kappa == 0:
                lagged = lead
            else:
                lagged = np.subtract(block[kappa : kappa + n], means[kappa], out=lagged_c[:n])
            for i in range(r):
                for j in range(r):
                    sums[li, i, j] = np.sum(np.multiply(lead[:, i], lagged[:, j], out=product[:n]))
        return sums

    cov = _tree_sums(leaf, 0, n_obs)
    cov /= n_obs
    return cov[[distinct.index(kappa) for kappa in kappas]], mean


def lagged_covariance(samples, n_obs: int, kappa: int, big_delta: float) -> LaggedCovarianceEstimate:
    """Lagged covariance matrix of a coarse sequence: one-lag :func:`covariance_curve`.

    Entry (i, j) estimates ``Cov(X_t(i), X_{t + kappa*big_delta}(j))``; the
    requested and the used lag are both ``kappa * big_delta``, which rounds
    back to ``kappa``.  Extra samples beyond ``n_obs + kappa`` are ignored.
    Requires ``n_obs >= 2`` and, for positive lags, ``n_obs >= 10 * kappa``
    so the average spans many decorrelation windows.
    """
    return covariance_curve(samples, SubsamplingScheme(n_obs, big_delta), [kappa * big_delta])[0]


def covariance_curve(samples, scheme: SubsamplingScheme, lags) -> list[LaggedCovarianceEstimate]:
    """Covariance estimates at several requested lags on one scheme.

    Lags are rounded to the coarse grid first; requests that round to the
    same ``kappa`` share one computation.  All carry the kernel's one mean.
    """
    lag_list = [float(u) for u in lags]
    kappas = [lag_index(u, scheme.big_delta) for u in lag_list]
    cov, mean = lagged_covariances(samples, scheme.n_obs, kappas)
    matrices = dict(zip(kappas, cov))  # one matrix object per distinct kappa
    return [
        LaggedCovarianceEstimate(
            matrix=matrices[kappa],
            lag_requested=u,
            lag_used=kappa * scheme.big_delta,
            kappa=kappa,
            n_obs=scheme.n_obs,
            big_delta=scheme.big_delta,
            mean=mean,
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

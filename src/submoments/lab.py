"""Monte Carlo experiments measuring estimator convergence against theory.

The generic engine sweeps a grid of proxy levels (or sample budgets), runs
paired replications of the hidden process and its observable, and records
covariance and mean estimates for both sequences.  Errors against the
known stationary moments then yield empirical convergence rates, gap
checks against the perturbation bound, and bound-containment fractions.

Two more pipelines live here: an end-to-end parameter recovery study for
the scalar mean-reverting model, which runs on the sweep's replication
engine, and a realized-variance study for the square-root volatility model
where the proxy quality is itself estimated from a pilot path.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import threading
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import (
    InsufficientData,
    MomentsOutsideModelRange,
    NumericalError,
    ParameterDomain,
    ResourceLimit,
)
# empirical_mean and lagged_covariance stay bound: perfbench/child.py traces them here
from .estimators import check_lag_window, empirical_mean, lag_index, lagged_covariance, lagged_covariances
from .grids import (
    RandomStreamSpec,
    StreamRole,
    SubsamplingScheme,
    TrajectoryGrid,
    check_grid,
    check_positive,
    open_output,
    resolve_stride,
    subsample_sequence,  # not called here: perfbench/child.py traces it here by name
    whole_steps,
    write_table,
)
from . import models
from .blocks import BlockPath, PathView
from .invert import CIR_PARAMETER_NAMES, OU_PARAMETER_NAMES, decay_rate, invert_cir, invert_ou
from .models import (
    HestonParams,
    OUParams,
    default_rv_window,
    heston_initial_variance,
    multiplicative_perturbation_observable,  # and smoothing_observable: as subsample_sequence
    ou_filter,
    ou_true_covariance,
    realized_variance_chunk,
    realized_volatility_observable,
    simulate_ou,
    smoothing_observable,
    smoothing_weights,
    _heston_core,
)
from .schemes import (
    BoundInputs,
    error_bound_observable,
    error_bound_unobservable,
    scheme_from_n,
    scheme_from_rho,
)

_OBSERVABLES = ("identity", "multiplicative", "smoothing")
_RHO_KINDS = ("identity", "sqrt")
_FAMILIES = ("from_rho", "from_n", "custom")
_HESTON_CHUNK = 512  # fine rows stepped at once, over all heston_rv replications: fits L2
_COARSE_SEGMENT = 4096  # coarse rows a heston_rv level's samples grow by
_SPARE_BLOCKS = 2  # pool blocks beyond one longest path: how far the draws run ahead of the reducer
_MEMORY_CAP_BYTES = 2 * 1024**3  # workspace a run may plan for, else ResourceLimit


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def config_hash(config) -> str:
    """sha256 run identity of a pipeline config: every field of it."""
    blob = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence sweep for the scalar mean-reverting model.

    The sweep axis is either ``epsilon_grid`` (proxy level, strictly
    decreasing, at least three entries when rates are to be fitted) or
    ``n_grid`` (sample budgets) for the ``from_n`` family.  ``rho_kind``
    maps epsilon to the proxy error level: ``identity`` (rho = eps) or
    ``sqrt`` (rho = c_rho * sqrt(eps)).
    ``stride_resolution`` is the number of fine simulation steps per coarse
    step; pointwise observables with an exact-transition simulator need
    only 1.
    """

    model: OUParams
    observable: str = "identity"
    rho_kind: str = "identity"
    c_rho: float = 1.0
    epsilon_grid: tuple = ()
    n_grid: tuple = ()
    scheme_family: str = "from_rho"
    c_n: float = 1.0
    c_delta: float = 1.0
    custom_schemes: tuple = ()
    lags: tuple = (0.0,)
    horizon_a: float | None = None
    replications: int = 100
    master_seed: int = 0
    stride_resolution: int = 1

    def __post_init__(self):
        if self.observable not in _OBSERVABLES:
            raise ParameterDomain(f"unknown observable {self.observable!r}")
        if self.rho_kind not in _RHO_KINDS:
            raise ParameterDomain(f"unknown rho kind {self.rho_kind!r}")
        if self.scheme_family not in _FAMILIES:
            raise ParameterDomain(f"unknown scheme family {self.scheme_family!r}")
        if self.replications < 30:
            raise ParameterDomain(
                f"need at least 30 replications for stable error estimates, "
                f"got {self.replications}"
            )
        if self.stride_resolution < 1:
            raise ParameterDomain("stride_resolution must be >= 1")
        for name in ("c_n", "c_delta", "c_rho"):
            check_positive(getattr(self, name), name)
        if self.scheme_family == "from_n":
            if len(self.n_grid) < 1:
                raise ParameterDomain("from_n family needs n_grid")
            if (self.observable, self.rho_kind) != ("identity", "identity"):  # no proxy level
                raise ParameterDomain(
                    "from_n family samples the hidden sequence only: observable and rho_kind "
                    f"must be identity, got {self.observable!r} and {self.rho_kind!r}"
                )
        else:
            eps = np.asarray(self.epsilon_grid, dtype=float)
            if eps.size < 3:
                raise ParameterDomain("epsilon_grid needs at least three levels")
            if (eps <= 0).any() or not (np.diff(eps) < 0).all():
                raise ParameterDomain("epsilon_grid must be positive, strictly decreasing")
            if self.scheme_family == "from_rho":  # an N that overflows fails here, before any draw
                for e in self.epsilon_grid:
                    scheme_from_rho(self.rho_of(e), self.c_n, self.c_delta)
        if self.scheme_family == "custom" and len(self.custom_schemes) != len(
            self.epsilon_grid
        ):
            raise ParameterDomain("custom family needs one scheme per epsilon")
        if not self.lags:
            raise ParameterDomain("need at least one lag")
        if any(u < 0 for u in self.lags):
            raise ParameterDomain("lags must be >= 0")
        if self.horizon_a is not None:
            if not 0 <= self.horizon_a < math.inf:
                raise ParameterDomain(f"horizon_a must be finite and >= 0, got {self.horizon_a}")
            for u in self.lags:
                if u > self.horizon_a:
                    raise ParameterDomain(f"lag {u} exceeds horizon {self.horizon_a}")

    def rho_of(self, eps: float) -> float:
        return self.c_rho * math.sqrt(eps) if self.rho_kind == "sqrt" else float(eps)


@dataclass(frozen=True)
class CoarsePoint:
    """A scheme pinned to a fine grid step, with its lags on the coarse grid.

    It reads ``rows`` fine rows: ``offset`` warm-up rows, then ``n_obs``
    coarse samples plus the ``max(kappas)`` more that the longest lag needs.
    """

    scheme: SubsamplingScheme  # resolved
    step: float  # fine grid step
    offset: int
    lags: tuple  # as requested
    kappas: tuple
    lags_used: tuple
    rows: int

    def require_positive(self, i: int) -> None:
        """Refuse lag ``i`` when it rounds to zero on the coarse step."""
        if self.kappas[i] < 1:
            raise ParameterDomain(
                f"lag {self.lags[i]} rounds to zero on the coarse step {self.scheme.big_delta}"
            )

    def require_long_window(self) -> None:
        """Refuse, before any draw, a scheme the covariance kernel would find too short
        for a lag, as it checks them: in lag order."""
        for kappa in self.kappas:
            check_lag_window(self.scheme.n_obs, kappa)


def plan_point(scheme: SubsamplingScheme, step: float, lags, offset: int = 0) -> CoarsePoint:
    """Pin ``scheme`` to the fine ``step`` and round every lag on the resolved step.

    Every coarse sequence is sized here: the sweep's, the end-to-end and
    realized-variance pipelines' and ``estimate``'s.
    """
    resolved = resolve_stride(scheme, step)
    kappas = tuple(lag_index(u, resolved.big_delta) for u in lags)
    return CoarsePoint(
        scheme=resolved,
        step=step,
        offset=offset,
        lags=tuple(lags),
        kappas=kappas,
        lags_used=tuple(k * resolved.big_delta for k in kappas),
        rows=offset + (resolved.n_obs + max(kappas)) * resolved.stride,
    )


@dataclass(frozen=True)
class SweepPoint:
    label: float
    rho: float
    eps: float
    point: CoarsePoint  # its offset is the smoothing window's warm-up


def _plan_sweep(config: ExperimentConfig) -> list[SweepPoint]:
    if config.scheme_family == "from_n":
        raw = [(float(n), 0.0, 0.0, scheme_from_n(int(n), config.c_delta)) for n in config.n_grid]
    elif config.scheme_family == "from_rho":
        rhos = [(float(eps), config.rho_of(eps)) for eps in config.epsilon_grid]
        raw = [(eps, rho, eps, scheme_from_rho(rho, config.c_n, config.c_delta)) for eps, rho in rhos]
    else:
        raw = [
            (float(eps), config.rho_of(eps), float(eps), scheme)
            for eps, scheme in zip(config.epsilon_grid, config.custom_schemes)
        ]
    points = []
    for label, rho, eps, scheme in raw:
        step = scheme.big_delta / config.stride_resolution
        smoothing = config.observable == "smoothing"
        offset = whole_steps(eps, step, "smoothing window") if smoothing else 0
        point = plan_point(scheme, step, config.lags, offset)
        point.require_long_window()
        points.append(SweepPoint(label, rho, eps, point))
    return points


def _check_memory(rows: float, paths: int = 1, values: int = 0) -> None:
    """Refuse a plan of ``paths`` paths of ``rows`` rows each and ``values`` more float64s
    over the cap, before any of them is allocated.

    A float ``rows`` that overflowed to infinity is refused too.
    """
    # four float64 columns a row, the rest headroom: an OU sweep holds one
    # (its pool of blocks: one path of the longest point and a few spare
    # blocks, which the calling thread draws into and the one reducer thread
    # reads, over two queues; the observable is made window by window and the
    # kernel works in leaf-sized buffers), the pilot its price and variance
    # paths and a few eps-grid columns while it measures rho, the
    # realized-variance main pass one, its coarse samples, counted for every
    # level although a finished level is reduced and dropped (beyond them it
    # holds one _HESTON_CHUNK-row chunk of every replication)
    need = rows * 8 * 4 * paths + 8 * values
    if need > _MEMORY_CAP_BYTES:
        raise ResourceLimit(
            f"run needs about {need / 1e9:.2f} GB of workspace, cap is "
            f"{_MEMORY_CAP_BYTES / 1e9:.2f} GB"
        )


# ---------------------------------------------------------------------------
# Ensemble
# ---------------------------------------------------------------------------


@dataclass
class Ensemble:
    """Raw per-replication estimates of one sweep, beside the plan it ran."""

    points: list[SweepPoint]  # (G,)
    khat_y: np.ndarray  # (G, M, L)
    khat_x: np.ndarray  # (G, M, L)
    mean_y: np.ndarray  # (G, M)
    mean_x: np.ndarray  # (G, M)

    @property
    def replications(self) -> int:
        return self.khat_x.shape[1]


def _views(path: BlockPath, sweep: SweepPoint, observable: str, hidden: bool) -> list:
    """The sequences a replication's kernel calls read, hidden first, the observable last.

    For the identity observable the two are one view; without ``hidden``
    only the observable is read.
    """
    point = sweep.point
    if observable == "identity":
        return [PathView(path, point, 0, last=True)]
    if observable == "multiplicative":
        y = PathView(path, point, 0, scale=1.0 + sweep.rho, last=True)
    else:
        y = PathView(path, point, 0, weights=smoothing_weights(sweep.eps, point.step), last=True)
    return [PathView(path, point, point.offset), y] if hidden else [y]


def _replicate(points, model, observable, seed, replications: int, reduce, hidden=True) -> None:
    """The one OU replication loop: ``reduce(gi, rep, y, x)`` for every pair.

    ``y`` and ``x`` are the covariance kernel's ``(cov, mean)`` on the
    pair's coarse observable and hidden sequences (one result for the
    identity observable; without ``hidden``, ``y`` twice).  Replication
    ``rep`` draws only from streams keyed by ``rep``, so results do not
    depend on execution order.

    The calling thread draws each (grid point, replication) pair's normals,
    inside ``simulate_ou``, into blocks it takes from the ``free`` queue and
    puts on ``drawn``: a pool of one path of the longest point plus
    ``_SPARE_BLOCKS`` blocks of ``_FILTER_BLOCK`` rows.  One reducer thread
    walks the same pairs, reads each path's blocks off ``drawn`` as
    :mod:`.blocks` describes and calls ``reduce``.  The draws stay on the
    calling thread so that a tracer wrapping ``simulate_ou`` and the
    stream's generator sees every draw on one thread, nested in
    ``simulate_ou``; the reducer calls none of the names the tracer wraps.
    A failed draw puts ``None`` on ``drawn``, where the reducer's read
    raises; the reducer records whatever it raises and puts ``None`` on
    ``free``, where the drawer raises it at its next ``take``.  The reducer
    thread has ended when this returns; a failed draw raises its own error.
    The caller has checked the memory the plan needs.
    """
    size = models._FILTER_BLOCK
    room = -(-max(p.point.rows for p in points) // size) + _SPARE_BLOCKS  # blocks still to allocate
    free, drawn = queue.SimpleQueue(), queue.SimpleQueue()
    failed = []  # the reduction's error

    def take(rows: int) -> np.ndarray:
        nonlocal room
        if room and free.empty():
            room -= 1
            return np.empty(size)[:rows]
        block = free.get()
        if block is None:
            raise failed[0]
        return block[:rows]

    def reduce_all() -> None:
        try:
            for gi, sweep in enumerate(points):
                point = sweep.point
                for rep in range(replications):
                    path = BlockPath(drawn, free, size, ou_filter(model, point.step))
                    views = _views(path, sweep, observable, hidden)
                    results = [lagged_covariances(view, point.scheme.n_obs, point.kappas) for view in views]
                    reduce(gi, rep, results[-1], results[0])
                    path.release()
        except BaseException as exc:  # raised again on the drawing thread and by _replicate
            failed.append(exc)
            free.put(None)

    reducer = threading.Thread(target=reduce_all, daemon=True)
    reducer.start()
    try:
        for sweep in points:
            point = sweep.point
            for rep in range(replications):
                stream = RandomStreamSpec(seed, rep, StreamRole.PROCESS_NOISE)
                simulate_ou(model, point.rows, point.step, stream, drawn.put, take)
    except BaseException:
        drawn.put(None)
        raise
    finally:
        reducer.join()
    if failed:
        raise failed[0]


def run_replications(config: ExperimentConfig) -> Ensemble:
    """Run the full sweep and collect paired estimates.

    Each pair fills its ensemble slots from the covariance kernel on both
    sequences, or on one when they are the same array.
    """
    points = _plan_sweep(config)
    n_points, n_reps, n_lags = len(points), config.replications, len(config.lags)
    _check_memory(max(p.point.rows for p in points), values=2 * n_points * n_reps * (n_lags + 1))
    ens = Ensemble(
        points=points,
        khat_y=np.empty((n_points, n_reps, n_lags)),
        khat_x=np.empty((n_points, n_reps, n_lags)),
        mean_y=np.empty((n_points, n_reps)),
        mean_x=np.empty((n_points, n_reps)),
    )

    def fill(gi: int, rep: int, y, x) -> None:
        (ky, my), (kx, mx) = y, x
        ens.khat_y[gi, rep], ens.khat_x[gi, rep] = ky[:, 0, 0], kx[:, 0, 0]
        ens.mean_y[gi, rep], ens.mean_x[gi, rep] = my[0], mx[0]

    _replicate(points, config.model, config.observable, config.master_seed, n_reps, fill)
    return ens


# ---------------------------------------------------------------------------
# Error metrics and rate fits
# ---------------------------------------------------------------------------


def empirical_lp_error(estimates: np.ndarray, target, p: float) -> np.ndarray:
    """Monte Carlo L^p error ``mean(|estimate - target|^p over M)^(1/p)``.

    ``estimates`` has shape (G, M) or (G, M, L), with replications on axis
    1; ``target`` broadcasts against it.  Returns shape (G,) or (G, L).
    """
    if p <= 0:
        raise ParameterDomain(f"p must be > 0, got {p}")
    est = np.asarray(estimates, dtype=float)
    if est.ndim < 2:
        raise ParameterDomain("estimates must have shape (G, M, ...)")
    diff = np.abs(est - np.asarray(target, dtype=float))
    return (np.mean(diff**p, axis=1)) ** (1.0 / p)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate_slope(x, y) -> RateFit:
    """Least-squares slope of log(y) against log(x).

    Inputs must be positive; with two points the fit is exact and the
    r-squared is reported as 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ParameterDomain("need matching 1-d arrays with at least two points")
    if (x <= 0).any() or (y <= 0).any():
        raise ParameterDomain("rate fits need positive values on both axes")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


@dataclass(frozen=True)
class GapCheck:
    """Measured estimator gap between proxy and hidden sequences at one level."""

    label: float
    rho: float
    nu: float
    gap_by_lag: np.ndarray  # (L,) Monte Carlo L2 gaps
    gap: float  # max over lags
    bound: float  # 4 * nu * rho
    cov_ok: bool
    mean_gap_l4: float
    mean_bound: float
    mean_ok: bool


def perturbation_gap_check(ensemble: Ensemble, nu_of_rho) -> list[GapCheck]:
    """Compare measured estimator gaps against the proxy-error bound.

    ``nu_of_rho`` maps each grid point's rho to the fourth-moment constant
    of the pair of sequences.  The covariance gap must stay below
    ``4 * nu * rho`` and the mean gap below ``nu * rho``.
    """
    gaps = empirical_lp_error(ensemble.khat_y - ensemble.khat_x, 0.0, 2.0)
    mean_gaps = empirical_lp_error(ensemble.mean_y - ensemble.mean_x, 0.0, 4.0)
    out = []
    for gi, point in enumerate(ensemble.points):
        rho = point.rho
        nu = float(nu_of_rho(rho))
        mean_gap = float(mean_gaps[gi])
        bound = 4.0 * nu * rho
        mean_bound = nu * rho
        gap = float(gaps[gi].max())
        out.append(
            GapCheck(
                label=point.label,
                rho=rho,
                nu=nu,
                gap_by_lag=gaps[gi],
                gap=gap,
                bound=bound,
                cov_ok=bool(gap <= bound),
                mean_gap_l4=mean_gap,
                mean_bound=mean_bound,
                mean_ok=bool(mean_gap <= mean_bound),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def write_json(payload, path=None) -> None:
    """Write ``payload`` as indented, key-sorted JSON and a newline to ``path``, or print it.

    A NaN or infinity raises ``NumericalError`` before anything is opened or
    made, so a refused payload leaves no file or folder behind.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write non-finite JSON: {exc}") from None
    if path is None:
        print(text)
        return
    with open_output(path) as fh:
        fh.write(text + "\n")


@dataclass
class ConvergenceReport:
    meta: dict
    rows: list
    mean_rows: list
    slopes: dict
    bound_rows: list
    bound_fractions: dict

    def write_json(self, path) -> None:
        write_json(asdict(self), path)

    def write_csv(self, path) -> None:
        cols = "label rho n_obs big_delta span lag lag_used err_x_l2 err_y_l2 gap_l2".split()
        write_table(path, cols, [[row[c] for row in self.rows] for c in cols])


def build_report(
    config: ExperimentConfig,
    ensemble: Ensemble,
    inputs: BoundInputs | None = None,
) -> ConvergenceReport:
    """Errors, fitted rates, and bound comparisons for one sweep.

    The oracle is the model's exact stationary covariance at each requested
    lag and its mean.  When ``inputs`` is given, theoretical bounds are
    evaluated per grid point and the fraction of (point, lag) combinations
    inside the bound is reported for both sequences.
    """
    model = config.model
    points = ensemble.points
    schemes = [p.point.scheme for p in points]
    lags = np.array(config.lags, dtype=float)
    oracle = np.array([ou_true_covariance(model, u) for u in lags])
    err_x = empirical_lp_error(ensemble.khat_x, oracle, 2.0)
    err_y = empirical_lp_error(ensemble.khat_y, oracle, 2.0)
    gap = empirical_lp_error(ensemble.khat_y - ensemble.khat_x, 0.0, 2.0)
    mean_l2_x = empirical_lp_error(ensemble.mean_x, model.mean, 2.0)
    mean_l4_x = empirical_lp_error(ensemble.mean_x, model.mean, 4.0)
    mean_l2_y = empirical_lp_error(ensemble.mean_y, model.mean, 2.0)

    rows = []
    for gi, (p, scheme) in enumerate(zip(points, schemes)):
        for li, u in enumerate(lags):
            rows.append(
                {
                    "label": p.label,
                    "rho": p.rho,
                    "n_obs": scheme.n_obs,
                    "big_delta": scheme.big_delta,
                    "span": scheme.span,
                    "lag": float(u),
                    "lag_used": p.point.lags_used[li],
                    "err_x_l2": float(err_x[gi, li]),
                    "err_y_l2": float(err_y[gi, li]),
                    "gap_l2": float(gap[gi, li]),
                }
            )
    mean_rows = [
        {
            "label": p.label,
            "span": scheme.span,
            "mean_err_l2_x": float(mean_l2_x[gi]),
            "mean_err_l4_x": float(mean_l4_x[gi]),
            "mean_err_l2_y": float(mean_l2_y[gi]),
        }
        for gi, (p, scheme) in enumerate(zip(points, schemes))
    ]

    slopes: dict = {}
    by_n = config.scheme_family == "from_n"
    if len(points) >= 2:
        n_axis = np.array([s.n_obs for s in schemes], dtype=float)
        rhos = np.array([p.rho for p in points])
        for li, u in enumerate(lags):
            key = f"lag_{u:g}"
            if by_n:
                slopes[f"err_x_vs_n/{key}"] = asdict(fit_rate_slope(n_axis, err_x[:, li]))
            elif (rhos > 0).all():
                slopes[f"err_y_vs_rho/{key}"] = asdict(fit_rate_slope(rhos, err_y[:, li]))
                if (gap[:, li] > 0).all():
                    slopes[f"gap_vs_rho/{key}"] = asdict(fit_rate_slope(rhos, gap[:, li]))
        spans = np.array([s.span for s in schemes])
        if np.unique(spans).size >= 2:
            slopes["mean_l2_vs_span"] = asdict(fit_rate_slope(spans, mean_l2_x))
            slopes["mean_l4_vs_span"] = asdict(fit_rate_slope(spans, mean_l4_x))

    bound_rows: list = []
    fractions: dict = {}
    if inputs is not None:
        inside_x = 0
        inside_y = 0
        for gi, (p, scheme) in enumerate(zip(points, schemes)):
            bx = error_bound_unobservable(inputs, scheme)
            by = error_bound_observable(inputs, scheme, p.rho)
            bound_rows.append(
                {
                    "label": p.label,
                    "bound_x": bx,
                    "bound_y": by,
                    "worst_err_x": float(err_x[gi].max()),
                    "worst_err_y": float(err_y[gi].max()),
                }
            )
            inside_x += int(np.sum(err_x[gi] <= bx))
            inside_y += int(np.sum(err_y[gi] <= by))
        total = len(points) * lags.size
        fractions = {
            "contained_x": inside_x / total,
            "contained_y": inside_y / total,
        }

    meta = {
        "config_hash": config_hash(config),
        "grid_kind": "n_obs" if by_n else "epsilon",
        "replications": int(ensemble.replications),
        "observable": config.observable,
        "model": asdict(model),
    }
    return ConvergenceReport(
        meta=meta,
        rows=rows,
        mean_rows=mean_rows,
        slopes=slopes,
        bound_rows=bound_rows,
        bound_fractions=fractions,
    )


# ---------------------------------------------------------------------------
# End-to-end parameter recovery (scalar mean-reverting model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndToEndConfig:
    """Recover (mean, reversion, noise) through the full pipeline.

    The proxy is a multiplicative distortion at level ``rho``; the scheme
    follows the proxy-quality rule with constants ``c_n`` and ``c_delta``.
    """

    model: OUParams
    rho: float = 0.05
    c_n: float = 12.0
    c_delta: float = 1.0
    u1: float = 1.0
    replications: int = 100
    master_seed: int = 0
    tolerance: float = 0.10

    def __post_init__(self):
        if self.model.mean == 0 or self.model.noise == 0:
            raise ParameterDomain(
                "relative errors need nonzero true mean and noise"
            )
        scheme_from_rho(self.rho, self.c_n, self.c_delta)  # its domain, before any draw
        if self.replications < 30:
            raise ParameterDomain("need at least 30 replications")
        for name in ("u1", "tolerance"):
            check_positive(getattr(self, name), name)


@dataclass
class EndToEndReport:
    names: tuple
    truth: np.ndarray
    rel_errors: np.ndarray  # (M, 3)
    fraction_within: dict
    rms_rel: dict
    tolerance: float
    scheme: SubsamplingScheme
    config_hash: str

    def passed(self, min_fraction: float = 0.9) -> bool:
        return all(f >= min_fraction for f in self.fraction_within.values())

    def to_json_dict(self) -> dict:
        return {
            "truth": {n: float(v) for n, v in zip(self.names, self.truth)},
            "fraction_within": self.fraction_within,
            "rms_rel": self.rms_rel,
            "tolerance": self.tolerance,
            "n_obs": self.scheme.n_obs,
            "big_delta": self.scheme.big_delta,
            "replications": int(self.rel_errors.shape[0]),
            "config_hash": self.config_hash,
        }


def run_endtoend_ou(config: EndToEndConfig) -> EndToEndReport:
    """Simulate, distort, sub-sample, estimate moments, invert; per replication.

    A one-point sweep that runs the kernel on the observable only; each
    replication's moments are inverted at the lag actually representable on
    the coarse grid, so grid rounding does not bias the reversion estimate.
    """
    planned = scheme_from_rho(config.rho, config.c_n, config.c_delta)
    point = plan_point(planned, planned.big_delta, (0.0, config.u1))  # coarse = fine
    point.require_positive(1)
    point.require_long_window()
    truth = np.array([config.model.mean, config.model.reversion, config.model.noise])
    seed, reps = config.master_seed, config.replications
    _check_memory(point.rows, values=6 * reps)  # the moments and the relative errors
    moments = np.empty((reps, 3))

    def keep(gi: int, rep: int, y, _) -> None:
        cov, mean = y
        moments[rep] = mean[0], cov[0, 0, 0], cov[1, 0, 0]

    sweeps = [SweepPoint(config.rho, config.rho, 0.0, point)]
    _replicate(sweeps, config.model, "multiplicative", seed, reps, keep, hidden=False)
    rel = np.empty((reps, 3))
    for rep, psi in enumerate(moments):  # on this thread: perfbench traces invert_ou here
        rel[rep] = np.abs(invert_ou(psi, point.lags_used[1]).theta - truth) / np.abs(truth)
    names = OU_PARAMETER_NAMES
    fraction = {n: float(np.mean(rel[:, i] <= config.tolerance)) for i, n in enumerate(names)}
    rms = {n: float(np.sqrt(np.mean(rel[:, i] ** 2))) for i, n in enumerate(names)}
    return EndToEndReport(
        names=names,
        truth=truth,
        rel_errors=rel,
        fraction_within=fraction,
        rms_rel=rms,
        tolerance=config.tolerance,
        scheme=point.scheme,
        config_hash=config_hash(config),
    )


# ---------------------------------------------------------------------------
# Realized-variance pipeline (square-root volatility model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HestonRVConfig:
    """Recover square-root variance parameters from realized-variance proxies.

    For each observation scale eps, the proxy quality rho(eps) is measured
    on a pilot path as the fourth-moment distance between the realized
    variance and the true variance, and the sub-sampling scheme follows the
    proxy-quality rule at that measured level.  The variance moment fed to
    the closed-form inversion is extrapolated from two positive lags
    ``u1 < u2``, since microstructure-style noise concentrates at lag zero.
    """

    params: HestonParams
    epsilon_grid: tuple = (0.01, 0.005)
    replications: int = 100
    master_seed: int = 0
    u1: float = 0.25
    u2: float = 0.75
    c_n: float = 1.0
    c_delta: float = 1.0
    pilot_span: float = 200.0

    def __post_init__(self):
        eps = np.asarray(self.epsilon_grid, dtype=float)
        if eps.size < 2 or (eps <= 0).any() or not (np.diff(eps) < 0).all():
            raise ParameterDomain("epsilon_grid must be positive, strictly decreasing, >= 2 levels")
        if self.replications < 30:
            raise ParameterDomain("need at least 30 replications")
        if not (0 < self.u1 < self.u2):
            raise ParameterDomain("need 0 < u1 < u2")
        for name in ("u2", "c_n", "c_delta", "pilot_span"):
            check_positive(getattr(self, name), name)


@dataclass(frozen=True)
class _RVPlan:
    eps_stride: int  # fine steps per eps
    point: CoarsePoint  # step eps, offset by the RV window
    rho_hat: float

    @property
    def coarse_rows(self) -> int:
        return self.point.scheme.n_obs + max(self.point.kappas)

    def summary(self) -> dict:
        scheme = self.point.scheme
        lag1, lag2 = self.point.lags_used
        return {
            "eps": self.point.step,
            "window": self.point.offset,
            "rho_hat": self.rho_hat,
            "n_obs": scheme.n_obs,
            "big_delta": scheme.big_delta,
            "span": scheme.span,
            "lag1": lag1,
            "lag2": lag2,
        }


@dataclass
class HestonRVReport:
    truth: dict
    plans: list
    rms_rel: dict  # eps -> {param: rms relative error}
    failures: dict  # eps -> count of degenerate-moment replications
    config_hash: str

    def nonincreasing(self) -> bool:
        eps_sorted = sorted(self.rms_rel, reverse=True)  # large -> small
        return not any(
            self.rms_rel[b][name] > self.rms_rel[a][name]
            for a, b in zip(eps_sorted, eps_sorted[1:])
            for name in CIR_PARAMETER_NAMES
        )

    def to_json_dict(self) -> dict:
        return {
            "truth": self.truth,
            "plans": self.plans,
            "rms_rel": {repr(k): v for k, v in self.rms_rel.items()},
            "failures": {repr(k): v for k, v in self.failures.items()},
            "config_hash": self.config_hash,
        }


def _rv_moments(y_coarse: np.ndarray, plan: _RVPlan):
    """Moment vector [mean, extrapolated variance, cov(lag1)] from RV samples."""
    cov, mean = lagged_covariances(y_coarse, plan.point.scheme.n_obs, plan.point.kappas)
    k1, k2 = cov[:, 0, 0]
    lag1, lag2 = plan.point.lags_used
    var_v = k1 * math.exp(decay_rate(k1, k2, lag1, lag2) * lag1)
    return np.array([mean[0], var_v, k1])


def _heston_chunks(params: HestonParams, seed: int, reps, length: int, dt: float):
    """The one Heston loop: yield ``(lo, prices, variances)``, rows ``lo, ...`` of every rep.

    Each replication draws ``V(0)`` and its variance normals from its
    process-noise stream and its price normals from its auxiliary stream,
    ``_HESTON_CHUNK`` rows at a time; ``_heston_core`` steps on from the
    carried raw variance and last price, so a path is the same bit for bit
    at any chunk size, beside any replication.  A 512-row chunk keeps the
    normals, paths and the consumer's temporaries of 120 replications in
    L2 (0.49 MB per buffer).  It stays in ``lab``, where the benchmark
    traces both draws and steps.
    """
    width = len(reps)
    v = np.empty(width)
    streams = []
    for col, rep in enumerate(reps):
        stream = RandomStreamSpec(seed, rep, StreamRole.PROCESS_NOISE)
        rng_var = stream.generator()
        v[col] = heston_initial_variance(params, rng_var)
        streams.append((rng_var, stream.role(StreamRole.AUXILIARY_NOISE).generator()))
    r = np.zeros(width)
    z_var = np.empty((_HESTON_CHUNK, width))
    z_price = np.empty((_HESTON_CHUNK, width))
    for lo in range(0, length, _HESTON_CHUNK):
        rows = min(_HESTON_CHUNK, length - lo)
        for col, (rng_var, rng_price) in enumerate(streams):
            z_var[:rows, col] = rng_var.standard_normal(rows)
            z_price[:rows, col] = rng_price.standard_normal(rows)
        prices, variances, v = _heston_core(params, rows, dt, z_var[:rows], z_price[:rows], v, r)
        r = prices[-1]
        yield lo, prices, variances


def simulate_heston(
    params: HestonParams, length: int, delta_fine: float, stream: RandomStreamSpec
) -> tuple[TrajectoryGrid, TrajectoryGrid]:
    """(price path, truncated variance path) of one replication, by full-truncation Euler.

    One column of :func:`_heston_chunks`, which draws the start from the stationary law.
    """
    check_grid(length, delta_fine, "delta_fine")
    paths = np.empty((2, length))  # price and variance, each row handed over whole
    reps = [stream.replication_index]
    for lo, prices, variances in _heston_chunks(params, stream.master_seed, reps, length, delta_fine):
        paths[:, lo : lo + len(prices)] = prices[:, 0], variances[:, 0]
    return tuple(TrajectoryGrid._handover(path, delta_fine) for path in paths)


def _plan_heston_rv(config: HestonRVConfig) -> tuple[float, list]:
    """The fine step, the smallest eps, and one plan per eps level, sized from the rho a
    pilot path measures: the fourth-moment distance between RV and the true variance."""
    delta_f = min(config.epsilon_grid)
    levels = [
        (eps, whole_steps(eps, delta_f, "eps"), default_rv_window(eps))
        for eps in config.epsilon_grid
    ]

    # before the pilot sizes or draws anything: its path, and the chunk of
    # normals and paths the main pass steps for every replication
    _check_memory(config.pilot_span / delta_f, values=4 * _HESTON_CHUNK * config.replications)
    length = int(math.ceil(config.pilot_span / delta_f))
    for eps, s_eps, window in levels:
        if length // s_eps < window + 1:  # one realized-variance window of returns at eps
            raise InsufficientData(
                f"pilot_span {config.pilot_span} gives {length // s_eps} returns at eps {eps}, "
                f"need at least {window + 1}"
            )
    stream = RandomStreamSpec(config.master_seed, config.replications)
    returns, variance = simulate_heston(config.params, length, delta_f, stream)

    plans = []
    for eps, s_eps, window in levels:
        r_eps = returns.samples[s_eps - 1 :: s_eps, 0]
        v_eps = variance.samples[s_eps - 1 :: s_eps, 0]
        rv = realized_volatility_observable(TrajectoryGrid(r_eps, eps), eps, window).samples[:, 0]
        rho_hat = float(np.mean(np.abs(rv - v_eps[window:]) ** 4) ** 0.25)
        scheme = scheme_from_rho(rho_hat, config.c_n, config.c_delta)
        point = plan_point(scheme, eps, (config.u1, config.u2), window)
        point.require_positive(0)
        point.require_long_window()
        if point.kappas[1] <= point.kappas[0]:
            raise ParameterDomain(
                f"lag pair {point.lags} rounds to one lag on big_delta {point.scheme.big_delta}"
            )
        plans.append(_RVPlan(s_eps, point, rho_hat))
    return delta_f, plans


def _extend_coarse(plan: _RVPlan, r_chunk: np.ndarray, lo: int, segments: list, state):
    """Append to ``segments`` the RV samples that end in fine rows ``lo, lo + 1, ...``.

    A level's coarse samples are stored ``_COARSE_SEGMENT`` rows at a time,
    one segment allocated when its first row lands, so they take memory as
    they fill.  ``state`` is ``(carry, seen, filled)``: the realized-variance
    carry, the eps-grid prices seen and the coarse rows filled so far; the
    new state is returned.  Fine row ``j`` is on the eps grid when ``(j + 1)
    % eps_stride == 0``, and coarse row ``q`` is the RV at eps point ``window
    - 1 + (q + 1) * stride``, as ``subsample_sequence`` picks it; the RV
    window is the point's offset and eps its step.
    """
    carry, seen, filled = state
    s, point = plan.eps_stride, plan.point
    prices = r_chunk[(seen + 1) * s - 1 - lo : max(point.rows * s - lo, 0) : s]
    if len(prices) == 0:
        return state
    stride = point.scheme.stride
    keep = slice(point.offset - 1 + (filled + 1) * stride - seen, None, stride)
    picked, carry = realized_variance_chunk(prices, point.offset, point.step, carry, keep)
    q, end = filled, filled + len(picked)
    while q < end:
        i, at = divmod(q, _COARSE_SEGMENT)
        if i == len(segments):  # the segment's first row
            rows = min(_COARSE_SEGMENT, plan.coarse_rows - q)
            segments.append(np.empty((rows, picked.shape[1])))
        n = min(end - q, _COARSE_SEGMENT - at)
        segments[i][at : at + n] = picked[q - filled : q - filled + n]
        q += n
    return carry, seen + len(prices), end


def _score_level(plan: _RVPlan, segments: list, truth: np.ndarray) -> tuple[int, dict]:
    """``(failures, rms_rel)`` of one level, inverting each replication's coarse samples.

    Each replication's column is gathered from ``segments`` into one
    contiguous row for the moments.  Replications whose lagged covariances
    are unusable are failures, left out of the RMS relative error of each
    parameter; a level where every one fails is an error.
    """
    width = segments[0].shape[1]
    sq_rel = []
    for col in range(width):
        samples = np.concatenate([segment[:, col] for segment in segments])
        try:
            est = invert_cir(_rv_moments(samples, plan), plan.point.lags_used[0])
        except MomentsOutsideModelRange:
            continue
        sq_rel.append(((est.theta - truth) / truth) ** 2)
    if not sq_rel:
        raise MomentsOutsideModelRange(f"every replication failed at eps {plan.point.step}")
    rms = np.sqrt(np.mean(sq_rel, axis=0))
    return width - len(sq_rel), {name: float(v) for name, v in zip(CIR_PARAMETER_NAMES, rms)}


def run_heston_rv(config: HestonRVConfig) -> HestonRVReport:
    """Full realized-variance recovery study across observation scales.

    One fine path per replication serves every eps level (common random
    numbers), so error comparisons across levels are paired.  All
    replications are stepped together, ``_HESTON_CHUNK`` fine rows at a
    time; each chunk extends every unfinished level's coarse RV samples,
    computing RV only at the rows the scheme keeps, and is then dropped.
    A level is scored as soon as its last coarse sample lands, and its
    samples are dropped, so memory is the unfinished levels' coarse samples
    plus one chunk.  Replications whose lagged covariances are unusable are
    counted as failures and excluded from the error summary.
    """
    p = config.params
    delta_f, plans = _plan_heston_rv(config)
    length = max(plan.point.rows * plan.eps_stride for plan in plans)
    width = config.replications
    _check_memory(sum(plan.coarse_rows for plan in plans), width)

    truth = {name: getattr(p, name) for name in CIR_PARAMETER_NAMES}
    true_vec = np.array(list(truth.values()))
    coarse = [[] for _ in plans]  # None once the level is scored
    states = [(None, 0, 0)] * len(plans)
    rms_rel = dict.fromkeys(plan.point.step for plan in plans)  # epsilon_grid order
    failures = dict.fromkeys(rms_rel)
    for lo, r_chunk, _ in _heston_chunks(p, config.master_seed, range(width), length, delta_f):
        for i, plan in enumerate(plans):
            if coarse[i] is None:
                continue
            states[i] = _extend_coarse(plan, r_chunk, lo, coarse[i], states[i])
            if states[i][2] == plan.coarse_rows:
                eps = plan.point.step
                failures[eps], rms_rel[eps] = _score_level(plan, coarse[i], true_vec)
                coarse[i] = None

    return HestonRVReport(
        truth=truth,
        plans=[plan.summary() for plan in plans],
        rms_rel=rms_rel,
        failures=failures,
        config_hash=config_hash(config),
    )


# ---------------------------------------------------------------------------
# [assert] threshold checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """One ``[CHECK]`` line and the ``[assert]`` keys that switch it on.

    ``test(values, report, config, ensemble)`` returns ``(ok, detail)``;
    ``values`` holds one threshold per key, ``None`` for a key not given.
    A ``flag`` check has boolean keys and runs only when one is true.
    """

    name: str
    keys: tuple
    test: Callable
    flag: bool = False


def _slope_band(prefix: str, values, report, config, ensemble):
    lo, hi = values
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    vals = {k: v["slope"] for k, v in report.slopes.items() if k.startswith(prefix)}
    if not vals:
        return False, f"slope {prefix!r} not fitted"
    listing = ", ".join(f"{k.split('/')[-1]}={v:.3f}" for k, v in sorted(vals.items()))
    return all(lo <= s <= hi for s in vals.values()), f"band [{lo:g}, {hi:g}]: {listing}"


def _bound_fraction(values, report, config, ensemble):
    (need,) = values
    fr = report.bound_fractions
    if not fr:
        return False, "no [bounds] section configured"
    return min(fr.values()) >= need, (
        f"contained_x={fr['contained_x']:.3f}, "
        f"contained_y={fr['contained_y']:.3f}, need >= {need:g}"
    )


def _ratio_band(values, report, config, ensemble):
    (cap,) = values
    ratios = [row["err_y_l2"] / row["rho"] for row in report.rows if row["rho"] > 0]
    if not ratios:
        return False, "no positive-rho grid points"
    spread = max(ratios) / min(ratios)
    return spread <= cap, f"spread {spread:.3f} <= {cap:g}"


def _gap_levels(field: str, passing: str, values, report, config, ensemble):
    nu_of = lambda rho: (1.0 + rho) * config.model.l4_norm
    bad = [g for g in perturbation_gap_check(ensemble, nu_of) if not getattr(g, field)]
    if not bad:
        return True, passing
    return False, f"{len(bad)} level(s) exceed, at rho {', '.join(f'{g.rho:g}' for g in bad)}"


def _recovery_fraction(values, report, config, ensemble):
    (need,) = values
    listing = ", ".join(f"{k}={v:.3f}" for k, v in report.fraction_within.items())
    return report.passed(need), f"{listing}, need >= {need:g}"


def _rms_cap(param: str, values, report, config, ensemble):
    (cap,) = values
    finest = min(report.rms_rel)
    val = report.rms_rel[finest][param]
    return val <= cap, f"rms {val:.4f} <= {cap:g} at eps {finest:g}"


def _nonincreasing(values, report, config, ensemble):
    return report.nonincreasing(), "rms errors do not grow as eps shrinks"


# check name -> key prefix of the fitted slopes its band bounds
_SLOPE_BANDS = {
    "err_x_slope": "err_x_vs_n/",
    "err_y_rho_slope": "err_y_vs_rho/",
    "gap_rho_slope": "gap_vs_rho/",
    "mean_l2_slope": "mean_l2_vs_span",
    "mean_l4_slope": "mean_l4_vs_span",
}

#: Every ``[assert]`` key, per pipeline kind, in the order its check prints.
THRESHOLDS = {
    "generic": (
        *(
            _Check(name, (f"{name}_min", f"{name}_max"), partial(_slope_band, prefix))
            for name, prefix in _SLOPE_BANDS.items()
        ),
        _Check("bound_fraction", ("bound_fraction_min",), _bound_fraction),
        _Check("ratio_band", ("ratio_band_max",), _ratio_band),
        _Check(
            "gap_within_bound",
            ("gap_within_bound",),
            partial(_gap_levels, "cov_ok", "all covariance gaps below 4*nu*rho"),
            flag=True,
        ),
        _Check(
            "mean_within_bound",
            ("mean_within_bound",),
            partial(_gap_levels, "mean_ok", "all mean gaps below nu*rho"),
            flag=True,
        ),
    ),
    "ou_endtoend": (_Check("recovery_fraction", ("min_fraction",), _recovery_fraction),),
    "heston_rv": (
        *(
            _Check(key, (key,), partial(_rms_cap, param))
            for key, param in (
                ("level_rms_max", "level"),
                ("reversion_rms_max", "reversion"),
                ("vol_rms_max", "vol_of_vol"),
            )
        ),
        _Check("nonincreasing", ("nonincreasing",), _nonincreasing, flag=True),
    ),
}


def evaluate_thresholds(kind: str, checks: dict, report, config=None, ensemble=None) -> list:
    """``(name, ok, detail)`` for each check of pipeline ``kind`` that ``checks`` turns on.

    ``checks`` maps ``[assert]`` keys to thresholds, as ``assert_thresholds``
    parses them; ``config.check_keys`` has already refused a key that does
    not apply to ``kind``.  The generic bound checks also need the run's
    ``config`` and ``ensemble``.
    """
    rows = []
    for check in THRESHOLDS[kind]:
        values = tuple(checks.get(key) for key in check.keys)
        given = [v for v in values if v is not None]
        if given and (not check.flag or any(given)):
            rows.append((check.name, *check.test(values, report, config, ensemble)))
    return rows

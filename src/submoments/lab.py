"""Monte Carlo experiments measuring estimator convergence against theory.

The generic engine sweeps a grid of proxy levels (or sample budgets), runs
paired replications of the hidden process and its observable, and records
covariance and mean estimates for both sequences.  Errors against the
known stationary moments then yield empirical convergence rates, gap
checks against the perturbation bound, and bound-containment fractions.

Two pipelines with their own flow live here as well: an end-to-end
parameter recovery study for the scalar mean-reverting model, and a
realized-variance study for the square-root volatility model where the
proxy quality is itself estimated from a pilot path.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, as_completed, wait
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    MomentsOutsideModelRange,
    NumericalError,
    ParameterDomain,
    ResourceLimit,
)
# empirical_mean and lagged_covariance stay bound: perfbench/child.py traces them here
from .estimators import empirical_mean, lag_index, lagged_covariance, lagged_covariances
from .grids import (
    RandomStreamSpec,
    StreamRole,
    SubsamplingScheme,
    TrajectoryGrid,
    check_grid,
    check_positive,
    resolve_stride,
    subsample_sequence,
    whole_steps,
)
from .invert import invert_cir, invert_ou
from .models import (
    HestonParams,
    OUParams,
    default_rv_window,
    heston_initial_variance,
    multiplicative_perturbation_observable,
    ou_true_covariance,
    realized_variance_chunk,
    realized_volatility_observable,
    simulate_ou,
    smoothing_observable,
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
_HESTON_CHUNK = 4096  # fine rows stepped at once, over all heston_rv replications
_MEMORY_CAP_BYTES = 2 * 1024**3  # workspace a generic sweep may plan for, else ResourceLimit
_EXECUTION_FIELDS = ("workers",)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def config_hash(config) -> str:
    """sha256 run identity of a pipeline config, without its execution fields.

    ``workers`` is left out: runs that differ only in it produce
    bitwise-equal results and share one identity.
    """
    kept = {k: v for k, v in asdict(config).items() if k not in _EXECUTION_FIELDS}
    blob = json.dumps(kept, sort_keys=True, default=str)
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
    workers: int = 1

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
        if self.workers < 1:
            raise ParameterDomain("workers must be >= 1")
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
        if self.scheme_family == "custom" and len(self.custom_schemes) != len(
            self.epsilon_grid
        ):
            raise ParameterDomain("custom family needs one scheme per epsilon")
        if not self.lags:
            raise ParameterDomain("need at least one lag")
        if any(u < 0 for u in self.lags):
            raise ParameterDomain("lags must be >= 0")
        if self.horizon_a is not None:
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
        points.append(SweepPoint(label, rho, eps, plan_point(scheme, step, config.lags, offset)))
    return points


def _check_memory(rows: float, paths: int = 1) -> None:
    """Refuse a plan of ``paths`` paths of ``rows`` rows each over the cap.

    A float ``rows`` that overflowed to infinity is refused too.
    """
    # four float64 columns a row, the rest headroom: a sweep holds two (fine
    # path, observable; the kernel works in leaf-sized buffers), the pilot
    # its price and variance paths and a few eps-grid columns while it
    # measures rho, the realized-variance main pass one, its coarse samples
    need = rows * 8 * 4 * paths
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


def _coarse_sequences(model: OUParams, observable: str, sweep: SweepPoint, stream):
    """Coarse observable and hidden sequences of one (grid point, replication) pair.

    The hidden path is read from the observable's warm-up offset on, so both
    sequences sit on the same times; for the identity observable they are
    one array.
    """
    point = sweep.point
    x_grid = simulate_ou(model, point.rows, point.step, stream)
    n_extra = max(point.kappas)
    if observable == "identity":
        x_seq = subsample_sequence(x_grid, point.scheme, n_extra=n_extra)
        return x_seq, x_seq
    if observable == "multiplicative":
        y_grid = multiplicative_perturbation_observable(x_grid, sweep.rho)
    else:
        y_grid = smoothing_observable(x_grid, sweep.eps)
    y_seq = subsample_sequence(y_grid, point.scheme, n_extra=n_extra)
    x_seq = subsample_sequence(x_grid, point.scheme, n_extra=n_extra, offset=point.offset)
    return y_seq, x_seq


def _one_replication(config: ExperimentConfig, sweep: SweepPoint, rep: int):
    """Estimates for one (grid point, replication) pair; pure in its inputs."""
    stream = RandomStreamSpec(config.master_seed, rep, StreamRole.PROCESS_NOISE)
    y_seq, x_seq = _coarse_sequences(config.model, config.observable, sweep, stream)
    n_obs, kappas = sweep.point.scheme.n_obs, sweep.point.kappas
    kx, mx = lagged_covariances(x_seq, n_obs, kappas)
    if y_seq is x_seq:
        return kx, kx, mx, mx
    ky, my = lagged_covariances(y_seq, n_obs, kappas)
    return ky, kx, my, mx


def _run_jobs(fn, jobs, workers: int) -> None:
    """Call ``fn(*job)`` for every job on one pool of ``workers`` threads.

    At most ``2 * workers`` jobs are in flight, so the bookkeeping does not
    grow with the sweep.  The first job to raise cancels the queued ones.
    """
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = set()
        for job in jobs:
            if len(pending) == 2 * workers:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()
            pending.add(pool.submit(fn, *job))
        for future in as_completed(pending):
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_replications(config: ExperimentConfig) -> Ensemble:
    """Run the full sweep and collect paired estimates.

    Replication ``m`` draws only from streams keyed by ``m``, so results do
    not depend on execution order and re-running with the same master seed
    reproduces the ensemble bit for bit.  Every (grid point, replication)
    pair is one job on a single pool of ``config.workers`` threads, one
    thread included, and writes its own ensemble slot.  The first job to
    raise cancels the queued ones; its error propagates once the running
    ones finish.
    """
    points = _plan_sweep(config)
    _check_memory(max(p.point.rows for p in points), max(1, config.workers))
    n_points, n_reps, n_lags = len(points), config.replications, len(config.lags)
    ens = Ensemble(
        points=points,
        khat_y=np.empty((n_points, n_reps, n_lags)),
        khat_x=np.empty((n_points, n_reps, n_lags)),
        mean_y=np.empty((n_points, n_reps)),
        mean_x=np.empty((n_points, n_reps)),
    )

    def fill(gi: int, rep: int) -> None:
        ky, kx, my, mx = _one_replication(config, points[gi], rep)
        ens.khat_y[gi, rep], ens.khat_x[gi, rep] = ky[:, 0, 0], kx[:, 0, 0]
        ens.mean_y[gi, rep], ens.mean_x[gi, rep] = my[0], mx[0]

    jobs = [(gi, rep) for gi in range(n_points) for rep in range(n_reps)]
    _run_jobs(fill, jobs, config.workers)
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


def finite_json(payload) -> str:
    """Indented, key-sorted JSON; ``NumericalError`` on a NaN or infinity.

    Callers serialise before opening any output, so a refused payload leaves
    no partial file behind.
    """
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write non-finite JSON: {exc}") from None


@dataclass
class ConvergenceReport:
    meta: dict
    rows: list
    mean_rows: list
    slopes: dict
    bound_rows: list
    bound_fractions: dict

    def to_json(self) -> str:
        return finite_json(asdict(self))

    def write_json(self, path) -> None:
        text = self.to_json()  # a non-finite report raises before the directory exists
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")

    def write_csv(self, path) -> None:
        cols = [
            "label", "rho", "n_obs", "big_delta", "span", "lag", "lag_used",
            "err_x_l2", "err_y_l2", "gap_l2",
        ]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols) + "\n")


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
        if not (0 < self.rho < 1):
            raise ParameterDomain(f"rho must lie in (0, 1), got {self.rho}")
        if self.replications < 30:
            raise ParameterDomain("need at least 30 replications")
        for name in ("c_n", "c_delta", "u1", "tolerance"):
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

    The inversion uses the lag actually representable on the coarse grid,
    so grid rounding does not bias the reversion estimate.
    """
    planned = scheme_from_rho(config.rho, config.c_n, config.c_delta)
    point = plan_point(planned, planned.big_delta, (0.0, config.u1))  # coarse = fine
    point.require_positive(1)
    _check_memory(point.rows)
    scheme, sweep = point.scheme, SweepPoint(config.rho, config.rho, 0.0, point)
    truth = np.array([config.model.mean, config.model.reversion, config.model.noise])
    rel = np.empty((config.replications, 3))
    for rep in range(config.replications):
        stream = RandomStreamSpec(config.master_seed, rep, StreamRole.PROCESS_NOISE)
        seq, _ = _coarse_sequences(config.model, "multiplicative", sweep, stream)
        cov, mean = lagged_covariances(seq, scheme.n_obs, point.kappas)
        est = invert_ou([mean[0], cov[0, 0, 0], cov[1, 0, 0]], point.lags_used[1])
        rel[rep] = np.abs(est.theta - truth) / np.abs(truth)
    names = ("mean", "reversion", "noise")
    fraction = {
        n: float(np.mean(rel[:, i] <= config.tolerance)) for i, n in enumerate(names)
    }
    rms = {n: float(np.sqrt(np.mean(rel[:, i] ** 2))) for i, n in enumerate(names)}
    return EndToEndReport(
        names=names,
        truth=truth,
        rel_errors=rel,
        fraction_within=fraction,
        rms_rel=rms,
        tolerance=config.tolerance,
        scheme=scheme,
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
        for a, b in zip(eps_sorted, eps_sorted[1:]):
            for name in ("reversion", "level", "vol_of_vol"):
                if self.rms_rel[b][name] > self.rms_rel[a][name]:
                    return False
        return True

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
    if not (k1 > 0 and k2 > 0 and k2 < k1):
        raise MomentsOutsideModelRange(
            f"lagged covariances not usable: k1={k1}, k2={k2}"
        )
    lag1, lag2 = plan.point.lags_used
    rev = math.log(k1 / k2) / (lag2 - lag1)
    var_v = k1 * math.exp(rev * lag1)
    return np.array([mean[0], var_v, k1])


def _heston_chunks(params: HestonParams, seed: int, reps, length: int, dt: float):
    """The one Heston loop: yield ``(lo, prices, variances)``, rows ``lo, ...`` of every rep.

    Each replication draws ``V(0)`` and its variance normals from its
    process-noise stream and its price normals from its auxiliary stream, a
    chunk at a time; ``_heston_core`` steps on from the carried state, so a
    path is the same bit for bit at any chunk size, beside any replication.
    It stays in ``lab``, where the benchmark traces both draws and steps.
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


def _pilot_rho(config: HestonRVConfig, delta_f: float, plans_eps) -> dict:
    """Fourth-moment distance between RV and the true variance on a pilot path."""
    length = int(math.ceil(config.pilot_span / delta_f))
    stream = RandomStreamSpec(config.master_seed, config.replications)
    returns, variance = simulate_heston(config.params, length, delta_f, stream)
    rho = {}
    for eps, s_eps, window in plans_eps:
        r_eps = returns.samples[s_eps - 1 :: s_eps, 0]
        v_eps = variance.samples[s_eps - 1 :: s_eps, 0]
        rv = realized_volatility_observable(
            TrajectoryGrid(r_eps, eps), eps, window
        ).samples[:, 0]
        diff = np.abs(rv - v_eps[window:])
        rho[eps] = float(np.mean(diff**4) ** 0.25)
    return rho


def _plan_heston_rv(config: HestonRVConfig) -> tuple[float, list]:
    """The fine step, the smallest eps, and one plan per eps level, sized from the pilot's rho."""
    delta_f = min(config.epsilon_grid)
    plans_eps = [
        (eps, whole_steps(eps, delta_f, "eps"), default_rv_window(eps))
        for eps in config.epsilon_grid
    ]

    _check_memory(config.pilot_span / delta_f)  # before the pilot sizes or draws anything
    rho_hat = _pilot_rho(config, delta_f, plans_eps)

    plans = []
    for eps, s_eps, window in plans_eps:
        scheme = scheme_from_rho(rho_hat[eps], config.c_n, config.c_delta)
        point = plan_point(scheme, eps, (config.u1, config.u2), window)
        point.require_positive(0)
        if point.kappas[1] <= point.kappas[0]:
            raise ParameterDomain(
                f"lag pair {point.lags} rounds to one lag on big_delta {point.scheme.big_delta}"
            )
        plans.append(_RVPlan(s_eps, point, rho_hat[eps]))
    return delta_f, plans


def _extend_coarse(plan: _RVPlan, r_chunk: np.ndarray, lo: int, coarse: np.ndarray, state):
    """Append to ``coarse`` the RV samples that end in fine rows ``lo, lo + 1, ...``.

    ``state`` is ``(carry, seen, filled)``: the realized-variance carry, the
    eps-grid prices seen and the coarse rows filled so far; the new state is
    returned.  Fine row ``j`` is on the eps grid when ``(j + 1) % eps_stride
    == 0``, and coarse row ``q`` is the RV at eps point ``window - 1 + (q + 1)
    * stride``, as ``subsample_sequence`` picks it; the RV window is the
    point's offset and eps its step.
    """
    carry, seen, filled = state
    s, point = plan.eps_stride, plan.point
    prices = r_chunk[(seen + 1) * s - 1 - lo : max(point.rows * s - lo, 0) : s]
    if len(prices) == 0:
        return state
    rv, carry = realized_variance_chunk(prices, point.offset, point.step, carry)
    stride = point.scheme.stride
    picked = rv[point.offset - 1 + (filled + 1) * stride - seen :: stride]
    coarse[filled : filled + len(picked)] = picked
    return carry, seen + len(prices), filled + len(picked)


def run_heston_rv(config: HestonRVConfig) -> HestonRVReport:
    """Full realized-variance recovery study across observation scales.

    One fine path per replication serves every eps level (common random
    numbers), so error comparisons across levels are paired.  All
    replications are stepped together, ``_HESTON_CHUNK`` fine rows at a
    time; each chunk extends every level's coarse RV samples and is then
    dropped, so no price path is held whole.  Replications whose lagged
    covariances are unusable are counted as failures and excluded from the
    error summary.
    """
    p = config.params
    delta_f, plans = _plan_heston_rv(config)
    length = max(plan.point.rows * plan.eps_stride for plan in plans)
    width = config.replications
    coarse_rows = [plan.point.scheme.n_obs + max(plan.point.kappas) for plan in plans]
    _check_memory(sum(coarse_rows), width)

    coarse = [np.empty((rows, width)) for rows in coarse_rows]
    states = [(None, 0, 0)] * len(plans)
    for lo, r_chunk, _ in _heston_chunks(p, config.master_seed, range(width), length, delta_f):
        states = [
            _extend_coarse(plan, r_chunk, lo, out, state)
            for plan, out, state in zip(plans, coarse, states)
        ]

    truth = {"reversion": p.reversion, "level": p.level, "vol_of_vol": p.vol_of_vol}
    names = ("reversion", "level", "vol_of_vol")
    true_vec = np.array([p.reversion, p.level, p.vol_of_vol])
    sq_rel = {plan.point.step: [] for plan in plans}
    failures = {plan.point.step: 0 for plan in plans}
    for col in range(width):
        for plan, samples in zip(plans, coarse):
            try:
                psi = _rv_moments(samples[:, col : col + 1], plan)
                est = invert_cir(psi, plan.point.lags_used[0])
            except MomentsOutsideModelRange:
                failures[plan.point.step] += 1
                continue
            rel = (est.theta - true_vec) / true_vec
            sq_rel[plan.point.step].append(rel**2)

    rms_rel = {}
    for plan in plans:
        eps = plan.point.step
        block = np.array(sq_rel[eps])
        if block.size == 0:
            raise MomentsOutsideModelRange(f"every replication failed at eps {eps}")
        rms = np.sqrt(block.mean(axis=0))
        rms_rel[eps] = {n: float(v) for n, v in zip(names, rms)}

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

"""Stationary process simulators and proxy-observable constructors.

Each simulator returns trajectories on the 1-based uniform grid of
:mod:`submoments.grids`, drawing noise from counter-based streams so a
``(master_seed, replication, role)`` triple pins the path exactly.

The observables turn a hidden trajectory into the sequence an instrument
would deliver: a multiplicative distortion, a moving-average smoothing, or
a realized-variance estimate built from price returns.  Their distance to
the hidden path is the proxy error the scheme rules in
:mod:`submoments.schemes` are calibrated against.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientData,
    ParameterDomain,
    SchemeGridMismatch,
    SimulationDiverged,
)
from .grids import RandomStreamSpec, StreamRole, TrajectoryGrid, whole_steps
from .schemes import BoundInputs, DecorrelationProfile


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OUParams:
    """Scalar mean-reverting diffusion dX = -reversion (X - mean) dt + noise dW.

    ``noise = 0`` is accepted as the degenerate constant-path limit.
    """

    mean: float = 0.0
    reversion: float = 1.0
    noise: float = 1.0

    def validate(self) -> None:
        if not np.isfinite([self.mean, self.reversion, self.noise]).all():
            raise ParameterDomain("parameters must be finite")
        if self.reversion <= 0:
            raise ParameterDomain(f"reversion must be > 0, got {self.reversion}")
        if self.noise < 0:
            raise ParameterDomain(f"noise must be >= 0, got {self.noise}")

    @property
    def stationary_variance(self) -> float:
        return self.noise**2 / (2.0 * self.reversion)

    @property
    def stationary_std(self) -> float:
        return math.sqrt(self.stationary_variance)

    @property
    def l4_norm(self) -> float:
        """Fourth-moment norm of the stationary marginal N(mean, var)."""
        v = self.stationary_variance
        m4 = self.mean**4 + 6.0 * self.mean**2 * v + 3.0 * v**2
        return m4**0.25


def ou_true_covariance(params: OUParams, lag: float) -> float:
    """Stationary covariance ``var * exp(-reversion * lag)`` for lag >= 0."""
    if lag < 0:
        raise ParameterDomain(f"lag must be >= 0, got {lag}")
    params.validate()
    return params.stationary_variance * math.exp(-params.reversion * lag)


def ou_covariance_lipschitz(params: OUParams) -> float:
    """Largest slope of the covariance in the lag, attained at lag 0."""
    return params.reversion * params.stationary_variance


def ou_decorrelation_profile(params: OUParams) -> DecorrelationProfile:
    """Exponential envelope for covariances of first and second moment words.

    For words drawn from ``{X_s, X_s X_t}`` separated by a gap ``T``, Wick
    pairing of the centered Gaussian parts bounds the covariance by
    ``c * exp(-reversion * T)`` with
    ``c = max(var, 2|mean| var, 4 mean^2 var + 2 var^2)`` (single-single,
    single-pair, and pair-pair words respectively).
    """
    params.validate()
    v = params.stationary_variance
    if v == 0.0:
        raise ParameterDomain("degenerate noise has no decorrelation profile")
    c = max(v, 2.0 * abs(params.mean) * v, 4.0 * params.mean**2 * v + 2.0 * v**2)
    return DecorrelationProfile.exponential(c=c, rate=params.reversion)


def ou_bound_inputs(params: OUParams, horizon_a: float) -> BoundInputs:
    """Bound constants of the scalar OU model on lag window [0, horizon_a]."""
    return BoundInputs(
        nu=params.l4_norm,
        horizon_a=horizon_a,
        dim_r=1,
        profile=ou_decorrelation_profile(params),
        lipschitz_lambda=ou_covariance_lipschitz(params),
    )


_SIGTOOLS = "scipy.signal._sigtools"
#: rows the AR(1) filter runs over per kernel call
_FILTER_BLOCK = 1 << 16
_sigtools_lock = threading.Lock()


def _linear_filter():
    """scipy's compiled IIR kernel ``_sigtools._linear_filter``, loaded on its own.

    ``scipy.signal.lfilter`` hands ``(b, a, x, axis)`` to this kernel, but
    importing ``scipy.signal`` also imports ``scipy.stats`` and
    ``scipy.interpolate``: about 1.4 s and 75 MB per process.  The extension
    module is loaded from its file under its full name, so the package's
    ``__init__`` never runs, and registered in ``sys.modules``, which both
    caches it and lets a later ``import scipy.signal`` reuse it.  The lock
    keeps two pool threads from loading it twice.
    """
    with _sigtools_lock:
        module = sys.modules.get(_SIGTOOLS)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
                _SIGTOOLS, [f"{scipy.submodule_search_locations[0]}/signal"]
            )
            if spec is None:
                raise ImportError(f"the AR(1) paths need scipy's compiled module {_SIGTOOLS}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_SIGTOOLS] = module
    return module._linear_filter


def _ar1_filter(phi: float):
    """A function that runs ``x[n] = phi * x[n-1] + x[n]`` in place over successive blocks.

    Each call filters one block of the sequence, in order, on the compiled
    kernel that ``lfilter([1.0], [1.0, -phi], x)`` calls, starting from the
    previous block's final filter state; the first block's first row stays.
    The carried state gives the bits of one whole-length call.
    """
    kernel = _linear_filter()
    b = np.array([1.0])
    a = np.array([1.0, -phi])
    state = np.zeros(1)

    def step(block: np.ndarray) -> None:
        nonlocal state
        block[:], state = kernel(b, a, block, -1, state)

    return step


def _ar1(phi: float, x: np.ndarray) -> np.ndarray:
    """In place: ``x[0]`` stays, then ``x[n] = phi * x[n-1] + x[n]``; returns ``x``.

    Runs over ``_FILTER_BLOCK``-row blocks of ``x``, so the recursion needs
    no second ``x``-long array.
    """
    step = _ar1_filter(phi)
    for lo in range(0, x.shape[0], _FILTER_BLOCK):
        step(x[lo : lo + _FILTER_BLOCK])
    return x


def simulate_ou(
    params: OUParams, length: int, delta: float, stream: RandomStreamSpec, sink=None
) -> TrajectoryGrid | None:
    """Stationary OU path sampled with the exact transition kernel.

    The one-step law is Gaussian, so the path is an AR(1) recursion with
    coefficient ``exp(-reversion * delta)`` started from the stationary
    marginal; no discretization error at any step size.  The path is made
    ``_FILTER_BLOCK`` rows at a time: each block's normals are drawn into
    it, scaled, filtered from the previous block's state and shifted by
    the mean.  Without ``sink`` every block is a view of the one
    ``length``-long array, handed to the grid frozen.  With ``sink``, each
    finished block, a view of one reused block-long buffer, is passed to
    ``sink(block)`` in order, and nothing is kept or returned.
    """
    params.validate()
    if length < 1:
        raise ParameterDomain(f"length must be >= 1, got {length}")
    if delta <= 0 or not np.isfinite(delta):
        raise ParameterDomain(f"delta must be positive, got {delta}")
    rng = stream.generator()
    phi = math.exp(-params.reversion * delta)
    sig0 = params.stationary_std
    innov = sig0 * math.sqrt(max(0.0, 1.0 - phi * phi))
    step = _ar1_filter(phi)
    path = np.empty(length if sink is None else min(length, _FILTER_BLOCK))
    for lo in range(0, length, _FILTER_BLOCK):
        start = lo if sink is None else 0
        block = path[start : start + min(_FILTER_BLOCK, length - lo)]
        rng.standard_normal(out=block)
        if lo == 0:
            block[1:] *= innov
            block[0] *= sig0  # stationary start
        else:
            block *= innov
        step(block)
        block += params.mean
        if sink is not None:
            sink(block)
    return None if sink is not None else TrajectoryGrid._handover(path, delta)


# ---------------------------------------------------------------------------
# Stochastic volatility (square-root variance)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HestonParams:
    """Price/variance pair: dV = reversion (level - V) dt + vol_of_vol sqrt(V) dW2,
    dR = drift dt + sqrt(V) dW1 with independent Brownian drivers.
    """

    reversion: float = 1.0
    level: float = 0.04
    vol_of_vol: float = 0.3
    drift: float = 0.0

    def validate(self) -> None:
        if self.reversion <= 0 or self.level <= 0 or self.vol_of_vol <= 0:
            raise ParameterDomain("reversion, level and vol_of_vol must be > 0")
        if not np.isfinite([self.reversion, self.level, self.vol_of_vol, self.drift]).all():
            raise ParameterDomain("parameters must be finite")


_BLOCK = 256  # steps per block of the price pass and the scalar loop: small buffers


def _heston_core(
    params: HestonParams,
    n_steps: int,
    dt: float,
    z_var: np.ndarray,
    z_price: np.ndarray,
    v0: np.ndarray,
    r0: np.ndarray | None = None,
):
    """Full-truncation Euler over pre-drawn normals; batched over columns.

    Row ``n`` of ``z_var``/``z_price`` drives step ``n + 1``.  ``v0`` is the
    raw (untruncated) variance and ``r0`` the price before the first step
    (zero when omitted).  Returns the price paths, the truncated variance
    paths and the raw variance after the last step, so a long path can be
    stepped in chunks: feed the returned raw variance and the last price
    row into the next call as ``v0`` and ``r0`` and the result equals one
    call over the whole path, bit for bit.  Carrying the truncated
    variance instead would break that whenever the raw variance is
    negative.

    Step ``n + 1`` is, in this order of IEEE operations,
    ``v_raw = (v_raw + reversion * (level - v_plus) * dt)
    + vol_of_vol * sqrt(v_plus) * sqrt(dt) * z_var[n]``, then
    ``v_plus = maximum(v_raw, 0)``, and
    ``r = (r + drift * dt) + sqrt(v_plus) * sqrt(dt) * z_price[n]`` with the
    ``v_plus`` of the step before.  Only the variance feeds back on itself,
    so only it is stepped row by row: on Python floats when there is one
    column (``lab.simulate_heston``), otherwise on whole rows with
    the constants held as 0-d arrays.  The price then follows from the
    stored truncated variance in one ordered pass
    (:func:`_heston_price_pass`).  Every operation is the one the plain
    per-step recursion does, in the same order, so the result is the same
    bit for bit.
    """
    v_raw = np.array(v0, dtype=float)
    r = np.zeros_like(v_raw) if r0 is None else np.array(r0, dtype=float)
    width = z_var.shape[1]
    # row 0 is the truncated start; row n + 1 is v_paths[n]
    v_plus = np.empty((z_var.shape[0] + 1, width))
    v_plus[0] = np.maximum(v_raw, 0.0)
    if width == 1:
        last = _heston_variance_scalar(
            params, dt, z_var[:n_steps, 0], float(v_raw[0]), v_plus[1 : n_steps + 1, 0]
        )
        v_raw = np.array([last])
    else:
        _heston_variance_rows(params, dt, z_var[:n_steps], v_raw, v_plus[: n_steps + 1])
    r_paths = np.empty_like(z_price)
    r = _heston_price_pass(
        params.drift * dt, math.sqrt(dt), v_plus[:n_steps], z_price[:n_steps],
        r, r_paths[:n_steps],
    )
    if not (np.isfinite(v_raw).all() and np.isfinite(r).all()):
        raise SimulationDiverged("price or variance became non-finite")
    return r_paths, v_plus[1:], v_raw


def _heston_variance_scalar(params: HestonParams, dt: float, z, v_raw: float, out) -> float:
    """One column of the variance recursion on Python floats.

    Writes the truncated variance after each step into ``out`` and returns
    the last raw value.  ``0.0 if v <= 0.0 else v`` is ``np.maximum(v, 0.0)``:
    it keeps NaN and maps -0.0 to 0.0.  The normals are converted a block at
    a time, so a long path never holds more than a block of Python floats
    (40,000 at once stayed resident as 2.9 MB after the call).
    """
    reversion, level, vol_of_vol = params.reversion, params.level, params.vol_of_vol
    sqdt = math.sqrt(dt)
    sqrt = math.sqrt
    v_plus = 0.0 if v_raw <= 0.0 else v_raw
    for lo in range(0, len(z), _BLOCK):
        block = []
        append = block.append
        for zn in z[lo : lo + _BLOCK].tolist():
            v_raw = v_raw + reversion * (level - v_plus) * dt \
                + vol_of_vol * sqrt(v_plus) * sqdt * zn
            v_plus = 0.0 if v_raw <= 0.0 else v_raw
            append(v_plus)
        out[lo : lo + len(block)] = block
    return v_raw


def _heston_variance_rows(
    params: HestonParams, dt: float, z: np.ndarray, v_raw: np.ndarray, v_plus: np.ndarray
) -> None:
    """The variance recursion on whole rows, in place.

    ``v_raw`` is advanced to the raw variance after the last step; row
    ``n + 1`` of ``v_plus`` receives the truncated variance after step
    ``n + 1`` (row 0 holds the start).  The constants are 0-d arrays,
    which numpy takes without the per-call conversion a Python float needs.
    """
    reversion, level, vol_of_vol, dt_, sqdt, zero = (
        np.array(c, dtype=float)
        for c in (params.reversion, params.level, params.vol_of_vol, dt, math.sqrt(dt), 0.0)
    )
    drift = np.empty_like(v_raw)
    noise = np.empty_like(v_raw)
    subtract, multiply, add, sqrt, maximum = (
        np.subtract, np.multiply, np.add, np.sqrt, np.maximum
    )
    for prev, row, zn in zip(v_plus[:-1], v_plus[1:], z):
        subtract(level, prev, out=drift)
        multiply(reversion, drift, out=drift)
        multiply(drift, dt_, out=drift)
        add(v_raw, drift, out=v_raw)
        sqrt(prev, out=noise)
        multiply(vol_of_vol, noise, out=noise)
        multiply(noise, sqdt, out=noise)
        multiply(noise, zn, out=noise)
        add(v_raw, noise, out=v_raw)
        maximum(v_raw, zero, out=row)


def _heston_price_pass(drift_dt, sqdt, v_prev, z, r, out) -> np.ndarray:
    """``out[n] = (out[n-1] + drift_dt) + sqrt(v_prev[n]) * sqdt * z[n]``, from ``r``.

    Each block of steps is laid out as ``r, drift_dt, inc_1, drift_dt,
    inc_2, ...`` and summed by one ``np.add.accumulate`` down the rows,
    which adds strictly in that order, so every partial sum is the one the
    step-by-step recursion makes.  Returns the last price (``r`` when there
    are no steps).
    """
    steps, width = z.shape
    block = max(min(_BLOCK, steps), 1)
    work = np.empty((2 * block + 1, width))
    work[1::2] = drift_dt
    for lo in range(0, steps, block):
        rows = min(block, steps - lo)
        span = work[: 2 * rows + 1]
        span[0] = r
        inc = span[2::2]
        np.sqrt(v_prev[lo : lo + rows], out=inc)
        np.multiply(inc, sqdt, out=inc)
        np.multiply(inc, z[lo : lo + rows], out=inc)
        np.add.accumulate(span, axis=0, out=span)
        out[lo : lo + rows] = inc
        r = out[lo + rows - 1]
        span[1::2] = drift_dt
    return r


def heston_initial_variance(
    params: HestonParams, rng: np.random.Generator, size: int | None = None
):
    """Draw V(0) from the stationary Gamma law of the square-root process."""
    shape = 2.0 * params.reversion * params.level / params.vol_of_vol**2
    scale = params.vol_of_vol**2 / (2.0 * params.reversion)
    return rng.gamma(shape, scale, size=size)


# ---------------------------------------------------------------------------
# Observable constructors
# ---------------------------------------------------------------------------


def multiplicative_perturbation_observable(x: TrajectoryGrid, rho: float) -> TrajectoryGrid:
    """Proxy ``Y = (1 + rho) X``; its L4 distance to X is exactly rho * ||X||_4."""
    if rho < 0:
        raise ParameterDomain(f"rho must be >= 0, got {rho}")
    return TrajectoryGrid._handover((1.0 + rho) * x.samples, x.delta)


def smoothing_observable(x: TrajectoryGrid, eps: float) -> TrajectoryGrid:
    """Trailing moving average ``Y_t = (1/eps) * integral of X over [t - eps, t]``.

    The window must be an exact multiple of the grid step; the integral is
    the trapezoid rule over the window's ``eps / delta`` sub-steps.  Output
    row ``i`` corresponds to source row ``m + i`` (the first ``m`` rows have
    no full window), on the same step.
    """
    if eps <= 0:
        raise ParameterDomain(f"eps must be > 0, got {eps}")
    m = whole_steps(eps, x.delta, "window")
    if x.n_samples < m + 1:
        raise InsufficientData(
            f"need at least {m + 1} samples for a window of {m} steps, got {x.n_samples}"
        )
    w = np.full(m + 1, x.delta / eps)
    w[0] *= 0.5
    w[-1] *= 0.5
    windows = np.lib.stride_tricks.sliding_window_view(x.samples, m + 1, axis=0)
    return TrajectoryGrid(windows @ w, x.delta)


def realized_volatility_observable(
    returns: TrajectoryGrid, eps: float, window: int
) -> TrajectoryGrid:
    """Realized variance over the trailing ``window`` return increments.

    ``Y`` at time ``t`` is ``(1/(window*eps)) * sum of squared increments``
    of the scalar returns path over ``[t - window*eps, t]``, using only
    increments inside the grid.  Output row ``i`` corresponds to source row
    ``window + i``.  The returns grid step must equal ``eps``.
    """
    if window < 1:
        raise ParameterDomain(f"window must be >= 1, got {window}")
    if returns.dim != 1:
        raise ParameterDomain(f"returns must be scalar, got dim {returns.dim}")
    if not math.isclose(returns.delta, eps, rel_tol=1e-9, abs_tol=0.0):
        raise SchemeGridMismatch(
            f"returns grid step {returns.delta} does not match eps {eps}"
        )
    if returns.n_samples < window + 1:
        raise InsufficientData(
            f"need at least {window + 1} return samples, got {returns.n_samples}"
        )
    rv, _ = realized_variance_chunk(returns.samples[:, 0], window, eps)
    return TrajectoryGrid(rv[window:], eps)


def realized_variance_chunk(prices: np.ndarray, window: int, eps: float, carry=None):
    """Trailing-window realized variance at every row of ``prices``, resumable.

    Row ``m`` of the result is ``(1/(window*eps))`` times the sum of the
    squared increments over the ``window`` increments that end at row ``m``
    (one path per column); increments before the path's first row count as
    zero, so rows before ``window`` are partial windows.  Returns ``(rv,
    carry)``: passing ``carry`` into the call on the rows that follow gives
    the same bits as one call over the whole path, since the running sum
    of squares is one ordered ``np.add.accumulate`` continued from the
    carried value (``np.cumsum`` adds in the same order).  The carry is the
    last price row and the last ``window`` running sums; ``None`` starts a
    path.
    """
    if carry is None:
        carry = (prices[:1], np.zeros((window,) + prices.shape[1:]))
    last, tail = carry
    csum = np.concatenate((tail, np.diff(prices, axis=0, prepend=last) ** 2))
    np.add.accumulate(csum[window - 1 :], axis=0, out=csum[window - 1 :])
    rv = (csum[window:] - csum[:-window]) / (window * eps)
    return rv, (prices[-1:].copy(), csum[-window:].copy())


def default_rv_window(eps: float) -> int:
    """Default number of return increments per window, ``ceil(eps**-0.5)``."""
    if eps <= 0:
        raise ParameterDomain(f"eps must be > 0, got {eps}")
    return int(math.ceil(eps**-0.5))


# ---------------------------------------------------------------------------
# Slow-fast systems
# ---------------------------------------------------------------------------


# entry -> (p, E[y**p]): slow drift -x + y**p averages to E[y**p] - x
SLOW_FAST_CATALOG = {"linear_coupling": (1, 0.0), "quadratic_coupling": (2, 1.0)}


@dataclass(frozen=True)
class SlowFastParams:
    """Two-scale system: catalog entry plus scale separation eps.

    The fast coordinate is OU with unit stationary variance (drift -y / eps,
    diffusion sqrt(2 / eps)); the slow one has drift -x + y**p and unit
    diffusion, so its averaged limit is the unit OU around ``E[y**p]``.
    """

    entry: str = "linear_coupling"
    scale: float = 0.1

    def validate(self) -> None:
        if self.entry not in SLOW_FAST_CATALOG:
            raise ParameterDomain(
                f"unknown entry {self.entry!r}; choose from {sorted(SLOW_FAST_CATALOG)}"
            )
        if not (0 < self.scale < math.inf):
            raise ParameterDomain(f"scale must be finite and > 0, got {self.scale}")

    @property
    def reduced(self) -> OUParams:
        return OUParams(mean=SLOW_FAST_CATALOG[self.entry][1], reversion=1.0, noise=1.0)


def simulate_slow_fast(
    params: SlowFastParams,
    length: int,
    delta_fine: float,
    stream: RandomStreamSpec,
) -> tuple[TrajectoryGrid, TrajectoryGrid]:
    """Simulate the slow coordinate and its averaged reference path.

    Both equations are driven by the same slow Brownian increments
    (process-noise role; the fast coordinate uses the auxiliary role), so
    the pair is coupled pathwise and their distance reflects the scale
    separation rather than independent noise.  Requires
    ``delta_fine <= scale / 10`` to resolve the fast motion, and a slow
    Euler coefficient ``1 - delta_fine`` inside (-1, 1), which the slow
    recursion needs to stay bounded.  Each Euler recursion is one in-place
    AR(1) pass; the slow one takes ``y**p`` before each step.
    """
    params.validate()
    if length < 1:
        raise ParameterDomain(f"length must be >= 1, got {length}")
    if delta_fine <= 0 or not np.isfinite(delta_fine):
        raise ParameterDomain(f"delta_fine must be positive, got {delta_fine}")
    if delta_fine > params.scale / 10.0 * (1.0 + 1e-12):
        raise ParameterDomain(
            f"delta_fine {delta_fine} too coarse for scale {params.scale}; "
            "need delta_fine <= scale / 10"
        )
    if abs(1.0 - delta_fine) >= 1.0:
        raise ParameterDomain(
            f"delta_fine {delta_fine} too coarse for the slow unit time; "
            "need |1 - delta_fine| < 1"
        )
    power, averaged = SLOW_FAST_CATALOG[params.entry]
    rng_slow = stream.role(StreamRole.PROCESS_NOISE).generator()
    rng_fast = stream.role(StreamRole.AUXILIARY_NOISE).generator()

    x0 = averaged + params.reduced.stationary_std * rng_slow.standard_normal()
    y = np.empty(length + 1)
    y[0] = rng_fast.standard_normal()  # fast stationary marginal is N(0, 1)
    dw = rng_slow.standard_normal(length)
    rng_fast.standard_normal(out=y[1:])
    sqdt = math.sqrt(delta_fine)
    dw *= sqdt
    y[1:] *= math.sqrt(2.0 / params.scale) * sqdt
    _ar1(1.0 - delta_fine / params.scale, y)
    y_last = y[-1]
    # each slow input is built in its own array; both slow paths start at x0
    x = np.empty(length + 1)
    x[0] = x0
    np.power(y[:-1], power, out=x[1:])
    del y
    x[1:] *= delta_fine
    x[1:] += dw
    _ar1(1.0 - delta_fine, x)
    x_avg = np.empty(length + 1)
    x_avg[0] = x0
    np.add(dw, averaged * delta_fine, out=x_avg[1:])
    del dw
    _ar1(1.0 - delta_fine, x_avg)
    if not (np.isfinite(x[-1]) and np.isfinite(x_avg[-1]) and np.isfinite(y_last)):
        raise SimulationDiverged("slow-fast state became non-finite")
    slow = TrajectoryGrid._handover(x[1:], delta_fine)
    return slow, TrajectoryGrid._handover(x_avg[1:], delta_fine)

"""Reference implementations the tests compare the package against, and a memory probe."""

import gc
import math
import tracemalloc

import numpy as np

from submoments.estimators import lagged_covariances
from submoments.grids import RandomStreamSpec, StreamRole, subsample_sequence
from submoments.invert import invert_ou
from submoments.lab import _plan_sweep, plan_point
from submoments.models import (
    multiplicative_perturbation_observable,
    simulate_ou,
    smoothing_observable,
)
from submoments.schemes import scheme_from_rho


def lagged_covariance_product_form(samples, n_obs: int, kappa: int) -> np.ndarray:
    """Lagged covariance as the average of raw products minus the product of means.

    Algebraically the same statistic as ``lagged_covariance``, which uses the
    centred form; the two agree up to rounding.
    """
    arr = np.asarray(samples, dtype=float)
    arr = arr.reshape(arr.shape[0], -1)
    lead = arr[:n_obs]
    lagged = arr[kappa : kappa + n_obs]
    raw = np.sum(lead[:, :, None] * lagged[:, None, :], axis=0) / n_obs
    mean = np.sum(lead, axis=0) / n_obs
    shifted = np.sum(lagged, axis=0) / n_obs
    return raw - np.outer(mean, shifted)


def centered_cross_product(arr: np.ndarray, n_obs: int, kappa: int):
    """One lag at a time: the per-kappa centred covariance, lead mean and shifted mean.

    ``arr`` has shape (L, r).  Each mean column and each ``(i, j)`` entry is
    its own 1-d pairwise ``np.sum``, the reduction order
    ``lagged_covariances`` must keep, so the two agree bitwise.
    """
    lead = arr[:n_obs]
    lagged = arr[kappa : kappa + n_obs]
    mean = np.array([np.sum(lead[:, j]) for j in range(arr.shape[1])]) / n_obs
    shifted = np.array([np.sum(lagged[:, j]) for j in range(arr.shape[1])]) / n_obs
    lead_c = lead - mean
    lagged_c = lagged - shifted
    r = arr.shape[1]
    matrix = np.array(
        [[np.sum(lead_c[:, i] * lagged_c[:, j]) for j in range(r)] for i in range(r)]
    ) / n_obs
    return matrix, mean, shifted


def traced_memory(fn):
    """``(current, peak)`` bytes traced while ``fn()`` runs, with the cyclic collector off.

    With the collector off, memory that only a reference cycle holds stays
    counted in ``current`` after ``fn`` returns, instead of going at a
    collection that happens to run.
    """
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()


def lagged_covariances_whole(samples, n_obs: int, kappas):
    """The covariance kernel on whole ``n_obs``-long centred blocks.

    Centres the lead block once, then each distinct lagged block into one
    workspace, and reduces every ``(i, j)`` product with one ``np.sum`` over
    all ``n_obs`` rows.  ``lagged_covariances`` walks numpy's pairwise tree in
    leaves instead and must return the same bits.
    """
    arr = np.asarray(samples, dtype=float)
    arr = arr.reshape(arr.shape[0], -1)
    kappas = [int(k) for k in kappas]
    distinct = list(dict.fromkeys(kappas))
    r = arr.shape[1]
    mean = np.array([np.sum(arr[:n_obs, j]) for j in range(r)]) / n_obs
    lead_c = arr[:n_obs] - mean
    lagged_c = np.empty_like(lead_c)
    product = lagged_c[:, 0] if r == 1 else np.empty(n_obs)
    cov = np.empty((len(distinct), r, r))
    for li, kappa in enumerate(distinct):
        if kappa == 0:
            block = lead_c
        else:
            lagged = arr[kappa : kappa + n_obs]
            shifted = np.array([np.sum(lagged[:, j]) for j in range(r)]) / n_obs
            block = np.subtract(lagged, shifted, out=lagged_c)
        for i in range(r):
            for j in range(r):
                cov[li, i, j] = np.sum(np.multiply(lead_c[:, i], block[:, j], out=product))
    cov /= n_obs
    return cov[[distinct.index(kappa) for kappa in kappas]], mean


def leaf_tree_sum(x: np.ndarray, leaf: int) -> float:
    """Sum of a 1-d array along numpy's pairwise split, over contiguous copies of its leaves.

    Splits at ``n2 = n // 2`` rounded down to a multiple of 8 down to
    ranges of at most ``leaf`` values, and adds each leaf's own ``np.sum``
    of a contiguous copy in the tree's order.
    """
    n = x.shape[0]
    if n > leaf:
        n2 = n // 2
        n2 -= n2 % 8
        return leaf_tree_sum(x[:n2], leaf) + leaf_tree_sum(x[n2:], leaf)
    return np.sum(np.ascontiguousarray(x))


def cir_moment_map(theta, u1: float) -> np.ndarray:
    """Forward map ``theta -> [mean, var, cov(u1)]`` of the square-root variance model.

    The exact stationary moments for ``(reversion, level, vol_of_vol)``;
    ``invert_cir`` is their closed-form inverse.
    """
    reversion, level, vol = np.asarray(theta, dtype=float)
    var = vol**2 * level / (2.0 * reversion)
    return np.array([level, var, var * math.exp(-reversion * u1)])


def heston_core_reference(params, n_steps: int, dt: float, z_var, z_price, v0, r0=None):
    """Full-truncation Euler stepped one row at a time, price and variance together.

    The plain recursion ``_heston_core`` must reproduce bit for bit: same
    arguments, same three returns.
    """
    sqdt = math.sqrt(dt)
    v_raw = np.array(v0, dtype=float)
    v_paths = np.empty_like(z_var)
    r_paths = np.empty_like(z_price)
    r = np.zeros_like(v_raw) if r0 is None else np.array(r0, dtype=float)
    v_plus = np.maximum(v_raw, 0.0)
    for n in range(n_steps):
        vol = np.sqrt(v_plus)
        r = np.add(r + params.drift * dt, vol * sqdt * z_price[n], out=r_paths[n])
        v_raw = v_raw + params.reversion * (params.level - v_plus) * dt \
            + params.vol_of_vol * vol * sqdt * z_var[n]
        v_plus = np.maximum(v_raw, 0.0, out=v_paths[n])
    return r_paths, v_paths, v_raw


def slow_fast_reference(entry: str, scale: float, length: int, dt: float, stream):
    """The slow-fast Euler scheme stepped one row at a time on Python floats.

    Draws what ``simulate_slow_fast`` draws, in the same order, and returns
    the slow path and the averaged path.  ``linear_coupling`` has slow drift
    ``-x + y`` and averaged drift ``-x``; ``quadratic_coupling`` has
    ``-x + y**2`` and ``1 - x``.
    """
    power, averaged = {"linear_coupling": (1, 0.0), "quadratic_coupling": (2, 1.0)}[entry]
    rng_slow = stream.role(StreamRole.PROCESS_NOISE).generator()
    rng_fast = stream.role(StreamRole.AUXILIARY_NOISE).generator()
    x = averaged + math.sqrt(0.5) * rng_slow.standard_normal()  # the averaged OU's std
    x_avg = x
    y = float(rng_fast.standard_normal())
    z_slow = rng_slow.standard_normal(length)
    z_fast = rng_fast.standard_normal(length)
    sqdt = math.sqrt(dt)
    out_x, out_avg = np.empty(length), np.empty(length)
    for n in range(length):
        dw = sqdt * z_slow[n]
        x = x + (-x + y**power) * dt + dw
        x_avg = x_avg + (averaged - x_avg) * dt + dw
        y = y - (y / scale) * dt + math.sqrt(2.0 / scale) * sqdt * z_fast[n]
        out_x[n], out_avg[n] = x, x_avg
    return out_x, out_avg


def reference_ensemble(config):
    """A generic sweep's ``(khat_y, khat_x, mean_y, mean_x)`` as one plain serial loop.

    Draws each replication's whole path, builds the whole observable,
    sub-samples both and runs the covariance kernel on each array, as the
    replication engine did before it held paths in blocks on two threads;
    ``run_replications`` must reproduce every array bit for bit.
    """
    points = _plan_sweep(config)
    shape = (len(points), config.replications)
    khat_y, khat_x = np.empty((*shape, len(config.lags))), np.empty((*shape, len(config.lags)))
    mean_y, mean_x = np.empty(shape), np.empty(shape)
    for gi, sweep in enumerate(points):
        point = sweep.point
        n_obs, kappas, n_extra = point.scheme.n_obs, point.kappas, max(point.kappas)
        for rep in range(config.replications):
            stream = RandomStreamSpec(config.master_seed, rep, StreamRole.PROCESS_NOISE)
            x = simulate_ou(config.model, point.rows, point.step, stream)
            y = {
                "identity": lambda: x,
                "multiplicative": lambda: multiplicative_perturbation_observable(x, sweep.rho),
                "smoothing": lambda: smoothing_observable(x, sweep.eps),
            }[config.observable]()
            y_seq = subsample_sequence(y, point.scheme, n_extra=n_extra)
            x_seq = subsample_sequence(x, point.scheme, n_extra=n_extra, offset=point.offset)
            ky, my = lagged_covariances(y_seq, n_obs, kappas)
            kx, mx = lagged_covariances(x_seq, n_obs, kappas)
            khat_y[gi, rep], khat_x[gi, rep] = ky[:, 0, 0], kx[:, 0, 0]
            mean_y[gi, rep], mean_x[gi, rep] = my[0], mx[0]
    return khat_y, khat_x, mean_y, mean_x


def reference_endtoend_ou(config):
    """End-to-end OU recovery as one plain serial loop over replications.

    Draws, distorts, sub-samples, estimates and inverts each replication in
    turn, as ``run_endtoend_ou`` did before it ran on the replication engine;
    returns ``(rel_errors, fraction_within, rms_rel)``, which the engine must
    reproduce bit for bit.
    """
    planned = scheme_from_rho(config.rho, config.c_n, config.c_delta)
    point = plan_point(planned, planned.big_delta, (0.0, config.u1))
    scheme, n_extra = point.scheme, max(point.kappas)
    truth = np.array([config.model.mean, config.model.reversion, config.model.noise])
    rel = np.empty((config.replications, 3))
    for rep in range(config.replications):
        stream = RandomStreamSpec(config.master_seed, rep, StreamRole.PROCESS_NOISE)
        x = simulate_ou(config.model, point.rows, point.step, stream)
        y = multiplicative_perturbation_observable(x, config.rho)
        seq = subsample_sequence(y, scheme, n_extra=n_extra)
        cov, mean = lagged_covariances(seq, scheme.n_obs, point.kappas)
        est = invert_ou([mean[0], cov[0, 0, 0], cov[1, 0, 0]], point.lags_used[1])
        rel[rep] = np.abs(est.theta - truth) / np.abs(truth)
    names = ("mean", "reversion", "noise")
    fraction = {n: float(np.mean(rel[:, i] <= config.tolerance)) for i, n in enumerate(names)}
    rms = {n: float(np.sqrt(np.mean(rel[:, i] ** 2))) for i, n in enumerate(names)}
    return rel, fraction, rms

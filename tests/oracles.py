"""Reference implementations the tests compare the package against."""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


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


def cir_moment_map(theta, u1: float) -> np.ndarray:
    """Forward map ``theta -> [mean, var, cov(u1)]`` of the square-root variance model.

    The exact stationary moments for ``(reversion, level, vol_of_vol)``;
    ``invert_cir`` is their closed-form inverse.
    """
    reversion, level, vol = np.asarray(theta, dtype=float)
    var = vol**2 * level / (2.0 * reversion)
    return np.array([level, var, var * math.exp(-reversion * u1)])


def stationary_density_unnormalized(params, u, noise_scale: float) -> np.ndarray:
    """One-coordinate density ``exp(-2 q(u) / s^2)`` of a gradient diffusion, unnormalized.

    Valid when sigma = s * I; the quadrature oracle for the stationary
    moments of a separable potential ``q`` with ``params.potential_coeffs``.
    """
    q = npoly.polyval(np.asarray(u, dtype=float), np.asarray(params.potential_coeffs))
    return np.exp(-2.0 * q / noise_scale**2)


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

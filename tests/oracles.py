"""Reference implementations the tests compare the package against."""

import math

import numpy as np


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


def cir_moment_map(theta, u1: float) -> np.ndarray:
    """Forward map ``theta -> [mean, var, cov(u1)]`` of the square-root variance model.

    The exact stationary moments for ``(reversion, level, vol_of_vol)``;
    ``invert_cir`` is their closed-form inverse.
    """
    reversion, level, vol = np.asarray(theta, dtype=float)
    var = vol**2 * level / (2.0 * reversion)
    return np.array([level, var, var * math.exp(-reversion * u1)])

"""Reference implementations the tests compare the package against."""

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

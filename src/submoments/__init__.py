"""Moment estimation for hidden stationary processes observed through
sub-sampled proxies.

The package covers the full workflow: simulate a model (or load a
trajectory), apply an observable that degrades it into a proxy sequence,
pick a sub-sampling scheme matched to the proxy quality, estimate means
and lagged covariances, compare them against theoretical error bounds,
and invert the mean and two covariances back into model parameters.

The top level carries the library quick start of the README, the bound
identities the acceptance suite checks, and the error classes; everything
else is imported from its module (``submoments.lab``, ``submoments.grids``,
...).
"""

from .errors import (
    InsufficientData,
    MomentsOutsideModelRange,
    NumericalError,
    ParameterDomain,
    ResourceLimit,
    SchemeGridMismatch,
    SchemeTooShortForLag,
    SimulationDiverged,
    SubmomentsError,
    UsageError,
    ValidationError,
)
from .estimators import lag_index, lagged_covariance, lagged_covariances
from .grids import RandomStreamSpec, resolve_stride, subsample_sequence
from .invert import invert_ou, ou_moment_map
from .models import OUParams, simulate_ou
from .schemes import (
    DecorrelationProfile,
    decorrelation_sum_bound,
    gaussian_fourth_moment,
    scheme_from_rho,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InsufficientData",
    "MomentsOutsideModelRange",
    "NumericalError",
    "ParameterDomain",
    "ResourceLimit",
    "SchemeGridMismatch",
    "SchemeTooShortForLag",
    "SimulationDiverged",
    "SubmomentsError",
    "UsageError",
    "ValidationError",
    # README library quick start
    "OUParams",
    "RandomStreamSpec",
    "invert_ou",
    "lagged_covariances",
    "resolve_stride",
    "scheme_from_rho",
    "simulate_ou",
    "subsample_sequence",
    # acceptance criteria 5 and 7
    "DecorrelationProfile",
    "decorrelation_sum_bound",
    "gaussian_fourth_moment",
    "lag_index",
    "lagged_covariance",
    "ou_moment_map",
]

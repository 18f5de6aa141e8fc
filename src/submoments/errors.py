"""Exception taxonomy shared by the library and the command line tool.

Each class carries the process exit code the CLI maps it to:
2 usage, 3 validation, 4 data, 5 numerical.
"""


class SubmomentsError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(SubmomentsError):
    """Command line invoked with an inconsistent set of flags."""

    exit_code = 2


class ValidationError(SubmomentsError):
    """Input rejected before any computation started."""

    exit_code = 3


class ParameterDomain(ValidationError):
    """A parameter lies outside its admissible domain."""


class SchemeGridMismatch(ValidationError):
    """A sub-sampling scheme or window is incommensurate with the grid step."""


class InsufficientData(SubmomentsError):
    """A trajectory is too short for the requested computation."""

    exit_code = 4


class SchemeTooShortForLag(InsufficientData):
    """Sample count is not large relative to the lag shift (N < 10 kappa)."""


class ResourceLimit(SubmomentsError):
    """Estimated memory footprint of a run exceeds the configured cap."""

    exit_code = 4


class NumericalError(SubmomentsError):
    """Base class for failures arising during computation."""

    exit_code = 5


class SimulationDiverged(NumericalError):
    """An integration produced non-finite state."""


class MomentsOutsideModelRange(NumericalError):
    """Empirical moments are incompatible with the model's moment map."""

"""Uniform trajectory grids, counter-based random streams, sub-sampling views.

Conventions
-----------
A trajectory holds samples of an r-dimensional process on a uniform grid:
sample ``n`` (1-based) sits at time ``n * delta``.  A sub-sampling scheme
selects every ``stride``-th sample, so the coarse step is
``big_delta = stride * delta`` and the coarse sequence again follows the
1-based convention on its own grid.

Random streams are counter-based: a ``(master_seed, replication_index,
stream_role)`` triple fully determines the stream, independent of creation
order, so replications can run in any order or in parallel.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InsufficientData, ParameterDomain, ResourceLimit, SchemeGridMismatch, ValidationError

_HEADER = struct.Struct("<qdq")  # dim, delta, n_samples
#: rows per block of the file readers' finite-sample check and of the table
#: writer, and at most the fine rows per column of one strided window read
_CHECK_ROWS = 1 << 16


def _as_samples(values, copy: bool = True) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True if copy else None)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ParameterDomain(f"samples must be 1-d or 2-d, got ndim={arr.ndim}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TrajectoryGrid:
    """Samples of a process on a uniform time grid.

    Parameters
    ----------
    samples : array, shape (L, r)
        Row ``n-1`` holds the state at time ``n * delta``.  A 1-d array is
        promoted to shape (L, 1).  The constructor freezes a copy, so the
        caller keeps its array.  ``simulate_ou``, ``simulate_heston``,
        ``simulate_slow_fast``, the multiplicative observable and the file
        readers instead hand over the array they built through
        ``_handover``, which freezes it without a copy (``read_csv`` copies
        its sample columns out of the parsed table once, to make them contiguous).
    delta : float
        Grid step.  Construction is permissive: it accepts any step and
        non-finite samples.  The file readers reject both.
    """

    samples: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))
        object.__setattr__(self, "delta", float(self.delta))

    @classmethod
    def _handover(cls, samples: np.ndarray, delta: float) -> "TrajectoryGrid":
        """Grid that takes over an array its producer built: frozen, not copied."""
        grid = cls.__new__(cls)
        object.__setattr__(grid, "samples", _as_samples(samples, copy=False))
        object.__setattr__(grid, "delta", float(delta))
        return grid

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        """Grid times ``delta, 2*delta, ..., L*delta``; past the float range, ``inf``."""
        return _times(0, self.n_samples, self.delta)


def _times(lo: int, n: int, delta: float) -> np.ndarray:
    """Times ``(lo+1)*delta .. (lo+n)*delta`` of grid rows ``lo .. lo+n-1``; past the float range, ``inf``."""
    times = np.arange(lo + 1.0, lo + n + 1)  # scaled in place: one array, not two
    with np.errstate(over="ignore"):  # inf is the written form (see read_csv)
        return np.multiply(times, delta, out=times)


class StreamRole(str, Enum):
    """Which source of randomness a stream feeds."""

    PROCESS_NOISE = "process_noise"
    AUXILIARY_NOISE = "auxiliary_noise"


_ROLE_CODE = {StreamRole.PROCESS_NOISE: 0, StreamRole.AUXILIARY_NOISE: 1}


@dataclass(frozen=True)
class RandomStreamSpec:
    """Addressable random stream for one replication and role.

    The generator is Philox keyed on ``(master_seed, replication_index,
    role)``, so equal triples reproduce identical draws and distinct
    triples are statistically independent regardless of creation order.
    """

    master_seed: int
    replication_index: int = 0
    stream_role: StreamRole = StreamRole.PROCESS_NOISE

    def __post_init__(self):
        object.__setattr__(self, "stream_role", StreamRole(self.stream_role))
        if self.master_seed < 0 or self.replication_index < 0:
            raise ParameterDomain("seed and replication index must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed,
            spawn_key=(self.replication_index, _ROLE_CODE[self.stream_role]),
        )
        return np.random.Generator(np.random.Philox(seq))

    def role(self, role: StreamRole | str) -> "RandomStreamSpec":
        return RandomStreamSpec(self.master_seed, self.replication_index, StreamRole(role))


@dataclass(frozen=True)
class SubsamplingScheme:
    """Sub-sampling plan: keep ``n_obs`` samples spaced ``stride`` apart.

    ``stride`` may be None for a plan produced from asymptotic rules before
    a concrete grid is known; :func:`resolve_stride` pins it to a grid.
    ``big_delta`` is the coarse step; when resolved it must equal
    ``stride * delta`` of the grid it is applied to.
    """

    n_obs: int
    big_delta: float
    stride: int | None = None

    def __post_init__(self):
        if self.n_obs < 1:
            raise ParameterDomain(f"n_obs must be >= 1, got {self.n_obs}")
        check_positive(self.big_delta, "big_delta")
        if self.stride is not None and self.stride < 1:
            raise ParameterDomain(f"stride must be >= 1, got {self.stride}")
        if not math.isfinite(self.span):
            raise ParameterDomain(
                f"span n_obs * big_delta is not finite at n_obs {self.n_obs}, "
                f"big_delta {self.big_delta}"
            )

    @property
    def span(self) -> float:
        """Observation span ``n_obs * big_delta``."""
        return self.n_obs * self.big_delta


def resolve_stride(scheme: SubsamplingScheme, delta: float) -> SubsamplingScheme:
    """Pin an asymptotic scheme to a concrete grid step.

    The stride is ``big_delta / delta`` rounded to the nearest positive
    integer and the coarse step is recomputed as ``stride * delta`` so the
    exact commensurability invariant holds afterwards.
    """
    check_positive(delta, "grid step")
    ratio = scheme.big_delta / delta
    if not np.isfinite(ratio):
        raise ParameterDomain(f"big_delta {scheme.big_delta} / grid step {delta} overflows")
    stride = max(1, int(round(ratio)))
    return SubsamplingScheme(n_obs=scheme.n_obs, big_delta=stride * delta, stride=stride)


def check_positive(value: float, name: str) -> None:
    """Refuse a ``value`` (called ``name``) that is not positive and finite."""
    if not 0 < value < math.inf:
        raise ParameterDomain(f"{name} must be positive and finite, got {value}")


def check_grid(length: int, step: float, name: str = "delta") -> None:
    """Refuse a grid of no rows, or whose step (called ``name``) is not positive and finite."""
    if length < 1:
        raise ParameterDomain(f"length must be >= 1, got {length}")
    check_positive(step, name)


def whole_steps(span: float, step: float, what: str) -> int:
    """``span / step`` as a whole number of grid steps, at least one."""
    ratio = span / step
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or not math.isclose(ratio, steps, rel_tol=1e-9):
        raise SchemeGridMismatch(f"{what} {span} is not a whole multiple of the grid step {step}")
    return steps


def subsample_sequence(
    grid: TrajectoryGrid, scheme: SubsamplingScheme, n_extra: int = 0, offset: int = 0
) -> np.ndarray:
    """Strided view (no copy) of the coarse samples plus ``n_extra`` trailing ones.

    Selects rows at 1-based fine indices ``offset + n*stride`` for
    ``n = 1..n_obs + n_extra``: lagged covariances at integer shift
    ``kappa`` consume ``n_obs + kappa`` coarse samples.  Raises
    ``InsufficientData`` when the grid is too short and
    ``SchemeGridMismatch`` when the scheme does not sit on the grid.
    """
    if n_extra < 0:
        raise ParameterDomain(f"n_extra must be >= 0, got {n_extra}")
    if offset < 0:
        raise ParameterDomain(f"offset must be >= 0, got {offset}")
    stride = scheme.stride
    if stride is None:
        raise SchemeGridMismatch("scheme has no stride; resolve it against the grid first")
    expect = stride * grid.delta
    if not np.isclose(expect, scheme.big_delta, rtol=1e-12, atol=0.0):
        raise SchemeGridMismatch(
            f"big_delta {scheme.big_delta} != stride*delta {expect}"
        )
    need = offset + (scheme.n_obs + n_extra) * stride
    if need > grid.n_samples:
        raise InsufficientData(
            f"need {need} samples for n_obs={scheme.n_obs} plus {n_extra} lag rows "
            f"at stride={stride} offset={offset}, grid has {grid.n_samples}"
        )
    return grid.samples[offset + stride - 1 : need : stride]


def _check_file_grid(path, delta: float, n_rows: int, window) -> None:
    """Reject a non-positive or non-finite step, then the first non-finite sample.

    ``window(lo, n)`` returns rows ``lo .. lo+n-1`` as an ``(n, dim)`` array;
    the rows are checked ``_CHECK_ROWS`` at a time, so the boolean mask is
    one block long and the row scan runs only in the failing block.
    """
    check_positive(delta, f"{path}: grid step")
    for lo in range(0, n_rows, _CHECK_ROWS):
        finite = np.isfinite(window(lo, min(_CHECK_ROWS, n_rows - lo)))
        if not finite.all():
            row = lo + int(np.argmin(finite.all(axis=1)))
            raise ValidationError(f"{path}: non-finite sample at row {row}")


def make_parent(path) -> None:
    """Make the folder ``path`` goes into; ``ValidationError`` naming ``path`` if it cannot be."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot make the folder of {path}: {exc}") from None


@contextmanager
def open_output(path, mode: str = "w"):
    """Make the folder of ``path`` and yield it open to write: every file the package writes.

    A failure after the open, in the body or in the flush at close, removes
    ``path`` only if ``lstat`` shows a regular file, never a link, pipe or
    device.  An ``OSError`` but ``BrokenPipeError`` ends as ``ResourceLimit``.
    """
    make_parent(path)
    try:
        fh = open(path, mode)
        try:
            with fh:
                yield fh
        except BaseException:
            with suppress(OSError):  # a path already gone stays gone
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.unlink(path)
            raise
    except BrokenPipeError:  # the reader of a pipe has gone, as with a closed stdout
        raise
    except OSError as exc:
        raise ResourceLimit(f"cannot write {path}: {exc.strerror or exc}") from None


@contextmanager
def binary_writer(path, dim: int, delta: float, count: int):
    """Write the compact binary form piece by piece: yields ``write(values)``.

    The little-endian header goes first, its 64-bit fields dim (int), delta
    (float) and sample count (int); each ``write`` appends the next run of
    the column-major data, through :func:`open_output`.
    """
    with open_output(path, "wb") as fh:
        fh.write(_HEADER.pack(dim, delta, count))
        yield lambda values: fh.write(memoryview(np.ascontiguousarray(values, dtype="<f8")))


def write_binary(grid: TrajectoryGrid, path) -> None:
    """Write a grid in the compact binary form of :func:`binary_writer`.

    Each column is written from its own buffer; only a column of a
    multi-column grid is copied, to make it contiguous.
    """
    with binary_writer(path, grid.dim, grid.delta, grid.n_samples) as write:
        for column in grid.samples.T:
            write(column)


class BinaryFile:
    """A trajectory file written by :func:`write_binary`, open for block reads.

    Opening reads the header, checks the payload size against the file
    size, the step, and every sample ``_CHECK_ROWS`` rows at a time, so it
    raises what :func:`read_binary` raises without holding the samples.
    ``samples`` is the rows as a :class:`FileSequence`, which the sub-sampling
    view and the estimators read in windows.  Close it, or use it in a
    ``with`` statement.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            head = self._fh.read(_HEADER.size)
            if len(head) != _HEADER.size:
                raise InsufficientData(f"{path}: truncated header")
            self.dim, self.delta, self.n_samples = _HEADER.unpack(head)
            if self.dim < 1 or self.n_samples < 1:
                raise ParameterDomain(f"{path}: bad header dim={self.dim} count={self.n_samples}")
            values = (os.fstat(self._fh.fileno()).st_size - _HEADER.size) // 8
            if values < self.dim * self.n_samples:
                raise InsufficientData(
                    f"{path}: expected {self.dim * self.n_samples} values, got {values}"
                )
            window = self.samples.window_reader(min(self.n_samples, _CHECK_ROWS))
            _check_file_grid(path, self.delta, self.n_samples, window)
        except BaseException:
            self._fh.close()
            raise

    def read_into(self, out: np.ndarray, first: int) -> None:
        """Fill row ``j`` of the C-ordered ``(dim, k)`` array ``out`` from column ``j``.

        Row ``j`` gets fine rows ``first .. first+k-1``, in one read.
        """
        for j, column in enumerate(out):
            self._fh.seek(_HEADER.size + 8 * (j * self.n_samples + first))
            if self._fh.readinto(memoryview(column).cast("B")) != column.nbytes:
                raise InsufficientData(f"{self.path}: the file was cut short while open")

    @property
    def samples(self) -> "FileSequence":
        return FileSequence(self, 0, 1, self.n_samples)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "BinaryFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileSequence:
    """Rows ``first, first + stride, ...`` of an open :class:`BinaryFile`, read on demand.

    Slicing with a positive step gives another such sequence, as it gives a
    view of an array, so :func:`subsample_sequence` selects the coarse rows
    of a file as it does those of a grid.  ``shape`` is ``(rows, dim)``.
    """

    def __init__(self, file: BinaryFile, first: int, stride: int, count: int):
        self._file, self._first, self._stride = file, first, stride
        self.shape = (count, file.dim)

    def __getitem__(self, rows: slice) -> "FileSequence":
        start, stop, step = rows.indices(self.shape[0])
        if step < 1:
            raise ValueError("a file's rows are read forwards only")
        first = self._first + start * self._stride
        return FileSequence(self._file, first, self._stride * step, len(range(start, stop, step)))

    def window_reader(self, rows: int):
        """``window(lo, n)``: rows ``lo .. lo+n-1`` as an ``(n, dim)`` array, for ``n <= rows``.

        Each call reads the fine rows that cover the window in blocks of at
        most ``_CHECK_ROWS`` per column and keeps every stride-th into one
        ``(dim, rows)`` buffer the calls share, so memory does not grow with
        the stride.  It returns a view of that buffer, valid until the next
        call.  At stride 1 the fine rows are the kept rows, read in place.
        """
        stride = self._stride
        kept = np.empty((self.shape[1], rows), dtype="<f8")
        per = rows if stride == 1 else max(1, min(rows, _CHECK_ROWS // stride))  # kept rows per read
        fine = kept if stride == 1 else np.empty((self.shape[1], stride * (per - 1) + 1), dtype="<f8")

        def window(lo: int, n: int) -> np.ndarray:
            for k in range(0, n, per):
                m = min(per, n - k)
                block = fine[:, : stride * (m - 1) + 1]
                self._file.read_into(block, self._first + (lo + k) * stride)
                if stride > 1:
                    kept[:, k : k + m] = block[:, ::stride]
            return kept[:, :n].T

        return window


def read_binary(path) -> TrajectoryGrid:
    """Read a trajectory written by :func:`write_binary`: a :class:`BinaryFile` read whole.

    Raises ``InsufficientData`` on a short file, ``ParameterDomain`` on a bad
    header or a non-positive or non-finite step, and ``ValidationError`` on a
    non-finite sample, naming its row.
    """
    with BinaryFile(path) as file:
        flat = np.empty((file.dim, file.n_samples), dtype="<f8")
        file.read_into(flat, 0)
    return TrajectoryGrid._handover(flat.T, file.delta)


def write_table(path, header, columns) -> None:
    """Write a CSV table: the ``header`` row, then row ``i`` of every column (array or list).

    Each value is the ``repr`` of the Python int or float ``tolist()`` makes of
    it, ``_CHECK_ROWS`` rows at a time, so it reads back exactly.  It writes
    through :func:`open_output`, so a failure removes the partial file.
    """
    with open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CHECK_ROWS):
            block = [np.asarray(column[lo : lo + _CHECK_ROWS]).tolist() for column in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*block))


def write_csv(grid: TrajectoryGrid, path) -> None:
    """Write the text form with :func:`write_table`: header row, then one row per time point."""
    write_table(path, ["time", *(f"x{i}" for i in range(grid.dim))], [grid.times, *grid.samples.T])


def read_csv(path) -> TrajectoryGrid:
    """Read a trajectory written by :func:`write_csv`.

    The step is recovered from the first time entry (time = delta by the
    1-based convention) and every time is checked against ``n * delta``,
    the times the writer computed, so rounding in long files and overflow
    to ``inf`` at huge steps read back as written.  Raises
    ``ValidationError`` as :func:`read_binary` does, and on a cell that is
    not a number or a row of another length.  The times are checked
    ``_CHECK_ROWS`` at a time and the samples copied out once.
    """
    try:
        with warnings.catch_warnings():  # a file of no rows is refused below, as no samples
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # numpy's reason, without its hint about `usecols`
        raise ValidationError(f"{path}: {str(exc).split(';')[0]}") from None
    if data.shape[0] < 1 or data.shape[1] < 2:
        raise InsufficientData(f"{path}: no samples")
    times, samples = data[:, 0], data[:, 1:]
    delta = float(times[0])
    _check_file_grid(path, delta, len(samples), lambda lo, n: samples[lo : lo + n])
    for lo in range(0, len(times), _CHECK_ROWS):
        block = times[lo : lo + _CHECK_ROWS]
        if not np.allclose(block, _times(lo, len(block), delta), rtol=1e-9, atol=1e-12):
            raise SchemeGridMismatch(f"{path}: rows are not uniformly spaced")
    return TrajectoryGrid._handover(samples, delta)

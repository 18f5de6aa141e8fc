"""Grids, sub-sampling views, random streams, and trajectory file formats."""

import errno
import math
import os
import re
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from submoments.estimators import lag_index
from submoments.errors import (
    InsufficientData,
    ParameterDomain,
    ResourceLimit,
    SchemeGridMismatch,
    ValidationError,
)
from submoments.grids import (
    _CHECK_ROWS,
    RandomStreamSpec,
    StreamRole,
    SubsamplingScheme,
    TrajectoryGrid,
    binary_writer,
    check_grid,
    open_output,
    read_binary,
    read_csv,
    resolve_stride,
    subsample_sequence,
    whole_steps,
    write_binary,
    write_csv,
    write_table,
)
from submoments.invert import ParameterBall, invert_cir, invert_ou, ou_moment_map
from submoments.lab import EndToEndConfig, ExperimentConfig, HestonRVConfig
from submoments.models import HestonParams, OUParams, SlowFastParams
from submoments.schemes import scheme_from_n, scheme_from_rho

from oracles import traced_memory


def line_grid(n=12, delta=0.5):
    return TrajectoryGrid(np.arange(1.0, n + 1.0), delta)


FORMATS = {".bin": (write_binary, read_binary), ".csv": (write_csv, read_csv)}


class TestTrajectoryGrid:
    def test_promotes_1d_to_column(self):
        g = TrajectoryGrid([1.0, 2.0, 3.0], 0.1)
        assert g.samples.shape == (3, 1)
        assert g.dim == 1 and g.n_samples == 3

    def test_times_are_one_based(self):
        g = line_grid(4, 0.5)
        assert np.array_equal(g.times, [0.5, 1.0, 1.5, 2.0])

    def test_samples_are_frozen(self):
        g = line_grid()
        with pytest.raises(ValueError):
            g.samples[0, 0] = 99.0

    def test_rejects_3d(self):
        with pytest.raises(ParameterDomain):
            TrajectoryGrid(np.zeros((2, 2, 2)), 0.1)

    def test_caller_array_is_copied(self):
        values = np.arange(1.0, 6.0)
        g = TrajectoryGrid(values, 0.1)
        values[0] = 99.0
        assert g.samples[0, 0] == 1.0
        assert values.flags.writeable


class TestValidateGrid:
    """The file readers validate every grid they return."""

    def test_good_grid(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary(line_grid(), path)
        assert np.array_equal(read_binary(path).samples, line_grid().samples)

    def test_empty(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(struct.pack("<qdq", 1, 0.5, 0))
        with pytest.raises(ParameterDomain, match="count=0"):
            read_binary(path)

    def test_bad_step(self, tmp_path):
        for write, read in FORMATS.values():
            for delta in (np.nan, np.inf, 0.0, -0.5):
                path = tmp_path / "t"
                write(TrajectoryGrid([1.0, 2.0], delta), path)
                with pytest.raises(ParameterDomain, match="step must be positive and finite"):
                    read(path)

    def test_reports_first_nonfinite_row(self, tmp_path):
        data = np.ones((6, 2))
        data[3, 1] = np.nan
        data[5, 0] = np.nan
        path = tmp_path / "t.bin"
        write_binary(TrajectoryGrid(data, 0.1), path)
        with pytest.raises(ValidationError, match=r"non-finite sample at row 3$"):
            read_binary(path)

    @pytest.mark.parametrize(
        "row", [_CHECK_ROWS - 1, _CHECK_ROWS, 2 * _CHECK_ROWS, 2 * _CHECK_ROWS + 4]
    )
    def test_nonfinite_row_across_check_blocks(self, tmp_path, row):
        # the finite check runs block by block: rows on either side of a block
        # boundary and rows of the short last block report their own index
        data = np.ones((2 * _CHECK_ROWS + 5, 2))
        data[row, 1] = np.nan
        data[row + 1 :, 0] = np.inf
        path = tmp_path / "t.bin"
        write_binary(TrajectoryGrid(data, 0.1), path)
        with pytest.raises(ValidationError, match=rf"non-finite sample at row {row}$"):
            read_binary(path)

    def test_csv_inf_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x0,x1\n0.5,1.0,2.0\n1.0,3.0,inf\n1.5,-inf,4.0\n")
        with pytest.raises(ValidationError, match=r"non-finite sample at row 1$"):
            read_csv(path)


class TestSubsampling:
    def test_every_second_sample(self):
        # fine values 1..12; stride 2 keeps fine indices 2,4,6,8,10 (1-based)
        g = line_grid(12, 0.5)
        scheme = SubsamplingScheme(5, 2 * 0.5, 2)
        view = subsample_sequence(g, scheme)
        assert view[:, 0].tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_offset_shifts_selection(self):
        g = line_grid(12, 0.5)
        scheme = SubsamplingScheme(5, 2 * 0.5, 2)
        view = subsample_sequence(g, scheme, offset=1)
        assert view[:, 0].tolist() == [3.0, 5.0, 7.0, 9.0, 11.0]

    def test_view_shares_memory(self):
        g = line_grid()
        scheme = SubsamplingScheme(3, 3 * 0.5, 3)
        assert np.shares_memory(subsample_sequence(g, scheme), g.samples)

    def test_strides_compose(self):
        g = line_grid(60, 0.1)
        once = SubsamplingScheme(10, 6 * 0.1, 6)
        first = SubsamplingScheme(30, 2 * 0.1, 2)
        inner = TrajectoryGrid(subsample_sequence(g, first), 0.2)
        second = SubsamplingScheme(10, 3 * 0.2, 3)
        assert np.array_equal(subsample_sequence(g, once), subsample_sequence(inner, second))

    def test_too_short_raises(self):
        g = line_grid(5, 0.5)
        scheme = SubsamplingScheme(3, 2 * 0.5, 2)
        with pytest.raises(InsufficientData):
            subsample_sequence(g, scheme)

    def test_unresolved_scheme_rejected(self):
        with pytest.raises(SchemeGridMismatch):
            subsample_sequence(line_grid(), SubsamplingScheme(n_obs=2, big_delta=1.0))

    def test_incommensurate_rejected(self):
        scheme = SubsamplingScheme(n_obs=2, big_delta=0.7, stride=2)
        with pytest.raises(SchemeGridMismatch):
            subsample_sequence(line_grid(12, 0.5), scheme)

    def test_sequence_extends_view(self):
        g = line_grid(12, 0.5)
        scheme = SubsamplingScheme(3, 2 * 0.5, 2)
        seq = subsample_sequence(g, scheme, n_extra=2)
        assert seq[:, 0].tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_resolve_stride_rounds_to_grid(self):
        scheme = resolve_stride(SubsamplingScheme(n_obs=4, big_delta=0.1), 0.03)
        assert scheme.stride == 3
        assert scheme.big_delta == pytest.approx(0.09, abs=0.0)

    def test_resolve_stride_floors_at_one(self):
        scheme = resolve_stride(SubsamplingScheme(n_obs=4, big_delta=0.01), 0.05)
        assert scheme.stride == 1 and scheme.big_delta == 0.05

    @pytest.mark.parametrize("big_delta, delta", [(1e308, 0.05), (1.0, 5e-324)])
    def test_resolve_stride_rejects_an_overflowing_ratio(self, big_delta, delta):
        # one observation, so the span is the finite big_delta
        with pytest.raises(ParameterDomain, match="overflows"):
            resolve_stride(SubsamplingScheme(n_obs=1, big_delta=big_delta), delta)

    def test_span_must_be_finite(self):
        with pytest.raises(ParameterDomain, match="span n_obs \\* big_delta is not finite"):
            SubsamplingScheme(n_obs=2, big_delta=1e308)
        assert SubsamplingScheme(n_obs=1, big_delta=1e308).span == 1e308

    def test_whole_steps(self):
        assert whole_steps(0.5, 0.1, "window") == 5
        # off the grid, under one step, and ratios that overflow (an inf eps level)
        for span, step in [(0.3, 0.25), (0.05, 0.1), (float("inf"), 0.01), (1e308, 1e-10)]:
            with pytest.raises(SchemeGridMismatch, match="not a whole multiple"):
                whole_steps(span, step, "window")

    @given(
        n_obs=st.integers(1, 20),
        stride=st.integers(1, 7),
        offset=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_selection_formula(self, n_obs, stride, offset):
        length = offset + n_obs * stride + 3
        g = TrajectoryGrid(np.arange(length, dtype=float), 1.0)
        scheme = SubsamplingScheme(n_obs, stride * 1.0, stride)
        view = subsample_sequence(g, scheme, offset=offset)
        expect = offset + stride * np.arange(1, n_obs + 1) - 1  # row index of sample n
        assert np.array_equal(view[:, 0], expect.astype(float))


class TestRandomStreams:
    def test_same_triple_reproduces(self):
        a = RandomStreamSpec(123, 4, StreamRole.PROCESS_NOISE).generator()
        b = RandomStreamSpec(123, 4, StreamRole.PROCESS_NOISE).generator()
        assert np.array_equal(a.standard_normal(32), b.standard_normal(32))

    def test_roles_are_distinct(self):
        spec = RandomStreamSpec(123, 4)
        a = spec.generator().standard_normal(32)
        b = spec.role(StreamRole.AUXILIARY_NOISE).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_replications_independent_of_order(self):
        late_first = RandomStreamSpec(9, 5).generator().standard_normal(8)
        early = RandomStreamSpec(9, 0).generator().standard_normal(8)
        late_again = RandomStreamSpec(9, 5).generator().standard_normal(8)
        assert np.array_equal(late_first, late_again)
        assert not np.array_equal(early, late_first)

    def test_role_accepts_string(self):
        spec = RandomStreamSpec(1).role("auxiliary_noise")
        assert spec.stream_role is StreamRole.AUXILIARY_NOISE

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterDomain):
            RandomStreamSpec(-1)


class TestSchemeBasics:
    def test_span(self):
        assert SubsamplingScheme(n_obs=100, big_delta=0.25).span == 25.0

    def test_bad_n_obs(self):
        with pytest.raises(ParameterDomain):
            SubsamplingScheme(n_obs=0, big_delta=1.0)

    def test_bad_big_delta(self):
        with pytest.raises(ParameterDomain):
            SubsamplingScheme(n_obs=2, big_delta=-1.0)


class TestFileFormats:
    def test_binary_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        g = TrajectoryGrid(rng.standard_normal((7, 3)), 0.25)
        path = tmp_path / "t.bin"
        write_binary(g, path)
        back = read_binary(path)
        assert back.delta == g.delta
        assert np.array_equal(back.samples, g.samples)

    def test_binary_layout(self, tmp_path):
        g = TrajectoryGrid(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]), 0.5)
        path = tmp_path / "t.bin"
        write_binary(g, path)
        raw = path.read_bytes()
        dim, delta, count = struct.unpack("<qdq", raw[:24])
        assert (dim, delta, count) == (2, 0.5, 3)
        # payload is column-major: first column fully, then the second
        payload = struct.unpack("<6d", raw[24:])
        assert payload == (1.0, 2.0, 3.0, 10.0, 20.0, 30.0)

    def test_binary_truncated_payload(self, tmp_path):
        g = TrajectoryGrid(np.ones((4, 2)), 0.5)
        path = tmp_path / "t.bin"
        write_binary(g, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InsufficientData):
            read_binary(path)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = TrajectoryGrid(rng.standard_normal((9, 2)), 0.125)
        path = tmp_path / "t.csv"
        write_csv(g, path)
        back = read_csv(path)
        assert back.delta == g.delta  # repr() round-trips doubles exactly
        assert np.array_equal(back.samples, g.samples)

    def test_csv_header(self, tmp_path):
        g = TrajectoryGrid(np.ones((2, 2)), 0.5)
        path = tmp_path / "t.csv"
        write_csv(g, path)
        assert path.read_text().splitlines()[0] == "time,x0,x1"

    def test_csv_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x0\n0.1,1.0\n0.2,2.0\n0.35,3.0\n")
        with pytest.raises(SchemeGridMismatch):
            read_csv(path)

    def test_csv_spacing_is_checked_in_every_block(self, tmp_path):
        # the times are compared a block at a time: a long file reads back, a bad last time is found
        g = TrajectoryGrid(np.arange(2.0 * _CHECK_ROWS + 5), 0.1)
        path = tmp_path / "t.csv"
        write_csv(g, path)
        assert np.array_equal(read_csv(path).samples, g.samples)
        lines = path.read_text().splitlines()
        lines[-1] = f"{float(g.times[-1]) * 1.01!r},0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemeGridMismatch, match="rows are not uniformly spaced"):
            read_csv(path)

    def test_csv_read_holds_the_samples_once(self, tmp_path):
        # the parsed table and one copy of its samples; the whole-file grid times and the
        # spacing check's whole-file temporaries took about twice as much
        rows = 4 * 10**5
        path = tmp_path / "t.csv"
        write_csv(TrajectoryGrid(np.random.default_rng(2).standard_normal(rows), 0.01), path)
        _, peak = traced_memory(lambda: read_csv(path))
        assert peak < 3.5 * 8 * rows  # the table is 16 bytes a row, the samples 8

    def test_table_failing_partway_leaves_no_file(self, tmp_path):
        class Column(list):  # its second block of rows cannot be read
            def __getitem__(self, rows):
                if rows.start:
                    raise RuntimeError("the column broke")
                return super().__getitem__(rows)

        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="the column broke"):
            write_table(path, ["x"], [Column([0.5] * (_CHECK_ROWS + 1))])
        assert not path.exists()

    def test_binary_failing_partway_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.bin"
        with pytest.raises(ValueError):
            with binary_writer(path, 1, 0.5, 4) as write:
                write(np.ones(2))
                write(np.array(["not a number"]))
        assert not path.exists()


class TestOpenOutput:
    """Every file the package writes is opened by ``open_output``, which decides what a failed
    write leaves behind."""

    def test_failed_open_leaves_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("kept\n")
        with pytest.raises(ResourceLimit, match=f"^cannot write {path}: File exists$"):
            with open_output(path, "x"):
                pass
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "error",
        [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
        ids=["no-space", "broken-pipe"],
    )
    def test_failure_removes_the_file(self, tmp_path, error):
        # a broken pipe is one more refused write: only stdout itself ends quietly, in main
        path = tmp_path / "out" / "t.csv"
        with pytest.raises(ResourceLimit, match=re.escape(f"cannot write {path}: {error.strerror}")):
            with open_output(path) as fh:
                fh.write("partial\n")
                raise error
        assert path.parent.is_dir() and not path.exists()

    def test_a_pipe_stays(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the open to write does not wait
        try:
            with pytest.raises(RuntimeError, match="broke"):
                with open_output(fifo) as fh:
                    fh.write("partial\n")
                    raise RuntimeError("broke")
            assert os.read(reader, 100) == b"partial\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@st.composite
def finite_grids(draw):
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    samples = draw(hnp.arrays(np.float64, (rows, cols), elements=finite))
    delta = draw(
        st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
    )
    return TrajectoryGrid(samples, delta)


class TestFileRoundTrips:
    # one file per format, overwritten by every example
    SETTINGS = settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @pytest.mark.parametrize("suffix", sorted(FORMATS))
    @SETTINGS
    @given(grid=finite_grids())
    def test_round_trip_is_exact(self, tmp_path, suffix, grid):
        write, read = FORMATS[suffix]
        path = tmp_path / f"t{suffix}"
        write(grid, path)
        back = read(path)
        assert back.delta == grid.delta
        assert back.samples.shape == grid.samples.shape
        assert back.samples.tobytes() == grid.samples.tobytes()

    @pytest.mark.parametrize("suffix", sorted(FORMATS))
    @SETTINGS
    @given(grid=finite_grids(), data=st.data())
    def test_one_non_finite_value_names_its_row(self, tmp_path, suffix, grid, data):
        row = data.draw(st.integers(0, grid.n_samples - 1))
        col = data.draw(st.integers(0, grid.dim - 1))
        samples = grid.samples.copy()
        samples[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        write, read = FORMATS[suffix]
        path = tmp_path / f"t{suffix}"
        write(TrajectoryGrid(samples, grid.delta), path)
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value).endswith(f"non-finite sample at row {row}")


def _read_step(delta, tmp_path):
    path = tmp_path / "step.bin"
    path.write_bytes(struct.pack("<qdqd", 1, delta, 1, 1.0))
    return read_binary(path)


_OU = OUParams(mean=1.0, reversion=1.0, noise=1.0)
_SWEEP = {"model": _OU, "epsilon_grid": (0.3, 0.2, 0.1)}
_HESTON = HestonParams()

#: every site of the one positivity rule: (name in the message, call with the value)
POSITIVE_SITES = {
    "check_grid": ("delta", lambda v, tmp: check_grid(10, v)),
    "resolve_stride": ("grid step", lambda v, tmp: resolve_stride(SubsamplingScheme(4, 1.0), v)),
    "file_step": ("grid step", _read_step),
    "scheme_big_delta": ("big_delta", lambda v, tmp: SubsamplingScheme(4, v)),
    "lag_index": ("big_delta", lambda v, tmp: lag_index(0.5, v)),
    "from_n_c_delta": ("c_delta", lambda v, tmp: scheme_from_n(100, c_delta=v)),
    "from_rho_c_n": ("c_n", lambda v, tmp: scheme_from_rho(0.1, c_n=v)),
    "from_rho_c_delta": ("c_delta", lambda v, tmp: scheme_from_rho(0.1, c_delta=v)),
    "sweep_c_n": ("c_n", lambda v, tmp: ExperimentConfig(**_SWEEP, c_n=v)),
    "sweep_c_delta": ("c_delta", lambda v, tmp: ExperimentConfig(**_SWEEP, c_delta=v)),
    "endtoend_c_n": ("c_n", lambda v, tmp: EndToEndConfig(_OU, c_n=v)),
    "endtoend_c_delta": ("c_delta", lambda v, tmp: EndToEndConfig(_OU, c_delta=v)),
    "endtoend_u1": ("u1", lambda v, tmp: EndToEndConfig(_OU, u1=v)),
    "endtoend_tolerance": ("tolerance", lambda v, tmp: EndToEndConfig(_OU, tolerance=v)),
    "heston_c_n": ("c_n", lambda v, tmp: HestonRVConfig(_HESTON, c_n=v)),
    "heston_c_delta": ("c_delta", lambda v, tmp: HestonRVConfig(_HESTON, c_delta=v)),
    "heston_pilot_span": ("pilot_span", lambda v, tmp: HestonRVConfig(_HESTON, pilot_span=v)),
    "slow_fast_scale": ("scale", lambda v, tmp: SlowFastParams(scale=v)),
    "ball_radius": ("radius", lambda v, tmp: ParameterBall(center=[0.0], radius=v)),
    "invert_ou_u1": ("u1", lambda v, tmp: invert_ou([0.0, 1.0, 0.5], v)),
    "ou_moment_map_u1": ("u1", lambda v, tmp: ou_moment_map([0.0, 1.0, 1.0], v)),
    "invert_cir_u1": ("u1", lambda v, tmp: invert_cir([1.0, 1.0, 0.5], v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("site", list(POSITIVE_SITES))
def test_positive_and_finite_everywhere(tmp_path, site, value):
    """Each step, lag and scheme constant is refused by the same rule and message."""
    name, call = POSITIVE_SITES[site]
    message = re.escape(f"{name} must be positive and finite, got {value}")
    with pytest.raises(ParameterDomain, match=message):
        call(value, tmp_path)

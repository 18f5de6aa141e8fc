"""Simulators and proxy observables: exact identities plus Monte Carlo checks.

MC tolerances are sized from the effective sample count T / (2 tau) of each
run and were verified to hold with slack at the pinned seeds.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import submoments
from submoments.errors import (
    InsufficientData,
    ParameterDomain,
    SchemeGridMismatch,
    SimulationDiverged,
)
from submoments.grids import RandomStreamSpec, StreamRole, TrajectoryGrid
from submoments.models import (
    HestonParams,
    OUParams,
    SLOW_FAST_CATALOG,
    SlowFastParams,
    _FILTER_BLOCK,
    _ar1,
    _heston_core,
    default_rv_window,
    heston_initial_variance,
    multiplicative_perturbation_observable,
    ou_filter,
    ou_true_covariance,
    realized_variance_chunk,
    realized_volatility_observable,
    simulate_ou,
    simulate_slow_fast,
    smoothing_observable,
)
from submoments.lab import simulate_heston

from oracles import (
    heston_core_reference,
    slow_fast_reference,
    traced_memory,
)


class TestOU:
    def test_domain(self):
        with pytest.raises(ParameterDomain):
            OUParams(mean=0.0, reversion=0.0, noise=1.0)
        with pytest.raises(ParameterDomain):
            OUParams(mean=0.0, reversion=1.0, noise=-1.0)

    def test_degenerate_noise_gives_constant_path(self):
        p = OUParams(mean=2.5, reversion=1.0, noise=0.0)
        g = simulate_ou(p, 100, 0.1, RandomStreamSpec(3))
        assert np.all(g.samples == 2.5)

    def test_true_covariance(self):
        p = OUParams(mean=0.0, reversion=2.0, noise=2.0)
        assert ou_true_covariance(p, 0.0) == pytest.approx(1.0)
        assert ou_true_covariance(p, 0.5) == pytest.approx(math.exp(-1.0))
        with pytest.raises(ParameterDomain):
            ou_true_covariance(p, -0.1)

    def test_l4_norm_closed_form(self):
        assert OUParams(0.0, 1.0, math.sqrt(2.0)).l4_norm == pytest.approx(3.0**0.25)
        assert OUParams(2.0, 1.0, math.sqrt(2.0)).l4_norm == pytest.approx(43.0**0.25)

    def test_reproducible(self):
        p = OUParams(mean=0.0, reversion=1.0, noise=1.0)
        a = simulate_ou(p, 500, 0.1, RandomStreamSpec(9, 4))
        b = simulate_ou(p, 500, 0.1, RandomStreamSpec(9, 4))
        assert np.array_equal(a.samples, b.samples)

    def test_stationary_statistics(self):
        p = OUParams(mean=0.5, reversion=1.0, noise=math.sqrt(2.0))
        g = simulate_ou(p, 200_000, 0.05, RandomStreamSpec(41))
        x = g.samples[:, 0]
        assert float(x.mean()) == pytest.approx(0.5, abs=0.06)
        assert float(x.var()) == pytest.approx(1.0, abs=0.08)
        dev = x - x.mean()
        corr = float(np.mean(dev[:-20] * dev[20:])) / float(x.var())
        assert corr == pytest.approx(math.exp(-1.0), abs=0.03)
        assert float(np.mean(x**4)) ** 0.25 == pytest.approx(p.l4_norm, rel=0.05)

    def test_path_is_handed_over_frozen(self):
        # the path is filtered in the array the draw made: frozen, not copied
        drawn = []

        class RecordingStream:
            def generator(self):
                return self

            def standard_normal(self, out):
                drawn.append(RandomStreamSpec(5).generator().standard_normal(out=out))
                return drawn[-1]

        g = simulate_ou(OUParams(1.0, 1.0, 1.0), 1000, 0.1, RecordingStream())
        assert not g.samples.flags.writeable
        assert np.shares_memory(g.samples, drawn[0])
        y = multiplicative_perturbation_observable(g, 0.1)
        assert not y.samples.flags.writeable

    def test_peak_memory_is_the_path(self):
        # shocks and a separate filter output would be two 8 MB arrays at once
        grids = []
        params = OUParams(1.0, 1.0, 1.0)
        _, peak = traced_memory(
            lambda: grids.append(simulate_ou(params, 10**6, 0.01, RandomStreamSpec(6)))
        )
        assert peak <= 8 * 10**6 + 2 * 2**20

    @pytest.mark.parametrize("length", [1, _FILTER_BLOCK, 3 * _FILTER_BLOCK + 7])
    def test_blocks_to_a_sink_are_the_path(self, length):
        # the blocks passed to a sink, each a view of one reused buffer, are
        # the rows of the path the grid holds, in order
        params, stream = OUParams(1.0, 1.0, 1.0), RandomStreamSpec(6)
        blocks = []
        assert simulate_ou(params, length, 0.01, stream, lambda b: blocks.append(b.copy())) is None
        sizes = [min(_FILTER_BLOCK, length - lo) for lo in range(0, length, _FILTER_BLOCK)]
        assert [b.size for b in blocks] == sizes
        want = simulate_ou(params, length, 0.01, stream).samples[:, 0]
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [1, _FILTER_BLOCK, 3 * _FILTER_BLOCK + 7])
    def test_drawn_blocks_finished_later_are_the_path(self, length):
        # with take, the blocks go to the sink as normals, each in its own
        # array; ou_filter finishes them in order, after the draws, into the path
        params, stream = OUParams(1.0, 1.0, 1.0), RandomStreamSpec(6)
        blocks = []
        assert simulate_ou(params, length, 0.01, stream, blocks.append, np.empty) is None
        assert len({id(b) for b in blocks}) == len(blocks)
        finish = ou_filter(params, 0.01)
        for block in blocks:
            finish(block)
        want = simulate_ou(params, length, 0.01, stream).samples[:, 0]
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_length_and_step_domain(self):
        p = OUParams(0.0, 1.0, 1.0)
        for length, step in [(0, 0.1), (10, 0.0), (10, math.nan), (10, math.inf)]:
            with pytest.raises(ParameterDomain):
                simulate_ou(p, length, step, _NoDraws())


class TestLinearFilterKernel:
    """The AR(1) helper on the compiled kernel gives the bits of scipy.signal.lfilter."""

    @pytest.mark.parametrize("lead", [0.0, -0.0])
    @pytest.mark.parametrize("phi", [0.0, math.exp(-0.01), 0.9999])
    @pytest.mark.parametrize(
        "length",
        [
            1, 2, 1000, _FILTER_BLOCK - 1, _FILTER_BLOCK, _FILTER_BLOCK + 1, 123_457,
            3 * _FILTER_BLOCK + 7, 10**6,
        ],
    )
    def test_equals_lfilter_bitwise(self, length, phi, lead):
        from scipy.signal import lfilter

        x = np.random.default_rng(length).standard_normal(length)
        x[0] = lead
        x[1::5] = -lead
        x[3::5] = 0.0
        x[4::5] = -0.0
        want = lfilter([1.0], [1.0, -phi], x.copy())
        got = _ar1(phi, x)  # filters x in place, block by block
        assert got is x
        assert got.tobytes() == want.tobytes()

    def test_concurrent_first_load_registers_one_module(self):
        # eight threads past a barrier race to the first load in a fresh
        # interpreter; the extension is created once and all get its kernel
        code = (
            "import importlib.util, sys, threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "from submoments.models import _linear_filter\n"
            "made = []\n"
            "create = importlib.util.module_from_spec\n"
            "importlib.util.module_from_spec = lambda spec: made.append(spec) or create(spec)\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier = threading.Barrier(8)\n"
            "def load():\n"
            "    barrier.wait(timeout=30)\n"
            "    return _linear_filter()\n"
            "with ThreadPoolExecutor(8) as pool:\n"
            "    got = [f.result(timeout=60) for f in [pool.submit(load) for _ in range(8)]]\n"
            "kernel = sys.modules['scipy.signal._sigtools']._linear_filter\n"
            "print(sum(k is kernel for k in got), len(made))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(submoments.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["8", "1"]


HESTON = HestonParams(reversion=1.0, level=0.04, vol_of_vol=0.2)
# variance of the stationary Gamma law of V, whose mean is the level
HESTON_V_VAR = HESTON.vol_of_vol**2 * HESTON.level / (2.0 * HESTON.reversion)


class _NoDraws:
    """A stream that fails the test when anything draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"stream.{name} used before the step was checked")


class _AuxiliaryNoDraws(_NoDraws):
    stream_role = StreamRole.AUXILIARY_NOISE


@pytest.mark.parametrize(
    "simulate, params",
    [(simulate_heston, HESTON), (simulate_slow_fast, SlowFastParams(entry="linear_coupling", scale=0.1))],
    ids=["heston", "slow_fast"],
)
def test_two_path_simulator_refuses_an_auxiliary_stream(simulate, params):
    # each drew from both roles whatever role it was given: the same paths as process noise
    with pytest.raises(ParameterDomain, match="takes the process_noise stream, not auxiliary_noise"):
        simulate(params, 100, 0.01, _AuxiliaryNoDraws())


class TestHeston:
    def test_domain(self):
        with pytest.raises(ParameterDomain):
            HestonParams(-1.0, 0.04, 0.2)

    # past the float range: 1e308**2 raised OverflowError, 1e-300**2 divided by 0, and the
    # rest made an infinite shape or scale that drew an infinite start
    @pytest.mark.parametrize(
        "field, value",
        [("vol_of_vol", 1e308), ("vol_of_vol", 1e-300), ("reversion", 1e308),
         ("reversion", 1e-320), ("level", 1e308)],
    )
    def test_stationary_law_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ParameterDomain, match="stationary Gamma shape or scale overflows"):
            dataclasses.replace(HESTON, **{field: value})

    def test_initial_variance_draws_from_the_stationary_law(self):
        shape = 2.0 * HESTON.reversion * HESTON.level / HESTON.vol_of_vol**2
        scale = HESTON.vol_of_vol**2 / (2.0 * HESTON.reversion)
        assert (HESTON.stationary_shape, HESTON.stationary_scale) == (shape, scale)
        got = heston_initial_variance(HESTON, np.random.default_rng(3), size=5)
        assert np.array_equal(got, np.random.default_rng(3).gamma(shape, scale, size=5))

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_rejected_before_drawing(self, step):
        with pytest.raises(ParameterDomain, match="delta_fine"):
            simulate_heston(HESTON, 10, step, _NoDraws())

    def test_stationary_draw_moments(self):
        rng = np.random.default_rng(7)
        v0 = heston_initial_variance(HESTON, rng, size=200_000)
        assert float(v0.mean()) == pytest.approx(HESTON.level, abs=1e-3)
        assert float(v0.var()) == pytest.approx(HESTON_V_VAR, rel=0.05)

    def test_variance_path_statistics(self):
        ret, var = simulate_heston(HESTON, 150_000, 0.01, RandomStreamSpec(21))
        v = var.samples[:, 0]
        assert np.all(v >= 0.0)
        assert float(v.mean()) == pytest.approx(0.04, abs=0.004)
        assert float(v.var()) == pytest.approx(HESTON_V_VAR, rel=0.25)
        assert ret.n_samples == var.n_samples == 150_000

    def test_tiny_vol_of_vol_pins_variance_to_level(self):
        calm = HestonParams(reversion=1.0, level=0.04, vol_of_vol=0.001)
        _, var = simulate_heston(calm, 20_000, 0.01, RandomStreamSpec(22))
        assert float(np.max(np.abs(var.samples - 0.04))) < 0.002

    def test_reproducible(self):
        a = simulate_heston(HESTON, 300, 0.01, RandomStreamSpec(5, 2))
        b = simulate_heston(HESTON, 300, 0.01, RandomStreamSpec(5, 2))
        assert np.array_equal(a[0].samples, b[0].samples)
        assert np.array_equal(a[1].samples, b[1].samples)

    # no parameter is a power of two, so every multiplication rounds and a
    # reordered product shows; WILD has vol_of_vol**2 > 2 * reversion * level,
    # so its raw variance goes negative
    CALM = HestonParams(reversion=1.3, level=0.045, vol_of_vol=0.35)
    WILD = HestonParams(reversion=0.7, level=0.04, vol_of_vol=0.9)

    @pytest.mark.parametrize("width", [1, 3, 120])
    @pytest.mark.parametrize("drift", [0.0, 0.7])
    @pytest.mark.parametrize("wild", [False, True])
    @pytest.mark.parametrize("with_r0", [False, True])
    def test_core_matches_reference(self, width, drift, wild, with_r0):
        params = dataclasses.replace(self.WILD if wild else self.CALM, drift=drift)
        rng = np.random.default_rng([width, int(wild), int(with_r0)])
        n, dt = 700, 0.01
        z_var = rng.standard_normal((n, width))
        z_price = rng.standard_normal((n, width))
        v0 = rng.uniform(0.0, 0.1, width)
        v0[0] = -0.02  # a negative raw start: the first step sees its truncation, 0
        r0 = rng.standard_normal(width) if with_r0 else None
        got = _heston_core(params, n, dt, z_var, z_price, v0, r0)
        want = heston_core_reference(params, n, dt, z_var, z_price, v0, r0)
        if wild:
            assert np.any(got[1] == 0.0)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_core_continues_across_chunks(self):
        wild = dataclasses.replace(self.WILD, drift=0.3)
        rng = np.random.default_rng(31)
        n, dt = 2000, 0.01
        for width in (1, 3):  # the scalar and the row-wise variance loop
            z_var = rng.standard_normal((n, width))
            z_price = rng.standard_normal((n, width))
            v0 = np.array([0.04, 0.0, 0.1][:width])
            r_full, v_full, end_full = heston_core_reference(wild, n, dt, z_var, z_price, v0)
            # cut right after steps whose raw variance is negative, so the carried
            # raw value differs from the truncated one at every boundary
            negative = np.flatnonzero(v_full[:-1, 0] == 0.0)
            assert negative.size >= 3
            cuts = [0, *(negative[[0, negative.size // 2, -1]] + 1), n]
            r, v, pieces = None, v0, []
            for lo, hi in zip(cuts, cuts[1:]):
                r_part, v_part, v = _heston_core(
                    wild, hi - lo, dt, z_var[lo:hi], z_price[lo:hi], v, r
                )
                r = r_part[-1]
                pieces.append((r_part, v_part))
            assert np.array_equal(np.vstack([a for a, _ in pieces]), r_full)
            assert np.array_equal(np.vstack([b for _, b in pieces]), v_full)
            assert np.array_equal(v, end_full)

    @pytest.mark.parametrize("width", [1, 3])
    def test_core_zero_steps_returns_start(self, width):
        v0 = np.full(width, 0.05)
        r_paths, v_paths, v_end = _heston_core(
            HESTON, 0, 0.01, np.empty((0, width)), np.empty((0, width)), v0
        )
        assert r_paths.shape == v_paths.shape == (0, width)
        assert np.array_equal(v_end, v0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_core_raises_when_path_diverges(self, width):
        z = np.full((50, width), 1e300)
        with pytest.raises(SimulationDiverged), np.errstate(all="ignore"):
            _heston_core(HESTON, 50, 0.01, z, z, np.full(width, 0.04))


class TestObservables:
    def test_multiplicative_identity_and_scaling(self):
        x = TrajectoryGrid(np.array([1.0, -2.0, 3.0]), 0.5)
        y = multiplicative_perturbation_observable(x, 0.0)
        assert np.array_equal(y.samples, x.samples) and y.delta == 0.5
        z = multiplicative_perturbation_observable(x, 0.2)
        assert np.allclose(z.samples, 1.2 * x.samples)
        with pytest.raises(ParameterDomain):
            multiplicative_perturbation_observable(x, -0.1)

    def test_smoothing_exact_on_linear_path(self):
        # trapezoid integration is exact for affine paths: Y(t) = t - eps/2
        delta, eps, length = 0.1, 0.5, 40
        times = delta * np.arange(1, length + 1)
        y = smoothing_observable(TrajectoryGrid(times, delta), eps)
        m = 5
        assert y.n_samples == length - m
        expected = times[m:] - eps / 2.0
        assert np.allclose(y.samples[:, 0], expected, atol=1e-12)

    def test_smoothing_constant_path(self):
        x = TrajectoryGrid(np.full(20, 3.25), 0.1)
        y = smoothing_observable(x, 0.3)
        assert np.allclose(y.samples, 3.25, atol=1e-14)

    def test_smoothing_window_must_fit_grid(self):
        x = TrajectoryGrid(np.zeros(20), 0.1)
        with pytest.raises(SchemeGridMismatch):
            smoothing_observable(x, 0.25)
        with pytest.raises(InsufficientData):
            smoothing_observable(TrajectoryGrid(np.zeros(5), 0.1), 0.5)
        with pytest.raises(ParameterDomain):
            smoothing_observable(x, 0.0)

    def test_rv_exact_on_constant_increments(self):
        # power-of-two values keep every intermediate binary-exact
        c, eps = 0.5, 0.0625
        levels = TrajectoryGrid(c * np.arange(1.0, 101.0), eps)
        rv = realized_volatility_observable(levels, eps, window=10)
        assert rv.n_samples == 90
        assert np.all(rv.samples == c * c / eps)

    def test_rv_zero_path(self):
        rv = realized_volatility_observable(TrajectoryGrid(np.zeros(50), 0.01), 0.01, 5)
        assert np.all(rv.samples == 0.0)

    def test_rv_guards(self):
        levels = TrajectoryGrid(np.zeros(50), 0.01)
        with pytest.raises(InsufficientData):
            realized_volatility_observable(TrajectoryGrid(np.zeros(10), 0.01), 0.01, 10)
        with pytest.raises(SchemeGridMismatch):
            realized_volatility_observable(levels, 0.02, 5)
        with pytest.raises(ParameterDomain):
            realized_volatility_observable(levels, 0.01, 0)
        two_dim = TrajectoryGrid(np.zeros((50, 2)), 0.01)
        with pytest.raises(ParameterDomain):
            realized_volatility_observable(two_dim, 0.01, 5)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, 500])
    def test_rv_chunks_match_one_cumsum(self, chunk):
        eps, window = 0.01, 10
        ret, _ = simulate_heston(HESTON, 500, eps, RandomStreamSpec(5))
        paths = np.column_stack([ret.samples[:, 0], -2.0 * ret.samples[:, 0]])
        csum = np.concatenate((np.zeros((1, 2)), np.cumsum(np.diff(paths, axis=0) ** 2, axis=0)))
        expected = (csum[window:] - csum[:-window]) / (window * eps)
        carry, parts = None, []
        for lo in range(0, len(paths), chunk):
            rv, carry = realized_variance_chunk(paths[lo : lo + chunk], window, eps, carry)
            parts.append(rv)
        assert np.array_equal(np.concatenate(parts)[window:], expected)
        # only the kept rows, every third from row window + 2, picked chunk by chunk
        first, step = window + 2, 3
        carry, parts = None, []
        for lo in range(0, len(paths), chunk):
            keep = slice(max(first - lo, (first - lo) % step), None, step)
            rv, carry = realized_variance_chunk(paths[lo : lo + chunk], window, eps, carry, keep)
            parts.append(rv)
        assert np.array_equal(np.concatenate(parts), expected[2::step])
        whole = realized_volatility_observable(ret, eps, window)
        assert np.array_equal(whole.samples[:, 0], expected[:, 0])

    def test_rv_tracks_true_variance_level(self):
        ret, _ = simulate_heston(HESTON, 30_000, 0.01, RandomStreamSpec(23))
        rv = realized_volatility_observable(ret, 0.01, 10)
        assert float(rv.samples.mean()) == pytest.approx(0.04, abs=0.01)

    def test_default_rv_window(self):
        assert default_rv_window(0.01) == 10
        assert default_rv_window(0.005) == 15
        with pytest.raises(ParameterDomain):
            default_rv_window(0.0)


class TestSlowFast:
    def test_averaged_drift_matches_gaussian_quadrature(self):
        nodes, weights = np.polynomial.hermite_e.hermegauss(40)
        weights = weights / math.sqrt(2.0 * math.pi)
        for power, averaged in SLOW_FAST_CATALOG.values():
            assert float(np.sum(weights * nodes**power)) == pytest.approx(averaged, abs=1e-10)

    def test_reduced_models(self):
        assert SlowFastParams("linear_coupling").reduced == OUParams(0.0, 1.0, 1.0)
        assert SlowFastParams("quadratic_coupling").reduced == OUParams(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("entry", sorted(SLOW_FAST_CATALOG))
    @pytest.mark.parametrize("seed", [31, 32])
    def test_matches_per_step_loop(self, entry, seed):
        scale, length, dt = 0.02, 20_000, 0.002
        x, avg = simulate_slow_fast(SlowFastParams(entry, scale), length, dt, RandomStreamSpec(seed))
        want_x, want_avg = slow_fast_reference(entry, scale, length, dt, RandomStreamSpec(seed))
        assert np.max(np.abs(x.samples[:, 0] - want_x)) < 1e-12
        assert np.max(np.abs(avg.samples[:, 0] - want_avg)) < 1e-12

    def test_peak_memory_is_three_paths(self):
        # the noise, the fast path and one slow path at a time; an input built
        # by concatenation or a copied result would add 8 MB arrays
        grids = []
        params = SlowFastParams(entry="quadratic_coupling", scale=0.02)
        _, peak = traced_memory(
            lambda: grids.append(simulate_slow_fast(params, 10**6, 0.002, RandomStreamSpec(31)))
        )
        assert peak <= 3 * 8 * 10**6 + 2 * 2**20

    def test_coupled_distance_shrinks_with_scale(self):
        def sup_dist(scale):
            x, avg = simulate_slow_fast(
                SlowFastParams(entry="quadratic_coupling", scale=scale),
                20_000, 0.001, RandomStreamSpec(31),
            )
            return float(np.max(np.abs(x.samples - avg.samples)))

        assert sup_dist(0.01) < sup_dist(0.1)

    def test_slow_marginal_near_reduced_law(self):
        x, avg = simulate_slow_fast(
            SlowFastParams(entry="linear_coupling", scale=0.02),
            100_000, 0.002, RandomStreamSpec(32),
        )
        assert float(x.samples.var()) == pytest.approx(0.5, abs=0.2)
        assert float(avg.samples.var()) == pytest.approx(0.5, abs=0.2)
        assert float(avg.samples.mean()) == pytest.approx(0.0, abs=0.15)

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            SlowFastParams(entry="nope", scale=0.1)
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterDomain):
                SlowFastParams(entry="linear_coupling", scale=scale)
        with pytest.raises(ParameterDomain, match="too coarse"):
            simulate_slow_fast(
                SlowFastParams(entry="linear_coupling", scale=0.1),
                100, 0.05, RandomStreamSpec(1),
            )

    # past the float range: 1e308**2 raised OverflowError, 1e-300**2 divided by 0, and the
    # rest made an infinite shape or scale that drew an infinite start
    @pytest.mark.parametrize(
        "field, value",
        [("vol_of_vol", 1e308), ("vol_of_vol", 1e-300), ("reversion", 1e308),
         ("reversion", 1e-320), ("level", 1e308)],
    )
    def test_stationary_law_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ParameterDomain, match="stationary Gamma shape or scale overflows"):
            dataclasses.replace(HESTON, **{field: value})

    def test_initial_variance_draws_from_the_stationary_law(self):
        shape = 2.0 * HESTON.reversion * HESTON.level / HESTON.vol_of_vol**2
        scale = HESTON.vol_of_vol**2 / (2.0 * HESTON.reversion)
        assert (HESTON.stationary_shape, HESTON.stationary_scale) == (shape, scale)
        got = heston_initial_variance(HESTON, np.random.default_rng(3), size=5)
        assert np.array_equal(got, np.random.default_rng(3).gamma(shape, scale, size=5))

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_rejected_before_drawing(self, step):
        params = SlowFastParams(entry="linear_coupling", scale=0.1)
        with pytest.raises(ParameterDomain, match="delta_fine"):
            simulate_slow_fast(params, 100, step, _NoDraws())

    @pytest.mark.parametrize("step", [2.0, 5.0])
    def test_unstable_slow_step_rejected_before_drawing(self, step):
        # the fast scale allows the step, but the slow Euler coefficient
        # 1 - step has modulus >= 1, so the slow path would diverge
        params = SlowFastParams(entry="linear_coupling", scale=100.0)
        with pytest.raises(ParameterDomain, match=r"\|1 - delta_fine\| < 1"):
            simulate_slow_fast(params, 2000, step, _NoDraws())

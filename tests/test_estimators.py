"""Mean and lagged covariance estimators against hand-computed oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from submoments.errors import InsufficientData, ParameterDomain, SchemeTooShortForLag
from submoments.estimators import (
    _LEAF,
    covariance_curve,
    empirical_mean,
    estimates_to_csv,
    lag_index,
    lagged_covariance,
    lagged_covariances,
)
from submoments.grids import (
    _CHECK_ROWS,
    BinaryFile,
    RandomStreamSpec,
    SubsamplingScheme,
    TrajectoryGrid,
    read_binary,
    subsample_sequence,
    write_binary,
)
from submoments.models import OUParams, ou_true_covariance, simulate_ou

from oracles import (
    centered_cross_product,
    lagged_covariance_product_form,
    lagged_covariances_whole,
    leaf_tree_sum,
    traced_memory,
)


class TestLagIndex:
    def test_plain_rounding(self):
        assert lag_index(1.0, 0.1) == 10
        assert lag_index(0.3, 0.1) == 3
        assert lag_index(0.0, 0.7) == 0
        assert lag_index(0.04, 0.1) == 0

    def test_ties_go_to_even(self):
        assert lag_index(2.5, 1.0) == 2
        assert lag_index(3.5, 1.0) == 4

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            lag_index(-0.1, 0.1)
        with pytest.raises(ParameterDomain):
            lag_index(1.0, 0.0)
        with pytest.raises(ParameterDomain):
            lag_index(math.inf, 0.1)

    @given(kappa=st.integers(0, 10**9), big_delta=st.floats(1e-300, 1e290))
    @settings(max_examples=200, deadline=None)
    def test_whole_lag_round_trips(self, kappa, big_delta):
        # lagged_covariance asks covariance_curve for lag kappa * big_delta
        assert lag_index(kappa * big_delta, big_delta) == kappa

    @pytest.mark.parametrize("lag, big_delta", [(1e308, 0.05), (1e300, 1e-300)])
    def test_overflowing_quotient(self, lag, big_delta):
        with pytest.raises(ParameterDomain, match="overflows"):
            lag_index(lag, big_delta)


class TestEmpiricalMean:
    def test_matrix_input(self):
        data = np.array([[1.0, 10.0], [3.0, 30.0]])
        assert empirical_mean(data) == pytest.approx([2.0, 20.0])

    def test_guards(self):
        with pytest.raises(InsufficientData):
            empirical_mean(np.empty((0, 1)))
        with pytest.raises(ParameterDomain):
            empirical_mean(np.zeros((2, 2, 2)))


def _rand(n, r=1, seed=0):
    return np.random.default_rng(seed).standard_normal((n, r))


class TestLaggedCovariance:
    def test_brute_force_bitwise(self):
        # same reductions as production, explicit indexing: one 1-d pairwise
        # np.sum per column of the means and per (i, j) entry of the matrix
        arr = _rand(35, 2, seed=5)
        n, kappa = 30, 3
        lead, lagged = arr[:n], arr[kappa : kappa + n]
        mean = np.array([np.sum(lead[:, j]) for j in range(2)]) / n
        shifted = np.array([np.sum(lagged[:, j]) for j in range(2)]) / n
        oracle = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                terms = np.array(
                    [(lead[t, i] - mean[i]) * (lagged[t, j] - shifted[j]) for t in range(n)]
                )
                oracle[i, j] = np.sum(terms) / n
        est = lagged_covariance(arr, n_obs=n, kappa=kappa, big_delta=0.5)
        assert np.array_equal(est.matrix, oracle)

    def test_fsum_cross_check(self):
        arr = _rand(40, 1, seed=6)[:, 0]
        n, kappa = 30, 2
        mean = math.fsum(arr[:n]) / n
        shifted = math.fsum(arr[kappa : kappa + n]) / n
        oracle = math.fsum(
            (arr[i] - mean) * (arr[i + kappa] - shifted) for i in range(n)
        ) / n
        est = lagged_covariance(arr, n_obs=n, kappa=kappa, big_delta=1.0)
        assert est.matrix[0, 0] == pytest.approx(oracle, rel=1e-12)

    def test_fsum_two_columns_million_rows(self):
        # Pairwise summation keeps the relative error near eps * log2(n);
        # adding the rows one after another (np.sum(axis=0) on an (n, 2)
        # array) misses it by 2-10x at this offset.
        n = 1_000_000
        arr = 1e3 + _rand(n, 2, seed=17)
        tol = np.finfo(float).eps * math.log2(n)
        exact_mean = [math.fsum(arr[:, j]) / n for j in range(2)]
        assert empirical_mean(arr) == pytest.approx(exact_mean, rel=tol, abs=0.0)
        centred = [arr[:, j] - exact_mean[j] for j in range(2)]
        exact_var = [math.fsum(c * c) / n for c in centred]
        est = lagged_covariance(arr, n_obs=n, kappa=0, big_delta=1.0)
        assert np.diag(est.matrix) == pytest.approx(exact_var, rel=tol, abs=0.0)

    def test_matches_ou_covariance(self):
        p = OUParams(mean=1.0, reversion=1.0, noise=math.sqrt(2.0))
        g = simulate_ou(p, 20_004, 0.25, RandomStreamSpec(51))
        est = lagged_covariance(g.samples, n_obs=20_000, kappa=4, big_delta=0.25)
        assert est.lag_used == pytest.approx(1.0)
        assert est.matrix[0, 0] == pytest.approx(ou_true_covariance(p, 1.0), abs=0.06)

    def test_shift_invariance(self):
        arr = _rand(50, 1, seed=7)
        base = lagged_covariance(arr, 40, 2, 1.0).matrix
        moved = lagged_covariance(arr + 1000.0, 40, 2, 1.0).matrix
        assert np.allclose(base, moved, atol=1e-10)

    def test_power_of_two_scaling_is_exact(self):
        arr = _rand(50, 2, seed=8)
        base = lagged_covariance(arr, 40, 2, 1.0).matrix
        scaled = lagged_covariance(2.0 * arr, 40, 2, 1.0).matrix
        assert np.array_equal(scaled, 4.0 * base)

    def test_zero_lag_symmetric_psd(self):
        est = lagged_covariance(_rand(100, 3, seed=9), 100, 0, 0.1)
        assert np.array_equal(est.matrix, est.matrix.T)
        assert np.linalg.eigvalsh(est.matrix).min() >= -1e-12

    def test_product_form_agrees(self):
        arr = 5.0 + _rand(60, 2, seed=10)
        a = lagged_covariance(arr, 45, 1, 1.0).matrix
        b = lagged_covariance_product_form(arr, 45, 1)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_extra_samples_ignored(self):
        arr = _rand(30, 1, seed=11)
        a = lagged_covariance(arr, 20, 2, 1.0).matrix
        b = lagged_covariance(arr[:22], 20, 2, 1.0).matrix
        assert np.array_equal(a, b)

    def test_guards(self):
        arr = _rand(25, 1, seed=12)
        with pytest.raises(ParameterDomain):
            lagged_covariance(arr, 1, 0, 1.0)
        with pytest.raises(ParameterDomain):
            lagged_covariance(arr, 10, 0, 0.0)
        with pytest.raises(InsufficientData):
            lagged_covariance(arr, 25, 1, 1.0)
        with pytest.raises(SchemeTooShortForLag):
            lagged_covariance(arr, 20, 3, 1.0)
        # zero lag is exempt from the n / kappa floor
        assert lagged_covariance(arr, 5, 0, 1.0).matrix.shape == (1, 1)

    @given(
        arr=hnp.arrays(np.float64, (30,), elements=st.floats(-10, 10)),
        shift=st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_property(self, arr, shift):
        base = lagged_covariance(arr, 25, 0, 1.0).matrix
        moved = lagged_covariance(arr + float(shift), 25, 0, 1.0).matrix
        assert np.allclose(base, moved, atol=1e-9)


class TestLaggedCovariances:
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("kappas", [[0], [3, 0, 3, 1], [6, 2, 2]])
    @pytest.mark.parametrize("step", [1, 3])  # contiguous and strided (sub-sampled) input
    def test_bitwise_equal_to_per_lag_oracle(self, r, kappas, step):
        arr = (1e3 + _rand(70 * step, r, seed=18))[step - 1 :: step]
        n = 60
        cov, mean = lagged_covariances(arr, n, kappas)
        assert cov.shape == (len(kappas), r, r)
        for li, kappa in enumerate(kappas):
            matrix, lead_mean, _ = centered_cross_product(arr, n, kappa)
            assert np.array_equal(cov[li], matrix)
            assert np.array_equal(mean, lead_mean)

    def test_every_kappa_is_checked(self):
        arr = _rand(25, 1, seed=12)
        with pytest.raises(InsufficientData, match="kappa=6"):
            lagged_covariances(arr, 20, [0, 1, 6])
        with pytest.raises(SchemeTooShortForLag, match="kappa=3"):
            lagged_covariances(arr, 20, [1, 3, 2])
        with pytest.raises(ParameterDomain, match="kappa must be >= 0"):
            lagged_covariances(arr, 20, [1, -1])
        with pytest.raises(ParameterDomain, match="n_obs must be >= 2"):
            lagged_covariances(arr, 1, [])
        cov, mean = lagged_covariances(arr, 20, [])
        assert cov.shape == (0, 1, 1) and mean[0] == empirical_mean(arr[:20])[0]


def _strided_rows(rows, r, stride, seed):
    """``(rows, r)`` samples whose rows sit ``stride`` doubles apart: contiguous at 1."""
    if stride == 1:
        return 2.0 + _rand(rows, r, seed)
    base = 2.0 + _rand(rows * stride, 1, seed).ravel()
    return np.lib.stride_tricks.as_strided(
        base, (rows, r), (stride * base.itemsize, base.itemsize), writeable=False
    )


class TestBlockedKernel:
    """The kernel's leaves follow numpy's pairwise split, so it keeps the whole-block bits."""

    @pytest.mark.parametrize(
        "n", [127, 128, 129, 1023, _LEAF - 1, _LEAF, _LEAF + 1, 123_457, 999_999]
    )
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("stride", [1, 5])
    def test_equals_whole_block_kernel(self, n, r, stride):
        # a numpy release that moves the pairwise split fails here loudly
        kappas = [0, 12, 3, 12, 0]
        arr = _strided_rows(n + 12, r, stride, seed=n)
        cov, mean = lagged_covariances(arr, n, kappas)
        want_cov, want_mean = lagged_covariances_whole(arr, n, kappas)
        assert np.array_equal(cov, want_cov)
        assert np.array_equal(mean, want_mean)

    @pytest.mark.parametrize(
        "stride, r, n",
        [
            *itertools.product([1, 5], [1, 2], [127, _LEAF - 1, _LEAF + 1, 3 * _LEAF + 7]),
            # a window of 139 rows spans 139,001 fine rows, read in blocks
            (1000, 1, 127), (1000, 2, 127),
        ],
    )
    def test_file_rows_equal_array_rows(self, tmp_path, n, r, stride):
        # a .bin read one leaf window at a time gives the bits of the loaded
        # file; the column-major file is offset, and holds rows past n_obs + 12.
        # Memory is one block read and a few leaf buffers, whatever the stride
        kappas = [0, 12, 3, 12, 0]
        offset = 3
        path = tmp_path / "t.bin"
        fine = 2.0 + _rand(offset + (n + 12) * stride + 9, r, seed=n)
        write_binary(TrajectoryGrid(fine, 0.1), path)
        scheme = SubsamplingScheme(n, 0.1 * stride, stride)
        loaded = subsample_sequence(read_binary(path), scheme, n_extra=12, offset=offset)
        want_cov, want_mean = lagged_covariances(loaded, n, kappas)
        with BinaryFile(path) as file:
            seq = subsample_sequence(file, scheme, n_extra=12, offset=offset)
            _, peak = traced_memory(lambda: lagged_covariances(seq, n, kappas))
            cov, mean = lagged_covariances(seq, n, kappas)
            lead_mean = empirical_mean(seq[:n])
        assert peak <= 8 * r * (_CHECK_ROWS + 4 * (min(n, _LEAF) + 12)) + 2**16
        assert np.array_equal(cov, want_cov)
        assert np.array_equal(mean, want_mean) and np.array_equal(lead_mean, want_mean)

    @pytest.mark.parametrize("n", [_LEAF + 1, 999_999])
    @pytest.mark.parametrize("stride", [5, 7])
    def test_strided_sum_is_the_leaf_tree(self, n, stride):
        # numpy sums a strided column in one pairwise pass, not in buffered
        # chunks, so a leaf of a strided window has the bits of its copy
        column = _strided_rows(n, 1, stride, seed=n)[:, 0]
        assert np.sum(column) == leaf_tree_sum(column, _LEAF)

    def test_peak_memory_is_a_few_leaves(self):
        # two n-long centred copies, as a whole-block kernel makes, would be 16 MB
        arr = _rand(10**6, 1, seed=40)
        _, peak = traced_memory(lambda: lagged_covariances(arr, 10**6 - 100, [0, 50, 100]))
        assert peak <= 2 * 2**20

    def test_fresh_inputs_are_released(self):
        # nothing outlives a call: a reference cycle would keep each 8 MB input
        def calls():
            for seed in range(20):
                lagged_covariances(_rand(10**6, 1, seed), 10**6 - 100, [0, 50, 100])

        current, _ = traced_memory(calls)
        assert current <= 8 * 10**6


class TestCovarianceCurve:
    def test_duplicate_lags_share_work(self):
        arr = _rand(120, 1, seed=13)
        scheme = SubsamplingScheme(100, 0.1)
        out = covariance_curve(arr, scheme, [0.5, 0.52, 1.0])
        assert out[0].kappa == out[1].kappa == 5
        assert out[0].matrix is out[1].matrix
        assert out[2].kappa == 10
        assert out[0].lag_requested == 0.5 and out[1].lag_requested == 0.52
        assert out[0].lag_used == pytest.approx(0.5)

    def test_matches_direct_estimator(self):
        arr = _rand(120, 1, seed=14)
        scheme = SubsamplingScheme(100, 0.1)
        (curve,) = covariance_curve(arr, scheme, [0.8])
        direct = lagged_covariance(arr, 100, 8, 0.1)
        assert np.array_equal(curve.matrix, direct.matrix)

    def test_every_estimate_carries_the_lead_mean(self):
        arr = _rand(120, 2, seed=15)
        curve = covariance_curve(arr, SubsamplingScheme(100, 0.1), [0.0, 0.8])
        for est in curve:
            assert np.array_equal(est.mean, empirical_mean(arr[:100]))
        assert np.array_equal(lagged_covariance(arr, 100, 8, 0.1).mean, curve[0].mean)


class TestCsvExport:
    def test_roundtrip_rows(self, tmp_path):
        arr = _rand(120, 1, seed=16)
        scheme = SubsamplingScheme(100, 0.1)
        ests = covariance_curve(arr, scheme, [0.0, 0.5])
        path = tmp_path / "curve.csv"
        estimates_to_csv(ests, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag_requested,lag_used,n_obs,big_delta,k_0_0"
        assert len(lines) == 3
        fields = lines[2].split(",")
        assert float(fields[0]) == 0.5
        assert int(fields[2]) == 100
        assert float(fields[4]) == ests[1].matrix[0, 0]
        # two columns: every entry, row-major, reads back as its matrix entry exactly
        ests = covariance_curve(_rand(120, 2, seed=17), scheme, [0.0, 0.3])
        estimates_to_csv(ests, path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header[4:] == ["k_0_0", "k_0_1", "k_1_0", "k_1_1"]
        assert [[float(v) for v in fields[4:]] for fields in rows] == [est.matrix.ravel().tolist() for est in ests]

    def test_mixed_sizes_leave_no_file(self, tmp_path):
        scheme = SubsamplingScheme(100, 0.1)
        ests = covariance_curve(_rand(120, 1), scheme, [0.0]) + covariance_curve(_rand(120, 2), scheme, [0.0])
        path = tmp_path / "curve.csv"
        with pytest.raises(ParameterDomain, match="mix matrix sizes"):
            estimates_to_csv(ests, path)
        assert not path.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ParameterDomain):
            estimates_to_csv([], tmp_path / "x.csv")

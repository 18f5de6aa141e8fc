"""Convergence lab: sweep engine, error metrics, checks, and pipelines.

Monte Carlo assertions here run on small deterministic ensembles (pinned
master seeds), so observed values are reproducible run to run.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from submoments import lab
from submoments.errors import (
    MomentsOutsideModelRange,
    NumericalError,
    ParameterDomain,
    ResourceLimit,
)
from submoments.grids import (
    RandomStreamSpec,
    StreamRole,
    SubsamplingScheme,
    TrajectoryGrid,
    resolve_stride,
    subsample_sequence,
)
from submoments.estimators import lagged_covariances
from submoments.invert import invert_cir
from submoments.lab import (
    ConvergenceReport,
    EndToEndConfig,
    EndToEndReport,
    Ensemble,
    ExperimentConfig,
    SweepPoint,
    HestonRVConfig,
    HestonRVReport,
    _HESTON_CHUNK,
    _plan_heston_rv,
    _rv_moments,
    build_report,
    config_hash,
    empirical_lp_error,
    evaluate_thresholds,
    fit_rate_slope,
    perturbation_gap_check,
    plan_point,
    run_endtoend_ou,
    run_heston_rv,
    run_replications,
    simulate_heston,
)
from submoments.models import (
    HestonParams,
    OUParams,
    heston_initial_variance,
    ou_bound_inputs,
    ou_true_covariance,
    realized_volatility_observable,
    simulate_ou,
    smoothing_observable,
)
from submoments.schemes import scheme_from_rho

from oracles import heston_core_reference

MODEL = OUParams(mean=0.5, reversion=1.0, noise=1.0)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        model=MODEL,
        observable="identity",
        epsilon_grid=(0.3, 0.25, 0.2),
        lags=(0.0, 1.0),
        replications=30,
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRateFit:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_rate_slope(x, 3.0 * x**-0.5)
        assert fit.slope == pytest.approx(-0.5, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_two_points(self):
        fit = fit_rate_slope([1.0, 10.0], [1.0, 0.1])
        assert fit.slope == pytest.approx(-1.0, rel=1e-9)
        assert fit.r_squared == 1.0

    def test_guards(self):
        with pytest.raises(ParameterDomain):
            fit_rate_slope([1.0], [1.0])
        with pytest.raises(ParameterDomain):
            fit_rate_slope([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ParameterDomain):
            fit_rate_slope([1.0, 2.0], [1.0, 2.0, 3.0])


class TestLpError:
    def test_hand_values(self):
        est = np.array([1.0, 3.0]).reshape(1, 2, 1)
        assert empirical_lp_error(est, 0.0, 2.0)[0, 0] == pytest.approx(math.sqrt(5.0))
        assert empirical_lp_error(est, 0.0, 4.0)[0, 0] == pytest.approx(41.0**0.25)
        # a mean ensemble has no lag axis
        assert empirical_lp_error(est[..., 0], 1.0, 2.0)[0] == pytest.approx(math.sqrt(2.0))

    def test_lag_axis_preserved(self):
        est = np.zeros((2, 5, 3))
        assert empirical_lp_error(est, 0.0, 2.0).shape == (2, 3)

    def test_guards(self):
        with pytest.raises(ParameterDomain):
            empirical_lp_error(np.zeros(5), 0.0, 2.0)
        with pytest.raises(ParameterDomain):
            empirical_lp_error(np.zeros((2, 5, 1)), 0.0, 0.0)


class TestConfigValidation:
    def test_defaults_pass(self):
        small_config()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(replications=29),
            dict(observable="fourier"),
            dict(rho_kind="cubic"),
            dict(scheme_family="adaptive"),
            dict(epsilon_grid=(0.2, 0.25, 0.3)),  # increasing
            dict(epsilon_grid=(0.3, 0.2)),  # too few
            dict(lags=()),
            dict(lags=(-1.0,)),
            dict(stride_resolution=0),
            dict(workers=0),
            # from_n has no proxy level: y would be x at rho 0
            *(
                dict(scheme_family="from_n", n_grid=(1000,), **proxy)
                for proxy in ({"observable": "multiplicative"}, {"observable": "smoothing"}, {"rho_kind": "sqrt"})
            ),
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ParameterDomain):
            small_config(**overrides)

    def test_lag_past_horizon(self):
        # a lag past the horizon is refused where it enters, by the sweep config
        with pytest.raises(ParameterDomain, match="horizon"):
            small_config(lags=(3.0,), horizon_a=2.0)

    def test_from_n_needs_grid(self):
        with pytest.raises(ParameterDomain):
            small_config(scheme_family="from_n")

    def test_custom_needs_matching_schemes(self):
        with pytest.raises(ParameterDomain):
            small_config(scheme_family="custom")

    def test_rho_of(self):
        assert small_config().rho_of(0.3) == 0.3
        cfg = small_config(rho_kind="sqrt", c_rho=2.0)
        assert cfg.rho_of(0.25) == pytest.approx(1.0)
        with pytest.raises(ParameterDomain, match="unknown rho kind 'table'"):
            small_config(rho_kind="table")  # cut: custom schemes pin explicit points

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(lab, "_MEMORY_CAP_BYTES", 1000)
        with pytest.raises(ResourceLimit):
            run_replications(small_config())


class TestSweepEngine:
    def test_bookkeeping_and_determinism(self):
        ens = run_replications(small_config())
        plans = [p.point for p in ens.points]
        assert build_report(small_config(), ens).meta["grid_kind"] == "epsilon"
        assert [p.label for p in ens.points] == [0.3, 0.25, 0.2]
        assert [p.scheme.n_obs for p in plans] == [38, 64, 125]
        assert np.allclose([p.scheme.big_delta for p in plans], [0.3, 0.25, 0.2])
        assert [p.scheme.stride for p in plans] == [1, 1, 1]
        assert [p.kappas for p in plans] == [(0, 3), (0, 4), (0, 5)]
        assert np.allclose([p.lags_used for p in plans], [[0.0, 0.9], [0.0, 1.0], [0.0, 1.0]])
        assert np.allclose([p.scheme.span for p in plans], [38 * 0.3, 64 * 0.25, 125 * 0.2])
        assert ens.replications == 30
        assert ens.khat_x.shape == (3, 30, 2)
        assert ens.mean_x.shape == (3, 30)

        again = run_replications(small_config())
        assert np.array_equal(ens.khat_x, again.khat_x)
        assert np.array_equal(ens.mean_x, again.mean_x)
        assert again.points == ens.points

    def test_identity_observable_pairs_exactly(self):
        ens = run_replications(small_config())
        assert np.array_equal(ens.khat_x, ens.khat_y)
        assert np.array_equal(ens.mean_x, ens.mean_y)

    def test_multiplicative_scaling(self):
        ens = run_replications(small_config(observable="multiplicative"))
        for gi, rho in enumerate(p.rho for p in ens.points):
            scale = (1.0 + rho) ** 2
            assert np.allclose(ens.khat_y[gi], scale * ens.khat_x[gi], rtol=1e-10)
            assert np.allclose(ens.mean_y[gi], (1.0 + rho) * ens.mean_x[gi], rtol=1e-12)

    def test_smoothing_matches_direct_computation(self):
        # the hidden path is read from the smoothing window's warm-up on
        config = small_config(
            observable="smoothing", epsilon_grid=(0.2, 0.1, 0.05), lags=(0.0, 0.5, 1.0),
            master_seed=11, stride_resolution=4, horizon_a=1.0,
        )
        ens = run_replications(config)
        for gi, eps in enumerate(config.epsilon_grid):
            planned = scheme_from_rho(eps, config.c_n, config.c_delta)
            fine = planned.big_delta / 4
            scheme = resolve_stride(planned, fine)
            offset, kappas = round(eps / fine), ens.points[gi].point.kappas
            rows = offset + (scheme.n_obs + max(kappas)) * scheme.stride
            for rep in range(config.replications):
                stream = RandomStreamSpec(11, rep, StreamRole.PROCESS_NOISE)
                x = simulate_ou(MODEL, rows, fine, stream)
                y = smoothing_observable(x, eps)
                y_seq = subsample_sequence(y, scheme, n_extra=max(kappas))
                x_seq = subsample_sequence(x, scheme, n_extra=max(kappas), offset=offset)
                pairs = ((x_seq, ens.khat_x, ens.mean_x), (y_seq, ens.khat_y, ens.mean_y))
                for seq, khat, mean in pairs:
                    cov, m = lagged_covariances(seq, scheme.n_obs, kappas)
                    assert np.array_equal(khat[gi, rep], cov[:, 0, 0])
                    assert mean[gi, rep] == m[0]

    def test_parallel_matches_serial(self):
        for observable in ("identity", "multiplicative"):
            config = small_config(epsilon_grid=(0.3, 0.25, 0.21), observable=observable)
            twin = dataclasses.replace(config, workers=2)
            serial, parallel = run_replications(config), run_replications(twin)
            for field in ("khat_x", "khat_y", "mean_x", "mean_y"):
                assert np.array_equal(getattr(serial, field), getattr(parallel, field))
            assert build_report(config, serial).to_json() == build_report(twin, parallel).to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pool_per_sweep(self, monkeypatch, workers):
        pools = []

        class CountedPool(lab.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(lab, "ThreadPoolExecutor", CountedPool)
        run_replications(small_config(workers=workers))
        assert pools == [workers]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_error_cancels_queued_jobs(self, monkeypatch, workers):
        calls = []
        replicate = lab._one_replication

        def failing(config, point, rep):
            calls.append(rep)
            if rep == 0:
                raise NumericalError("injected")
            return replicate(config, point, rep)

        monkeypatch.setattr(lab, "_one_replication", failing)
        with pytest.raises(NumericalError, match="injected"):
            run_replications(small_config(workers=workers))  # 3 points x 30 reps
        assert 1 <= len(calls) <= 2 * workers

    def test_budget_family_rate(self):
        cfg = small_config(
            scheme_family="from_n", n_grid=(27, 64, 125), lags=(0.0,),
            replications=60, epsilon_grid=(),
        )
        report = build_report(cfg, run_replications(cfg))
        assert report.meta["grid_kind"] == "n_obs"
        fit = report.slopes["err_x_vs_n/lag_0"]
        assert fit["slope"] < -0.1


class TestReport:
    def test_identity_report(self):
        cfg = small_config()
        ens = run_replications(cfg)
        report = build_report(cfg, ens, inputs=ou_bound_inputs(MODEL, horizon_a=1.0))
        assert len(report.rows) == 3 * 2
        for row in report.rows:
            assert row["err_x_l2"] == row["err_y_l2"]
            assert row["gap_l2"] == 0.0
        # proxy error shrinks with eps, so the fitted slope is positive
        assert 0.0 < report.slopes["err_y_vs_rho/lag_0"]["slope"] < 3.0
        assert "gap_vs_rho/lag_0" not in report.slopes  # identity gap is zero
        assert set(report.bound_fractions) == {"contained_x", "contained_y"}
        assert 0.0 <= report.bound_fractions["contained_x"] <= 1.0
        assert report.meta["replications"] == 30
        assert report.meta["config_hash"] == config_hash(cfg)
        parsed = json.loads(report.to_json())
        assert parsed == dataclasses.asdict(report)

    def test_error_helpers_match_report(self):
        cfg = small_config()
        ens = run_replications(cfg)
        oracle = np.array([ou_true_covariance(MODEL, u) for u in cfg.lags])
        err = empirical_lp_error(ens.khat_x, oracle, 2.0)
        report = build_report(cfg, ens)
        assert report.rows[0]["err_x_l2"] == pytest.approx(err[0, 0], rel=1e-12)
        mean_err = empirical_lp_error(ens.mean_x, MODEL.mean, 2.0)
        assert report.mean_rows[0]["mean_err_l2_x"] == pytest.approx(
            mean_err[0], rel=1e-12
        )

    def test_csv_rows(self, tmp_path):
        cfg = small_config()
        report = build_report(cfg, run_replications(cfg))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("label,rho,n_obs,big_delta,span,lag")
        assert len(lines) == 1 + len(report.rows)


class TestGapCheck:
    def test_multiplicative_gap_within_bound(self):
        ens = run_replications(small_config(observable="multiplicative"))
        nu_of = lambda rho: (1.0 + rho) * MODEL.l4_norm
        checks = perturbation_gap_check(ens, nu_of)
        assert len(checks) == 3
        for chk in checks:
            assert chk.bound == pytest.approx(4.0 * chk.nu * chk.rho)
            assert chk.cov_ok and chk.mean_ok
            assert chk.gap == pytest.approx(float(chk.gap_by_lag.max()))

    def test_gap_matches_direct_metric(self):
        ens = run_replications(small_config(observable="multiplicative"))
        direct = empirical_lp_error(ens.khat_y - ens.khat_x, 0.0, 2.0)
        checks = perturbation_gap_check(ens, lambda rho: 1.0)
        for gi, chk in enumerate(checks):
            assert np.allclose(chk.gap_by_lag, direct[gi])


class TestEndToEnd:
    CFG = EndToEndConfig(
        model=OUParams(mean=1.0, reversion=1.0, noise=1.0),
        rho=0.2,
        u1=1.0,
        replications=30,
        master_seed=77,
        tolerance=0.5,
    )

    def test_validation(self):
        with pytest.raises(ParameterDomain):
            EndToEndConfig(model=OUParams(0.0, 1.0, 1.0))  # zero mean
        with pytest.raises(ParameterDomain):
            EndToEndConfig(model=OUParams(1.0, 1.0, 1.0), rho=1.5)
        with pytest.raises(ParameterDomain):
            run_endtoend_ou(
                EndToEndConfig(model=OUParams(1.0, 1.0, 1.0), rho=0.2, u1=0.05)
            )

    def test_small_study(self):
        report = run_endtoend_ou(self.CFG)
        assert report.names == ("mean", "reversion", "noise")
        assert report.rel_errors.shape == (30, 3)
        assert np.all(report.rel_errors >= 0)
        assert report.scheme.n_obs == 1500  # ceil(12 * 0.2^-3)
        assert report.scheme.big_delta == pytest.approx(0.2)
        for name in report.names:
            assert report.fraction_within[name] >= 0.7
            assert report.rms_rel[name] > 0
        blob = report.to_json_dict()
        assert blob["truth"]["reversion"] == 1.0
        assert blob["n_obs"] == 1500

    def test_deterministic(self):
        a = run_endtoend_ou(self.CFG)
        b = run_endtoend_ou(self.CFG)
        assert np.array_equal(a.rel_errors, b.rel_errors)
        assert a.config_hash == b.config_hash


class TestHestonRVConfig:
    def test_validation(self):
        good = HestonRVConfig(params=HestonParams(1.0, 0.04, 0.3))
        with pytest.raises(ParameterDomain):
            HestonRVConfig(
                params=good.params, epsilon_grid=(0.005, 0.01)
            )  # increasing
        with pytest.raises(ParameterDomain):
            HestonRVConfig(params=good.params, u1=0.75, u2=0.25)
        with pytest.raises(ParameterDomain):
            HestonRVConfig(params=good.params, replications=10)


def reference_heston_rv(config: HestonRVConfig):
    """The blocked replication loop ``run_heston_rv`` used to run.

    Full-length normals are drawn up front for blocks of 24 replications,
    and each block is stepped over the whole path by the per-step reference
    recursion, not by the package's core.
    """
    p = config.params
    delta_f, plans = _plan_heston_rv(config)
    length = max(plan.point.rows * plan.eps_stride for plan in plans)
    true_vec = np.array([p.reversion, p.level, p.vol_of_vol])
    sq_rel = {plan.point.step: [] for plan in plans}
    failures = {plan.point.step: 0 for plan in plans}
    for start in range(0, config.replications, 24):
        reps = range(start, min(start + 24, config.replications))
        width = len(reps)
        z_var = np.empty((length, width))
        z_price = np.empty((length, width))
        v0 = np.empty(width)
        for col, rep in enumerate(reps):
            stream = RandomStreamSpec(config.master_seed, rep, StreamRole.PROCESS_NOISE)
            rng_var = stream.generator()
            rng_price = stream.role(StreamRole.AUXILIARY_NOISE).generator()
            v0[col] = heston_initial_variance(p, rng_var)
            z_var[:, col] = rng_var.standard_normal(length)
            z_price[:, col] = rng_price.standard_normal(length)
        r_paths, _, _ = heston_core_reference(p, length, delta_f, z_var, z_price, v0)
        for col in range(width):
            for plan in plans:
                fine_rows = plan.point.rows * plan.eps_stride
                r_eps = r_paths[plan.eps_stride - 1 : fine_rows : plan.eps_stride, col]
                rv = realized_volatility_observable(
                    TrajectoryGrid(r_eps, plan.point.step), plan.point.step, plan.point.offset
                )
                coarse = subsample_sequence(rv, plan.point.scheme, n_extra=plan.point.kappas[1])
                try:
                    est = invert_cir(_rv_moments(coarse, plan), plan.point.lags_used[0])
                except MomentsOutsideModelRange:
                    failures[plan.point.step] += 1
                    continue
                sq_rel[plan.point.step].append(((est.theta - true_vec) / true_vec) ** 2)
    rms_rel = {
        eps: dict(
            zip(("reversion", "level", "vol_of_vol"), map(float, np.sqrt(np.mean(block, axis=0))))
        )
        for eps, block in sq_rel.items()
    }
    return [plan.summary() for plan in plans], rms_rel, failures


class TestHestonRVPipeline:
    CFG = HestonRVConfig(
        params=HestonParams(2.0, 0.04, 0.3),
        epsilon_grid=(0.02, 0.01),
        replications=30,
        master_seed=20260305,
        pilot_span=50,
    )

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_heston_rv(self.CFG)

    @pytest.fixture(scope="class")
    def length(self):
        _, plans = _plan_heston_rv(self.CFG)
        length = max(plan.point.rows * plan.eps_stride for plan in plans)
        # the last normals chunk is partial
        assert length > _HESTON_CHUNK and length % _HESTON_CHUNK != 0
        return length

    def check_against(self, reference, config):
        plans, rms_rel, failures = reference
        report = run_heston_rv(config)
        assert report.plans == plans
        assert report.rms_rel == rms_rel
        assert report.failures == failures

    def test_matches_blocked_reference(self, reference, length):
        self.check_against(reference, self.CFG)

    @pytest.mark.parametrize("chunk", [5, 13, 1000])
    def test_chunk_boundaries(self, reference, chunk, monkeypatch):
        # 5 rows is shorter than either RV window (8 and 10); 13 and 1000 are
        # multiples of neither eps stride (2, 1) nor scheme stride (3, 6)
        monkeypatch.setattr(lab, "_HESTON_CHUNK", chunk)
        self.check_against(reference, self.CFG)

    def test_no_price_path_held_whole(self, length, monkeypatch):
        monkeypatch.setattr(lab, "_HESTON_CHUNK", 256)
        price_paths_bytes = 8 * length * self.CFG.replications
        tracemalloc.start()
        try:
            run_heston_rv(self.CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < price_paths_bytes / 2


class TestHestonChunks:
    # vol_of_vol**2 > 2 * reversion * level, so the raw variance goes
    # negative; at this seed it is negative at replication 5's second chunk
    # boundary, where it must be carried raw, not truncated
    PARAMS = HestonParams(reversion=1.3, level=0.045, vol_of_vol=0.45, drift=0.07)

    def test_a_replication_has_one_path(self):
        seed, rep, dt = 20260305, 5, 0.01
        length = 2 * _HESTON_CHUNK + 37
        returns, variance = simulate_heston(self.PARAMS, length, dt, RandomStreamSpec(seed, rep))
        # the scalar recursion (one column) against the row recursion (three)
        chunks = list(lab._heston_chunks(self.PARAMS, seed, [rep - 1, rep, rep + 1], length, dt))
        assert [lo for lo, _, _ in chunks] == [0, _HESTON_CHUNK, 2 * _HESTON_CHUNK]
        assert np.array_equal(returns.samples[:, 0], np.concatenate([r[:, 1] for _, r, _ in chunks]))
        assert np.array_equal(variance.samples[:, 0], np.concatenate([v[:, 1] for _, _, v in chunks]))
        # chunked draws and steps against one whole-length draw per stream
        stream = RandomStreamSpec(seed, rep)
        rng_var = stream.generator()
        rng_price = stream.role(StreamRole.AUXILIARY_NOISE).generator()
        v0 = heston_initial_variance(self.PARAMS, rng_var, size=1)
        z_var = rng_var.standard_normal((length, 1))
        z_price = rng_price.standard_normal((length, 1))
        r_ref, v_ref, _ = heston_core_reference(self.PARAMS, length, dt, z_var, z_price, v0)
        assert np.array_equal(returns.samples, r_ref)
        assert np.array_equal(variance.samples, v_ref)
        assert variance.samples[2 * _HESTON_CHUNK - 1, 0] == 0.0  # truncated at the boundary


class TestConfigHash:
    @pytest.mark.parametrize(
        "config",
        [small_config(), TestHestonRVPipeline.CFG],
        ids=["experiment", "heston_rv"],
    )
    def test_identity_ignores_execution_settings(self, config):
        base = config_hash(config)
        assert len(base) == 64
        if isinstance(config, ExperimentConfig):
            assert config_hash(dataclasses.replace(config, workers=2)) == base
            assert config_hash(dataclasses.replace(config, workers=1)) == base
        assert config_hash(dataclasses.replace(config, master_seed=config.master_seed + 1)) != base


def _slope(value):
    return {"slope": value, "intercept": 0.0, "r_squared": 1.0}


GENERIC_REPORT = ConvergenceReport(
    meta={},
    rows=[{"rho": 0.2, "err_y_l2": 0.4}, {"rho": 0.1, "err_y_l2": 0.1}],  # ratio spread 2
    mean_rows=[],
    slopes={
        "err_x_vs_n/lag_0": _slope(-0.30),
        "err_x_vs_n/lag_1": _slope(-0.35),
        "err_y_vs_rho/lag_0": _slope(1.00),
        "gap_vs_rho/lag_0": _slope(1.05),
        "mean_l2_vs_span": _slope(-0.50),
        "mean_l4_vs_span": _slope(-0.49),
    },
    bound_rows=[],
    bound_fractions={"contained_x": 1.0, "contained_y": 0.9},
)

ENDTOEND_REPORT = EndToEndReport(
    names=("mean", "reversion", "noise"),
    truth=np.ones(3),
    rel_errors=np.zeros((30, 3)),
    fraction_within={"mean": 1.0, "reversion": 0.95, "noise": 1.0},
    rms_rel={"mean": 0.01, "reversion": 0.05, "noise": 0.02},
    tolerance=0.1,
    scheme=SubsamplingScheme(100, 0.1),
    config_hash="",
)


def _heston_report(coarse_level):
    return HestonRVReport(
        truth={},
        plans=[],
        rms_rel={
            0.01: {"reversion": 0.30, "level": coarse_level, "vol_of_vol": 0.20},
            0.005: {"reversion": 0.20, "level": 0.03, "vol_of_vol": 0.10},
        },
        failures={},
        config_hash="",
    )


def _gap_ensemble(cov_gap, mean_gap):
    """One grid point at rho = 0.1 whose proxy estimates sit a fixed gap away."""
    reps = 4
    point = plan_point(SubsamplingScheme(100, 0.1), 0.1, (0.0,))
    return Ensemble(
        points=[SweepPoint(label=0.1, rho=0.1, eps=0.1, point=point)],
        khat_y=np.full((1, reps, 1), cov_gap),
        khat_x=np.zeros((1, reps, 1)),
        mean_y=np.full((1, reps), mean_gap),
        mean_x=np.zeros((1, reps)),
    )


class TestEvaluateThresholds:
    @pytest.mark.parametrize(
        "checks, expected",
        [
            ({"err_x_slope_min": -0.4, "err_x_slope_max": -0.2}, True),
            ({"err_x_slope_min": -0.4}, True),
            ({"err_x_slope_min": -0.32}, False),  # lag_1 = -0.35 falls below
            ({"err_x_slope_max": -0.32}, False),
            ({"err_y_rho_slope_min": 0.8, "err_y_rho_slope_max": 1.2}, True),
            ({"err_y_rho_slope_max": 0.9}, False),
            ({"gap_rho_slope_min": 0.9, "gap_rho_slope_max": 1.1}, True),
            ({"gap_rho_slope_min": 1.1}, False),
            ({"mean_l2_slope_min": -0.6, "mean_l2_slope_max": -0.4}, True),
            ({"mean_l2_slope_max": -0.6}, False),
            ({"mean_l4_slope_min": -0.6}, True),
            ({"mean_l4_slope_min": -0.35, "mean_l4_slope_max": -0.15}, False),
            ({"bound_fraction_min": 0.9}, True),
            ({"bound_fraction_min": 0.95}, False),  # contained_y = 0.9
            ({"ratio_band_max": 2.5}, True),
            ({"ratio_band_max": 1.5}, False),
        ],
    )
    def test_generic_report_checks(self, checks, expected):
        (row,) = evaluate_thresholds("generic", checks, GENERIC_REPORT)
        assert row[0] == next(iter(checks)).rsplit("_", 1)[0]
        assert row[1] is expected

    def test_slope_not_fitted_fails(self):
        report = dataclasses.replace(GENERIC_REPORT, slopes={}, bound_fractions={})
        rows = evaluate_thresholds(
            "generic", {"mean_l4_slope_min": -1.0, "bound_fraction_min": 0.5}, report
        )
        assert [(name, ok) for name, ok, _ in rows] == [
            ("mean_l4_slope", False),
            ("bound_fraction", False),
        ]
        assert "not fitted" in rows[0][2]

    def test_gap_bounds(self):
        nu = 1.1 * MODEL.l4_norm
        cov_bound, mean_bound = 4 * nu * 0.1, nu * 0.1
        checks = {"mean_within_bound": True, "gap_within_bound": True}
        for cov_scale, mean_scale in ((0.5, 2.0), (2.0, 0.5)):
            ensemble = _gap_ensemble(cov_scale * cov_bound, mean_scale * mean_bound)
            rows = evaluate_thresholds(
                "generic", checks, GENERIC_REPORT, small_config(), ensemble
            )
            assert [(name, ok) for name, ok, _ in rows] == [
                ("gap_within_bound", cov_scale < 1),
                ("mean_within_bound", mean_scale < 1),
            ]
            assert "1 level(s) exceed, at rho 0.1" in rows[int(cov_scale < 1)][2]

    def test_false_flag_runs_nothing(self):
        checks = {"gap_within_bound": False, "mean_within_bound": False}
        assert evaluate_thresholds("generic", checks, GENERIC_REPORT) == []

    @pytest.mark.parametrize("need, expected", [(0.9, True), (0.96, False)])
    def test_recovery_fraction(self, need, expected):
        rows = evaluate_thresholds("ou_endtoend", {"min_fraction": need}, ENDTOEND_REPORT)
        assert [(name, ok) for name, ok, _ in rows] == [("recovery_fraction", expected)]

    @pytest.mark.parametrize(
        "checks, expected",
        [
            ({"level_rms_max": 0.05}, True),  # finest eps: 0.03
            ({"level_rms_max": 0.02}, False),
            ({"reversion_rms_max": 0.25}, True),
            ({"reversion_rms_max": 0.1}, False),
            ({"vol_rms_max": 0.15}, True),
            ({"vol_rms_max": 0.05}, False),
        ],
    )
    def test_heston_rms_caps(self, checks, expected):
        (row,) = evaluate_thresholds("heston_rv", checks, _heston_report(0.05))
        assert row[0] == next(iter(checks))
        assert row[1] is expected
        assert "at eps 0.005" in row[2]

    @pytest.mark.parametrize("coarse_level, expected", [(0.05, True), (0.02, False)])
    def test_nonincreasing(self, coarse_level, expected):
        rows = evaluate_thresholds("heston_rv", {"nonincreasing": True}, _heston_report(coarse_level))
        assert [(name, ok) for name, ok, _ in rows] == [("nonincreasing", expected)]

    def test_rows_follow_table_order(self):
        checks = {
            "nonincreasing": True,
            "vol_rms_max": 0.3,
            "reversion_rms_max": 0.3,
            "level_rms_max": 0.1,
        }
        rows = evaluate_thresholds("heston_rv", checks, _heston_report(0.05))
        assert [name for name, _, _ in rows] == [
            "level_rms_max", "reversion_rms_max", "vol_rms_max", "nonincreasing",
        ]

"""Convergence lab: sweep engine, error metrics, checks, and pipelines.

Monte Carlo assertions here run on small deterministic ensembles (pinned
master seeds), so observed values are reproducible run to run.
"""

import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from submoments import config as config_module, estimators, lab, models
from submoments.cli import _preset_path, available_presets, main
from submoments.errors import (
    InsufficientData,
    MomentsOutsideModelRange,
    NumericalError,
    ParameterDomain,
    ResourceLimit,
    SchemeTooShortForLag,
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

from oracles import heston_core_reference, reference_endtoend_ou, reference_ensemble

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
            dict(c_delta=0.0),
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
        cfg = small_config(rho_kind="sqrt", c_rho=2.0, epsilon_grid=(0.2, 0.15, 0.1))
        assert cfg.rho_of(0.25) == pytest.approx(1.0)
        with pytest.raises(ParameterDomain, match="rho must lie in"):  # 2 * sqrt(0.3) > 1
            small_config(rho_kind="sqrt", c_rho=2.0)
        with pytest.raises(ParameterDomain, match="unknown rho kind 'table'"):
            small_config(rho_kind="table")  # cut: custom schemes pin explicit points

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(lab, "_MEMORY_CAP_BYTES", 1000)
        with pytest.raises(ResourceLimit):
            run_replications(small_config())


# every pipeline on the replication engine, with the spare blocks that set how
# far its draws run ahead of its reductions: the sweep at 1 and 2, ou_endtoend
# at the shipped count
ENGINE_RUNS = [
    pytest.param(lambda: run_replications(small_config()), 1, id="1"),
    pytest.param(lambda: run_replications(small_config()), 2, id="2"),
    pytest.param(lambda: run_endtoend_ou(TestEndToEnd.CFG), lab._SPARE_BLOCKS, id="ou_endtoend"),
]


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

    @pytest.mark.parametrize("run, spare", ENGINE_RUNS)
    def test_first_error_cancels_queued_jobs(self, monkeypatch, run, spare):
        # an error on either thread, the draw (simulate_ou, on the calling
        # thread) or the reduction (the kernel, on the reducer thread), reaches
        # the caller with its own type, stops the loop and leaves no thread
        # running; a deadlock fails instead of hanging
        simulate, kernel = lab.simulate_ou, lab.lagged_covariances
        monkeypatch.setattr(lab, "_SPARE_BLOCKS", spare)
        threads = threading.active_count()
        # the drawer fills a pool of one-block paths, then waits in the next
        # draw until the failed reduction gives its blocks back
        for side, error, bound in [("draw", NumericalError, 1), ("reduce", InsufficientData, 2 + spare)]:
            draws, kernels = [], itertools.count()

            def drawing(model, rows, step, stream, *sinks):
                draws.append(stream.replication_index)
                if side == "draw" and stream.replication_index == 0:
                    raise error("injected")
                return simulate(model, rows, step, stream, *sinks)

            def reducing(*args):
                if side == "reduce" and next(kernels) == 0:
                    raise error("injected")
                return kernel(*args)

            monkeypatch.setattr(lab, "simulate_ou", drawing)
            monkeypatch.setattr(lab, "lagged_covariances", reducing)
            raised = _within(60, run)  # 3 points x 30 reps, or 1 point x 30 reps
            assert isinstance(raised, error) and str(raised) == "injected", (side, raised)
            assert 1 <= len(draws) <= bound, (side, len(draws))
            assert threading.active_count() == threads, side

    def test_a_draw_failing_partway_through_a_path_ends_the_reducer(self, monkeypatch):
        # replication 4 fails at its 3rd 7-row block: the reducer, waiting on
        # the rest of a path it has begun to read, ends, and the error reaches
        # the caller; a deadlock fails instead of hanging
        simulate = lab.simulate_ou
        monkeypatch.setattr(models, "_FILTER_BLOCK", 7)
        threads = threading.active_count()

        def drawing(model, rows, step, stream, sink, take):
            if stream.replication_index == 4:
                takes = itertools.count(1)

                def failing(n):
                    if next(takes) == 3:
                        raise NumericalError("injected")
                    return take(n)

                return simulate(model, rows, step, stream, sink, failing)
            return simulate(model, rows, step, stream, sink, take)

        monkeypatch.setattr(lab, "simulate_ou", drawing)
        raised = _within(60, lambda: run_replications(small_config()))
        assert isinstance(raised, NumericalError) and str(raised) == "injected", raised
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "target, error, code",
        [("simulate_ou", NumericalError, 5), ("lagged_covariances", InsufficientData, 4)],
        ids=["draw", "reduce"],
    )
    def test_an_error_on_either_thread_exits_with_its_code(self, tmp_path, capsys, monkeypatch, target, error, code):
        def fail(*args):
            raise error("injected")

        monkeypatch.setattr(lab, target, fail)
        assert main(["lab", "--preset", "smoke", "--output-dir", str(tmp_path)]) == code
        assert capsys.readouterr().err.splitlines() == ["error: injected"]

    def test_budget_family_rate(self):
        cfg = small_config(
            scheme_family="from_n", n_grid=(27, 64, 125), lags=(0.0,),
            replications=60, epsilon_grid=(),
        )
        report = build_report(cfg, run_replications(cfg))
        assert report.meta["grid_kind"] == "n_obs"
        fit = report.slopes["err_x_vs_n/lag_0"]
        assert fit["slope"] < -0.1


def _within(seconds: float, fn):
    """What ``fn()`` raised, or None, run on a thread joined with a timeout, so that a
    deadlocked engine fails the test instead of hanging the suite."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)
        else:
            raised.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result after {seconds} s: deadlocked"
    return raised[0]


class TestBlockEngine:
    """The calling thread draws each path into pooled blocks, queued in row order, and the one
    reducer thread reduces it, bit for bit as the whole-path serial loops of tests/oracles.py."""

    FIELDS = ("khat_y", "khat_x", "mean_y", "mean_x")

    @pytest.mark.parametrize("block", [7, 100, 4096])
    @pytest.mark.parametrize("observable", ["identity", "multiplicative", "smoothing"])
    def test_sweep_matches_the_serial_loop(self, monkeypatch, observable, block):
        # 48-row leaves give a walk up to three windows, so 7- and 100-row blocks
        # put window edges inside blocks and block edges inside windows; stride 3
        # reads every third row
        monkeypatch.setattr(estimators, "_LEAF", 48)
        config = small_config(observable=observable, stride_resolution=3)
        want = reference_ensemble(config)
        monkeypatch.setattr(models, "_FILTER_BLOCK", block)
        threads = threading.active_count()
        ens = run_replications(config)
        for field, ref in zip(self.FIELDS, want):
            assert np.array_equal(getattr(ens, field), ref), field
        assert threading.active_count() == threads

    def test_paths_longer_than_a_block_and_a_leaf(self):
        # the shipped block and leaf sizes: each path spans two blocks and two leaves
        config = small_config(scheme_family="from_n", n_grid=(70000,), epsilon_grid=(), lags=(0.0, 1.0))
        want = reference_ensemble(config)
        ens = run_replications(config)
        for field, ref in zip(self.FIELDS, want):
            assert np.array_equal(getattr(ens, field), ref), field

    @pytest.mark.parametrize("spare", [0, 1])
    def test_a_pool_of_one_path_waits_for_the_reducer(self, monkeypatch, spare):
        # with no spare block the drawer starts a path only once the last walk
        # over the one before has given blocks back
        config = small_config(observable="multiplicative")
        want = reference_ensemble(config)
        monkeypatch.setattr(models, "_FILTER_BLOCK", 7)
        monkeypatch.setattr(lab, "_SPARE_BLOCKS", spare)
        got = []
        assert _within(60, lambda: got.append(run_replications(config))) is None
        for field, ref in zip(self.FIELDS, want):
            assert np.array_equal(getattr(got[0], field), ref), field

    def test_more_workers_than_cores_switching_often(self, monkeypatch):
        # three sweeps at once, each drawing on its own thread into its own
        # pool: six threads on 7-row blocks, with the interpreter switching
        # threads every 10 microseconds; a lost update to a pool, a path or an
        # ensemble slot would change a result or hang the run
        config = small_config(observable="multiplicative", stride_resolution=2)
        want = reference_ensemble(config)
        monkeypatch.setattr(models, "_FILTER_BLOCK", 7)
        monkeypatch.setattr(lab, "_SPARE_BLOCKS", 0)
        got, interval = [], sys.getswitchinterval()
        sweeps = [
            threading.Thread(target=lambda: got.append(run_replications(config)), daemon=True)
            for _ in range(3)
        ]
        sys.setswitchinterval(1e-5)
        try:
            for sweep in sweeps:
                sweep.start()
            assert _within(120, lambda: [sweep.join() for sweep in sweeps]) is None
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 3
        for ens in got:
            for field, ref in zip(self.FIELDS, want):
                assert np.array_equal(getattr(ens, field), ref), field

    @pytest.mark.parametrize("block", [7, 100, 4096])
    @pytest.mark.parametrize("spare", [1, 2])
    def test_endtoend_matches_the_serial_loop(self, monkeypatch, spare, block):
        rel, _, _ = reference_endtoend_ou(TestEndToEnd.CFG)
        monkeypatch.setattr(models, "_FILTER_BLOCK", block)
        monkeypatch.setattr(lab, "_SPARE_BLOCKS", spare)
        assert np.array_equal(run_endtoend_ou(TestEndToEnd.CFG).rel_errors, rel)


class TestReport:
    def test_identity_report(self, tmp_path):
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
        report.write_json(tmp_path / "report.json")
        parsed = json.loads((tmp_path / "report.json").read_text())
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
        report.write_json(tmp_path / "report.json")
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        header = lines[0].split(",")
        for line, row in zip(lines[1:], rows):
            parsed = {c: (int if c == "n_obs" else float)(v) for c, v in zip(header, line.split(","))}
            assert parsed == row


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

    @pytest.mark.parametrize("seed", [CFG.master_seed, 2026], ids=["cfg", "seed-2026"])
    def test_engine_matches_the_serial_loop(self, seed):
        config = dataclasses.replace(self.CFG, master_seed=seed)
        report = run_endtoend_ou(config)
        rel, fraction, rms = reference_endtoend_ou(config)
        assert np.array_equal(report.rel_errors, rel)
        assert report.fraction_within == fraction
        assert report.rms_rel == rms


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
        # keyed in epsilon_grid order, whichever level finishes first
        assert list(report.rms_rel) == list(report.failures) == list(config.epsilon_grid)

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

    @pytest.mark.parametrize("segment", [7, 100])
    def test_segment_boundaries(self, reference, segment, monkeypatch):
        # each chunk's coarse samples (about 85 rows a level) span several
        # 7-row segments, and some cross a 100-row segment's end
        monkeypatch.setattr(lab, "_COARSE_SEGMENT", segment)
        self.check_against(reference, self.CFG)

    def test_working_set_is_one_chunk(self):
        # at the shipped chunk size, beyond the coarse samples it holds at
        # once, the run holds one chunk of normals, paths and RV sums, and the pilot
        _, plans = _plan_heston_rv(self.CFG)
        tracemalloc.start()
        try:
            run_heston_rv(self.CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - coarse_footprint(plans, self.CFG.replications) < 2_000_000

    def test_finished_level_is_dropped(self, monkeypatch):
        # eps 0.02 has 3,083 coarse rows and finishes at fine row 37,028 of
        # 79,825, when eps 0.005 has filled about 3,700 of its 7,981; at
        # 64-row chunks the rest of the working set is small beside them
        monkeypatch.setattr(lab, "_HESTON_CHUNK", 64)
        config = dataclasses.replace(self.CFG, epsilon_grid=(0.02, 0.005))
        _, plans = _plan_heston_rv(config)
        coarse_bytes = 8 * config.replications * sum(plan.coarse_rows for plan in plans)
        assert coarse_footprint(plans, config.replications) < 0.8 * coarse_bytes
        tracemalloc.start()
        try:
            run_heston_rv(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < coarse_bytes


def coarse_footprint(plans, width: int) -> int:
    """Most coarse-sample bytes ``run_heston_rv`` holds at once.

    When a level's last coarse row lands, at the end of the chunk that steps
    its last fine row, the level is whole, the levels that finished before
    it are dropped, and every other level holds the segments its filled
    rows reach.
    """

    def ceil_to(n, unit):
        return -(-n // unit) * unit

    def held(plan, fine):  # coarse rows allocated once fine rows 0 .. fine-1 are stepped
        filled = (fine // plan.eps_stride - plan.point.offset) // plan.point.scheme.stride
        filled = min(max(filled, 0), plan.coarse_rows)
        return min(ceil_to(filled, lab._COARSE_SEGMENT), plan.coarse_rows)

    ends = [plan.point.rows * plan.eps_stride for plan in plans]
    most = 0
    for end in ends:
        fine = min(ceil_to(end, lab._HESTON_CHUNK), max(ends))
        most = max(most, sum(held(p, fine) for p, e in zip(plans, ends) if e >= end))
    return 8 * width * most


class TestRefusedBeforeAnyDraw:
    """What the covariance kernel or the pilot's realized variance would refuse after a
    draw is refused while the run is planned."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def drew(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(lab, "simulate_ou", drew)
        monkeypatch.setattr(lab, "simulate_heston", drew)

    def test_sweep_too_short_for_a_lag(self):
        # a c_n this small floors every N at 8
        with pytest.raises(SchemeTooShortForLag, match=r"n_obs=8 is below 10 \* kappa=3;"):
            run_replications(small_config(c_n=1e-300))

    def test_endtoend_too_short_for_a_lag(self):
        with pytest.raises(SchemeTooShortForLag, match=r"n_obs=8 is below 10 \* kappa=5;"):
            run_endtoend_ou(dataclasses.replace(TestEndToEnd.CFG, c_n=1e-300))

    def test_pilot_too_short_for_a_window(self):
        config = dataclasses.replace(TestHestonRVPipeline.CFG, pilot_span=0.1)
        with pytest.raises(InsufficientData, match="pilot_span 0.1 gives 5 returns at eps 0.02"):
            run_heston_rv(config)

    @pytest.mark.parametrize("replications", ["1000000000000000000", "99999999999999999999"])
    @pytest.mark.parametrize("preset", ["smoke", "ou_endtoend", "heston_rv"])
    def test_results_too_many_to_hold(self, tmp_path, capsys, preset, replications):
        # each pipeline counts its per-replication results in the memory
        # check, before it allocates them: exit 4 with one line, no traceback
        text = re.sub(r"(?m)^replications = .*$", f"replications = {replications}", _preset_path(preset).read_text())
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run needs about "), err
        assert not out.exists()


class TestInvariances:
    """Results depend on neither the replication count, the other grid points, how the seed is
    given, nor where the reports go."""

    FIELDS = TestBlockEngine.FIELDS

    def test_generic_replication_prefix(self):
        # replication rep draws only from its own stream: one more leaves the first M alone
        small, large = (run_replications(small_config(replications=m)) for m in (30, 31))
        for field in self.FIELDS:
            assert np.array_equal(getattr(large, field)[:, :30], getattr(small, field)), field

    def test_endtoend_replication_prefix(self):
        small, large = (
            run_endtoend_ou(dataclasses.replace(TestEndToEnd.CFG, replications=m)) for m in (30, 31)
        )
        assert np.array_equal(large.rel_errors[:30], small.rel_errors)

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="the pilot is drawn from the stream of replication `replications`",
    )
    def test_heston_plans_replication_prefix(self):
        small, large = (
            _plan_heston_rv(dataclasses.replace(TestHestonRVPipeline.CFG, replications=m))
            for m in (30, 31)
        )
        assert small == large

    @pytest.mark.parametrize(
        "grid, subset",
        [
            (dict(epsilon_grid=(0.3, 0.25, 0.2, 0.15)), dict(epsilon_grid=(0.3, 0.2, 0.15))),
            (
                dict(scheme_family="from_n", epsilon_grid=(), n_grid=(40, 80, 160)),
                dict(scheme_family="from_n", epsilon_grid=(), n_grid=(160, 40)),
            ),
        ],
        ids=["from_rho", "from_n"],
    )
    def test_generic_grid_subset(self, grid, subset):
        whole = run_replications(small_config(observable="identity", **grid))
        part = run_replications(small_config(observable="identity", **subset))
        at = [whole.points.index(point) for point in part.points]
        assert len(at) == len(part.points) and at != list(range(len(at)))
        for field in self.FIELDS:
            assert np.array_equal(getattr(whole, field)[at], getattr(part, field)), field

    @staticmethod
    def lab_reports(argv: list, out, capsys) -> tuple:
        """Stdout and report bytes, manifest left out, of ``lab argv`` writing to ``out``."""
        assert main(["lab", *argv, "--output-dir", str(out)]) == 0
        reports = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        return capsys.readouterr().out, reports

    def test_seed_flag_is_the_config_key(self, tmp_path, capsys):
        text = _preset_path("smoke").read_text()
        assert "master_seed = 7\n" in text
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(text.replace("master_seed = 7\n", "master_seed = 11\n"))
        flag = self.lab_reports(["--preset", "smoke", "--seed", "11"], tmp_path / "flag", capsys)
        key = self.lab_reports(["--config", str(cfg)], tmp_path / "key", capsys)
        shipped = self.lab_reports(["--preset", "smoke"], tmp_path / "shipped", capsys)
        assert flag == key and flag[1] != shipped[1]

    def test_output_place(self, tmp_path, capsys):
        a = self.lab_reports(["--preset", "smoke"], tmp_path / "a", capsys)
        b = self.lab_reports(["--preset", "smoke"], tmp_path / "elsewhere" / "b", capsys)
        assert a == b and sorted(a[1]) == ["report.csv", "report.json"]


class TestHestonChunks:
    # vol_of_vol**2 > 2 * reversion * level, so the raw variance goes
    # negative; at this seed it is negative at replication 5's second chunk
    # boundary, where it must be carried raw, not truncated
    PARAMS = HestonParams(reversion=1.3, level=0.045, vol_of_vol=0.45, drift=0.07)

    def test_a_replication_has_one_path(self, monkeypatch):
        # the seed's negative raw variance falls on a boundary of 4096-row chunks
        chunk = 4096
        monkeypatch.setattr(lab, "_HESTON_CHUNK", chunk)
        seed, rep, dt = 20260305, 5, 0.01
        length = 2 * chunk + 37
        returns, variance = simulate_heston(self.PARAMS, length, dt, RandomStreamSpec(seed, rep))
        # the scalar recursion (one column) against the row recursion (three)
        chunks = list(lab._heston_chunks(self.PARAMS, seed, [rep - 1, rep, rep + 1], length, dt))
        assert [lo for lo, _, _ in chunks] == [0, chunk, 2 * chunk]
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
        assert variance.samples[2 * chunk - 1, 0] == 0.0  # truncated at the boundary


class TestConfigHash:
    # one config of each pipeline kind
    @pytest.mark.parametrize(
        "config",
        [small_config(), TestEndToEnd.CFG, TestHestonRVPipeline.CFG],
        ids=["generic", "ou_endtoend", "heston_rv"],
    )
    def test_seed_changes_the_identity(self, config):
        base = config_hash(config)
        assert len(base) == 64
        assert config_hash(dataclasses.replace(config, master_seed=config.master_seed + 1)) != base

    # each shipped preset's run identity, as its report.json records it
    PRESET_HASHES = {
        "heston_rv": "e867818c9857cc5b39b28115968d2f48faa3d4b02deca33278326dda85fdeaff",
        "mean_rate": "68a7de93b60306fa9f060dc912f970d1da00bbff3766af39fae7d25e53c494bd",
        "ou_endtoend": "530cd25cbd478748b70f9dedf109f8d77b8162917e78b21755c941386fccd5f9",
        "ou_rate": "7d26a657de5ed993ee1374a92ca097ea6ce42a2ca79dc0af0985fcc0c2806bc2",
        "perturbation_gap": "db806ad8e6c89cd44c8a5dc9a0f12f18f4effba96d4a0cf4729ddfb5e0014ce4",
        "rho_sweep": "fd68bd5ab5a3420ca17085705f5857ce3cb9558d75d71e1c51a9ed963390936c",
        "smoke": "0a004a80840768b65e3b01d793b6892725fce867feb9f918d64a224991c414fb",
    }

    @pytest.mark.parametrize("preset", sorted(PRESET_HASHES))
    def test_presets_keep_their_identity(self, preset):
        bundle = config_module.load_config(_preset_path(preset))
        build = {
            "generic": config_module.build_experiment,
            "ou_endtoend": config_module.build_endtoend,
            "heston_rv": config_module.build_heston_rv,
        }[config_module.pipeline_kind(bundle)]
        assert config_hash(build(bundle)) == self.PRESET_HASHES[preset]

    def test_every_preset_is_pinned(self):
        assert sorted(self.PRESET_HASHES) == available_presets()


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

"""Acceptance gate: one verdict line per shipped criterion.

Each test reruns the matching preset experiment through the library
pipeline (same entry points the CLI uses) and asserts the published
threshold.  Every test prints a single

    [ACCEPT] criterion N (name): PASS/FAIL (detail)

line before asserting, so ``python3 -m pytest tests/test_acceptance.py -v -s``
doubles as a checklist printout.

Criterion 8b is expected to fail.  For this Gaussian model the measured
fourth-moment mean error decays at the same ~(span)^(-1/2) rate as the
second moment, strictly faster than the guaranteed (span)^(-1/4) floor,
so the stated slope band cannot be met by any correct estimator.  The
check is kept honest rather than widened; see README.
"""

import dataclasses
import math

import numpy as np
import pytest

from submoments import (
    DecorrelationProfile,
    decorrelation_sum_bound,
    gaussian_fourth_moment,
    invert_ou,
    lag_index,
    lagged_covariance,
    ou_moment_map,
)
from submoments.cli import _preset_path
from submoments.config import (
    assert_thresholds,
    build_bounds,
    build_endtoend,
    build_experiment,
    build_heston_rv,
    load_config,
)
from submoments.lab import (
    build_report,
    evaluate_thresholds,
    perturbation_gap_check,
    run_endtoend_ou,
    run_heston_rv,
    run_replications,
)

from oracles import lagged_covariance_product_form


def _verdict(num: str, name: str, ok: bool, detail: str) -> bool:
    print(f"[ACCEPT] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _generic_run(preset: str, **execution):
    """The preset's sweep, with ``execution`` settings (``workers``) replaced."""
    bundle = load_config(_preset_path(preset))
    config = dataclasses.replace(build_experiment(bundle), **execution)
    ensemble = run_replications(config)
    report = build_report(config, ensemble, build_bounds(bundle, config))
    return config, ensemble, report, assert_thresholds(bundle)


def _lag_slopes(report, prefix: str) -> dict:
    return {
        key.split("/")[-1]: val["slope"]
        for key, val in report.slopes.items()
        if key.startswith(prefix)
    }


@pytest.fixture(scope="module")
def ou_rate_run():
    # the report is bitwise the same at any worker count (its config_hash
    # leaves workers out), so the longest sweep runs on the 2-worker pool
    return _generic_run("ou_rate", workers=2)


@pytest.fixture(scope="module")
def gap_run():
    return _generic_run("perturbation_gap")


@pytest.fixture(scope="module")
def rho_sweep_run():
    return _generic_run("rho_sweep")


@pytest.fixture(scope="module")
def mean_rate_run():
    return _generic_run("mean_rate")


@pytest.fixture(scope="module")
def endtoend_run():
    bundle = load_config(_preset_path("ou_endtoend"))
    return run_endtoend_ou(build_endtoend(bundle)), assert_thresholds(bundle)


@pytest.fixture(scope="module")
def heston_run():
    bundle = load_config(_preset_path("heston_rv"))
    return run_heston_rv(build_heston_rv(bundle)), assert_thresholds(bundle)


def test_criterion_1_hidden_error_rate(ou_rate_run):
    # budget rule big_delta = n**(-1/3); L2 error slope vs n near -1/3 per lag
    _, _, report, _ = ou_rate_run
    lo, hi = -0.43, -0.23
    slopes = _lag_slopes(report, "err_x_vs_n/")
    ok = len(slopes) == 3 and all(lo <= s <= hi for s in slopes.values())
    listing = ", ".join(f"{k}={v:.3f}" for k, v in sorted(slopes.items()))
    assert _verdict(
        "1", "hidden-sequence error rate", ok, f"{listing}; band [{lo:g}, {hi:g}]"
    )


def test_criterion_2_bound_containment(ou_rate_run):
    _, _, report, checks = ou_rate_run
    need = checks["bound_fraction_min"]
    fr = report.bound_fractions
    ok = bool(fr) and fr["contained_x"] >= need
    detail = (
        f"contained_x={fr.get('contained_x', math.nan):.3f}, "
        f"contained_y={fr.get('contained_y', math.nan):.3f}; need >= {need:g}"
    )
    assert _verdict("2", "theoretical bound containment", ok, detail)


def test_criterion_3_perturbation_gap(gap_run):
    # gap between proxy and hidden estimators: below 4*nu*rho everywhere,
    # log-log slope vs rho equal to 1 within 0.1
    config, ensemble, report, _ = gap_run
    nu_of = lambda rho: (1.0 + rho) * config.model.l4_norm
    gap_checks = perturbation_gap_check(ensemble, nu_of)
    cov_ok = all(g.cov_ok for g in gap_checks)
    worst = max(g.gap / g.bound for g in gap_checks)
    slopes = _lag_slopes(report, "gap_vs_rho/")
    slope_ok = bool(slopes) and all(0.9 <= s <= 1.1 for s in slopes.values())
    listing = ", ".join(f"{k}={v:.3f}" for k, v in sorted(slopes.items()))
    detail = (
        f"max gap/bound={worst:.3f} (need <= 1); "
        f"slopes {listing}; band [0.9, 1.1]"
    )
    assert _verdict("3", "proxy perturbation gap", cov_ok and slope_ok, detail)


def test_criterion_4_optimized_scheme_tracks_rho(rho_sweep_run):
    # N = rho**-3, big_delta = rho: proxy error slope 1 +- 0.2 and the
    # error/rho ratio confined to a factor-3 band over the sweep
    _, _, report, checks = rho_sweep_run
    slopes = _lag_slopes(report, "err_y_vs_rho/")
    slope_ok = bool(slopes) and all(0.8 <= s <= 1.2 for s in slopes.values())
    ratios = [row["err_y_l2"] / row["rho"] for row in report.rows if row["rho"] > 0]
    spread = max(ratios) / min(ratios)
    cap = checks["ratio_band_max"]
    listing = ", ".join(f"{k}={v:.3f}" for k, v in sorted(slopes.items()))
    detail = f"slopes {listing}; band [0.8, 1.2]; ratio spread {spread:.3f} <= {cap:g}"
    assert _verdict("4", "optimized-scheme error tracks rho", slope_ok and spread <= cap, detail)


def test_criterion_5_parameter_recovery(endtoend_run):
    # closed-form inversion is a near-exact round trip on exact moments;
    # the full pipeline recovers each parameter within tolerance in >= 90%
    # of replications
    worst = 0.0
    for theta in [(0.4, 1.0, math.sqrt(2.0)), (2.0, 0.5, 1.3), (-1.0, 2.0, 0.7)]:
        for u1 in (0.5, 1.0):
            est = invert_ou(ou_moment_map(theta, u1), u1)
            truth = np.asarray(theta)
            worst = max(worst, float(np.max(np.abs(est.theta - truth) / np.abs(truth))))
            worst = max(worst, abs(est.theta[2] ** 2 - truth[2] ** 2) / truth[2] ** 2)
    roundtrip_ok = worst <= 1e-9

    report, checks = endtoend_run
    need = checks["min_fraction"]
    frac_ok = report.passed(need)
    listing = ", ".join(f"{k}={v:.3f}" for k, v in sorted(report.fraction_within.items()))
    detail = (
        f"round-trip rel err {worst:.1e} <= 1e-09; "
        f"fractions within {report.tolerance:g}: {listing}; need >= {need:g}"
    )
    assert _verdict("5", "parameter recovery round trip", roundtrip_ok and frac_ok, detail)


def test_criterion_6_heston_recovery(heston_run):
    # the preset's four [assert] thresholds, evaluated as `lab --assert` does
    report, checks = heston_run
    rows = evaluate_thresholds("heston_rv", checks, report)
    names = [name for name, _, _ in rows]
    ok = names == ["level_rms_max", "reversion_rms_max", "vol_rms_max", "nonincreasing"]
    ok = ok and all(passed for _, passed, _ in rows)
    detail = "; ".join(f"{name}: {detail}" for name, _, detail in rows)
    assert _verdict("6", "realized-volatility recovery", ok, detail)


def test_criterion_7_exact_invariants():
    failures = []
    rng = np.random.default_rng(321)

    arr = rng.standard_normal(40)
    n, kappa = 30, 2
    base = lagged_covariance(arr, n_obs=n, kappa=kappa, big_delta=0.5).matrix
    shifted = lagged_covariance(arr + 3.0, n_obs=n, kappa=kappa, big_delta=0.5).matrix
    if not np.abs(shifted - base).max() <= 1e-12:
        failures.append("shift invariance")
    scaled = lagged_covariance(3.0 * arr, n_obs=n, kappa=kappa, big_delta=0.5).matrix
    if not np.abs(scaled - 9.0 * base).max() <= 1e-12 * np.abs(base).max():
        failures.append("scaling equivariance")
    form = lagged_covariance_product_form(arr, n_obs=n, kappa=kappa)
    if not np.allclose(form, base, rtol=1e-10, atol=0.0):
        failures.append("form equivalence")

    short = rng.standard_normal(20)
    for n_s, k_s in ((20, 0), (19, 1)):
        lead, lagged = short[:n_s], short[k_s : k_s + n_s]
        mean = np.sum(lead) / n_s
        smean = np.sum(lagged) / n_s
        oracle = np.sum((lead - mean) * (lagged - smean)) / n_s
        est = lagged_covariance(short, n_obs=n_s, kappa=k_s, big_delta=1.0)
        if est.matrix[0, 0] != oracle:
            failures.append(f"brute force n={n_s} kappa={k_s}")

    if any(lag_index(0.0, bd) != 0 for bd in (0.1, 0.25, 1.0)):
        failures.append("zero-lag index")
    for bd in (0.1, 0.25, 0.5, 1.0):
        if any(
            abs(lag_index(float(u), bd) * bd - u) > bd / 2 + 1e-12
            for u in np.linspace(0.0, 5.0, 101)
        ):
            failures.append(f"lag rounding big_delta={bd}")

    profiles = [
        DecorrelationProfile.exponential(c=math.e, rate=1.0),
        DecorrelationProfile.exponential(c=2.0, rate=0.7),
        DecorrelationProfile.power(c=1.5, exponent=2.5),
        DecorrelationProfile.tabulated([1.0, 3.0], [2.0, 1.0]),
    ]
    for profile in profiles:
        for q in (2, 3, 5, 10, 50, 200):
            for d in (0.01, 0.1, 0.5, 1.0, 2.0):
                g, bound = decorrelation_sum_bound(q, d, profile)
                if not g <= bound:
                    failures.append(f"decorrelation majorant q={q} d={d}")

    if gaussian_fourth_moment(np.ones((4, 4))) != 3.0:
        failures.append("standard-normal fourth moment")

    detail = (
        "shift, scaling, form equivalence, brute force, lag rounding, "
        "decorrelation majorant, Gaussian pairing all hold"
        if not failures
        else "failed: " + "; ".join(failures)
    )
    assert _verdict("7", "exact algebraic invariants", not failures, detail)


def test_criterion_8a_mean_rate_l2(mean_rate_run):
    _, _, report, _ = mean_rate_run
    slope = report.slopes["mean_l2_vs_span"]["slope"]
    ok = -0.6 <= slope <= -0.4
    assert _verdict(
        "8a", "mean second-moment rate", ok, f"slope {slope:.3f}; band [-0.6, -0.4]"
    )


def test_criterion_8b_mean_rate_l4(mean_rate_run):
    # Expected red: the realized fourth-moment rate for this light-tailed
    # model matches the ~(span)^(-1/2) second-moment decay, faster than the
    # (span)^(-1/4) guarantee the band encodes, so the slope lands far below
    # the stated interval.  The bound still holds (criterion 2); only the
    # rate-matching band is unattainable.
    _, _, report, _ = mean_rate_run
    slope = report.slopes["mean_l4_vs_span"]["slope"]
    ok = -0.35 <= slope <= -0.15
    detail = (
        f"slope {slope:.3f}; band [-0.35, -0.15]; measured decay follows the "
        "second-moment rate, faster than the guaranteed floor"
    )
    assert _verdict("8b", "mean fourth-moment rate", ok, detail)

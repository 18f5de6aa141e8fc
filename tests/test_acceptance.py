"""Acceptance gate: one verdict line per shipped criterion.

Each criterion is one row of ``CRITERIA``: a shipped preset and the
``[CHECK]`` rows of its ``lab --preset P --assert`` run that decide it, so
every band lives in a preset's ``[assert]`` section only.  Each test prints

    [ACCEPT] criterion N (name): PASS/FAIL (detail)

before asserting, so ``python3 -m pytest tests/test_acceptance.py -v -s``
doubles as a checklist printout.

Criterion 8b is expected to fail.  For this Gaussian model the measured
fourth-moment mean error decays at the same ~(span)^(-1/2) rate as the
second moment, strictly faster than the guaranteed (span)^(-1/4) floor,
so the stated slope band cannot be met by any correct estimator.  The
check is kept honest rather than widened; see README.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from submoments import invert_ou, lag_index, lagged_covariance, ou_moment_map
from submoments.cli import available_presets, main

from oracles import lagged_covariance_product_form

# criterion -> (name, preset, the [CHECK] rows of the preset's `lab --assert` run that decide it)
CRITERIA = {
    "1": ("hidden-sequence error rate", "ou_rate", ("err_x_slope",)),
    "2": ("theoretical bound containment", "ou_rate", ("bound_fraction",)),
    "3": ("proxy perturbation gap", "perturbation_gap", ("gap_rho_slope", "gap_within_bound", "mean_within_bound")),
    "4": ("optimized-scheme error tracks rho", "rho_sweep", ("err_y_rho_slope", "ratio_band")),
    "5": ("parameter recovery round trip", "ou_endtoend", ("recovery_fraction",)),
    "6": ("realized-volatility recovery", "heston_rv", ("level_rms_max", "reversion_rms_max", "vol_rms_max", "nonincreasing")),
    "8a": ("mean second-moment rate", "mean_rate", ("mean_l2_slope",)),
    "8b": ("mean fourth-moment rate", "mean_rate", ("mean_l4_slope",)),
}

# the line `lab --assert` prints per check, as perfbench/workloads.py reads it, and its detail
_CHECK_LINE = re.compile(r"^\[CHECK\] (\S+): (PASS|FAIL) \((.*)\)$", re.M)


@pytest.fixture(scope="module")
def checks(tmp_path_factory):
    """``preset -> {check: (ok, detail)}`` from one ``lab --preset P --assert`` run of each
    shipped preset but smoke, a sanity sweep after installation rather than a paper criterion."""
    runs = {}
    for preset in sorted(set(available_presets()) - {"smoke"}):
        out, argv = io.StringIO(), ["lab", "--preset", preset, "--assert"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--output-dir", str(tmp_path_factory.mktemp(preset))])
        runs[preset] = {name: (v == "PASS", detail) for name, v, detail in _CHECK_LINE.findall(out.getvalue())}
        assert code == (0 if all(ok for ok, _ in runs[preset].values()) else 1), f"{preset} exited {code}"
    return runs


def _verdict(num: str, name: str, ok: bool, detail: str) -> bool:
    print(f"[ACCEPT] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _gate(num: str, checks, ok: bool = True, detail: str = "") -> bool:
    """The verdict of criterion ``num``: every check it names passed, and ``ok``."""
    title, preset, names = CRITERIA[num]
    got = [checks[preset].get(name, (False, "not run")) for name in names]
    listing = "; ".join(f"{name}: {d}" for name, (_, d) in zip(names, got))
    return _verdict(num, title, ok and all(passed for passed, _ in got), detail + listing)


def test_criterion_1_hidden_error_rate(checks):
    # budget rule big_delta = n**(-1/3); L2 error slope vs n near -1/3 per lag
    assert _gate("1", checks)


def test_criterion_2_bound_containment(checks):
    assert _gate("2", checks)


def test_criterion_3_perturbation_gap(checks):
    # proxy-hidden gap: below 4*nu*rho (covariance) and nu*rho (mean), slope vs rho near 1
    assert _gate("3", checks)


def test_criterion_4_optimized_scheme_tracks_rho(checks):
    # N = rho**-3, big_delta = rho: proxy error slope near 1, error/rho in a narrow band
    assert _gate("4", checks)


def test_criterion_5_parameter_recovery(checks):
    # closed-form inversion is a near-exact round trip on exact moments;
    # the full pipeline recovers each parameter within tolerance often enough
    worst = 0.0
    for theta in [(0.4, 1.0, math.sqrt(2.0)), (2.0, 0.5, 1.3), (-1.0, 2.0, 0.7)]:
        for u1 in (0.5, 1.0):
            est = invert_ou(ou_moment_map(theta, u1), u1)
            truth = np.asarray(theta)
            worst = max(worst, float(np.max(np.abs(est.theta - truth) / np.abs(truth))))
            worst = max(worst, abs(est.theta[2] ** 2 - truth[2] ** 2) / truth[2] ** 2)
    assert _gate("5", checks, worst <= 1e-9, f"round-trip rel err {worst:.1e} <= 1e-09; ")


def test_criterion_6_heston_recovery(checks):
    assert _gate("6", checks)


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

    detail = (
        "shift, scaling, form equivalence, brute force, lag rounding all hold"
        if not failures
        else "failed: " + "; ".join(failures)
    )
    assert _verdict("7", "exact algebraic invariants", not failures, detail)


def test_criterion_8a_mean_rate_l2(checks):
    assert _gate("8a", checks)


def test_criterion_8b_mean_rate_l4(checks):
    # expected red: the slope follows the second-moment decay (see the module docstring)
    assert _gate("8b", checks)


def test_every_preset_check_decides_a_criterion(checks):
    # a check no criterion names, or a criterion naming a preset or check that never runs, fails
    named = {preset: [] for preset in checks}
    for _, preset, names in CRITERIA.values():
        named[preset].extend(names)  # a KeyError: the preset is not a gated shipped one
    assert {preset: sorted(rows) for preset, rows in checks.items()} == {p: sorted(n) for p, n in named.items()}

"""Config schema validation and the four CLI subcommands.

CLI behavior is exercised through ``cli.main`` for speed; one subprocess
test covers the installed console script.
"""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import submoments
from submoments.cli import _preset_path, available_presets, main
from submoments.config import (
    _parse_schemes,
    assert_thresholds,
    build_bounds,
    build_endtoend,
    build_experiment,
    build_grid_request,
    build_heston_rv,
    build_model,
    build_run_settings,
    check_keys,
    load_config,
    pipeline_kind,
)
from submoments.errors import ParameterDomain, ResourceLimit, ValidationError
from submoments.estimators import covariance_curve, empirical_mean
from submoments.grids import (
    _BLOCK_ROWS,
    RandomStreamSpec,
    SubsamplingScheme,
    TrajectoryGrid,
    read_binary,
    read_csv,
    resolve_stride,
    subsample_sequence,
    write_binary,
    write_csv,
)
from submoments.lab import (
    THRESHOLDS,
    ConvergenceReport,
    EndToEndConfig,
    ExperimentConfig,
    HestonRVConfig,
    _plan_heston_rv,
    _plan_sweep,
)
from submoments.models import HestonParams, OUParams, ou_bound_inputs, simulate_ou

from oracles import traced_memory

OU_CFG = """
[model]
kind = ou
mean = 1.0
reversion = 1.0
noise = 1.0

[grid]
length = 3000
delta = 0.25

[run]
master_seed = 99
"""

HESTON_CFG = """
[model]
kind = heston
reversion = 1.0
level = 0.04
vol_of_vol = 0.3

[grid]
length = 200
delta = 0.01
"""


def disk_with_free(free: int):
    """A stand-in for ``shutil.disk_usage`` that reports ``free`` bytes free on any path."""
    return lambda path: types.SimpleNamespace(total=free, used=0, free=free)


def write_cfg(tmp_path, text, name="cfg.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(argv, cwd, file_size=None):
    """``submoments argv`` in a child Python, in ``cwd``; ``file_size`` caps the size of any file it
    writes (``RLIMIT_FSIZE``, with ``SIGXFSZ`` ignored so that a write past it fails)."""

    def limit():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (file_size, file_size))

    env = dict(os.environ, PYTHONPATH=str(Path(submoments.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "submoments.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300, preexec_fn=None if file_size is None else limit,
    )


class TestLoadConfig:
    def test_valid_file(self, tmp_path):
        bundle = load_config(write_cfg(tmp_path, OU_CFG))
        assert bundle.get("model", "kind") == "ou"
        assert bundle.has("grid") and not bundle.has("sweep")
        assert len(bundle.sha256) == 64
        again = load_config(write_cfg(tmp_path, OU_CFG, "copy.cfg"))
        assert again.sha256 == bundle.sha256

    def test_unknown_section(self, tmp_path):
        bundle = load_config(write_cfg(tmp_path, "[flux]\nx = 1\n"))  # parsing judges nothing
        message = "config section [flux] does not apply to the simulate command; allowed: "
        with pytest.raises(ValidationError, match=re.escape(message + "['model', 'grid', 'run']")):
            check_keys("simulate", bundle)

    def test_unknown_key_names_section_and_allowed(self, tmp_path):
        bundle = load_config(write_cfg(tmp_path, "[grid]\nstep = 0.1\n"))
        message = "config [grid] keys ['step'] do not apply to the simulate command; allowed: "
        with pytest.raises(ValidationError, match=re.escape(message + "['length', 'delta']")):
            check_keys("simulate", bundle)
        bundle = load_config(write_cfg(tmp_path, "[heston]\nbatch = 24\n"))
        message = "config [heston] keys ['batch'] do not apply to pipeline kind 'heston_rv'"
        with pytest.raises(ValidationError, match=re.escape(message + "; allowed: ['epsilons', 'u1'")):
            check_keys("heston_rv", bundle)

    def test_malformed_ini(self, tmp_path):
        path = write_cfg(tmp_path, "not an ini file at all\n")
        with pytest.raises(ValidationError, match="parse error"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestBuilders:
    def test_model_kinds(self, tmp_path):
        assert build_model(load_config(write_cfg(tmp_path, OU_CFG))) == OUParams(1.0, 1.0, 1.0)
        heston = build_model(load_config(write_cfg(tmp_path, HESTON_CFG)))
        assert heston == HestonParams(1.0, 0.04, 0.3)
        slow = build_model(
            load_config(write_cfg(tmp_path, "[model]\nkind = slow_fast\nentry = linear_coupling\nscale = 0.05\n"))
        )
        assert slow.scale == 0.05

    def test_model_kind_required(self, tmp_path):
        path = write_cfg(tmp_path, "[model]\nmean = 1\n")
        message = (
            "config [model] kind must be one of ['ou', 'heston', 'slow_fast'] "
            "for the simulate command, got None"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_keys("simulate", load_config(path))

    def test_keys_must_match_kind(self, tmp_path):
        path = write_cfg(tmp_path, "[model]\nkind = ou\nmean = 1\nlevel = 0.04\n")
        message = (
            "config [model] keys ['level'] do not apply to the simulate command with [model] "
            "kind 'ou'; allowed: ['kind', 'mean', 'reversion', 'noise']"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_keys("simulate", load_config(path))

    def test_bad_number(self, tmp_path):
        path = write_cfg(tmp_path, "[model]\nkind = ou\nmean = fast\n")
        with pytest.raises(ValidationError, match=r"\[model\] mean: expected a number"):
            build_model(load_config(path))

    def test_grid_request(self, tmp_path):
        req = build_grid_request(load_config(write_cfg(tmp_path, OU_CFG)))
        assert (req.length, req.delta) == (3000, 0.25)
        with pytest.raises(ValidationError, match="length"):
            build_grid_request(load_config(write_cfg(tmp_path, "[grid]\nlength = 0\ndelta = 1\n")))
        with pytest.raises(ValidationError, match="needs a \\[grid\\]"):
            build_grid_request(load_config(write_cfg(tmp_path, "[run]\nmaster_seed = 1\n")))
        with pytest.raises(ValidationError, match=r"needs a \[grid\] section with delta"):
            build_grid_request(load_config(write_cfg(tmp_path, "[grid]\nlength = 5\n")))

    def test_run_settings_defaults(self, tmp_path):
        # only the keys the file gives: an omitted key takes its field's default
        run = build_run_settings(load_config(write_cfg(tmp_path, "[grid]\nlength = 1\ndelta = 1\n")))
        assert run == {}
        given = write_cfg(tmp_path, "[run]\nmaster_seed = 7\n", "given.cfg")
        assert build_run_settings(load_config(given)) == {"master_seed": 7}
        bad = write_cfg(tmp_path, "[run]\nmaster_seed = many\n")
        with pytest.raises(ValidationError, match="expected an integer"):
            build_run_settings(load_config(bad))

    def test_pipeline_kind(self, tmp_path):
        assert pipeline_kind(load_config(write_cfg(tmp_path, OU_CFG))) == "generic"
        bad = write_cfg(tmp_path, "[pipeline]\nkind = quantum\n")
        with pytest.raises(ValidationError, match="kind must be one of"):
            pipeline_kind(load_config(bad))

    def test_experiment_assembly(self, tmp_path):
        text = """
[model]
kind = ou
mean = 0.5
reversion = 1
noise = 1

[run]
replications = 30
master_seed = 5

[sweep]
epsilons = 0.3, 0.25, 0.2

[observable]
kind = multiplicative

[lags]
values = 0, 1.0
horizon = 2.0
"""
        config = build_experiment(load_config(write_cfg(tmp_path, text)))
        assert config.epsilon_grid == (0.3, 0.25, 0.2)
        assert config.observable == "multiplicative"
        assert config.lags == (0.0, 1.0)
        assert config.horizon_a == 2.0
        assert config.replications == 30 and config.master_seed == 5

    def test_experiment_lags_within_horizon(self, tmp_path):
        text = "[model]\nkind = ou\n[sweep]\nepsilons = 0.3, 0.25, 0.2\n[lags]\n"
        ok = write_cfg(tmp_path, text + "values = 0, 1.0\nhorizon = 1.0\n", "ok.cfg")
        assert build_experiment(load_config(ok)).horizon_a == 1.0
        bad = write_cfg(tmp_path, text + "values = 0, 1.5\nhorizon = 1.0\n", "bad.cfg")
        with pytest.raises(ParameterDomain, match="lag 1.5 exceeds horizon 1.0"):
            build_experiment(load_config(bad))

    def test_experiment_needs_ou(self, tmp_path):
        message = "config [model] kind must be one of ['ou'] for pipeline kind 'generic', got 'heston'"
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_keys("generic", load_config(write_cfg(tmp_path, HESTON_CFG)))

    def test_bounds_modes(self, tmp_path):
        def bounds(text, name):
            sweep = "[sweep]\nepsilons = 0.3, 0.2, 0.1\n"
            bundle = load_config(write_cfg(tmp_path, OU_CFG + sweep + text, name))
            return build_bounds(bundle, build_experiment(bundle))

        model = OUParams(1.0, 1.0, 1.0)
        assert bounds("", "b0.cfg") is None
        # the bound's lag window is [0, horizon] of [lags], and [0, 1] without one
        analytic = "[bounds]\nsource = ou_analytic\n"
        assert bounds("[lags]\nhorizon = 1.5\n" + analytic, "b1.cfg") == ou_bound_inputs(model, 1.5)
        assert bounds(analytic, "b4.cfg") == ou_bound_inputs(model, 1.0)
        for body, name in (("source = explicit\n", "b2.cfg"), ("", "b3.cfg")):
            with pytest.raises(ValidationError, match="source: must be ou_analytic"):
                bounds("[bounds]\n" + body, name)

    def test_endtoend_and_heston_builders(self, tmp_path):
        e2e = write_cfg(
            tmp_path,
            "[model]\nkind = ou\nmean = 1\nreversion = 1\nnoise = 1\n"
            "[run]\nreplications = 30\n[endtoend]\nrho = 0.2\nu1 = 1\n",
            "e.cfg",
        )
        config = build_endtoend(load_config(e2e))
        assert config.rho == 0.2 and config.c_n == 12.0
        h = write_cfg(
            tmp_path,
            HESTON_CFG + "\n[run]\nreplications = 30\n[heston]\nepsilons = 0.02, 0.01\nu1 = 0.25\nu2 = 0.75\n",
            "h.cfg",
        )
        hv = build_heston_rv(load_config(h))
        assert hv.epsilon_grid == (0.02, 0.01)
        assert (hv.u1, hv.u2) == (0.25, 0.75)

    def test_assert_thresholds(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "[assert]\ngap_within_bound = yes\nmean_within_bound = off\nratio_band_max = 2.5\n",
        )
        got = assert_thresholds(load_config(path))
        assert got == {"gap_within_bound": True, "mean_within_bound": False, "ratio_band_max": 2.5}
        # each pipeline kind parses its own [assert] keys
        heston = write_cfg(tmp_path, "[pipeline]\nkind = heston_rv\n[assert]\nnonincreasing = off\n", "h.cfg")
        assert assert_thresholds(load_config(heston)) == {"nonincreasing": False}
        bad = write_cfg(tmp_path, "[assert]\nratio_band_max = wide\n", "bad.cfg")
        with pytest.raises(ValidationError, match="expected a number"):
            assert_thresholds(load_config(bad))

    def test_inline_parsers(self):
        assert _parse_schemes("sweep", "schemes", "100:0.5, 200:0.25") == (
            SubsamplingScheme(100, 0.5),
            SubsamplingScheme(200, 0.25),
        )
        with pytest.raises(ValidationError):
            _parse_schemes("sweep", "schemes", "100x0.5")

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "[model]\nkind = ou\n[sweep]\nepsilons = 0.3, 0.2, 0.1\n",
                ExperimentConfig(OUParams(), epsilon_grid=(0.3, 0.2, 0.1)),
            ),
            (
                "[model]\nkind = ou\nmean = 1\n[pipeline]\nkind = ou_endtoend\n",
                EndToEndConfig(OUParams(mean=1.0)),
            ),
            (
                "[model]\nkind = heston\n[pipeline]\nkind = heston_rv\n",
                HestonRVConfig(HestonParams()),
            ),
        ],
        ids=["generic", "ou_endtoend", "heston_rv"],
    )
    def test_omitted_keys_take_the_field_defaults(self, tmp_path, text, expected):
        build = {
            "generic": build_experiment, "ou_endtoend": build_endtoend, "heston_rv": build_heston_rv,
        }
        bundle = load_config(write_cfg(tmp_path, text))
        check_keys(pipeline_kind(bundle), bundle)
        config = build[pipeline_kind(bundle)](bundle)
        assert config == expected
        assert (config.replications, config.master_seed) == (100, 0)  # one [run] default for all kinds


class TestSchemeCommand:
    def test_requires_exactly_one_input(self, capsys):
        assert main(["scheme"]) == 2
        assert main(["scheme", "--rho", "0.1", "--n-obs", "100"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["scheme", "--n-obs", "100", "--c-n", "-5"]) == 2
        assert "--rho is needed for --c-n" in capsys.readouterr().err

    def test_rho_out_of_range(self, capsys):
        assert main(["scheme", "--rho", "2.0"]) == 3

    def test_quality_rule_output(self, capsys):
        assert main(["scheme", "--rho", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        gamma = 8.0 + 2.5 * math.sqrt(2.0)
        c_delta = 0.1 * 1000 ** (1.0 / 3.0)
        expect = 0.4 + (gamma / math.sqrt(c_delta) + c_delta) * 1000 ** (-1.0 / 3.0)
        assert payload["n_obs"] == 1000
        assert payload["big_delta"] == pytest.approx(0.1)
        assert payload["span"] == pytest.approx(100.0)
        assert payload["predicted_error"] == pytest.approx(expect, rel=1e-12)

    def test_budget_rule_output(self, capsys, tmp_path):
        out = tmp_path / "scheme.json"
        assert main(["scheme", "--n-obs", "1000", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        gamma = 8.0 + 2.5 * math.sqrt(2.0)
        assert payload["rho"] is None
        assert payload["big_delta"] == pytest.approx(0.1)
        assert payload["predicted_error"] == pytest.approx(gamma / 10.0 + 0.1, rel=1e-12)


class TestSimulateCommand:
    def test_deterministic_binary_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OU_CFG)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["simulate", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / "a.bin.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 99
        assert manifest["length"] == 3000 and manifest["delta"] == 0.25
        assert manifest["outputs"] == [str(a)]

    def test_csv_and_binary_agree(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OU_CFG)
        b, c = tmp_path / "t.bin", tmp_path / "t.csv"
        main(["simulate", "--config", str(cfg), "--output", str(b), "--length", "50"])
        main(["simulate", "--config", str(cfg), "--output", str(c), "--length", "50"])
        assert np.array_equal(read_binary(b).samples, read_csv(c).samples)

    def test_heston_writes_variance_sibling(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HESTON_CFG)
        out = tmp_path / "h.bin"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        sibling = tmp_path / "h-variance.bin"
        assert sibling.exists()
        assert np.all(read_binary(sibling).samples >= 0.0)
        manifest = json.loads((tmp_path / "h.bin.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(sibling)]

    def test_unread_run_keys_exit_three(self, tmp_path, capsys):
        # simulate steps one path from the seed; a replication count would be
        # silently ignored, and no reader takes workers
        cfg = write_cfg(tmp_path, HESTON_CFG + "\n[run]\nworkers = 2\nreplications = 500\n")
        out = tmp_path / "h.bin"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "config [run] keys ['replications', 'workers'] "
            "do not apply to the simulate command; allowed: ['master_seed']"
        ) in err
        assert not list(tmp_path.glob("h*"))

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_three(self, tmp_path, capsys, step):
        cfg = write_cfg(tmp_path, HESTON_CFG)
        out = tmp_path / "h.bin"
        argv = ["simulate", "--config", str(cfg), "--output", str(out), "--delta", step]
        assert main(argv) == 3
        assert "delta must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("h*"))

    def test_overflowing_grid_times_exit_three(self, tmp_path, capsys, monkeypatch):
        forbid_simulation(monkeypatch)
        huge = OU_CFG.replace("length = 3000", "length = 4").replace("delta = 0.25", "delta = 1e308")
        cfg = write_cfg(tmp_path, huge)
        out = tmp_path / "huge.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "grid times overflow: length 4 * delta 1e+308 is not finite" in err
        assert "Warning" not in err
        assert not list(tmp_path.glob("huge*"))

    @pytest.mark.parametrize(
        "model, message",
        [
            ("kind = ou\nmean = nan", "parameters must be finite"),
            ("kind = heston\nlevel = inf", "parameters must be finite"),
            ("kind = slow_fast\nentry = linear_coupling\nscale = inf", "scale must be positive and finite"),
            # its stationary Gamma shape overflowed: an OverflowError traceback at the first draw
            ("kind = heston\nvol_of_vol = 1e308", "stationary Gamma shape or scale overflows"),
            # the gradient_diffusion kind is cut: its old configs fail on their kind
            (
                "kind = gradient_diffusion\ncoeffs = 0, 0, nan\nsigma = 1",
                "config [model] kind must be one of ['ou', 'heston', 'slow_fast'] "
                "for the simulate command, got 'gradient_diffusion'",
            ),
        ],
        ids=["nan_mean", "inf_level", "inf_scale", "huge_vol_of_vol", "nan_coeff"],
    )
    def test_non_finite_model_parameter_exits_three(self, tmp_path, capsys, monkeypatch, model, message):
        forbid_simulation(monkeypatch)
        cfg = write_cfg(tmp_path, f"[model]\n{model}\n\n[grid]\nlength = 2000\ndelta = 0.01\n")
        out = tmp_path / "m.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 3
        assert caught == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not list(tmp_path.glob("m*"))

    def test_overflowing_price_exits_five_without_a_warning(self, tmp_path, capsys):
        # the price pass overflowed to inf, and numpy warned before the exit-5 error
        text = HESTON_CFG.replace("vol_of_vol = 0.3", "vol_of_vol = 0.3\ndrift = 1e308")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "h.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 5
        assert caught == []
        assert capsys.readouterr().err == "error: price or variance became non-finite\n"
        assert not list(tmp_path.glob("h*"))

    @pytest.mark.parametrize(
        "model, name, length, message",
        [
            # the header's int64 count overflowed: struct.error after the file was opened
            (OU_CFG, "p.bin", 2**63, "1 file(s) of 9.223e+18 rows need 7.379e+19 bytes"),
            # each file fits in the 1 MB free, the pair does not; both were written
            (OU_CFG, "p.bin", 200_000, "1 file(s) of 200000 rows need 1600024 bytes"),
            (HESTON_CFG, "h.bin", 100_000, "2 file(s) of 100000 rows need 1600048 bytes"),
            # numpy's "Maximum allowed dimension exceeded" ValueError, a traceback
            (OU_CFG, "p.csv", 2**63, "a path of 9.223e+18 rows is larger than numpy can allocate"),
            (HESTON_CFG, "h.bin", 2**62, "a path of 4.612e+18 rows is larger than numpy can allocate"),
        ],
        ids=["bin-int64", "bin-disk", "pair-disk", "csv-numpy", "heston-numpy"],
    )
    def test_output_that_cannot_be_written_exits_four(
        self, tmp_path, capsys, monkeypatch, model, name, length, message
    ):
        monkeypatch.setattr("shutil.disk_usage", disk_with_free(10**6))
        forbid_simulation(monkeypatch)
        cfg = write_cfg(tmp_path, model)
        out = tmp_path / name
        argv = ["simulate", "--config", str(cfg), "--output", str(out), "--length", str(length)]
        assert main(argv) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not list(tmp_path.glob(f"{out.stem}*"))

    @pytest.mark.parametrize(
        "model, name", [(OU_CFG, "p.bin"), (HESTON_CFG, "h.csv")], ids=["ou-bin", "heston-csv"]
    )
    def test_output_into_a_new_folder(self, tmp_path, capsys, monkeypatch, model, name):
        # the free-space check raised FileNotFoundError on the missing folder
        asked = []
        free = disk_with_free(2**40)
        monkeypatch.setattr("shutil.disk_usage", lambda path: asked.append(path) or free(path))
        cfg = write_cfg(tmp_path, model)
        out = tmp_path / "new" / "deeper" / name
        assert main(["simulate", "--config", str(cfg), "--output", str(out), "--length", "50"]) == 0
        assert asked == ([] if name.endswith(".csv") else [tmp_path])
        read = read_csv if name.endswith(".csv") else read_binary
        assert read(out).n_samples == 50
        assert (out.parent / f"{name}.manifest.json").exists()
        capsys.readouterr()

    def test_refused_output_makes_no_folder(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("shutil.disk_usage", disk_with_free(10**6))
        out = tmp_path / "new" / "p.bin"
        argv = ["simulate", "--config", str(write_cfg(tmp_path, OU_CFG)), "--output", str(out)]
        for flags, code in [
            (["--length", "200000"], 4),  # past the free disk
            (["--replication", "-1"], 3),  # refused by the stream
            (["--seed", "-3"], 3),
        ]:
            assert main([*argv, *flags]) == code, flags
            assert not (tmp_path / "new").exists(), flags
        capsys.readouterr()

    def test_flags_are_written_into_the_config(self, tmp_path, capsys):
        # --seed, --length and --delta fill [run] and [grid] and are checked as their keys are
        cfg = write_cfg(tmp_path, "[model]\nkind = ou\n")
        out = tmp_path / "f.bin"
        argv = ["simulate", "--config", str(cfg), "--output", str(out), "--length", "50"]
        assert main([*argv, "--delta", "0.1", "--seed", "7"]) == 0
        manifest = json.loads((tmp_path / "f.bin.manifest.json").read_text())
        assert (manifest["master_seed"], manifest["length"], manifest["delta"]) == (7, 50, 0.1)
        assert read_binary(out).n_samples == 50
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: config needs a [grid] section with delta\n"

    def test_unstable_slow_fast_step_exits_three(self, tmp_path, capsys):
        # scale 100 admits step 5, but the slow Euler coefficient 1 - 5 diverges:
        # refused as a parameter (exit 3), not after drawing the path (exit 5)
        cfg = write_cfg(
            tmp_path,
            "[model]\nkind = slow_fast\nentry = linear_coupling\nscale = 100\n"
            "\n[grid]\nlength = 2000\ndelta = 5\n",
        )
        out = tmp_path / "sf.bin"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "need |1 - delta_fine| < 1" in line
        assert not list(tmp_path.glob("sf*"))

    def test_failed_allocation_exits_four(self, tmp_path, capsys, monkeypatch):
        # an allocation no cap foresees, as numpy raises it; nothing is allocated here
        message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr("submoments.cli.simulate_ou", out_of_memory)
        monkeypatch.setattr("shutil.disk_usage", disk_with_free(2**62))  # the file would fit
        cfg = write_cfg(tmp_path, OU_CFG)
        out = tmp_path / "big.bin"
        argv = ["simulate", "--config", str(cfg), "--output", str(out), "--length", "10000000000000"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {message}\n"
        assert not list(tmp_path.glob("big*"))

    def test_failed_allocation_without_text_exits_four(self, tmp_path, capsys, monkeypatch):
        # a MemoryError with no message, as [None] * n raises it: no dangling colon
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr("submoments.cli.simulate_ou", out_of_memory)
        cfg = write_cfg(tmp_path, OU_CFG)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.bin")]) == 4
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_ou_binary_memory_does_not_grow_with_the_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OU_CFG)
        peaks = []
        for rows in (10**5, 10**6):
            argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.bin")]
            argv += ["--length", str(rows)]
            assert main(argv) == 0  # warm: the filter kernel's first load
            _, peak = traced_memory(lambda: main(argv))
            peaks.append(peak)
        # the 1e6-row path alone is 8 MB
        assert max(peaks) < 4 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**20
        assert read_binary(tmp_path / "x.bin").n_samples == 10**6

    def test_seed_override_changes_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OU_CFG)
        a, b = tmp_path / "s0.bin", tmp_path / "s1.bin"
        main(["simulate", "--config", str(cfg), "--output", str(a), "--length", "50"])
        main(["simulate", "--config", str(cfg), "--output", str(b), "--length", "50", "--seed", "100"])
        assert not np.array_equal(read_binary(a).samples, read_binary(b).samples)


@pytest.fixture(scope="module")
def ou_trajectory(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traj")
    cfg = tmp / "ou.cfg"
    cfg.write_text(OU_CFG)
    out = tmp / "path.bin"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    return out


class TestEstimateCommand:
    def test_matches_library_exactly(self, ou_trajectory, capsys):
        assert main(["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        grid = read_binary(ou_trajectory)
        scheme = resolve_stride(SubsamplingScheme(payload["n_obs"], 0.25), grid.delta)
        seq = subsample_sequence(grid, scheme, n_extra=4)
        curve = covariance_curve(seq, scheme, [0.0, 1.0])
        assert payload["n_obs"] == 2996 and payload["stride"] == 1
        assert payload["mean"][0] == empirical_mean(seq[:2996])[0]
        for got, est in zip(payload["covariances"], curve):
            assert got["kappa"] == est.kappa
            assert got["matrix"][0][0] == est.matrix[0, 0]

    def test_inversion_and_safeguard(self, ou_trajectory, capsys):
        assert main(
            ["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0", "--model", "ou"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        params = payload["parameters"]
        assert set(params) >= {"mean", "reversion", "noise", "truncated", "moments"}
        assert params["reversion"] > 0 and not params["truncated"]
        # a tiny safeguard ball zeroes the estimate
        assert main(
            [
                "estimate", "--input", str(ou_trajectory), "--lags", "0,1.0",
                "--model", "ou", "--ball-radius", "0.001",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["truncated"]
        assert payload["parameters"]["mean"] == 0.0

    def test_model_mean_is_the_reported_mean(self, ou_trajectory, capsys):
        # both are the mean of the first n_obs coarse samples, not of the
        # n_obs + kappa rows the lags need
        argv = ["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0", "--model", "ou"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["mean"] == payload["mean"][0]
        assert payload["parameters"]["moments"]["mean(0)"] == payload["mean"][0]

    def test_model_takes_one_kernel_pass(self, ou_trajectory, capsys, monkeypatch):
        calls = []
        kernel = submoments.estimators.lagged_covariances

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(submoments.estimators, "lagged_covariances", counted)
        argv = ["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0", "--model", "ou"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_mean_comes_from_the_kernel_pass(self, ou_trajectory, capsys, monkeypatch):
        # a separate mean would be one more walk over the .bin
        monkeypatch.setattr(
            "submoments.cli.empirical_mean", forbidden("estimate took the mean in a second pass")
        )
        assert main(["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0"]) == 0
        assert len(json.loads(capsys.readouterr().out)["mean"]) == 1

    def test_model_u1_outside_lags(self, ou_trajectory, capsys):
        # --u1 feeds the inversion only; the report lists just the --lags
        argv = ["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0", "--u1", "0.5"]
        for model in ("ou", "cir"):
            assert main([*argv, "--model", model]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert [c["lag"] for c in payload["covariances"]] == [0.0, 1.0]
            grid = read_binary(ou_trajectory)
            scheme = resolve_stride(SubsamplingScheme(payload["n_obs"], 0.25), grid.delta)
            seq = subsample_sequence(grid, scheme, n_extra=4)
            (cov_u1,) = covariance_curve(seq, scheme, [0.5])
            moments = payload["parameters"]["moments"]
            assert list(moments) == ["cov(0,0)@0", "cov(0,0)@0.5", "mean(0)"]
            assert moments["cov(0,0)@0.5"] == cov_u1.matrix[0, 0]
            assert moments["cov(0,0)@0"] == payload["covariances"][0]["matrix"][0][0]
            assert moments["mean(0)"] == payload["mean"][0]

    @pytest.fixture(scope="class")
    def two_columns(self, tmp_path_factory):
        """One 2-column path, a mix of two independent OU paths plus a shift, as .bin and .csv."""
        tmp = tmp_path_factory.mktemp("two")
        model = OUParams(mean=0.0, reversion=1.5, noise=2.0)
        u, v = (simulate_ou(model, 4000, 0.01, RandomStreamSpec(1, rep)).samples[:, 0] for rep in (0, 1))
        grid = TrajectoryGrid((np.array([[1.0, 0.5], [0.3, 1.0]]) @ [u, v]).T + [2.0, -1.0], 0.01)
        write_binary(grid, tmp / "two.bin")
        write_csv(grid, tmp / "two.csv")
        return tmp

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    @pytest.mark.parametrize("model", ["ou", "cir"])
    def test_model_refuses_more_than_one_column(self, two_columns, capsys, monkeypatch, suffix, model):
        # the inversions take one scalar path: a 2-column file exits 3 before
        # any window is reduced and before any output is written, not with
        # the parameters of its first column
        path, out = two_columns / f"two{suffix}", two_columns / "moments.json"
        argv = ["estimate", "--input", str(path), "--lags", "0,0.25", "--big-delta", "0.05"]
        monkeypatch.setattr(submoments.estimators, "lagged_covariances", forbidden("reduced a window"))
        assert main([*argv, "--model", model, "--output", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: --model needs 1 column, the file has 2"
        ]
        assert not out.exists()
        monkeypatch.undo()
        assert main(argv) == 0  # without --model the file gives its 2 x 2 matrices
        payload = json.loads(capsys.readouterr().out)
        assert [np.shape(c["matrix"]) for c in payload["covariances"]] == [(2, 2), (2, 2)]

    def test_u1_past_lags_sizes_the_sequence(self, ou_trajectory, capsys):
        # --u1 0.75 needs kappa 3 on the 0.25 grid while --lags needs only 1:
        # the lag allowance covers both
        argv = ["estimate", "--input", str(ou_trajectory), "--lags", "0,0.25", "--model", "ou"]
        assert main([*argv, "--u1", "0.75"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_obs"] == 3000 - 3
        grid = read_binary(ou_trajectory)
        scheme = resolve_stride(SubsamplingScheme(payload["n_obs"], 0.25), grid.delta)
        seq = subsample_sequence(grid, scheme, n_extra=3)
        (cov_u1,) = covariance_curve(seq, scheme, [0.75])
        assert payload["parameters"]["moments"]["cov(0,0)@0.75"] == cov_u1.matrix[0, 0]

    def test_ball_center_count_exits_two(self, tmp_path, capsys):
        # each is refused before the file is read: the input does not exist
        out = tmp_path / "moments.json"
        for flags, message in [
            (["--model", "ou", "--ball-radius", "10", "--ball-center", "0,0"], "--ball-center expects 3 values, got 2"),
            (["--u1", "1"], "--model is needed for --u1"),
            (["--ball-radius", "10"], "--model is needed for --ball-radius"),
            (["--ball-center", "1,2"], "--model is needed for --ball-center"),
            (["--model", "ou", "--ball-center", "1,2,3"], "--ball-radius is needed for --ball-center"),
        ]:
            argv = [
                "estimate", "--input", str(tmp_path / "none.bin"), "--lags", "0,1.0", *flags,
                "--output", str(out),
            ]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == "" and not out.exists()

    def test_csv_sidecar(self, ou_trajectory, tmp_path, capsys):
        csv = tmp_path / "curve.csv"
        assert main(
            ["estimate", "--input", str(ou_trajectory), "--lags", "0,0.5", "--csv", str(csv)]
        ) == 0
        assert csv.read_text().startswith("lag_requested,lag_used,n_obs,big_delta")

    def test_error_codes(self, ou_trajectory, tmp_path, capsys):
        assert main(["estimate", "--input", str(ou_trajectory), "--lags", ""]) == 2
        assert main(["estimate", "--input", str(tmp_path / "none.bin"), "--lags", "0"]) == 3
        assert main(["estimate", "--input", str(ou_trajectory), "--lags", "-1"]) == 3
        capsys.readouterr()
        # a non-finite lag is refused before the (missing) file is looked for
        assert main(["estimate", "--input", str(tmp_path / "none.bin"), "--lags", "0,nan"]) == 3
        assert "lags must be finite and >= 0, got 0,nan" in capsys.readouterr().err
        # and so is an explicit --n-obs below 2
        assert main(["estimate", "--input", str(tmp_path / "none.bin"), "--lags", "0", "--n-obs", "-5"]) == 3
        assert "--n-obs must be >= 2, got -5" in capsys.readouterr().err
        # so are the inversion flags, --offset and --big-delta
        missing = ["estimate", "--input", str(tmp_path / "none.bin"), "--lags", "0,1", "--model", "ou"]
        for flags, message in [
            (["--offset", "-1"], "offset must be >= 0, got -1"),
            (["--big-delta", "-1"], "big_delta must be positive and finite, got -1.0"),
            (["--big-delta", "0"], "big_delta must be positive and finite, got 0.0"),
            (["--big-delta", "nan"], "big_delta must be positive and finite, got nan"),
            (["--big-delta", "inf"], "big_delta must be positive and finite, got inf"),
            (["--u1", "nan"], "u1 must be positive and finite, got nan"),
            (["--u1", "-1"], "u1 must be positive and finite, got -1.0"),
            (["--ball-radius", "nan"], "radius must be positive and finite, got nan"),
            (["--ball-radius", "1", "--ball-center", "0,nan,0"], "center must be finite"),
        ]:
            assert main([*missing, *flags]) == 3
            assert message in capsys.readouterr().err
        tiny = tmp_path / "tiny.csv"
        cfg = tmp_path / "ou.cfg"
        cfg.write_text(OU_CFG)
        main(["simulate", "--config", str(cfg), "--output", str(tiny), "--length", "5"])
        capsys.readouterr()
        assert main(["estimate", "--input", str(tiny), "--lags", "0,1.0"]) == 4

    @pytest.fixture(scope="class")
    def long_grid(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("long") / "long.bin"
        samples = np.random.default_rng(8).standard_normal(200_000)
        write_binary(TrajectoryGrid(samples, 0.05), path)
        return path

    @pytest.mark.parametrize("big_delta", ["0.12", "0.08"])
    def test_lags_round_on_the_resolved_step(self, long_grid, capsys, big_delta):
        # the step-0.05 grid holds neither request: both resolve to stride 2,
        # coarse step 0.1, where lag 1 is kappa 10 (the requested steps gave 8 and 12)
        argv = ["estimate", "--input", str(long_grid), "--big-delta", big_delta, "--lags", "0,1"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stride"] == 2 and payload["big_delta"] == 0.1
        assert payload["n_obs"] == 200_000 // 2 - 10
        assert [c["kappa"] for c in payload["covariances"]] == [0, 10]

    @pytest.mark.parametrize(
        "extra, code, message",
        [
            (["--big-delta", "1e308", "--lags", "0"], 3, "overflows"),
            (["--lags", "0,1e308"], 3, "overflows"),
            # on the resolved step 0.05 the lag is a finite kappa no file can hold;
            # the message shows that 302-digit allowance in e-notation
            (["--big-delta", "1e-300", "--lags", "0,1e300"], 4, "observations"),
            # 300,000 observations and lag 1's 20 rows; the message names n_obs alone
            (["--n-obs", "300000", "--lags", "0,1"], 4, "n_obs=300000 plus 20 lag rows"),
            # an explicit --n-obs below 2 is the flag's fault, not the file's
            (["--n-obs", "-5", "--lags", "0,1"], 3, "--n-obs must be >= 2, got -5"),
            (["--n-obs", "1", "--lags", "0,1"], 3, "--n-obs must be >= 2, got 1"),
        ],
    )
    def test_huge_ratio_exits_at_the_boundary(self, long_grid, capsys, extra, code, message):
        assert main(["estimate", "--input", str(long_grid), *extra]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line and len(line) < 200

    @pytest.fixture(scope="class")
    def small_grid(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("small")
        cfg = tmp / "ou.cfg"
        cfg.write_text(OU_CFG)
        path = tmp / "small.bin"
        assert main(["simulate", "--config", str(cfg), "--output", str(path), "--length", "256"]) == 0
        return path

    # any finite float, with small ones drawn often enough that many calls succeed
    FINITE = st.one_of(st.floats(0, 4), st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=150, deadline=None)
    @given(
        big_delta=FINITE,
        lags=st.lists(FINITE, min_size=1, max_size=4),
        model=st.sampled_from([None, "ou"]),
    )
    def test_any_finite_request_exits_cleanly(self, small_grid, big_delta, lags, model):
        # success, or one error line and a documented code; never a traceback
        # (exit 1). Exit 5 is the inversion's: moments outside the model's range
        argv = [
            "estimate", "--input", str(small_grid), f"--big-delta={big_delta!r}",
            f"--lags={','.join(map(repr, lags))}", *(["--model", model] if model else []),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            assert code in ((2, 3, 4, 5) if model else (3, 4)), (code, err.getvalue())
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_non_finite_sample_rejected(self, ou_trajectory, tmp_path, capsys, suffix):
        values = read_binary(ou_trajectory).samples[:400, 0].copy()
        values[17] = np.nan
        bad = tmp_path / f"nan{suffix}"
        grid = TrajectoryGrid(values, 0.25)
        (write_csv if suffix == ".csv" else write_binary)(grid, bad)
        for extra in ([], ["--model", "ou"]):
            assert main(["estimate", "--input", str(bad), "--lags", "0,1.0", *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "non-finite sample at row 17" in captured.err

    @pytest.mark.parametrize("row", [6, 4 * _BLOCK_ROWS + 3])
    def test_non_finite_row_is_refused_before_output(self, tmp_path, capsys, row):
        # row 6 is one that stride 4 skips; the other sits in the last check block
        values = np.random.default_rng(5).standard_normal(4 * _BLOCK_ROWS + 5)
        values[row] = np.inf
        path, out = tmp_path / "bad.bin", tmp_path / "moments.json"
        write_binary(TrajectoryGrid(values, 0.25), path)
        argv = ["estimate", "--input", str(path), "--big-delta", "1", "--lags", "0,1"]
        assert main([*argv, "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {path}: non-finite sample at row {row}\n"

    def test_short_payload_exits_four_before_the_finite_check(self, tmp_path, capsys):
        # the size comes from the file's length: a NaN in what is there is never read
        values = np.ones(100)
        values[3] = np.nan
        path = tmp_path / "short.bin"
        write_binary(TrajectoryGrid(values, 0.25), path)
        path.write_bytes(path.read_bytes()[:-16])
        assert main(["estimate", "--input", str(path), "--lags", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: expected 100 values, got 98\n"

    def test_bin_and_csv_inputs_agree(self, ou_trajectory, tmp_path, capsys):
        # a .bin is reduced window by window, a .csv loaded whole: same JSON and CSV
        csv_input = tmp_path / "path.csv"
        write_csv(read_binary(ou_trajectory), csv_input)
        texts = []
        for source in (ou_trajectory, csv_input):
            sidecar = tmp_path / f"curve-{source.suffix[1:]}.csv"
            argv = [
                "estimate", "--input", str(source), "--big-delta", "0.75", "--offset", "5",
                "--n-obs", "900", "--lags", "0,1.5,1.5,3", "--model", "ou", "--csv", str(sidecar),
            ]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("csv") == str(sidecar)
            texts.append((payload, sidecar.read_text()))
        assert texts[0] == texts[1]
        assert texts[0][0]["n_obs"] == 900 and texts[0][0]["stride"] == 3

    @pytest.mark.parametrize(
        ("name", "text", "code"),
        [
            ("abc.csv", "time,x0\n0.5,1.0\n1.0,abc\n", 3),
            ("ragged.csv", "time,x0\n0.5,1.0\n1.0,2.0,3.0\n", 3),
            ("folder.csv", None, 3),
            ("folder.bin", None, 3),
            ("empty.csv", "", 4),
            ("header.csv", "time,x0\n", 4),
        ],
    )
    def test_unreadable_input_exits_with_one_line(self, tmp_path, name, text, code):
        # the first four ended in a traceback and exit 1, the last two in numpy's
        # two-line warning before their error line
        path = tmp_path / name
        path.mkdir() if text is None else path.write_text(text)
        proc = run_cli(["estimate", "--input", name, "--lags", "0"], tmp_path)
        assert proc.returncode == code
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {name}: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("stride", [1, 5])
    def test_estimate_memory_does_not_grow_with_the_file(self, tmp_path, stride):
        peaks = []
        for rows in (10**5, 10**6):
            path = tmp_path / f"{rows}.bin"
            values = np.random.default_rng(rows).standard_normal(rows)
            write_binary(TrajectoryGrid(values, 0.01), path)
            argv = [
                "estimate", "--input", str(path), f"--big-delta={0.01 * stride!r}",
                "--lags", "0,0.25,0.5,1,2", "--output", str(tmp_path / "moments.json"),
            ]
            assert main(argv) == 0  # warm: the first call's imports and caches
            _, peak = traced_memory(lambda: main(argv))
            peaks.append(peak)
        # the 1e6-row file alone is 8 MB
        assert max(peaks) < 4 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**20


class TestRefusedWrites:
    """A write the file system refuses exits 4 with one line and leaves no file behind."""

    @pytest.mark.parametrize(
        ("argv", "file_size", "refused"),
        [
            (["simulate", "--config", "ou.cfg", "--output", "p.bin", "--length", "20000"], 10**5, "p.bin"),
            (["simulate", "--config", "ou.cfg", "--output", "p.csv", "--length", "20000"], 10**5, "p.csv"),
            # a table under the write buffer's size fails only in the flush at close
            (["estimate", "--input", "in.bin", "--lags", "0,0.5,1", "--csv", "t.csv"], 100, "t.csv"),
            (["lab", "--preset", "smoke", "--output-dir", "o"], 1500, "o/report.json"),
        ],
        ids=["simulate-bin", "simulate-csv", "estimate-csv", "lab"],
    )
    def test_exits_4_and_leaves_no_file(self, tmp_path, argv, file_size, refused):
        # each ended in a traceback and exit 1; the JSON and the table were left partial
        write_cfg(tmp_path, OU_CFG, "ou.cfg")
        write_binary(TrajectoryGrid(np.random.default_rng(3).standard_normal(400), 0.25), tmp_path / "in.bin")
        proc = run_cli(argv, tmp_path, file_size)
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: cannot write {refused}: ")
        assert sorted(p.name for p in tmp_path.rglob("*") if not p.is_dir()) == ["in.bin", "ou.cfg"]

    def test_a_link_stays_and_its_target_keeps_what_was_written(self, tmp_path):
        # the link was removed, and its target left partial
        write_cfg(tmp_path, OU_CFG, "ou.cfg")
        (tmp_path / "link.bin").symlink_to("target.bin")
        argv = ["simulate", "--config", "ou.cfg", "--output", "link.bin", "--length", "20000"]
        proc = run_cli(argv, tmp_path, 10**5)
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: cannot write link.bin: ")
        assert os.readlink(tmp_path / "link.bin") == "target.bin"
        assert (tmp_path / "target.bin").stat().st_size == 10**5

    def test_a_broken_pipe_on_a_named_output_exits_4(self, tmp_path):
        # it exited 1 with an empty stderr, as for a closed stdout, and pointed stdout at /dev/null
        write_cfg(tmp_path, OU_CFG, "ou.cfg")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        (tmp_path / "link.bin").symlink_to("fifo")

        def read_1000_bytes():
            with open(fifo, "rb") as fh:
                fh.read(1000)

        reader = threading.Thread(target=read_1000_bytes, daemon=True)
        reader.start()
        try:  # 800 kB of rows: more than the pipe holds, so the writer meets the reader's close
            proc = run_cli(["simulate", "--config", "ou.cfg", "--output", "link.bin", "--length", "100000"], tmp_path)
        finally:  # a reader still waiting for a writer is let go
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.splitlines() == ["error: cannot write link.bin: Broken pipe"]
        assert os.readlink(tmp_path / "link.bin") == "fifo"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.bin", "ou.cfg"]

    @pytest.mark.parametrize(
        ("argv", "refused", "naming"),
        [
            (["estimate", "--input", "in.bin", "--lags", "0,1", "--output", "e.json", "--csv", "t.csv"],
             "t.csv", "e.json"),
            (["lab", "--preset", "smoke", "--output-dir", "o"], "o/report.csv", "o/manifest.json"),
            (["simulate", "--config", "heston.cfg", "--output", "h.bin"], "h-variance.bin", "h.bin.manifest.json"),
        ],
        ids=["estimate", "lab", "simulate"],
    )
    def test_a_file_that_names_another_is_written_after_it(self, tmp_path, capsys, monkeypatch, argv, refused, naming):
        # estimate wrote its JSON first: a refused table left a JSON that named it
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, HESTON_CFG, "heston.cfg")
        write_binary(TrajectoryGrid(np.random.default_rng(3).standard_normal(400), 0.25), tmp_path / "in.bin")
        Path(refused).parent.mkdir(exist_ok=True)
        Path(refused).symlink_to("/dev/full")
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write {refused}: No space left on device"]
        assert captured.out == "" and not Path(naming).exists()
        assert os.readlink(refused) == "/dev/full"


class TestOutputFolders:
    """Every output folder is made by one helper: one that cannot be made exits 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{cfg}", "--output", "{afile}/x.bin", "--length", "50"],
            ["scheme", "--rho", "0.1", "--output", "{afile}/s.json"],
            ["lab", "--preset", "smoke", "--output-dir", "{afile}/o"],
            ["lab", "--preset", "heston_rv", "--output-dir", "{afile}"],
            ["estimate", "--input", "{input}", "--lags", "0,1.0", "--csv", "{afile}/x.csv"],
            ["estimate", "--input", "{input}", "--lags", "0,1.0", "--output", "{afile}/x/e.json"],
            # the JSON's folder can be made, the CSV's cannot: neither file is written
            ["estimate", "--input", "{input}", "--lags", "0,1.0", "--csv", "{afile}/x.csv",
             "--output", "{tmp}/e.json"],
        ],
        ids=["simulate", "scheme", "lab", "lab-heston", "estimate", "estimate-output", "estimate-json-and-csv"],
    )
    def test_folder_through_a_plain_file_exits_three(self, tmp_path, capsys, monkeypatch, ou_trajectory, argv):
        # lab exited 3 only after every draw, and estimate only after reading the whole trajectory
        afile = tmp_path / "afile"
        afile.write_text("")
        fields = dict(cfg=write_cfg(tmp_path, OU_CFG), afile=afile, input=ou_trajectory, tmp=tmp_path)
        monkeypatch.setattr(RandomStreamSpec, "generator", forbidden("drew before refusing the output"))
        monkeypatch.setattr("submoments.cli._open_grid", forbidden("read before refusing the output"))
        assert main([arg.format(**fields) for arg in argv]) == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot make the folder of {afile}/")
        assert line.endswith(f": {afile} is not a folder")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.cfg"]

    def test_folder_through_a_dangling_link_exits_three(self, tmp_path, capsys, monkeypatch):
        # make_parent met the link only after every draw
        link, out = tmp_path / "link", tmp_path / "link" / "o"
        link.symlink_to(tmp_path / "nowhere")
        monkeypatch.setattr(RandomStreamSpec, "generator", forbidden("drew before refusing the output"))
        assert main(["lab", "--preset", "smoke", "--output-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot make the folder of {out / 'report.json'}: {link} is not a folder"
        ]
        assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["link"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["scheme", "--rho", "0.1", "--output", "{adir}"],
            ["simulate", "--config", "{cfg}", "--output", "{adir}", "--length", "50"],
            ["estimate", "--input", "{input}", "--lags", "0,1.0", "--output", "{adir}"],
            ["estimate", "--input", "{input}", "--lags", "0,1.0", "--csv", "{adir}"],
        ],
        ids=["scheme", "simulate", "estimate-output", "estimate-csv"],
    )
    def test_output_that_is_a_folder_exits_three(self, tmp_path, capsys, ou_trajectory, argv):
        # opening the folder as a file ended in an IsADirectoryError traceback
        adir = tmp_path / "adir"
        adir.mkdir()
        fields = dict(cfg=write_cfg(tmp_path, OU_CFG), adir=adir, input=ou_trajectory)
        assert main([arg.format(**fields) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write {adir}: it is a folder"]
        assert captured.out == ""
        assert not any(adir.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "cfg.cfg"]

    def test_estimate_makes_the_csv_folder(self, tmp_path, capsys, ou_trajectory):
        # a missing CSV folder ended the run after the JSON was written
        csv, out = tmp_path / "nodir" / "x.csv", tmp_path / "e.json"
        argv = ["estimate", "--input", str(ou_trajectory), "--lags", "0,1.0"]
        assert main([*argv, "--csv", str(csv), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["csv"] == str(csv)
        assert len(csv.read_text().splitlines()) == 3  # header and one row a lag


class TestRefusedBeforeTheRun:
    """An output that is a folder, that cannot be looked up, or that names a file the call
    reads or writes already, exits 3 with one error line before anything is read, drawn or
    written."""

    @pytest.mark.parametrize(
        "preset, name",
        [
            ("smoke", "report.json"), ("smoke", "report.csv"), ("smoke", "manifest.json"),
            ("ou_endtoend", "endtoend.json"), ("ou_endtoend", "manifest.json"),
            ("heston_rv", "heston_rv.json"), ("heston_rv", "manifest.json"),
        ],
    )
    def test_lab_output_that_is_a_folder(self, tmp_path, capsys, monkeypatch, preset, name):
        # each ended, after every draw, in exit 3 or an IsADirectoryError traceback
        monkeypatch.setattr(RandomStreamSpec, "generator", forbidden("drew before refusing the output"))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["lab", "--preset", preset, "--output-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write {out / name}: it is a folder"]
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == [name] and not any((out / name).iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["scheme", "--rho", "0.1", "--output", "{tmp}/{long}"],
            ["lab", "--preset", "smoke", "--output-dir", "{tmp}/{long}"],
        ],
        ids=["scheme", "lab"],
    )
    def test_output_name_too_long_exits_three(self, tmp_path, capsys, monkeypatch, argv):
        # scheme ended in an OSError traceback, and lab exited 3 only after every draw
        monkeypatch.setattr(RandomStreamSpec, "generator", forbidden("drew before refusing the output"))
        assert main([arg.format(tmp=tmp_path, long="a" * 300) for arg in argv]) == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot write ") and "too long" in line
        assert captured.out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--input", "{tmp}/q.bin", "--lags", "0,1.0", "--output", "{tmp}/q.bin"],
            ["estimate", "--input", "{tmp}/q.bin", "--lags", "0,1.0", "--csv", "{tmp}/q.bin"],
            ["estimate", "--input", "{tmp}/q.bin", "--lags", "0,1.0", "--output", "{tmp}/x", "--csv", "{tmp}/x"],
            ["estimate", "--input", "q.bin", "--lags", "0,1.0", "--output", "{tmp}/q.bin"],
            ["estimate", "--input", "{tmp}/q.bin", "--lags", "0,1.0", "--output", "{tmp}/alias.bin"],
            ["simulate", "--config", "{tmp}/c.cfg", "--output", "{tmp}/c.cfg"],
            ["simulate", "--config", "{tmp}/p-variance.cfg", "--output", "{tmp}/p.cfg"],
            ["simulate", "--config", "{tmp}/p.bin.manifest.json", "--output", "{tmp}/p.bin"],
            ["lab", "--config", "{tmp}/manifest.json", "--output-dir", "{tmp}"],
        ],
        ids=[
            "estimate-output-is-input", "estimate-csv-is-input", "estimate-output-is-csv",
            "estimate-relative-input", "estimate-output-links-to-input", "simulate-output-is-config",
            "simulate-sibling-is-config", "simulate-manifest-is-config", "lab-manifest-is-config",
        ],
    )
    def test_output_that_names_one_of_the_calls_files(self, tmp_path, capsys, monkeypatch, ou_trajectory, argv):
        # each exited 0, writing over the file it read or over its other output
        shutil.copy(ou_trajectory, tmp_path / "q.bin")
        (tmp_path / "alias.bin").symlink_to(tmp_path / "q.bin")
        write_cfg(tmp_path, OU_CFG, "c.cfg")
        write_cfg(tmp_path, HESTON_CFG, "p-variance.cfg")
        write_cfg(tmp_path, OU_CFG, "p.bin.manifest.json")
        write_cfg(tmp_path, _preset_path("smoke").read_text(), "manifest.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(RandomStreamSpec, "generator", forbidden("drew before refusing the output"))
        monkeypatch.setattr("submoments.cli._open_grid", forbidden("read before refusing the output"))
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot write ") and line.endswith("reads or writes that file")
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def preset_variant(tmp_path, replace: dict, preset: str = "smoke"):
    """A shipped preset written out with whole sections replaced."""
    sections = {**load_config(_preset_path(preset)).sections, **replace}
    text = "\n".join(
        f"[{name}]\n" + "\n".join(f"{k} = {v}" for k, v in body.items())
        for name, body in sections.items()
    )
    return write_cfg(tmp_path, text + "\n", "variant.cfg")


def forbidden(what: str):
    def fail(*args, **kwargs):
        raise AssertionError(what)

    return fail


def forbid_simulation(monkeypatch):
    fail = forbidden("the command simulated before rejecting its config")
    for name in (
        "run_replications", "run_endtoend_ou", "run_heston_rv", "simulate_ou",
        "simulate_heston", "simulate_slow_fast",
    ):
        monkeypatch.setattr(f"submoments.cli.{name}", fail)


class TestLabCommand:
    def test_presets_available(self):
        names = available_presets()
        for expected in (
            "smoke", "ou_rate", "perturbation_gap", "rho_sweep",
            "ou_endtoend", "heston_rv", "mean_rate",
        ):
            assert expected in names

    def test_config_xor_preset(self, capsys):
        assert main(["lab"]) == 2
        assert main(["lab", "--preset", "smoke", "--config", "x.cfg"]) == 2

    def test_unknown_preset_lists_options(self, capsys):
        assert main(["lab", "--preset", "warp"]) == 3
        assert "available" in capsys.readouterr().err

    def test_smoke_preset_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["lab", "--preset", "smoke", "--output-dir", str(out), "--assert"]) == 0
        stdout = capsys.readouterr().out
        assert "[CHECK]" in stdout and "FAIL" not in stdout
        for name in ("report.json", "report.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pipeline"] == "generic"
        assert (manifest["preset"], manifest["config"], manifest["master_seed"]) == ("smoke", None, 7)
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["observable"] == "multiplicative"

    def test_failed_threshold_exits_one(self, tmp_path, capsys, monkeypatch):
        cfg = preset_variant(tmp_path, {"assert": {"err_y_rho_slope_min": "5.0"}})
        monkeypatch.chdir(tmp_path)  # the manifest names the config as given: relative here
        out = tmp_path / "run"
        argv = ["lab", "--config", cfg.name, "--output-dir", str(out), "--assert", "--seed", "104"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "checks failed" in captured.err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["preset"], manifest["config"], manifest["master_seed"]) == (None, cfg.name, 104)

    def test_inapplicable_assert_key_exits_three(self, tmp_path, capsys, monkeypatch):
        # recovery and Heston thresholds on a generic sweep would never be checked
        cfg = preset_variant(
            tmp_path, {"assert": {"min_fraction": "0.99", "level_rms_max": "0.0001"}}
        )
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out), "--assert"]) == 3
        err = capsys.readouterr().err
        assert "['level_rms_max', 'min_fraction'] do not apply to pipeline kind 'generic'" in err
        assert "allowed: ['err_x_slope_min'" in err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["ou_endtoend", "heston_rv", "smoke"])
    @pytest.mark.parametrize("key", ["workers"])  # every pipeline draws on the calling thread
    def test_inapplicable_run_key_exits_three(self, tmp_path, capsys, monkeypatch, preset, key):
        bundle = load_config(_preset_path(preset))
        cfg = preset_variant(tmp_path, {"run": {**bundle.sections["run"], key: "2"}}, preset)
        kind = pipeline_kind(bundle)
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"config [run] keys ['{key}'] do not apply to pipeline kind '{kind}'" in err
        assert "allowed: ['master_seed', 'replications']" in err
        assert not out.exists()

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["lab", "--preset", "smoke", "--workers", "2", "--output-dir", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_presets_pass_check_keys(self):
        for name in available_presets():
            bundle = load_config(_preset_path(name))
            check_keys(pipeline_kind(bundle), bundle)

    @pytest.mark.parametrize(
        "reader, section, body",
        [
            ("ou_endtoend", "sweep", {"epsilons": "0.3, 0.2, 0.1"}),
            ("heston_rv", "endtoend", {"rho": "0.05"}),
            ("generic", "heston", {"u1": "0.25"}),
            ("simulate", "sweep", {"epsilons": "0.3, 0.2, 0.1"}),
        ],
    )
    def test_foreign_section_exits_three(self, tmp_path, capsys, monkeypatch, reader, section, body):
        # a section its reader does not take would be silently ignored
        out = tmp_path / "run"
        if reader == "simulate":
            lines = "".join(f"{k} = {v}\n" for k, v in body.items())
            cfg = write_cfg(tmp_path, f"{OU_CFG}[{section}]\n{lines}")
            argv = ["simulate", "--config", str(cfg), "--output", str(out)]
            name, allowed = "the simulate command", "['model', 'grid', 'run']"
        else:
            cfg = preset_variant(tmp_path, {section: body}, "smoke" if reader == "generic" else reader)
            argv = ["lab", "--config", str(cfg), "--output-dir", str(out)]
            name, allowed = f"pipeline kind '{reader}'", "['run', 'model', 'pipeline', "
        forbid_simulation(monkeypatch)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"config section [{section}] does not apply to {name}; allowed: {allowed}" in err
        assert not list(tmp_path.glob("run*"))

    def test_observable_takes_only_kind(self, tmp_path, capsys, monkeypatch):
        # the proxy level comes from [sweep] and [rho]; nothing reads [observable] rho
        cfg = preset_variant(tmp_path, {"observable": {"kind": "multiplicative", "rho": "0.9"}})
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config [observable] keys ['rho'] do not apply to pipeline kind 'generic'; allowed: ['kind']" in err
        assert not out.exists()

    def test_rho_table_exits_three(self, tmp_path, capsys, monkeypatch):
        # [rho] kind = table is cut: the custom family pins explicit points
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        message = "config [rho] kind must be one of ['identity', 'sqrt'] for pipeline kind 'generic'"
        cfg = preset_variant(tmp_path, {"rho": {"kind": "table"}})
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        assert f"{message}, got 'table'" in capsys.readouterr().err
        cfg = preset_variant(tmp_path, {"rho": {"kind": "table", "table": "0.3:0.1"}})
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        assert f"{message}, got 'table'" in capsys.readouterr().err
        assert not out.exists()

    def test_lag_past_bounds_horizon_exits_three(self, tmp_path, capsys, monkeypatch):
        # the bound holds on [0, horizon] of [lags]: [bounds] has no horizon of its own
        cfg = preset_variant(tmp_path, {"bounds": {"source": "ou_analytic", "horizon_a": "0.25"}})
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out), "--assert"]) == 3
        err = capsys.readouterr().err
        assert "config [bounds] keys ['horizon_a'] do not apply to pipeline kind 'generic'" in err
        assert not out.exists()
        # without [lags] horizon the bounds' window [0, 1] still refuses a longer lag
        cfg = preset_variant(tmp_path, {"lags": {"values": "0, 1.5"}})
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        assert "lag 1.5 exceeds horizon 1.0" in capsys.readouterr().err

    def test_lag_past_horizon_exits_three(self, tmp_path, capsys, monkeypatch):
        cfg = preset_variant(tmp_path, {"lags": {"values": "0, 0.5", "horizon": "0.25"}})
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        assert "lag 0.5 exceeds horizon 0.25" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # the fine step is min(epsilons); no key sets it
            pytest.param(
                "fine_step",
                "0.005",
                "config [heston] keys ['fine_step'] do not apply to pipeline kind 'heston_rv'",
                id="fine_step-cut",
            ),
            *(
                pytest.param(
                    "pilot_span", v, "pilot_span must be positive and finite", id=f"pilot_span-{v}"
                )
                for v in ("0", "-1", "nan", "inf")
            ),
            # 0 < u1 < u2 holds at u2 = inf; the pilot would run before the lag is refused
            pytest.param("u2", "inf", "u2 must be positive and finite, got inf", id="u2-inf"),
        ],
    )
    def test_bad_heston_step_exits_three(self, tmp_path, capsys, monkeypatch, key, value, message):
        heston = load_config(_preset_path("heston_rv")).sections["heston"]
        cfg = preset_variant(tmp_path, {"heston": {**heston, key: value}}, "heston_rv")
        forbid_simulation(monkeypatch)  # the pilot runs inside run_heston_rv
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_endtoend_tolerance_exits_three(self, tmp_path, capsys, monkeypatch, value):
        body = load_config(_preset_path("ou_endtoend")).sections["endtoend"]
        cfg = preset_variant(tmp_path, {"endtoend": {**body, "tolerance": value}}, "ou_endtoend")
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out), "--assert"]) == 3
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds",
        [
            {"nu": "nan"},
            {"lipschitz": "inf"},
            {"profile_c": "nan"},
            {"profile_rate": "inf"},
            {"profile_kind": "power", "profile_exponent": "inf"},
            {"dim_r": "1"},
            {"profile_exponent": "inf"},
        ],
    )
    def test_non_finite_bounds_exit_three(self, tmp_path, capsys, monkeypatch, bounds):
        # [bounds] derives every constant from the OU model: hand-set ones are unknown keys
        cfg = preset_variant(tmp_path, {"bounds": {"source": "ou_analytic", **bounds}})
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out), "--assert"]) == 3
        err = capsys.readouterr().err
        message = f"config [bounds] keys {sorted(bounds)} do not apply to pipeline kind 'generic'"
        assert f"{message}; allowed: ['source']" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "preset, section",
        [(None, None), ("smoke", "sweep"), ("ou_endtoend", "endtoend"), ("heston_rv", "heston")],
    )
    def test_non_finite_scheme_constant_exits_three(
        self, tmp_path, capsys, monkeypatch, preset, section, value
    ):
        out = tmp_path / "run"
        if preset is None:
            argv = ["scheme", "--rho", "0.05", "--c-n", value, "--output", str(out)]
        else:
            body = load_config(_preset_path(preset)).sections[section]
            cfg = preset_variant(tmp_path, {section: {**body, "c_n": value}}, preset)
            argv = ["lab", "--config", str(cfg), "--output-dir", str(out)]
            forbid_simulation(monkeypatch)  # the config refuses it when built
        assert main(argv) == 3
        assert f"c_n must be positive and finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, section, key, value, message",
        [
            # N = c_n * rho**-3 overflows: math.ceil of inf raised OverflowError
            *(
                pytest.param(
                    preset, section, "c_n", "1e308",
                    "N = c_n * rho**-3 is not finite at c_n 1e+308", id=f"c_n-{section}",
                )
                for preset, section in (
                    ("smoke", "sweep"), ("ou_endtoend", "endtoend"), ("heston_rv", "heston"),
                )
            ),
            # the bounds' nu and envelope read the stationary moments, which overflowed
            *(
                pytest.param(
                    "smoke", "model", key, "1e308", "stationary moments overflow", id=f"{key}-1e308"
                )
                for key in ("mean", "noise")
            ),
            # the variance underflowed to 0 and the envelope blamed a degenerate noise
            pytest.param(
                "smoke", "model", "reversion", "1e308",
                "stationary variance underflows to 0 at reversion 1e+308, noise 1.414",
                id="reversion-1e308",
            ),
            # a 3e307 coarse step: the sweep ran, and only the report writer refused inf
            pytest.param(
                "smoke", "sweep", "c_delta", "1e308",
                "span n_obs * big_delta is not finite", id="c_delta-1e308",
            ),
            # the stationary Gamma law of V(0) overflowed, or divided by 0, at the first draw:
            # a traceback with exit 1, or (reversion 1e-320) exit 5 after stepping an inf start
            *(
                pytest.param(
                    "heston_rv", "model", key, value,
                    "stationary Gamma shape or scale overflows or underflows at", id=f"{key}-{value}",
                )
                for key, value in (
                    ("vol_of_vol", "1e308"), ("vol_of_vol", "1e-300"), ("reversion", "1e-320"),
                )
            ),
            # a NaN threshold ran the whole sweep, then failed its check against nan
            pytest.param(
                "smoke", "assert", "bound_fraction_min", "nan",
                "config [assert] bound_fraction_min: expected a finite number, got 'nan'",
                id="threshold-nan",
            ),
            # mean_rate has no [bounds]: nothing else read the horizon
            *(
                pytest.param(
                    "mean_rate", "lags", "horizon", v,
                    f"horizon_a must be finite and >= 0, got {v}", id=f"horizon-{v}",
                )
                for v in ("nan", "inf")
            ),
        ],
    )
    def test_overflowing_or_non_finite_value_exits_three(
        self, tmp_path, capsys, monkeypatch, preset, section, key, value, message
    ):
        body = load_config(_preset_path(preset)).sections[section]
        cfg = preset_variant(tmp_path, {section: {**body, key: value}}, preset)
        if preset != "heston_rv":  # the Heston pilot measures rho, so it runs before N is known
            forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out), "--assert"]) == 3
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message in line
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, section, given, message",
        [
            *(
                pytest.param(
                    "perturbation_gap", "rho", {"kind": "sqrt", "c_rho": v},  # c_rho scales sqrt(eps)
                    f"c_rho must be positive and finite, got {float(v)}", id=f"c_rho-{v}",
                )
                for v in ("nan", "inf", "0", "-1")
            ),
            *(
                pytest.param(
                    "ou_rate", "sweep", {"n_values": v},
                    f"config [sweep] n_values: expected comma-separated integers, got '{v}'",
                    id=f"n_values-{bad}",
                )
                for bad, v in (("inf", "1000, inf, 100000"), ("2500.9", "1000, 2500.9"))
            ),
            # the budget family has no proxy level: a multiplicative proxy ran with y = x at rho 0
            *(
                pytest.param(
                    "ou_rate", section, {"kind": kind},
                    "from_n family samples the hidden sequence only: observable and rho_kind "
                    f"must be identity, got {got}", id=f"from_n-{kind}",
                )
                for section, kind, got in (
                    ("observable", "multiplicative", "'multiplicative' and 'identity'"),
                    ("observable", "smoothing", "'smoothing' and 'identity'"),
                    ("rho", "sqrt", "'identity' and 'sqrt'"),
                )
            ),
            # each family and [rho] kind reads its own keys: the rest were ignored; a
            # None drops the key, and the omitted family or kind takes the field's default
            *(
                pytest.param(
                    preset, section, given,
                    f"config [{section}] keys {keys} do not apply to pipeline kind 'generic' "
                    f"with {selected}; allowed: {allowed}", id=name,
                )
                for name, preset, section, given, keys, selected, allowed in (
                    (
                        "from_n-epsilons", "ou_rate", "sweep", {"epsilons": "0.3, 0.2, 0.1", "c_n": "2"},
                        ["c_n", "epsilons"], "[sweep] family 'from_n'",
                        ["family", "stride_resolution", "n_values", "c_delta"],
                    ),
                    (
                        "from_n-schemes", "ou_rate", "sweep", {"schemes": "1000:0.1"}, ["schemes"],
                        "[sweep] family 'from_n'", ["family", "stride_resolution", "n_values", "c_delta"],
                    ),
                    (
                        "no_family-n_values", "smoke", "sweep", {"family": None, "n_values": "1000, 10000"},
                        ["n_values"], "[sweep] family 'from_rho'",
                        ["family", "stride_resolution", "epsilons", "c_n", "c_delta"],
                    ),
                    (
                        "custom-c_n", "mean_rate", "sweep", {"c_n": "2", "c_delta": "1"}, ["c_delta", "c_n"],
                        "[sweep] family 'custom'", ["family", "stride_resolution", "epsilons", "schemes"],
                    ),
                    (
                        "identity-c_rho", "perturbation_gap", "rho", {"c_rho": "7"}, ["c_rho"],
                        "[rho] kind 'identity'", ["kind"],
                    ),
                    (
                        "no_rho_kind-c_rho", "smoke", "rho", {"kind": None, "c_rho": "7"}, ["c_rho"],
                        "[rho] kind 'identity'", ["kind"],
                    ),
                )
            ),
        ],
    )
    def test_bad_sweep_value_exits_three(self, tmp_path, capsys, monkeypatch, preset, section, given, message):
        body = {**load_config(_preset_path(preset)).sections.get(section, {}), **given}
        body = {k: v for k, v in body.items() if v is not None}
        cfg = preset_variant(tmp_path, {section: body}, preset)
        forbid_simulation(monkeypatch)
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("span, cap", [("1e308", None), ("1000", 10**6)])
    def test_pilot_over_memory_cap_exits_four(self, tmp_path, capsys, monkeypatch, span, cap):
        # 1e308 / the fine step overflows to inf; 1000 / 0.005 rows is 6.4 MB of
        # pilot, over a lowered cap so that a missed check allocates little
        fail = forbidden("the pilot was stepped before its size was checked")
        monkeypatch.setattr("submoments.lab._heston_core", fail)
        if cap is not None:
            monkeypatch.setattr("submoments.lab._MEMORY_CAP_BYTES", cap)
        heston = load_config(_preset_path("heston_rv")).sections["heston"]
        cfg = preset_variant(tmp_path, {"heston": {**heston, "pilot_span": span}}, "heston_rv")
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 4
        assert "GB of workspace, cap is" in capsys.readouterr().err
        assert not out.exists()

    def test_endtoend_over_memory_cap_exits_four(self, tmp_path, capsys, monkeypatch):
        # c_n = 1e9 plans 8e12 rows a path; the check comes before any draw
        body = load_config(_preset_path("ou_endtoend")).sections["endtoend"]
        cfg = preset_variant(tmp_path, {"endtoend": {**body, "c_n": "1e9"}}, "ou_endtoend")
        monkeypatch.setattr("submoments.lab.simulate_ou", forbidden("a path was drawn"))
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 4
        assert "GB of workspace, cap is" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c_n, cap", [("1e9", None), ("1", 10**7)])
    def test_heston_main_pass_over_memory_cap_exits_four(
        self, tmp_path, capsys, monkeypatch, c_n, cap
    ):
        # the short pilot runs; the main pass's coarse samples (about 1e13
        # rows at c_n = 1e9, over a 10 MB cap at c_n = 1) are refused before
        # its first draw
        draws = []
        initial = submoments.lab.heston_initial_variance

        def counted(*args, **kwargs):
            draws.append(args)
            return initial(*args, **kwargs)

        monkeypatch.setattr("submoments.lab.heston_initial_variance", counted)
        if cap is not None:
            monkeypatch.setattr("submoments.lab._MEMORY_CAP_BYTES", cap)
        heston = load_config(_preset_path("heston_rv")).sections["heston"]
        cfg = preset_variant(
            tmp_path, {"heston": {**heston, "c_n": c_n, "pilot_span": "20"}}, "heston_rv"
        )
        out = tmp_path / "run"
        assert main(["lab", "--config", str(cfg), "--output-dir", str(out)]) == 4
        assert "GB of workspace, cap is" in capsys.readouterr().err
        assert len(draws) == 1  # the pilot's initial variance only
        assert not out.exists()

    def test_without_assert_ignores_thresholds(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["lab", "--preset", "smoke", "--output-dir", str(out)]) == 0
        assert "[CHECK]" not in capsys.readouterr().out


_BAD_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-300", "x", "")

# the simulate command's configs, one per [model] kind, beside the shipped lab presets
_SIMULATE = {
    kind: {"model": {"kind": kind, **model}, "grid": {"length": "100", "delta": "0.01"},
           "run": {"master_seed": "1"}}
    for kind, model in (
        ("ou", {"mean": "0", "reversion": "1", "noise": "1"}),
        ("heston", {"reversion": "1", "level": "0.04", "vol_of_vol": "0.3", "drift": "0"}),
        ("slow_fast", {"entry": "linear_coupling", "scale": "0.1"}),
    )
}
_OU = ("mean_rate", "ou_endtoend", "ou_rate", "perturbation_gap", "rho_sweep", "smoke", "ou")
_GENERIC = ("mean_rate", "ou_rate", "perturbation_gap", "rho_sweep", "smoke")
_HESTON = ("heston_rv", "heston")
_ASSERT_KEYS = {flag: {k for checks in THRESHOLDS.values() for c in checks if c.flag == flag
                       for k in c.keys} for flag in (False, True)}

# (configs, section, keys, values, why): values a config takes, so its run goes on to draw.
# A config is a preset or a simulate model kind; None stands for every one.
_LEGAL = [
    (None, "run", {"master_seed"}, {"0"}, "a seed is any integer >= 0"),
    (_OU, "model", {"mean"}, {"-1", "1e-300"}, "any finite mean with finite stationary moments"),
    (tuple(c for c in _OU if c != "ou_endtoend"), "model", {"mean"}, {"0"},
     "ou_endtoend alone divides by the mean, to score relative errors"),
    (("mean_rate", "ou"), "model", {"noise"}, {"0"},
     "the constant-path limit, where no [bounds] or inversion needs a positive variance"),
    (_HESTON, "model", {"drift"}, {"-1", "0", "1e308", "1e-300"},
     "any finite drift; a price path that overflows exits 5 after its draw"),
    (_HESTON, "model", {"reversion", "level"}, {"1e-300"},
     "the stationary Gamma shape and scale stay finite and positive"),
    (("heston_rv",), "heston", {"c_delta"}, {"1e-300"}, "the coarse step floors at one eps step"),
    (_GENERIC, "lags", {"values"}, {"0", "1e-300"}, "a lag that is, or rounds to, 0 is the variance"),
    (_GENERIC, "lags", {"horizon"}, {"1e308"}, "a horizon only has to cover the lags"),
    (("mean_rate",), "lags", {"horizon"}, {"0", "1e-300"}, "its only lag is 0"),
    (("ou_endtoend",), "endtoend", {"tolerance"}, {"1e308", "1e-300"}, "any positive tolerance"),
    (None, "assert", _ASSERT_KEYS[False], {"-1", "0", "1e308", "1e-300"}, "any finite bound"),
    (None, "assert", _ASSERT_KEYS[True], {"0"}, "false turns the check off"),
    (("ou", "heston"), "grid", {"delta"}, {"1e-300"}, "any positive step whose grid times are finite"),
    (("slow_fast",), "model", {"scale"}, {"1e308"}, "any scale the step resolves"),
]

# (config, section, key, value): refused with exit 3 or 4, but only after a draw: the
# [heston] bounds depend on the rho the pilot path measures.
_AFTER_A_DRAW = {
    ("heston_rv", "heston", key, value) for key, value in (
        ("u1", "1e-300"), ("u2", "1e308"), ("c_n", "1e308"), ("c_n", "1e-300"),
        ("c_delta", "1e308"),
    )
}


def _is_legal(config: str, section: str, key: str, value: str) -> bool:
    return any(
        (configs is None or config in configs) and where == section
        and key in keys and value in values
        for configs, where, keys, values, _ in _LEGAL
    )


def _refused(code, lines: list, wrote: bool) -> bool:
    """Exit 3 or 4 with one error line, and nothing written."""
    return code in (3, 4) and len(lines) == 1 and lines[0].startswith("error: ") and not wrote


class _Drew(Exception):
    pass


class TestEveryKeyAtTheBoundary:
    """Every key of every shipped preset, and of a simulate config per model kind, each bad
    value in turn: refused with exit 3 or 4 and one error line, before any draw or write."""

    @staticmethod
    def _run(tmp_path, config: str, sections: dict) -> tuple:
        """``(exit code or "drew", stderr lines, wrote something)`` of one run on ``sections``."""
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()
        ))
        out = tmp_path / "out"
        if config in _SIMULATE:
            out.mkdir()
            argv = ["simulate", "--config", str(cfg), "--output", str(out / "path.bin")]
        else:
            argv = ["lab", "--config", str(cfg), "--output-dir", str(out), "--assert"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except _Drew:
                code = "drew"
            except Exception as exc:  # a traceback: listed with the other wrong outcomes
                code = repr(exc)
        wrote = out.exists() and (config not in _SIMULATE or any(out.iterdir()))
        shutil.rmtree(out, ignore_errors=True)
        return code, err.getvalue().splitlines(), wrote

    def test_every_bad_value_is_refused_before_any_draw(self, tmp_path, monkeypatch):
        def drew(self):
            raise _Drew

        monkeypatch.setattr(RandomStreamSpec, "generator", drew)
        # the parser is rebuilt on every call otherwise, half the probe's time
        build_parser = functools.cache(submoments.cli.build_parser)
        monkeypatch.setattr("submoments.cli.build_parser", build_parser)
        configs = {p: load_config(_preset_path(p)).sections for p in available_presets()}
        configs.update(_SIMULATE)
        wrong, runs = [], 0
        for config, sections in configs.items():
            for section, body in sections.items():
                for key in body:
                    for value in _BAD_VALUES:
                        case = (config, section, key, value)
                        got = self._run(tmp_path, config, {**sections, section: {**body, key: value}})
                        runs += 1
                        if _is_legal(*case) or case in _AFTER_A_DRAW:
                            ok = got == ("drew", [], False)
                        else:
                            ok = _refused(*got)
                        if not ok:
                            wrong.append(f"{case}: {got}")
        assert runs > 1000 and not wrong, "\n".join(wrong)

    @pytest.mark.parametrize("case", sorted(_AFTER_A_DRAW), ids="-".join)
    def test_a_value_refused_after_a_draw_exits_three_or_four(self, tmp_path, case):
        config, section, key, value = case
        sections = load_config(_preset_path(config)).sections
        code, lines, wrote = self._run(
            tmp_path, config, {**sections, section: {**sections[section], key: value}}
        )
        assert _refused(code, lines, wrote), (code, lines, wrote)


class TestNonFiniteOutput:
    """A NaN or infinity in a payload exits 5 before any output is opened."""

    @pytest.mark.parametrize("to_file", [False, True])
    def test_scheme_payload_with_nan(self, tmp_path, capsys, monkeypatch, to_file):
        monkeypatch.setattr("submoments.cli.error_bound_observable", lambda *args: math.nan)
        out = tmp_path / "scheme.json"
        argv = ["scheme", "--rho", "0.1", *(["--output", str(out)] if to_file else [])]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err
        assert not out.exists()

    def test_estimate_overflow_writes_nothing(self, tmp_path, capsys):
        # finite samples whose products overflow: the covariances are inf
        values = 1e200 * np.random.default_rng(3).standard_normal(400)
        path = tmp_path / "huge.bin"
        write_binary(TrajectoryGrid(values, 0.25), path)
        out, csv = tmp_path / "moments.json", tmp_path / "curve.csv"
        argv = ["estimate", "--input", str(path), "--lags", "0,1.0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise here
            assert main([*argv, "--output", str(out), "--csv", str(csv)]) == 5
            assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 2  # one error line per run
        assert all(line.startswith("error: ") for line in captured.err.splitlines())
        assert not out.exists() and not csv.exists()

    @settings(max_examples=80, deadline=None)
    @given(
        samples=st.integers(24, 80).flatmap(
            lambda rows: hnp.arrays(
                np.float64, (rows, 1),
                elements=st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False),
            )
        )
    )
    def test_estimate_json_is_finite_or_absent(self, samples):
        # finite input of any magnitude: either finite JSON or exit 5 and no file
        def reject(token):
            raise AssertionError(f"{token} in the estimate JSON")

        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "grid.bin", Path(tmp) / "moments.json"
            write_binary(TrajectoryGrid(samples, 0.25), path)
            code = main(["estimate", "--input", str(path), "--lags", "0,0.25,0.5", "--output", str(out)])
            if code == 0:
                json.loads(out.read_text(), parse_constant=reject)
            else:
                assert code == 5
                assert not out.exists()

    def test_lab_report_with_nan(self, tmp_path, capsys, monkeypatch):
        report = ConvergenceReport(
            meta={}, rows=[], mean_rows=[], bound_rows=[], bound_fractions={},
            slopes={"err_x_lag0": {"slope": math.nan, "r_squared": 1.0}},
        )
        monkeypatch.setattr("submoments.cli.run_replications", lambda config: None)
        monkeypatch.setattr("submoments.cli.build_report", lambda *args: report)
        out = tmp_path / "run"
        assert main(["lab", "--preset", "smoke", "--output-dir", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("code", [4, 5])
    def test_refused_lab_run_creates_no_directory(self, tmp_path, capsys, monkeypatch, code):
        def refuse(config):
            if code == 4:
                raise ResourceLimit("over the cap")

        report = ConvergenceReport(
            meta={}, rows=[], mean_rows=[], bound_rows=[], bound_fractions={},
            slopes={"err_x_lag0": {"slope": math.nan, "r_squared": 1.0}},
        )
        monkeypatch.setattr("submoments.cli.run_replications", refuse)
        monkeypatch.setattr("submoments.cli.build_report", lambda *args: report)
        out = tmp_path / "run"
        assert main(["lab", "--preset", "smoke", "--output-dir", str(out)]) == code
        assert not out.exists()


class TestLazyImports:
    @staticmethod
    def scipy_modules(argv: list, then: str = "") -> list:
        """scipy modules loaded by ``submoments argv`` in a fresh interpreter."""
        code = (
            "import sys\n"
            "import submoments.cli\n"
            f"assert submoments.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            + then  # checks that print nothing
        )
        env = dict(os.environ, PYTHONPATH=str(Path(submoments.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout.strip().splitlines()[-1])

    def test_cli_without_ou_simulation_skips_scipy(self):
        assert self.scipy_modules(["scheme", "--rho", "0.1"]) == []

    def test_scheme_and_estimate_skip_libcrypto(self, tmp_path):
        # hashlib loads OpenSSL's libcrypto; only a config's or a run's digest needs it
        path = tmp_path / "x.bin"
        write_binary(TrajectoryGrid(np.sin(np.arange(500.0)), 0.1), path)
        then = "assert '_hashlib' not in sys.modules\n"
        estimate = ["estimate", "--input", str(path), "--lags", "0,0.2", "--output", str(tmp_path / "m.json")]
        for argv in (["scheme", "--rho", "0.1"], estimate):
            self.scipy_modules(argv, then)

    def test_ou_simulate_loads_only_the_filter_kernel(self, tmp_path):
        cfg = write_cfg(tmp_path, OU_CFG)
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.bin")]
        # a later import of scipy.signal reuses the loaded kernel, and lfilter works
        then = (
            "kernel = sys.modules['scipy.signal._sigtools']\n"
            "import scipy.signal\n"
            "assert scipy.signal._signaltools._sigtools is kernel\n"
            "assert scipy.signal.lfilter([1.0], [1.0, -0.5], [1.0, 2.0]).tolist() == [1.0, 2.5]\n"
        )
        assert self.scipy_modules(argv, then) == ["scipy.signal._sigtools"]

    def test_parallel_ou_lab_loads_only_the_filter_kernel(self, tmp_path):
        # the reducer thread loads the OU filter while the calling thread draws
        argv = ["lab", "--preset", "smoke", "--output-dir", str(tmp_path / "run")]
        assert self.scipy_modules(argv) == ["scipy.signal._sigtools"]

    def test_ou_lab_skips_the_thread_pool_modules(self, tmp_path):
        # the sweep draws on the calling thread: no concurrent.futures, and so
        # no logging, even after a whole run
        argv = ["lab", "--preset", "smoke", "--output-dir", str(tmp_path / "run")]
        then = "assert not {'concurrent.futures', 'logging'} & set(sys.modules)\n"
        self.scipy_modules(argv, then)


class TestBenchmarkTrace:
    @staticmethod
    def child(argv: list) -> str:
        """Stdout of perfbench/child.py run with ``argv``, which must exit 0."""
        child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
        env = dict(os.environ, PYTHONPATH=str(Path(submoments.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(child), *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def trace(self, tmp_path, argv: list) -> list:
        """Span names of ``submoments argv`` run under perfbench/child.py's tracer."""
        spans = tmp_path / "spans.json"
        self.child(["trace", str(spans), *argv])
        return [span[0] for span in json.loads(spans.read_text())["spans"]]

    def test_trace_wraps_every_named_function(self, tmp_path):
        # perfbench/child.py wraps package functions by module and name and
        # raises AttributeError when one of them is no longer bound
        assert self.trace(tmp_path, ["scheme", "--rho", "0.1"])

    def test_lab_calls_the_config_builders_through_cli(self, tmp_path):
        # the tracer sees load_config, pipeline_kind, build_experiment and
        # build_bounds only where cli looks them up
        argv = ["lab", "--preset", "smoke", "--output-dir", str(tmp_path / "run")]
        names = self.trace(tmp_path, argv)
        assert names.count("config.build") == 4
        assert names.count("lab.run") == 1

    def test_ou_files_run_as_the_benchmark_runs_them(self, tmp_path):
        # cli_files' setup probe stops at cli.simulate_ou; simulate and estimate
        # run traced, with the names they call bound where the tracer wraps them
        path = tmp_path / "x.bin"
        simulate = ["simulate", "--config", str(write_cfg(tmp_path, OU_CFG)), "--output", str(path)]
        assert "first_simulation" in json.loads(self.child(["setup", *simulate]))
        assert "models.simulate_ou" in self.trace(tmp_path, simulate)
        estimate = ["estimate", "--input", str(path), "--lags", "0,1.0", "--model", "ou"]
        assert "estimators.covariance" in self.trace(tmp_path, estimate)

    @staticmethod
    def small_heston_rv(tmp_path) -> Path:
        """The heston_rv preset at 30 replications and a 50-unit pilot."""
        sections = load_config(_preset_path("heston_rv")).sections
        small = {
            "run": {**sections["run"], "replications": 30},
            "heston": {**sections["heston"], "pilot_span": 50},
        }
        return preset_variant(tmp_path, small, "heston_rv")

    def test_heston_runs_as_the_benchmark_runs_them(self, tmp_path):
        # heston_rv's setup probe stops at lab.heston_initial_variance, and
        # models.heston_steps counts lab._heston_core calls: both see the
        # Heston loop only while it draws and steps in lab
        cfg = self.small_heston_rv(tmp_path)
        lab = ["lab", "--config", str(cfg), "--output-dir", str(tmp_path / "run")]
        assert "first_simulation" in json.loads(self.child(["setup", *lab]))
        spans = tmp_path / "spans.json"
        cfg = write_cfg(tmp_path, HESTON_CFG)
        simulate = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "h.bin")]
        self.child(["trace", str(spans), *simulate, "--length", "10000"])
        trace = json.loads(spans.read_text())
        assert "models.heston_core" in [span[0] for span in trace["spans"]]
        assert trace["counts"]["models.heston_steps"] == 10000

    def test_ou_rate_runs_as_the_benchmark_runs_it(self, tmp_path):
        # ou_rate's setup probe stops at lab.simulate_ou, which the replication
        # engine calls on the calling thread, once per (point, replication) pair.
        # Every draw is made there, inside simulate_ou, through the stream's
        # generator: the spans nest in the tracer's one stack, and the normals
        # it counts are the planned ones
        sections = load_config(_preset_path("ou_rate")).sections
        small = {
            "run": {**sections["run"], "replications": 30},
            "sweep": {**sections["sweep"], "n_values": "1000, 10000"},
        }
        cfg = preset_variant(tmp_path, small, "ou_rate")
        lab = ["lab", "--config", str(cfg), "--output-dir", str(tmp_path / "run")]
        assert "first_simulation" in json.loads(self.child(["setup", *lab]))
        assert self.trace(tmp_path, lab).count("models.simulate_ou") == 2 * 30
        trace = json.loads((tmp_path / "spans.json").read_text())
        layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
        spec = importlib.util.spec_from_file_location("perfbench_layers", layers)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.nesting_errors(trace["spans"]) == []
        planned = sum(p.rows for p in _plan_sweep(build_experiment(load_config(cfg))))
        assert trace["counts"]["grids.normals_count"] == planned * 30

    def test_heston_rv_draws_what_its_plan_says(self, tmp_path):
        # the pilot steps P fine rows and each of R replications the longest
        # level's L: two normals a step, and one gamma draw for each path's V(0)
        cfg = self.small_heston_rv(tmp_path)
        self.trace(tmp_path, ["lab", "--config", str(cfg), "--output-dir", str(tmp_path / "run")])
        counts = json.loads((tmp_path / "spans.json").read_text())["counts"]
        config = build_heston_rv(load_config(cfg))
        delta_f, plans = _plan_heston_rv(config)
        pilot, reps = math.ceil(config.pilot_span / delta_f), config.replications
        length = max(point.rows * s for s, point in plans)
        assert counts["grids.normals_count"] == 2 * pilot + 1 + reps * (2 * length + 1)
        assert counts["models.heston_steps"] == pilot + reps * length


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("argv", [["scheme", "--rho", "0.1"], ["lab", "--preset", "smoke"]])
    def test_exits_1_without_a_traceback(self, tmp_path, argv, buffered):
        # as `submoments scheme --rho 0.1 | head -0`: the reader of stdout has gone
        env = dict(os.environ, PYTHONPATH=str(Path(submoments.__file__).parents[1]), PYTHONUNBUFFERED="1")
        if buffered:  # stdout fails at the last flush rather than at the first print
            del env["PYTHONUNBUFFERED"]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "submoments.cli", *argv], cwd=tmp_path, env=env,
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")
        if argv[0] == "lab":  # every file is written before the first line is printed
            assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "report.csv", "report.json"]

    def test_a_named_output_into_it_exits_4(self, tmp_path):
        # as `submoments scheme --rho 0.1 --output /dev/stdout | head -0`: a file was named, so the
        # broken pipe is a refused write; it exited 1 with an empty stderr
        env = dict(os.environ, PYTHONPATH=str(Path(submoments.__file__).parents[1]))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "submoments.cli", "scheme", "--rho", "0.1", "--output", "/dev/stdout"],
                cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (4, "error: cannot write /dev/stdout: Broken pipe\n")


class TestConsoleScript:
    def test_version_via_entry_point(self):
        exe = shutil.which("submoments")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "submoments 0.1.0"

"""INI-style configuration files for models, sweeps, and pipelines.

Sections hold ``key = value`` pairs; unknown sections or keys are rejected
by name so typos fail loudly instead of silently running defaults.  The
same schema serves the trajectory simulator (model + grid) and the
convergence lab (pipeline + sweep + asserts).
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import SubsamplingScheme
from .lab import THRESHOLDS, EndToEndConfig, ExperimentConfig, HestonRVConfig
from .models import (
    GradientDiffusionParams,
    HestonParams,
    OUParams,
    SlowFastParams,
    ou_bound_inputs,
)
from .schemes import BoundInputs, DecorrelationProfile

# [run] keys each pipeline kind reads; only the generic sweep has a pool and an
# ensemble, and the simulate command steps one path from the seed alone
_COMMON_RUN_KEYS = ("master_seed", "replications")
_RUN_KEYS = {
    "generic": (*_COMMON_RUN_KEYS, "workers", "save_ensemble"),
    "ou_endtoend": _COMMON_RUN_KEYS,
    "heston_rv": _COMMON_RUN_KEYS,
    "simulate": ("master_seed",),
}

_SECTION_KEYS = {
    "run": set(_RUN_KEYS["generic"]),
    "model": {
        "kind", "mean", "reversion", "noise", "level", "vol_of_vol", "drift",
        "coeffs", "sigma", "name", "entry", "scale",
    },
    "grid": {"length", "delta"},
    "observable": {"kind", "rho", "eps", "window"},
    "pipeline": {"kind"},
    "sweep": {
        "family", "epsilons", "n_values", "c_n", "c_delta",
        "stride_resolution", "schemes",
    },
    "rho": {"kind", "c_rho", "table"},
    "lags": {"values", "horizon"},
    "bounds": {
        "source", "nu", "horizon_a", "dim_r", "lipschitz",
        "profile_kind", "profile_c", "profile_rate", "profile_exponent",
    },
    "endtoend": {"rho", "c_n", "c_delta", "u1", "tolerance"},
    "heston": {"epsilons", "u1", "u2", "c_n", "c_delta", "fine_step", "pilot_span"},
    "assert": {key for checks in THRESHOLDS.values() for check in checks for key in check.keys},
}

_ASSERT_FLAGS = {
    key for checks in THRESHOLDS.values() for check in checks if check.flag for key in check.keys
}

_MODEL_KEYS = {
    "ou": {"kind", "mean", "reversion", "noise"},
    "heston": {"kind", "reversion", "level", "vol_of_vol", "drift"},
    "gradient_diffusion": {"kind", "coeffs", "sigma", "name"},
    "slow_fast": {"kind", "entry", "scale"},
}

_PIPELINES = tuple(THRESHOLDS)


@dataclass
class ConfigBundle:
    """Validated raw sections of one config file."""

    sections: dict
    sha256: str
    path: str | None = None

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def has(self, section: str) -> bool:
        return section in self.sections


def _fail(section: str, key: str, message: str):
    raise ValidationError(f"config [{section}] {key}: {message}")


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        _fail(section, key, f"expected a number, got {raw!r}")


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"expected an integer, got {raw!r}")


def _as_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    _fail(section, key, f"expected a boolean, got {raw!r}")


def _as_float_list(section: str, key: str, raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        _fail(section, key, f"expected comma-separated numbers, got {raw!r}")


def load_config(path) -> ConfigBundle:
    """Parse and validate one config file against the section schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    sections: dict = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ValidationError(
                f"config section [{name}] is not recognized; "
                f"known sections: {sorted(_SECTION_KEYS)}"
            )
        allowed = _SECTION_KEYS[name]
        body = {}
        for key, value in parser.items(name):
            if key not in allowed:
                raise ValidationError(
                    f"config [{name}] has unknown key {key!r}; "
                    f"allowed: {sorted(allowed)}"
                )
            body[key] = value
        sections[name] = body
    digest = hashlib.sha256(text.encode()).hexdigest()
    return ConfigBundle(sections=sections, sha256=digest, path=str(path))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_model(bundle: ConfigBundle):
    """Instantiate the [model] section; the kind selects the parameter set."""
    if not bundle.has("model"):
        raise ValidationError("config needs a [model] section")
    body = bundle.sections["model"]
    kind = body.get("kind")
    if kind not in _MODEL_KEYS:
        raise ValidationError(
            f"config [model] kind must be one of {sorted(_MODEL_KEYS)}, got {kind!r}"
        )
    extra = set(body) - _MODEL_KEYS[kind]
    if extra:
        raise ValidationError(
            f"config [model] keys {sorted(extra)} do not apply to kind {kind!r}"
        )
    if kind == "ou":
        params = OUParams(
            mean=_as_float("model", "mean", body.get("mean", "0")),
            reversion=_as_float("model", "reversion", body.get("reversion", "1")),
            noise=_as_float("model", "noise", body.get("noise", "1")),
        )
        params.validate()
        return params
    if kind == "heston":
        params = HestonParams(
            reversion=_as_float("model", "reversion", body.get("reversion", "1")),
            level=_as_float("model", "level", body.get("level", "0.04")),
            vol_of_vol=_as_float("model", "vol_of_vol", body.get("vol_of_vol", "0.3")),
            drift=_as_float("model", "drift", body.get("drift", "0")),
        )
        params.validate()
        return params
    if kind == "gradient_diffusion":
        coeffs = _as_float_list("model", "coeffs", body.get("coeffs", ""))
        sigma_flat = _as_float_list("model", "sigma", body.get("sigma", "1"))
        r = int(math.isqrt(len(sigma_flat)))
        if r * r != len(sigma_flat):
            _fail("model", "sigma", "needs a square number of entries (row-major)")
        params = GradientDiffusionParams(
            potential_coeffs=coeffs,
            sigma=np.array(sigma_flat).reshape(r, r),
            name=body.get("name", "polynomial"),
        )
        params.validate()
        return params
    params = SlowFastParams(
        entry=body.get("entry", "linear_coupling"),
        scale=_as_float("model", "scale", body.get("scale", "0.1")),
    )
    params.validate()
    return params


@dataclass(frozen=True)
class GridRequest:
    length: int
    delta: float


def build_grid_request(bundle: ConfigBundle) -> GridRequest:
    if not bundle.has("grid"):
        raise ValidationError("config needs a [grid] section with length and delta")
    body = bundle.sections["grid"]
    length = _as_int("grid", "length", body.get("length", "0"))
    delta = _as_float("grid", "delta", body.get("delta", "0"))
    if length < 1:
        _fail("grid", "length", "must be >= 1")
    if delta <= 0:
        _fail("grid", "delta", "must be > 0")
    return GridRequest(length=length, delta=delta)


def build_run_settings(bundle: ConfigBundle) -> dict:
    body = bundle.sections.get("run", {})
    return {
        "master_seed": _as_int("run", "master_seed", body.get("master_seed", "0")),
        "replications": _as_int("run", "replications", body.get("replications", "100")),
        "workers": _as_int("run", "workers", body.get("workers", "1")),
        "save_ensemble": _as_bool("run", "save_ensemble", body.get("save_ensemble", "false")),
    }


def pipeline_kind(bundle: ConfigBundle) -> str:
    kind = bundle.get("pipeline", "kind", "generic")
    if kind not in _PIPELINES:
        raise ValidationError(
            f"config [pipeline] kind must be one of {_PIPELINES}, got {kind!r}"
        )
    return kind


def check_run_keys(kind: str, bundle: ConfigBundle) -> None:
    """Reject ``[run]`` keys that pipeline ``kind``, or ``"simulate"``, does not read."""
    extra = sorted(set(bundle.sections.get("run", {})) - set(_RUN_KEYS[kind]))
    if extra:
        reader = "the simulate command" if kind == "simulate" else f"pipeline kind {kind!r}"
        raise ValidationError(
            f"config [run] keys {extra} do not apply to {reader}; "
            f"allowed: {list(_RUN_KEYS[kind])}"
        )


def _parse_schemes(raw: str) -> tuple:
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_str, d_str = chunk.split(":")
            out.append(SubsamplingScheme(n_obs=int(n_str), big_delta=float(d_str)))
        except (ValueError, TypeError):
            _fail("sweep", "schemes", f"expected n_obs:big_delta pairs, got {chunk!r}")
    return tuple(out)


def _parse_rho_table(raw: str) -> tuple:
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            eps_str, rho_str = chunk.split(":")
            out.append((float(eps_str), float(rho_str)))
        except ValueError:
            _fail("rho", "table", f"expected eps:rho pairs, got {chunk!r}")
    return tuple(out)


def build_experiment(bundle: ConfigBundle) -> ExperimentConfig:
    """Assemble the generic sweep configuration."""
    model = build_model(bundle)
    if not isinstance(model, OUParams):
        raise ValidationError("the generic sweep pipeline uses the ou model")
    run = build_run_settings(bundle)
    sweep = bundle.sections.get("sweep", {})
    rho = bundle.sections.get("rho", {})
    lags = bundle.sections.get("lags", {})
    obs = bundle.sections.get("observable", {})
    horizon_raw = lags.get("horizon")
    config = ExperimentConfig(
        model=model,
        observable=obs.get("kind", "identity"),
        rho_kind=rho.get("kind", "identity"),
        c_rho=_as_float("rho", "c_rho", rho.get("c_rho", "1")),
        rho_table=_parse_rho_table(rho.get("table", "")),
        epsilon_grid=_as_float_list("sweep", "epsilons", sweep.get("epsilons", "")),
        n_grid=tuple(
            int(v) for v in _as_float_list("sweep", "n_values", sweep.get("n_values", ""))
        ),
        scheme_family=sweep.get("family", "from_rho"),
        c_n=_as_float("sweep", "c_n", sweep.get("c_n", "1")),
        c_delta=_as_float("sweep", "c_delta", sweep.get("c_delta", "1")),
        custom_schemes=_parse_schemes(sweep.get("schemes", "")),
        lags=_as_float_list("lags", "values", lags.get("values", "0")),
        horizon_a=None if horizon_raw is None else _as_float("lags", "horizon", horizon_raw),
        replications=run["replications"],
        master_seed=run["master_seed"],
        stride_resolution=_as_int(
            "sweep", "stride_resolution", sweep.get("stride_resolution", "1")
        ),
        workers=run["workers"],
    )
    config.validate()
    return config


def build_bounds(bundle: ConfigBundle, model) -> BoundInputs | None:
    """Assemble [bounds]; ``source = ou_analytic`` derives them from the model."""
    if not bundle.has("bounds"):
        return None
    body = bundle.sections["bounds"]
    source = body.get("source", "explicit")
    if source == "ou_analytic":
        if not isinstance(model, OUParams):
            raise ValidationError("[bounds] source ou_analytic needs the ou model")
        horizon = _as_float("bounds", "horizon_a", body.get("horizon_a", "1"))
        return ou_bound_inputs(model, horizon)
    if source != "explicit":
        _fail("bounds", "source", "must be ou_analytic or explicit")
    kind = body.get("profile_kind", "exponential")
    if kind == "exponential":
        profile = DecorrelationProfile.exponential(
            c=_as_float("bounds", "profile_c", body.get("profile_c", "1")),
            rate=_as_float("bounds", "profile_rate", body.get("profile_rate", "1")),
        )
    elif kind == "power":
        profile = DecorrelationProfile.power(
            c=_as_float("bounds", "profile_c", body.get("profile_c", "1")),
            exponent=_as_float("bounds", "profile_exponent", body.get("profile_exponent", "2")),
        )
    else:
        _fail("bounds", "profile_kind", "must be exponential or power")
    return BoundInputs(
        nu=_as_float("bounds", "nu", body.get("nu", "1")),
        horizon_a=_as_float("bounds", "horizon_a", body.get("horizon_a", "1")),
        dim_r=_as_int("bounds", "dim_r", body.get("dim_r", "1")),
        profile=profile,
        lipschitz_lambda=_as_float("bounds", "lipschitz", body.get("lipschitz", "1")),
    )


def build_endtoend(bundle: ConfigBundle) -> EndToEndConfig:
    model = build_model(bundle)
    if not isinstance(model, OUParams):
        raise ValidationError("the end-to-end pipeline uses the ou model")
    run = build_run_settings(bundle)
    body = bundle.sections.get("endtoend", {})
    config = EndToEndConfig(
        model=model,
        rho=_as_float("endtoend", "rho", body.get("rho", "0.05")),
        c_n=_as_float("endtoend", "c_n", body.get("c_n", "12")),
        c_delta=_as_float("endtoend", "c_delta", body.get("c_delta", "1")),
        u1=_as_float("endtoend", "u1", body.get("u1", "1")),
        replications=run["replications"],
        master_seed=run["master_seed"],
        tolerance=_as_float("endtoend", "tolerance", body.get("tolerance", "0.1")),
    )
    config.validate()
    return config


def build_heston_rv(bundle: ConfigBundle) -> HestonRVConfig:
    model = build_model(bundle)
    if not isinstance(model, HestonParams):
        raise ValidationError("the realized-variance pipeline uses the heston model")
    run = build_run_settings(bundle)
    body = bundle.sections.get("heston", {})
    fine_raw = body.get("fine_step")
    config = HestonRVConfig(
        params=model,
        epsilon_grid=_as_float_list("heston", "epsilons", body.get("epsilons", "0.01,0.005")),
        replications=run["replications"],
        master_seed=run["master_seed"],
        u_pair=(
            _as_float("heston", "u1", body.get("u1", "0.25")),
            _as_float("heston", "u2", body.get("u2", "0.75")),
        ),
        c_n=_as_float("heston", "c_n", body.get("c_n", "1")),
        c_delta=_as_float("heston", "c_delta", body.get("c_delta", "1")),
        fine_step=None if fine_raw is None else _as_float("heston", "fine_step", fine_raw),
        pilot_span=_as_float("heston", "pilot_span", body.get("pilot_span", "200")),
    )
    config.validate()
    return config


def assert_thresholds(bundle: ConfigBundle) -> dict:
    """Numeric thresholds from [assert]; booleans stay booleans."""
    body = bundle.sections.get("assert", {})
    out = {}
    for key, raw in body.items():
        if key in _ASSERT_FLAGS:
            out[key] = _as_bool("assert", key, raw)
        else:
            out[key] = _as_float("assert", key, raw)
    return out

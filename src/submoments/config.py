"""INI-style configuration files for models, sweeps, and pipelines.

``READERS`` declares, for the ``simulate`` command and for each lab pipeline
kind, every section and key it takes and the config field each key fills.
``load_config`` accepts the sections and keys some reader takes and rejects
the rest by name; ``check_keys`` then rejects what the one reader of a file
does not take, so a misplaced key fails loudly instead of being ignored.  A
key the file omits takes the default of the field it fills.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from dataclasses import dataclass

from .errors import ValidationError
from .grids import SubsamplingScheme, check_grid
from .lab import THRESHOLDS, EndToEndConfig, ExperimentConfig, HestonRVConfig
from .models import HestonParams, OUParams, SlowFastParams, ou_bound_inputs
from .schemes import BoundInputs

_PIPELINES = tuple(THRESHOLDS)


@dataclass
class ConfigBundle:
    """Validated raw sections of one config file."""

    sections: dict
    sha256: str

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def has(self, section: str) -> bool:
        return section in self.sections


def _fail(section: str, key: str, message: str):
    raise ValidationError(f"config [{section}] {key}: {message}")


def _scalar(cast, expected: str):
    """Parser that applies ``cast`` and names ``expected`` when it fails."""

    def parse(section: str, key: str, raw: str):
        try:
            return cast(raw)
        except ValueError:
            _fail(section, key, f"expected {expected}, got {raw!r}")

    return parse


_as_str = _scalar(str, "text")
_as_float = _scalar(float, "a number")
_as_int = _scalar(int, "an integer")
_as_float_list = _scalar(
    lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()), "comma-separated numbers"
)
_as_int_list = _scalar(
    lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()), "comma-separated integers"
)


def _as_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    _fail(section, key, f"expected a boolean, got {raw!r}")


def _pairs(make, expected: str):
    """Parser of comma-separated ``a:b`` pairs, each turned into ``make(a, b)``."""

    def parse(section: str, key: str, raw: str) -> tuple:
        out = []
        for chunk in filter(None, (c.strip() for c in raw.split(","))):
            try:
                out.append(make(*chunk.split(":")))
            except (ValueError, TypeError):
                _fail(section, key, f"expected {expected} pairs, got {chunk!r}")
        return tuple(out)

    return parse


_parse_schemes = _pairs(
    lambda n, d: SubsamplingScheme(n_obs=int(n), big_delta=float(d)), "n_obs:big_delta"
)


# ---------------------------------------------------------------------------
# Key tables: key -> (parser, field it fills)
# ---------------------------------------------------------------------------


def _same(parse, *keys) -> dict:
    """Keys that fill the field of the same name."""
    return {key: (parse, key) for key in keys}


_KIND = _same(_as_str, "kind")

#: [model] kind -> (parameter class, the keys that kind takes)
_MODELS = {
    "ou": (OUParams, _same(_as_float, "mean", "reversion", "noise")),
    "heston": (HestonParams, _same(_as_float, "reversion", "level", "vol_of_vol", "drift")),
    "slow_fast": (SlowFastParams, {"entry": (_as_str, "entry"), "scale": (_as_float, "scale")}),
}


def _model(*kinds) -> dict:
    return {**_KIND, **{k: v for kind in kinds for k, v in _MODELS[kind][1].items()}}


def _asserts(kind: str) -> dict:
    return {
        key: (_as_bool if check.flag else _as_float, key)
        for check in THRESHOLDS[kind]
        for key in check.keys
    }


_RUN = _same(_as_int, "master_seed", "replications")

#: reader -> section -> key -> (parser, field it fills).  A reader is the
#: simulate command or a pipeline kind; a field belongs to the reader's
#: config class, except ``kind``, which the CLI reads.
READERS = {
    "simulate": {
        "model": _model(*_MODELS),
        "grid": {"length": (_as_int, "length"), "delta": (_as_float, "delta")},
        "run": _same(_as_int, "master_seed"),
    },
    "generic": {
        "run": {**_RUN, **_same(_as_int, "workers")},
        "model": _model("ou"),
        "pipeline": _KIND,
        "observable": {"kind": (_as_str, "observable")},
        "sweep": {
            "family": (_as_str, "scheme_family"),
            "epsilons": (_as_float_list, "epsilon_grid"),
            "n_values": (_as_int_list, "n_grid"),
            **_same(_as_float, "c_n", "c_delta"),
            "stride_resolution": (_as_int, "stride_resolution"),
            "schemes": (_parse_schemes, "custom_schemes"),
        },
        "rho": {"kind": (_as_str, "rho_kind"), "c_rho": (_as_float, "c_rho")},
        "lags": {"values": (_as_float_list, "lags"), "horizon": (_as_float, "horizon_a")},
        "bounds": _same(_as_str, "source"),
        "assert": _asserts("generic"),
    },
    "ou_endtoend": {
        "run": _RUN,
        "model": _model("ou"),
        "pipeline": _KIND,
        "endtoend": _same(_as_float, "rho", "c_n", "c_delta", "u1", "tolerance"),
        "assert": _asserts("ou_endtoend"),
    },
    "heston_rv": {
        "run": _RUN,
        "model": _model("heston"),
        "pipeline": _KIND,
        "heston": {
            "epsilons": (_as_float_list, "epsilon_grid"),
            **_same(_as_float, "u1", "u2", "c_n", "c_delta", "pilot_span"),
        },
        "assert": _asserts("heston_rv"),
    },
}


def _any_reader() -> dict:
    merged: dict = {}
    for taken in READERS.values():
        for section, keys in taken.items():
            merged.setdefault(section, {}).update(keys)
    return merged


#: section -> key -> (parser, field) over every reader: what a file may hold
_SECTIONS = _any_reader()


def _parse(bundle: ConfigBundle, section: str, table: dict) -> dict:
    """``{field: value}`` for the keys of ``table`` that ``section`` gives."""
    body = bundle.sections.get(section, {})
    return {
        field: parse(section, key, body[key]) for key, (parse, field) in table.items() if key in body
    }


def _fields(reader: str, bundle: ConfigBundle, *sections) -> dict:
    """The fields ``reader`` fills from ``sections``, for the keys the file gives."""
    fields = {}
    for section in sections:
        fields.update(_parse(bundle, section, READERS[reader][section]))
    return fields


def _build(cls, bundle: ConfigBundle, section: str, table: dict):
    """``cls`` from ``section``; a field without a default needs its key."""
    fields = _parse(bundle, section, table)
    missing = [
        key
        for key, (_, field) in table.items()
        if field not in fields and cls.__dataclass_fields__[field].default is dataclasses.MISSING
    ]
    if missing:
        raise ValidationError(f"config needs a [{section}] section with {' and '.join(missing)}")
    return cls(**fields)


def load_config(path) -> ConfigBundle:
    """Parse one config file; reject sections and keys that no reader takes."""
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
        if name not in _SECTIONS:
            raise ValidationError(
                f"config section [{name}] is not recognized; "
                f"known sections: {sorted(_SECTIONS)}"
            )
        allowed = _SECTIONS[name]
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
    return ConfigBundle(sections=sections, sha256=digest)


def check_keys(reader: str, bundle: ConfigBundle) -> None:
    """Reject a section or key that ``reader`` (``"simulate"`` or a pipeline kind) does not take."""
    taken = READERS[reader]
    name = "the simulate command" if reader == "simulate" else f"pipeline kind {reader!r}"
    for section, body in bundle.sections.items():
        if section not in taken:
            raise ValidationError(
                f"config section [{section}] does not apply to {name}; allowed: {list(taken)}"
            )
        extra = sorted(set(body) - set(taken[section]))
        if extra:
            raise ValidationError(
                f"config [{section}] keys {extra} do not apply to {name}; "
                f"allowed: {list(taken[section])}"
            )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_model(bundle: ConfigBundle):
    """Instantiate the [model] section; the kind selects the parameter set."""
    if not bundle.has("model"):
        raise ValidationError("config needs a [model] section")
    kind = bundle.get("model", "kind")
    if kind not in _MODELS:
        raise ValidationError(
            f"config [model] kind must be one of {sorted(_MODELS)}, got {kind!r}"
        )
    cls, table = _MODELS[kind]
    extra = set(bundle.sections["model"]) - {*_KIND, *table}
    if extra:
        raise ValidationError(
            f"config [model] keys {sorted(extra)} do not apply to kind {kind!r}"
        )
    return _build(cls, bundle, "model", table)


@dataclass(frozen=True)
class GridRequest:
    length: int
    delta: float

    def __post_init__(self):
        check_grid(self.length, self.delta)


def build_grid_request(bundle: ConfigBundle) -> GridRequest:
    return _build(GridRequest, bundle, "grid", READERS["simulate"]["grid"])


def build_run_settings(bundle: ConfigBundle) -> dict:
    """The [run] values the file gives; an omitted key takes its field's default."""
    return _parse(bundle, "run", _SECTIONS["run"])


def pipeline_kind(bundle: ConfigBundle) -> str:
    kind = bundle.get("pipeline", "kind", "generic")
    if kind not in _PIPELINES:
        raise ValidationError(
            f"config [pipeline] kind must be one of {_PIPELINES}, got {kind!r}"
        )
    return kind


_BOUNDS_HORIZON = 1.0  # the lag window of [bounds] when [lags] gives no horizon


def build_experiment(bundle: ConfigBundle) -> ExperimentConfig:
    """Assemble the generic sweep configuration."""
    model = build_model(bundle)
    if not isinstance(model, OUParams):
        raise ValidationError("the generic sweep pipeline uses the ou model")
    fields = _fields("generic", bundle, "run", "observable", "sweep", "rho", "lags")
    if bundle.has("bounds"):  # the bound holds on [0, horizon] only
        fields.setdefault("horizon_a", _BOUNDS_HORIZON)
    return ExperimentConfig(model=model, **fields)


def build_bounds(bundle: ConfigBundle, model: OUParams) -> BoundInputs | None:
    """Assemble [bounds]: ``source = ou_analytic`` derives them from the model.

    The bound's lag window is ``[0, horizon]`` of ``[lags] horizon``, the one
    horizon :class:`ExperimentConfig` checks the lags against.
    """
    if not bundle.has("bounds"):
        return None
    body = _fields("generic", bundle, "bounds", "lags")
    source = body.get("source")
    if source != "ou_analytic":
        _fail("bounds", "source", f"must be ou_analytic, got {source!r}")
    return ou_bound_inputs(model, body.get("horizon_a", _BOUNDS_HORIZON))


def build_endtoend(bundle: ConfigBundle) -> EndToEndConfig:
    model = build_model(bundle)
    if not isinstance(model, OUParams):
        raise ValidationError("the end-to-end pipeline uses the ou model")
    return EndToEndConfig(model=model, **_fields("ou_endtoend", bundle, "run", "endtoend"))


def build_heston_rv(bundle: ConfigBundle) -> HestonRVConfig:
    model = build_model(bundle)
    if not isinstance(model, HestonParams):
        raise ValidationError("the realized-variance pipeline uses the heston model")
    return HestonRVConfig(params=model, **_fields("heston_rv", bundle, "run", "heston"))


def assert_thresholds(bundle: ConfigBundle) -> dict:
    """Numeric thresholds from [assert]; booleans stay booleans."""
    return _parse(bundle, "assert", _SECTIONS["assert"])

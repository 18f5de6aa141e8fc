"""INI-style configuration files for models, sweeps, and pipelines.

``READERS`` declares, for the ``simulate`` command and for each lab pipeline
kind, every section and key it takes and the config field each key fills.
Where a section's keys hang on one selector key (``[model] kind``, ``[sweep]
family``, ``[rho] kind``), the table names the values the reader takes and
the keys each value takes.  ``load_config`` only reads, parses and hashes a
file.  ``check_keys`` then checks it once, against its one reader's table,
and rejects by name a section, key or selector value that reader does not
take, so a misplaced key fails loudly instead of being ignored.  The
builders parse what it let through; a key the file omits takes the default
of the field it fills.
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
    """Raw sections of one config file."""

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


class _Choice(dict):
    """A section whose keys hang on the value of its selector ``key``.

    ``tables[value]`` are the keys ``value`` takes besides ``common``, which
    every value takes; a file that omits ``key`` selects ``default`` (None:
    the key is required).  As a dict it holds every key some value takes,
    which is what the builders parse.
    """

    def __init__(self, key: str, default, common: dict, tables: dict):
        super().__init__(common)
        for table in tables.values():
            self.update(table)
        self.key, self.default, self.common, self.tables = key, default, common, tables

    def only(self, *values) -> "_Choice":
        return _Choice(self.key, self.default, self.common, {v: self.tables[v] for v in values})


_KIND = _same(_as_str, "kind")

#: [model] kind -> (parameter class, the keys that kind takes besides kind)
_MODELS = {
    "ou": (OUParams, _same(_as_float, "mean", "reversion", "noise")),
    "heston": (HestonParams, _same(_as_float, "reversion", "level", "vol_of_vol", "drift")),
    "slow_fast": (SlowFastParams, {"entry": (_as_str, "entry"), "scale": (_as_float, "scale")}),
}
_MODEL = _Choice("kind", None, _KIND, {kind: keys for kind, (_, keys) in _MODELS.items()})


def _asserts(kind: str) -> dict:
    return {
        key: (_as_bool if check.flag else _as_float, key)
        for check in THRESHOLDS[kind]
        for key in check.keys
    }


_RUN = _same(_as_int, "master_seed", "replications")
_EPSILONS = {"epsilons": (_as_float_list, "epsilon_grid")}

#: reader -> section -> key -> (parser, field it fills).  A reader is the
#: simulate command or a pipeline kind; a field belongs to the reader's
#: config class, except ``kind``, which the CLI reads.
READERS = {
    "simulate": {
        "model": _MODEL,
        "grid": {"length": (_as_int, "length"), "delta": (_as_float, "delta")},
        "run": _same(_as_int, "master_seed"),
    },
    "generic": {
        "run": {**_RUN, **_same(_as_int, "workers")},
        "model": _MODEL.only("ou"),
        "pipeline": _KIND,
        "observable": {"kind": (_as_str, "observable")},
        "sweep": _Choice(
            "family",
            ExperimentConfig.scheme_family,
            {"family": (_as_str, "scheme_family"), **_same(_as_int, "stride_resolution")},
            {
                "from_n": {"n_values": (_as_int_list, "n_grid"), **_same(_as_float, "c_delta")},
                "from_rho": {**_EPSILONS, **_same(_as_float, "c_n", "c_delta")},
                "custom": {**_EPSILONS, "schemes": (_parse_schemes, "custom_schemes")},
            },
        ),
        "rho": _Choice(
            "kind",
            ExperimentConfig.rho_kind,
            {"kind": (_as_str, "rho_kind")},
            {"identity": {}, "sqrt": _same(_as_float, "c_rho")},
        ),
        "lags": {"values": (_as_float_list, "lags"), "horizon": (_as_float, "horizon_a")},
        "bounds": _same(_as_str, "source"),
        "assert": _asserts("generic"),
    },
    "ou_endtoend": {
        "run": _RUN,
        "model": _MODEL.only("ou"),
        "pipeline": _KIND,
        "endtoend": _same(_as_float, "rho", "c_n", "c_delta", "u1", "tolerance"),
        "assert": _asserts("ou_endtoend"),
    },
    "heston_rv": {
        "run": _RUN,
        "model": _MODEL.only("heston"),
        "pipeline": _KIND,
        "heston": {**_EPSILONS, **_same(_as_float, "u1", "u2", "c_n", "c_delta", "pilot_span")},
        "assert": _asserts("heston_rv"),
    },
}


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
    """Read, parse and hash one config file; ``check_keys`` judges what it holds."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return ConfigBundle(sections=sections, sha256=hashlib.sha256(text.encode()).hexdigest())


def check_keys(reader: str, bundle: ConfigBundle) -> None:
    """Reject a section, key or selector value that ``reader`` (``"simulate"`` or a pipeline
    kind) does not take: the one check of what a file may hold."""
    taken = READERS[reader]
    name = "the simulate command" if reader == "simulate" else f"pipeline kind {reader!r}"
    for section, body in bundle.sections.items():
        if section not in taken:
            raise ValidationError(
                f"config section [{section}] does not apply to {name}; allowed: {list(taken)}"
            )
        allowed, where = taken[section], name
        if isinstance(allowed, _Choice):
            value = body.get(allowed.key, allowed.default)
            if value not in allowed.tables:
                raise ValidationError(
                    f"config [{section}] {allowed.key} must be one of {list(allowed.tables)} "
                    f"for {name}, got {value!r}"
                )
            where = f"{name} with [{section}] {allowed.key} {value!r}"
            allowed = {**allowed.common, **allowed.tables[value]}
        extra = sorted(set(body) - set(allowed))
        if extra:
            raise ValidationError(
                f"config [{section}] keys {extra} do not apply to {where}; allowed: {list(allowed)}"
            )


# ---------------------------------------------------------------------------
# Builders: each parses a file check_keys has let through
# ---------------------------------------------------------------------------


def build_model(bundle: ConfigBundle):
    """Instantiate the [model] section; the kind selects the parameter set."""
    if not bundle.has("model"):
        raise ValidationError("config needs a [model] section")
    cls, table = _MODELS[bundle.get("model", "kind")]
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
    """The [run] values ``simulate`` reads that the file gives; an omitted key takes its
    field's default."""
    return _parse(bundle, "run", READERS["simulate"]["run"])


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
    fields = _fields("generic", bundle, "run", "observable", "sweep", "rho", "lags")
    if bundle.has("bounds"):  # the bound holds on [0, horizon] only
        fields.setdefault("horizon_a", _BOUNDS_HORIZON)
    return ExperimentConfig(model=model, **fields)


def build_bounds(bundle: ConfigBundle, config: ExperimentConfig) -> BoundInputs | None:
    """Assemble [bounds]: ``source = ou_analytic`` derives them from the model.

    The bound's lag window is ``[0, config.horizon_a]``, the one horizon
    :class:`ExperimentConfig` checks the lags against.
    """
    if not bundle.has("bounds"):
        return None
    source = bundle.get("bounds", "source")
    if source != "ou_analytic":
        _fail("bounds", "source", f"must be ou_analytic, got {source!r}")
    return ou_bound_inputs(config.model, config.horizon_a)


def build_endtoend(bundle: ConfigBundle) -> EndToEndConfig:
    return EndToEndConfig(build_model(bundle), **_fields("ou_endtoend", bundle, "run", "endtoend"))


def build_heston_rv(bundle: ConfigBundle) -> HestonRVConfig:
    return HestonRVConfig(build_model(bundle), **_fields("heston_rv", bundle, "run", "heston"))


def assert_thresholds(bundle: ConfigBundle) -> dict:
    """Numeric thresholds from [assert]; booleans stay booleans."""
    return _parse(bundle, "assert", READERS[pipeline_kind(bundle)]["assert"])

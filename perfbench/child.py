"""In-interpreter side of the benchmark: tracing and start-up probes.

``run.py`` starts this file in a fresh interpreter, with ``src`` on the
path, in one of three modes::

    child.py trace <spans.json> <cli args...>
        Run ``submoments.cli.main`` with the package's public names wrapped
        where the caller looks them up (``submoments.lab.simulate_ou``,
        ``submoments.cli.read_binary``, ...).  Every wrapped call records a
        span; the spans and the work counts are written to ``spans.json``
        when ``main`` returns.

    child.py setup <cli args...>
        Run ``submoments.cli.main`` until the first simulation call, then
        print the ``time.monotonic()`` reading at that moment and exit 0.
        Exits 3 when ``main`` finishes without simulating anything.

    child.py import
        Print the seconds ``import submoments.cli`` takes in this
        interpreter.

Spans use ``time.monotonic()``, which on Linux reads the same clock in
every process, so the parent can compare them with its own readings.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

from layers import IMPORT_SPAN, ROOT_SPAN


class Tracer:
    """Spans in call order as ``[name, parent_index, start, end]``, plus counts."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        record = [name, parent, time.monotonic(), None]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.stack.pop()
            record[3] = time.monotonic()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class TimedGenerator:
    """Generator proxy that records ``standard_normal`` and ``gamma`` draws."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def _draw(self, method: str, args, kwargs):
        with self._tracer.span("grids.normals"):
            out = getattr(self._gen, method)(*args, **kwargs)
        self._tracer.counts["grids.normals_count"] += int(getattr(out, "size", 1))
        return out

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", args, kwargs)

    def gamma(self, *args, **kwargs):
        return self._draw("gamma", args, kwargs)


def _dim(samples) -> int:
    shape = getattr(samples, "shape", ())
    return shape[1] if len(shape) > 1 else 1


def _kernel_bytes(n_obs: int, dim: int) -> int:
    """Bytes one covariance matrix touches, computed from array sizes.

    The lead and lagged windows are read (``2 * n_obs * dim`` values) and the
    outer-product temporary is written (``n_obs * dim * dim`` values).
    """
    return 8 * n_obs * dim * (2 + dim)


def _count_covariance(args, kwargs, result):
    return {
        "estimators.covariance_calls": 1,
        "estimators.bytes_computed": _kernel_bytes(args[1], _dim(args[0])),
    }


def _count_curve(args, kwargs, result):
    matrices = len({est.kappa for est in result})
    return {
        "estimators.covariance_calls": matrices,
        "estimators.bytes_computed": matrices * _kernel_bytes(args[1].n_obs, _dim(args[0])),
    }


def _count_ou(args, kwargs, result):
    return {"models.fine_samples": int(args[1])}


def _count_heston(args, kwargs, result):
    z_var = args[3]
    columns = z_var.shape[1] if z_var.ndim > 1 else 1
    return {"models.heston_steps": int(args[1]) * columns}


def _count_written(args, kwargs, result):
    return {"grids.bytes_written": os.path.getsize(args[1])}


def _count_read(args, kwargs, result):
    return {"grids.bytes_read": os.path.getsize(args[0])}


def _count_invert(args, kwargs, result):
    return {"invert.calls": 1}


# (module, attribute, span name, counter).  Modules are named as the caller
# sees them: the CLI and the lab bind these names at import time.
WRAPPED = [
    *[
        ("cli", name, "config.build", None)
        for name in (
            "load_config", "build_model", "build_run_settings", "build_grid_request",
            "build_experiment", "build_bounds", "build_endtoend", "build_heston_rv",
            "pipeline_kind", "assert_thresholds",
        )
    ],
    ("lab", "subsample_sequence", "grids.subsample", None),
    ("cli", "subsample_sequence", "grids.subsample", None),
    ("cli", "write_binary", "grids.write", _count_written),
    ("cli", "write_csv", "grids.write", _count_written),
    ("cli", "read_binary", "grids.read", _count_read),
    ("cli", "read_csv", "grids.read", _count_read),
    ("lab", "simulate_ou", "models.simulate_ou", _count_ou),
    ("cli", "simulate_ou", "models.simulate_ou", _count_ou),
    ("lab", "_heston_core", "models.heston_core", _count_heston),
    ("lab", "multiplicative_perturbation_observable", "models.observable", None),
    ("lab", "smoothing_observable", "models.observable", None),
    ("lab", "realized_volatility_observable", "models.observable", None),
    ("lab", "lagged_covariance", "estimators.covariance", _count_covariance),
    ("invert", "lagged_covariance", "estimators.covariance", _count_covariance),
    ("cli", "covariance_curve", "estimators.covariance", _count_curve),
    ("lab", "empirical_mean", "estimators.mean", None),
    ("invert", "empirical_mean", "estimators.mean", None),
    ("cli", "empirical_mean", "estimators.mean", None),
    ("lab", "scheme_from_n", "schemes.plan", None),
    ("lab", "scheme_from_rho", "schemes.plan", None),
    ("lab", "error_bound_unobservable", "schemes.plan", None),
    ("lab", "error_bound_observable", "schemes.plan", None),
    ("lab", "invert_ou", "invert.solve", _count_invert),
    ("lab", "invert_cir", "invert.solve", _count_invert),
    ("cli", "invert_ou", "invert.solve", _count_invert),
    ("cli", "invert_cir", "invert.solve", _count_invert),
    ("cli", "truncate_to_ball", "invert.solve", _count_invert),
    ("cli", "build_report", "lab.report", None),
    ("cli", "perturbation_gap_check", "lab.report", None),
    ("cli", "run_replications", "lab.run", None),
    ("cli", "run_heston_rv", "lab.run", None),
    ("cli", "run_endtoend_ou", "lab.run", None),
]

# Report writers are methods, so they are wrapped on their classes.
WRAPPED_METHODS = [
    ("ConvergenceReport", "write_json"),
    ("ConvergenceReport", "write_csv"),
    ("EndToEndReport", "to_json_dict"),
    ("HestonRVReport", "to_json_dict"),
]

# Entry points of the first simulation a CLI call makes.
FIRST_SIMULATION = [
    ("lab", "simulate_ou"),
    ("lab", "heston_initial_variance"),
    ("lab", "_heston_core"),
    ("cli", "simulate_ou"),
]


def _modules() -> dict:
    return {
        name: importlib.import_module(f"submoments.{name}")
        for name in ("cli", "lab", "invert", "grids")
    }


def install_tracer(tracer: Tracer) -> None:
    mods = _modules()
    for mod, attr, name, counter in WRAPPED:
        setattr(mods[mod], attr, tracer.wrap(name, getattr(mods[mod], attr), counter))
    for cls_name, attr in WRAPPED_METHODS:
        cls = getattr(mods["lab"], cls_name)
        setattr(cls, attr, tracer.wrap("lab.report", getattr(cls, attr)))
    spec = mods["grids"].RandomStreamSpec
    make_generator = spec.generator
    spec.generator = functools.wraps(make_generator)(
        lambda self: TimedGenerator(make_generator(self), tracer)
    )


class FirstSimulation(Exception):
    """Raised at the first simulation call to end a start-up probe."""

    def __init__(self, at: float):
        super().__init__(at)
        self.at = at


def install_stop() -> None:
    def stop(*args, **kwargs):
        raise FirstSimulation(time.monotonic())

    mods = _modules()
    for mod, attr in FIRST_SIMULATION:
        setattr(mods[mod], attr, stop)


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "import":
        start = time.perf_counter()
        import submoments.cli  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    if mode == "setup":
        install_stop()
        import submoments.cli

        try:
            submoments.cli.main(argv[1:])
        except FirstSimulation as stop:
            print(json.dumps({"first_simulation": stop.at}))
            return 0
        print("setup probe: the call finished without simulating", file=sys.stderr)
        return 3
    if mode == "trace":
        tracer = Tracer()
        with tracer.span(IMPORT_SPAN):
            install_tracer(tracer)
        import submoments.cli

        try:
            with tracer.span(ROOT_SPAN):
                return submoments.cli.main(argv[2:])
        finally:
            tracer.dump(argv[1])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

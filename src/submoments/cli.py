"""Command-line entry point.

Subcommands::

    simulate   model config -> trajectory file(s) + run manifest
    estimate   trajectory file -> moment estimates (and optional inversion)
    scheme     recommend a sub-sampling scheme from rho or from a budget
    lab        run a convergence/recovery pipeline from a config or preset

Exit codes: 0 success, 1 failed assertion or closed stdout, 2 usage,
3 validation, 4 insufficient data or resources, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
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
from .errors import InsufficientData, ResourceLimit, SubmomentsError, UsageError, ValidationError
# empirical_mean is not called here: the benchmark tracer wraps it under this module by name
from .estimators import covariance_curve, empirical_mean, estimates_to_csv
from .grids import (
    BinaryFile,
    RandomStreamSpec,
    StreamRole,
    SubsamplingScheme,
    binary_writer,
    check_positive,
    make_parent,
    # not called here: the benchmark tracer wraps it under this module by name
    read_binary,
    read_csv,
    subsample_sequence,
    write_binary,
    write_csv,
)
from .invert import ParameterBall, invert_cir, invert_ou, truncate_to_ball
from .lab import (
    build_report,
    evaluate_thresholds,
    # not called here: the benchmark tracer wraps it under this module by name
    perturbation_gap_check,
    plan_point,
    run_endtoend_ou,
    run_heston_rv,
    run_replications,
    simulate_heston,
    write_json,
)
from .models import (
    HestonParams,
    SlowFastParams,
    simulate_ou,
    simulate_slow_fast,
)
from .schemes import (
    error_bound_observable,
    error_bound_unobservable,
    reference_bound_inputs,
    scheme_from_n,
    scheme_from_rho,
)


def _open_grid(path: Path):
    """The trajectory in ``path``, as a context manager.

    A ``.csv`` is loaded whole; a ``.bin`` is opened for block reads
    (:class:`BinaryFile`), which the estimators reduce window by window.
    """
    if not path.exists():
        raise ValidationError(f"trajectory file not found: {path}")
    try:
        if path.suffix.lower() == ".csv":
            return contextlib.nullcontext(read_csv(path))
        return BinaryFile(path)
    except OSError as exc:  # such as a folder
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None


def _check_own_files(inputs: list, outputs: list) -> None:
    """Refuse, before anything is made or written, an output that is a folder, cannot be looked
    up, sits under a plain file, or resolves to the same file as one of the call's ``inputs``
    or another of its ``outputs`` (``None`` is stdout)."""
    seen = {Path(path).resolve() for path in inputs}
    for path in [Path(path) for path in outputs if path is not None]:
        try:
            folder, resolved = path.is_dir(), path.resolve()
            # where make_parent would start; a dangling link stops it too
            above = next(p for p in path.parents if p.exists() or p.is_symlink())
        except OSError as exc:  # such as a name too long for the file system
            raise ValidationError(f"cannot write {path}: {exc}") from None
        if folder:
            raise ValidationError(f"cannot write {path}: it is a folder")
        if not above.is_dir():
            raise ValidationError(f"cannot make the folder of {path}: {above} is not a folder")
        if resolved in seen:
            raise ValidationError(f"cannot write {path}: this call already reads or writes that file")
        seen.add(resolved)


def _write_manifest(path: Path, args, bundle, seed: int, outputs: list, **own) -> None:
    """Write a run's manifest: the keys every command shares, then the command's ``own``."""
    write_json(dict(  # config as given, or None for a preset: the same run on any checkout
        command=args.command, version=__version__, config=args.config, config_sha256=bundle.sha256,
        master_seed=seed, outputs=list(map(str, outputs)), **own), path)


def _sibling(path: Path, tag: str) -> Path:
    return path.with_name(f"{path.stem}-{tag}{path.suffix}")


def _count(n: int) -> str:
    """``n`` in full up to 15 digits, past that in e-notation (``-2.000e+301``)."""
    if abs(n) < 10**15:
        return str(n)
    from decimal import Decimal  # exact for any int, where float() overflows

    return f"{Decimal(n):.3e}"


def _parse_floats(raw: str, flag: str) -> list:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {raw!r}")
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    return values


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _write_flags(bundle, section: str, **flags) -> None:
    """Write the flags given into ``[section]``, where ``check_keys`` and the builders judge
    them as they judge the file's own keys."""
    for key, value in flags.items():
        if value is not None:
            bundle.sections.setdefault(section, {})[key] = str(value)


def _check_outputs(outputs: list, length: int, whole: bool) -> None:
    """Refuse ``length``-row outputs that cannot be written, before any is opened: a path
    built ``whole`` must be an array numpy can address, and a ``.bin`` needs its bytes free
    on the nearest existing folder of its path (``cmd_simulate`` makes the rest)."""
    if whole and 8 * (length + 1) * len(outputs) > np.iinfo(np.intp).max:
        raise ResourceLimit(f"a path of {_count(length)} rows is larger than numpy can allocate")
    need = (24 + 8 * length) * len(outputs)  # header and float64s
    folder = next(p for p in outputs[0].parents if p.exists())
    if outputs[0].suffix.lower() != ".csv" and need > shutil.disk_usage(folder).free:
        raise ResourceLimit(
            f"{len(outputs)} file(s) of {_count(length)} rows need {_count(need)} bytes, "
            f"more than is free in {folder}"
        )


def cmd_simulate(args) -> int:
    bundle = load_config(args.config)
    _write_flags(bundle, "run", master_seed=args.seed)
    _write_flags(bundle, "grid", length=args.length, delta=args.delta)
    check_keys("simulate", bundle)  # the flags count: they were written in above
    model = build_model(bundle)
    seed = build_run_settings(bundle).get("master_seed", 0)
    req = build_grid_request(bundle)
    length, delta = req.length, req.delta
    if not np.isfinite(length * float(delta)):  # the last grid time, in Python floats
        raise ValidationError(f"grid times overflow: length {length} * delta {delta} is not finite")
    out = Path(args.output)
    simulate, tag = {  # a two-path model writes its second path next to the first
        HestonParams: (simulate_heston, "variance"),
        SlowFastParams: (simulate_slow_fast, "reduced"),
    }.get(type(model), (simulate_ou, None))
    outputs = [out] if tag is None else [out, _sibling(out, tag)]
    manifest_path = Path(str(out) + ".manifest.json")
    _check_own_files([args.config], [*outputs, manifest_path])
    streamed = tag is None and out.suffix.lower() != ".csv"  # an ou path to .bin
    _check_outputs(outputs, length, whole=not streamed)
    stream = RandomStreamSpec(seed, args.replication, StreamRole.PROCESS_NOISE)
    if streamed:  # each block goes to the file as it is made: the path is never whole
        with binary_writer(out, 1, delta, length) as write:
            simulate_ou(model, length, delta, stream, write)
    else:
        paths = simulate(model, length, delta, stream)
        for grid, path in zip([paths] if tag is None else paths, outputs):
            (write_csv if path.suffix.lower() == ".csv" else write_binary)(grid, path)
    _write_manifest(manifest_path, args, bundle, seed, outputs, replication=args.replication, length=length, delta=delta)
    print(f"wrote {', '.join(map(str, outputs))}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


# an overflow ends as a non-finite value, which write_json refuses with exit 5
@np.errstate(over="ignore", invalid="ignore")
def cmd_estimate(args) -> int:
    lags = _parse_floats(args.lags, "--lags")
    if not all(0 <= u < np.inf for u in lags):
        raise ValidationError(f"lags must be finite and >= 0, got {args.lags}")
    if args.n_obs is not None and args.n_obs < 2:
        raise ValidationError(f"--n-obs must be >= 2, got {args.n_obs}")
    if args.offset < 0:
        raise ValidationError(f"offset must be >= 0, got {args.offset}")
    if args.big_delta is not None:
        check_positive(args.big_delta, "big_delta")
    inversion = {"--u1": args.u1, "--ball-radius": args.ball_radius, "--ball-center": args.ball_center}
    unused = [flag for flag, value in inversion.items() if value is not None]
    if args.model is None and unused:
        raise UsageError(f"--model is needed for {', '.join(unused)}")
    if args.ball_center is not None and args.ball_radius is None:
        raise UsageError("--ball-radius is needed for --ball-center")
    center = [0.0, 0.0, 0.0]
    if args.ball_center is not None:
        center = _parse_floats(args.ball_center, "--ball-center")
        if len(center) != 3:  # both models have three parameters
            raise UsageError(f"--ball-center expects 3 values, got {len(center)}")
    if args.u1 is not None:  # the inversion flags are refused before the file is read
        check_positive(args.u1, "u1")
    ball = None if args.ball_radius is None else ParameterBall(center=center, radius=args.ball_radius)
    _check_own_files([args.input], [args.output, args.csv])
    with _open_grid(Path(args.input)) as grid:
        big_delta = grid.delta if args.big_delta is None else args.big_delta
        # an explicit --u1 joins the lag allowance: the rows past n_obs serve it too
        planned = lags + ([] if args.u1 is None else [args.u1])
        point = plan_point(SubsamplingScheme(1, big_delta), grid.delta, planned, args.offset)
        curve_lags = list(lags)
        if args.model is not None:
            u1 = args.u1
            if u1 is None:
                positive = [u for u, kappa in zip(lags, point.kappas) if kappa >= 1]
                if not positive:
                    raise UsageError("--model needs a lag that is positive on the coarse grid")
                u1 = positive[0]
            else:
                point.require_positive(-1)
            curve_lags += [0.0, u1]  # the inversion's variance and lag-u1 covariance
        kmax, stride = max(point.kappas), point.scheme.stride
        n_obs = args.n_obs
        if n_obs is None:
            n_obs = (grid.n_samples - args.offset) // stride - kmax
        if n_obs < 2:
            raise InsufficientData(
                f"trajectory of {grid.n_samples} rows leaves {_count(n_obs)} observations "
                f"after stride {stride} and lag allowance {_count(kmax)}"
            )
        point = plan_point(SubsamplingScheme(n_obs, big_delta), grid.delta, planned, args.offset)
        scheme = point.scheme
        seq = subsample_sequence(grid, scheme, n_extra=kmax, offset=args.offset)
        # one kernel pass, mean included: a kappa --lags already requests costs nothing more
        curve = covariance_curve(seq, scheme, curve_lags)
        reported = curve[: len(lags)]
        mean = curve[0].mean
    payload: dict = {
        "n_obs": scheme.n_obs,
        "big_delta": scheme.big_delta,
        "stride": scheme.stride,
        "mean": [float(v) for v in mean],
        "covariances": [
            {
                "lag": est.lag_requested,
                "lag_used": est.lag_used,
                "kappa": est.kappa,
                "matrix": est.matrix.tolist(),
            }
            for est in reported
        ],
    }
    if args.model is not None:
        variance, cov_u1 = curve[len(lags) :]
        lag_used = cov_u1.lag_used
        psi = [mean[0], variance.matrix[0, 0], cov_u1.matrix[0, 0]]
        invert = invert_ou if args.model == "ou" else invert_cir
        est = invert(psi, lag_used)
        if ball is not None:
            est = truncate_to_ball(est, ball)
        keys = ("mean(0)", "cov(0,0)@0", f"cov(0,0)@{lag_used:g}")
        payload["parameters"] = {
            **est.as_dict(),
            "moments": {key: float(v) for key, v in zip(keys, psi)},
        }
    if args.csv is not None:  # its folder before the JSON is written: a refused one leaves no file
        payload["csv"] = str(args.csv)
        make_parent(args.csv)
    # the JSON goes first: a refused (non-finite) payload leaves no sidecar
    write_json(payload, args.output)
    if args.csv is not None:
        estimates_to_csv(reported, args.csv)
    return 0


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


def cmd_scheme(args) -> int:
    if (args.rho is None) == (args.n_obs is None):
        raise UsageError("give exactly one of --rho or --n-obs")
    if args.rho is None and args.c_n is not None:
        raise UsageError("--rho is needed for --c-n")
    _check_own_files([], [args.output])
    inputs = reference_bound_inputs()  # unit constants: the bound's scaling only
    if args.rho is not None:
        scheme = scheme_from_rho(args.rho, 1.0 if args.c_n is None else args.c_n, args.c_delta)
        predicted = error_bound_observable(inputs, scheme, args.rho)
    else:
        scheme = scheme_from_n(args.n_obs, args.c_delta)
        predicted = error_bound_unobservable(inputs, scheme)
    payload = {
        "rho": args.rho,
        "n_obs": scheme.n_obs,
        "big_delta": scheme.big_delta,
        "span": scheme.span,
        "predicted_error": predicted,
    }
    write_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------


def available_presets() -> list:
    root = importlib.resources.files("submoments") / "presets"
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def _preset_path(name: str) -> Path:
    path = importlib.resources.files("submoments") / "presets" / f"{name}.cfg"
    if not path.is_file():
        raise ValidationError(
            f"unknown preset {name!r}; available: {available_presets()}"
        )
    return Path(str(path))


def cmd_lab(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise UsageError("give exactly one of --config or --preset")
    path = Path(args.config) if args.config else _preset_path(args.preset)
    bundle = load_config(path)
    _write_flags(bundle, "run", master_seed=args.seed)
    kind = pipeline_kind(bundle)
    check_keys(kind, bundle)  # --seed counts: it was written into [run] above
    checks = assert_thresholds(bundle) if args.check else {}
    out_dir = Path(args.output_dir)  # made by the first write: a refused run leaves none
    names = {
        "generic": ["report.json", "report.csv"], "ou_endtoend": ["endtoend.json"], "heston_rv": ["heston_rv.json"],
    }[kind]
    files = [out_dir / name for name in [*names, "manifest.json"]]
    _check_own_files([path], files)  # before the run: a file that cannot be written costs no draw
    ensemble = None

    if kind == "generic":
        config = build_experiment(bundle)
        inputs = build_bounds(bundle, config)
        ensemble = run_replications(config)
        report = build_report(config, ensemble, inputs)
        report.write_json(files[0])
        report.write_csv(files[1])
        lines = [f"slope {key}: {fit['slope']:.4f} (r2 {fit['r_squared']:.4f})"
                 for key, fit in sorted(report.slopes.items())]
        lines += [f"bound fraction {key}: {val:.4f}" for key, val in sorted(report.bound_fractions.items())]
    elif kind == "ou_endtoend":
        config = build_endtoend(bundle)
        report = run_endtoend_ou(config)
        write_json(report.to_json_dict(), files[0])
        lines = [
            f"{name}: fraction within {report.tolerance:g} = "
            f"{report.fraction_within[name]:.3f}, rms rel = {report.rms_rel[name]:.4f}"
            for name in report.names
        ]
    else:
        config = build_heston_rv(bundle)
        report = run_heston_rv(config)
        write_json(report.to_json_dict(), files[0])
        lines = [
            f"eps {eps:g}: rms rel {', '.join(f'{k}={v:.4f}' for k, v in report.rms_rel[eps].items())}"
            for eps in config.epsilon_grid
        ]
    # every file before the first line: a stdout whose reader has gone stops the run at a print
    _write_manifest(files[-1], args, bundle, config.master_seed, files[:-1], preset=args.preset, pipeline=kind)
    for line in lines:
        print(line)
    if checks:
        failed = False
        for name, ok, detail in evaluate_thresholds(kind, checks, report, config, ensemble):
            print(f"[CHECK] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
            failed = failed or not ok
        if failed:
            print("one or more checks failed", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submoments",
        description="Moment estimation for hidden stationary processes "
        "from sub-sampled proxy observations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a model trajectory")
    sim.add_argument("--config", required=True, help="model config file")
    sim.add_argument("--output", required=True, help="trajectory file (.bin or .csv)")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--replication", type=int, default=0, help="replication index")
    sim.add_argument("--length", type=int, default=None, help="override sample count")
    sim.add_argument("--delta", type=float, default=None, help="override grid step")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate moments from a trajectory file")
    est.add_argument("--input", required=True, help="trajectory file (.bin or .csv)")
    est.add_argument("--lags", required=True, help="comma-separated lags, e.g. 0,0.5,1")
    est.add_argument("--big-delta", type=float, default=None, help="coarse step (default: grid step)")
    est.add_argument("--n-obs", type=int, default=None, help="observations to use (default: all that fit)")
    est.add_argument("--offset", type=int, default=0, help="fine rows to skip at the start")
    est.add_argument("--model", choices=("ou", "cir"), default=None, help="invert parameters")
    est.add_argument("--u1", type=float, default=None, help="lag for the inversion (default: first positive lag)")
    est.add_argument("--ball-radius", type=float, default=None, help="safeguard radius; outside -> zero vector")
    est.add_argument("--ball-center", default=None, help="comma-separated safeguard center (default: origin)")
    est.add_argument("--csv", default=None, help="also write covariance rows to this CSV")
    est.add_argument("--output", default=None, help="write JSON here instead of stdout")
    est.set_defaults(func=cmd_estimate)

    sch = sub.add_parser("scheme", help="recommend a sub-sampling scheme")
    sch.add_argument("--rho", type=float, default=None, help="proxy error level in (0, 1)")
    sch.add_argument("--n-obs", type=int, default=None, help="observation budget (>= 8)")
    sch.add_argument("--c-n", type=float, default=None, help="budget constant for --rho (default: 1)")
    sch.add_argument("--c-delta", type=float, default=1.0, help="step constant")
    sch.add_argument("--output", default=None, help="write JSON here instead of stdout")
    sch.set_defaults(func=cmd_scheme)

    lab = sub.add_parser("lab", help="run a convergence or recovery pipeline")
    lab.add_argument("--config", default=None, help="pipeline config file")
    lab.add_argument("--preset", default=None, help="named built-in config")
    lab.add_argument("--output-dir", default=".", help="where to write reports")
    lab.add_argument("--seed", type=int, default=None, help="override master seed")
    lab.add_argument(
        "--assert",
        dest="check",
        action="store_true",
        help="evaluate the config's [assert] thresholds; nonzero exit on failure",
    )
    lab.set_defaults(func=cmd_lab)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader of stdout has gone: what is left to flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SubmomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # an allocation no resource cap foresaw
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return ResourceLimit.exit_code


if __name__ == "__main__":
    sys.exit(main())

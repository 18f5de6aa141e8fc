#!/usr/bin/env python3
"""Benchmark harness for submoments.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ou_rate [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, one after the other

Each workload runs the package as ``python -m submoments.cli`` with ``src``
on the path, in fresh interpreter processes, and writes its outputs to a
temporary directory under ``.perfbench_tmp`` that is removed at the end.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median over the
repetitions started within ``--seconds``), ``setup_s`` (median over several
fresh interpreters of the time from process start to the first simulation)
and ``peak_rss_mb``.  ``--trace 1`` runs the workload once untraced and once
under ``child.py trace`` and reports the per-layer metrics.

Every repetition's outputs are checked and digested; the printed table also
gives ``checks_failed`` and ``ops_failed_frac``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TMP_BASE = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

SETUP_PROBES = 3
IMPORT_PROBES = 3
RUN_LIMIT_S = 170.0  # every process is killed past this point of the run

PER_LAYER_UNITS = {
    **{name: "s" for name in layers.SELF_TIME},
    **{name: ("bytes" if "bytes" in name else "count") for name in layers.COUNTS},
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}


class Run:
    """Where one benchmark run's processes write, and when they must end."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self._serial = 0

    def spawn(self, argv: list) -> tuple[Call, float]:
        """Run one process to completion; return it and its start reading."""
        self._serial += 1
        out_path = self.tmp / f"proc-{self._serial}.out"
        err_path = self.tmp / f"proc-{self._serial}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(0.0, self.deadline - start), os.kill, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(
            args=argv,
            returncode=proc.returncode,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kib=usage.ru_maxrss,
        )
        return call, start


@dataclass
class Repetition:
    calls: list
    evaluation: object
    traces: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)


def run_calls(run: Run, workload, work: Path, seed, size: str, traced: bool) -> tuple[list, list]:
    """Run a workload's CLI calls in ``work``; return the calls and their traces."""
    calls, traces = [], []
    for i, args in enumerate(workload.calls(ROOT, work, seed, size)):
        spans = work / f"spans-{i}.json"
        prefix = [sys.executable, str(CHILD), "trace", str(spans)] if traced else [
            sys.executable, "-m", "submoments.cli",
        ]
        call, _ = run.spawn([*prefix, *args])
        call.args = args
        calls.append(call)
        if traced and spans.exists():
            traces.append(json.loads(spans.read_text()))
    return calls, traces


def repetition(run: Run, workload, seed, size: str, traced: bool) -> Repetition:
    work = Path(tempfile.mkdtemp(dir=run.tmp))
    calls, traces = run_calls(run, workload, work, seed, size, traced)
    evaluation = workload.evaluate(ROOT, work, size, calls)
    shutil.rmtree(work)
    return Repetition(calls, evaluation, traces)


def setup_probes(run: Run, workload, seed, size: str) -> tuple[list, list]:
    """Seconds from process start to the first simulation, per fresh interpreter."""
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        work = Path(tempfile.mkdtemp(dir=run.tmp))
        first = workload.calls(ROOT, work, seed, size)[0]
        call, start = run.spawn([sys.executable, str(CHILD), "setup", *first])
        if call.returncode == 0:
            times.append(json.loads(call.stdout.splitlines()[-1])["first_simulation"] - start)
        else:  # the whole process time bounds the set-up from above
            times.append(call.wall_s)
            failures.append(call.stderr.strip()[-200:])
        shutil.rmtree(work)
    return times, failures


def import_probe(run: Run) -> float:
    call, _ = run.spawn([sys.executable, str(CHILD), "import"])
    if call.returncode != 0:
        raise RuntimeError(f"import probe failed: {call.stderr.strip()[-400:]}")
    return json.loads(call.stdout.splitlines()[-1])["import_s"]


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def host_facts() -> dict:
    """Machine and software facts for the result record."""
    cpuinfo = _read("/proc/cpuinfo")
    meminfo = _read("/proc/meminfo")

    def field_of(text: str, key: str):
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return None

    # /proc gives one "cache size" line; the per-level sizes are in sysfs.
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    commit = head
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(ROOT / ".git" / ref)).strip() or next(
            (
                line.split()[0]
                for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines()
                if line.endswith(" " + ref)
            ),
            None,
        )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": field_of(cpuinfo, "model name"),
        "cpuinfo_cache_size": field_of(cpuinfo, "cache size"),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "mem_total": field_of(meminfo, "MemTotal"),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit or None,
    }


def run_workload(name: str, seed, seconds: float, trace: bool, size: str, tmp: Path) -> dict:
    workload = WORKLOADS[name]
    run = Run(tmp)
    import_probe(run)  # fills the bytecode cache; not timed
    reps = []
    metrics: dict = {}
    checks: list = []
    if trace:
        imports = [import_probe(run) for _ in range(IMPORT_PROBES)]
        plain = repetition(run, workload, seed, size, traced=False)
        traced = repetition(run, workload, seed, size, traced=True)
        reps = [plain, traced]
        per = layers.layer_metrics(traced.traces, traced.wall_s)
        per["cli.import_s"] = statistics.median(imports)
        per["trace.overhead_s"] = traced.wall_s - plain.wall_s
        for key, value in per.items():
            samples = len(imports) if key == "cli.import_s" else 1
            metrics[key] = (value, PER_LAYER_UNITS[key], samples)
        nesting = [e for t in traced.traces for e in layers.nesting_errors(t["spans"])]
        checks.append(("spans_nest", not nesting, "; ".join(nesting[:3]) or "every span inside its parent"))
        checks.append(
            ("spans_recorded", len(traced.traces) == len(traced.calls), f"{len(traced.traces)} trace file(s)")
        )
    else:
        setups, probe_failures = setup_probes(run, workload, seed, size)
        checks.append(
            ("setup_probes", not probe_failures, "; ".join(probe_failures) or f"{len(setups)} reached the first simulation")
        )
        # The host's speed drifts by 10-20% within a minute, so repetitions
        # continue until ``seconds`` have passed and the median is reported.
        start = time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            reps.append(repetition(run, workload, seed, size, traced=False))
        calls = [c for r in reps for c in r.calls]
        metrics["wall_s"] = (statistics.median(r.wall_s for r in reps), "s", len(reps))
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        metrics["peak_rss_mb"] = (max(c.maxrss_kib for c in calls) * 1024 / 1e6, "MB", len(calls))

    for r in reps:
        checks.extend(r.evaluation.checks)
    digests = sorted({r.evaluation.digest for r in reps})
    checks.append(("one_digest", len(digests) == 1, f"{len(reps)} run(s), {len(digests)} digest(s)"))
    attempted = sum(r.evaluation.attempted for r in reps)
    failed = sum(r.evaluation.failed for r in reps)
    checks_failed = sum(not ok for _, ok, _ in checks)
    return {
        "workload": name,
        "seed": seed if workload.seeded else None,  # None: the shipped seed
        "size": size,
        "trace": int(trace),
        "metrics": metrics,
        "checks": checks,
        "checks_failed": checks_failed,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "digests": digests,
        "call_walls_s": [[c.wall_s for c in r.calls] for r in reps],
        "call_cpu_s": [[c.cpu_s for c in r.calls] for r in reps],
        "host": host_facts(),
    }


def print_result(res: dict) -> None:
    print(f"== {res['workload']}  seed={res['seed'] or 'shipped'}  size={res['size']}  trace={res['trace']}")
    rows = [(k, v, unit, n) for k, (v, unit, n) in res["metrics"].items()]
    rows.append(("checks_failed", res["checks_failed"], "count", len(res["checks"])))
    rows.append(("ops_failed_frac", res["ops_failed_frac"], "fraction", res["attempted"]))
    for key, value, unit, n in rows:
        print(f"  {key:<28} {value:>16.6g} {unit:<8} n={n}")
    for name, ok, detail in res["checks"]:
        print(f"  check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"  digest {', '.join(res['digests'])}")
    print("record " + json.dumps(res))


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # ends children too
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the shipped seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full", help="small: the self-test size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "submoments" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'submoments'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_BASE))
    try:
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, tmp))
            print_result(results[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass
    prefix = len(results) > 1
    final = {
        "correct": all(r["checks_failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": unit}
            for r in results
            for k, (v, unit, _) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

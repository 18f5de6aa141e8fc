#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at the reduced ``small`` size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* a run prints every metric named in ``BENCHMARK.json`` with its unit, in
  both the untraced and the traced mode, and ends with the four-key result;
* traced spans nest: every child lies inside its parent, and a span list
  that breaks this is caught;
* a wrong result raises ``checks_failed``: the real ``cli_files`` outputs
  pass, and the same outputs with a tampered estimate or a truncated
  trajectory fail, with a different digest.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_metrics_printed(bench: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", "ou_rate", "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--size", "small",
            ],
            capture_output=True, text=True, cwd=run.ROOT, timeout=170,
        )
        expect(proc.returncode == 0, f"trace {trace}: run.py exits 0 ({proc.stderr.strip()[-200:]})")
        lines = proc.stdout.splitlines()
        final = json.loads(lines[-1]) if lines else {}
        expect(
            sorted(final) == ["attempted", "correct", "failed", "metrics"],
            f"trace {trace}: last line has exactly correct, attempted, failed, metrics",
        )
        expect(final.get("correct") is True, f"trace {trace}: outputs are correct")
        metrics = final.get("metrics", {})
        wanted = {m["name"]: m["unit"] for m in bench[group]}
        expect(sorted(metrics) == sorted(wanted), f"trace {trace}: metrics are exactly the {group} names")
        table = "\n".join(lines[:-1])
        for name, unit in wanted.items():
            got = metrics.get(name, {})
            expect(
                got.get("unit") == unit and isinstance(got.get("value"), (int, float))
                and f" {name} " in table,
                f"trace {trace}: {name} printed in {unit}",
            )


def check_spans_nest(tmp: Path) -> None:
    bench_run = run.Run(tmp)
    work = Path(tempfile.mkdtemp(dir=tmp))
    calls, traces = run.run_calls(bench_run, WORKLOADS["ou_rate"], work, SEED, "small", traced=True)
    expect(all(c.returncode == 0 for c in calls) and len(traces) == 1, "traced ou_rate call ran")
    spans = traces[0]["spans"] if traces else []
    names = {s[0] for s in spans}
    for name in ("cli.main", "lab.run", "models.simulate_ou", "grids.normals", "estimators.covariance"):
        expect(name in names, f"span {name} recorded")
    expect(layers.nesting_errors(spans) == [], f"{len(spans)} recorded spans nest")
    broken = [["outer", -1, 0.0, 1.0], ["inner", 0, 0.5, 1.5]]
    expect(layers.nesting_errors(broken) != [], "a child ending after its parent is caught")
    overlap = [["outer", -1, 0.0, 3.0], ["a", 0, 0.5, 1.5], ["b", 0, 1.0, 2.0]]
    expect(layers.nesting_errors(overlap) != [], "overlapping siblings are caught")


def check_wrong_result(tmp: Path) -> None:
    workload = WORKLOADS["cli_files"]
    work = Path(tempfile.mkdtemp(dir=tmp))
    calls, _ = run.run_calls(run.Run(tmp), workload, work, SEED, "small", traced=False)
    good = workload.evaluate(run.ROOT, work, "small", calls)
    expect(good.checks_failed == 0, f"real cli_files outputs pass ({good.checks_failed} failed)")

    path = work / "estimate-0.05.json"
    est = json.loads(path.read_text())
    est["parameters"]["reversion"] *= 1.25
    path.write_text(json.dumps(est))
    tampered = workload.evaluate(run.ROOT, work, "small", calls)
    expect(tampered.checks_failed > good.checks_failed, "a wrong reversion raises checks_failed")
    expect(tampered.digest != good.digest, "a wrong result changes the digest")

    with open(work / "path.bin", "r+b") as fh:
        fh.truncate(1000)
    truncated = workload.evaluate(run.ROOT, work, "small", calls)
    expect(
        any(name == "trajectory_bytes" and not ok for name, ok, _ in truncated.checks),
        "a truncated trajectory raises checks_failed",
    )


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics_printed(bench)
    run.TMP_BASE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_BASE) as tmp:
        check_spans_nest(Path(tmp))
        check_wrong_result(Path(tmp))
    try:
        run.TMP_BASE.rmdir()
    except OSError:
        pass
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

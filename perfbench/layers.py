"""Per-layer metrics from the spans that ``child.py trace`` records.

Each traced process yields ``{"spans": [[name, parent, start, end], ...],
"counts": {...}}``; ``parent`` is the index of the enclosing span or -1.
A span's self time is its duration minus the durations of its direct
children, which never overlap because every process is single-threaded.
"""

from __future__ import annotations

ROOT_SPAN = "cli.main"  # encloses submoments.cli.main; its direct children are layers
IMPORT_SPAN = "cli.import"  # the package import in a traced process

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "config.build_s": ("config.build",),
    "grids.normals_s": ("grids.normals",),
    "grids.subsample_s": ("grids.subsample",),
    "grids.write_s": ("grids.write",),
    "grids.read_s": ("grids.read",),
    "models.simulate_ou_s": ("models.simulate_ou",),
    "models.heston_core_s": ("models.heston_core",),
    "models.observable_s": ("models.observable",),
    "estimators.covariance_s": ("estimators.covariance",),
    "estimators.mean_s": ("estimators.mean",),
    "schemes.plan_s": ("schemes.plan",),
    "invert.solve_s": ("invert.solve",),
    "lab.report_s": ("lab.report",),
    "lab.self_s": ("lab.run",),
}

COUNTS = (
    "grids.normals_count",
    "grids.bytes_written",
    "grids.bytes_read",
    "models.fine_samples",
    "models.heston_steps",
    "estimators.covariance_calls",
    "estimators.bytes_computed",
    "invert.calls",
)


def self_times(spans: list) -> dict:
    """Total self time per span name."""
    totals: dict = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, _, start, end), inner in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


def nesting_errors(spans: list) -> list:
    """Spans that do not lie inside their parent, or that overlap a sibling."""
    errors = []
    last_end: dict = {}
    for index, (name, parent, start, end) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {index} ({name}) has no valid end")
            continue
        if parent >= 0:
            _, _, p_start, p_end = spans[parent]
            if p_end is None or start < p_start or end > p_end:
                errors.append(f"span {index} ({name}) is not inside its parent {parent}")
        if start < last_end.get(parent, float("-inf")):
            errors.append(f"span {index} ({name}) overlaps an earlier sibling")
        last_end[parent] = end
    return errors


def covered_time(spans: list) -> float:
    """Time covered by layer spans: the package import and the children of ``main``."""
    mains = {i for i, span in enumerate(spans) if span[0] == ROOT_SPAN}
    return sum(
        end - start
        for name, parent, start, end in spans
        if parent in mains or name == IMPORT_SPAN
    )


def layer_metrics(traces: list, traced_wall_s: float) -> dict:
    """Per-layer metrics summed over the traced processes of one repetition."""
    totals = {name: 0.0 for name in SELF_TIME}
    counts = {name: 0 for name in COUNTS}
    covered = 0.0
    for trace in traces:
        by_span = self_times(trace["spans"])
        for metric, names in SELF_TIME.items():
            totals[metric] += sum(by_span.get(n, 0.0) for n in names)
        for name in COUNTS:
            counts[name] += int(trace["counts"].get(name, 0))
        covered += covered_time(trace["spans"])
    out = dict(totals)
    out.update(counts)
    out["trace.coverage"] = covered / traced_wall_s
    return out

"""Per-layer metrics from the spans of a traced run.

A span is the tuple (id, name, start, end, parent, op, attrs) that
spans.Tracer records.  Metrics ending in `_s` (and the counts) are totals
per round of the workload, reported as the median over traced rounds;
`_per_s` rates and `parallel.overlap` pool every traced round;
`vhj.cole_hopf_s.g<N>` is the median seconds of one call at grid N.
A metric whose spans never occur in the rounds given is None.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

COLE_HOPF_GRIDS = (256, 1024, 4096)

# metric -> span name whose summed duration per round it reports
_SUMMED = {
    "rng.single_draw_s": "rng.single_draw",
    "parallel.span_wall_s": "parallel.run_chunked",
    "parallel.worker_busy_s": "parallel.worker",
    "torus.evaluate_s": "torus.evaluate",
    "vhj.checks_s": "vhj.check",
    "pgf.occupation_s": "pgf.occupation",
    "pgf.series_s": "pgf.series",
    "pgf.limit_s": "pgf.limit",
    "pgf.monte_carlo_s": "pgf.monte_carlo",
}

# metric -> (span name, attribute) whose values are summed per round
_COUNTED = {
    "rng.single_draw_streams": ("rng.single_draw", "streams"),
    "torus.evaluate_points": ("torus.evaluate", "points"),
    "spde.steps": ("spde", "steps"),
}

# rate metric -> (count metric, seconds metric), pooled over rounds
_RATES = {
    "rng.single_draw_streams_per_s": ("rng.single_draw_streams", "rng.single_draw_s"),
    "torus.evaluate_points_per_s": ("torus.evaluate_points", "torus.evaluate_s"),
    "spde.steps_per_s": ("spde.steps", "spde.busy_s"),
    "parallel.overlap": ("parallel.worker_busy_s", "parallel.span_wall_s"),
}

BYTES_PER_VALUE = 8


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    kids = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        kids[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = [(max(lo, start), min(hi, end)) for lo, hi in kids.get(sid, ())]
        out[sid] = (end - start) - _union_length([c for c in covered if c[1] > c[0]])
    return out


def _round_totals(spans, selfs):
    """Totals of one round, and the span names (spde.* as spde) it contains."""
    by_id = {s[0]: s for s in spans}

    def under(sid, name):
        while sid:
            span = by_id.get(sid)
            if span is None:
                return None
            if span[1] == name:
                return span
            sid = span[4]
        return None

    tot = defaultdict(float)
    seen = set()
    for sid, name, start, end, parent, _, attrs in spans:
        dur = end - start
        layer = "spde" if name.startswith("spde.") else name
        seen.add(layer)
        for metric, span_name in _SUMMED.items():
            if span_name == name:
                tot[metric] += dur
        for metric, (span_name, key) in _COUNTED.items():
            if span_name == layer and attrs:
                tot[metric] += attrs[key]
        if layer == "spde":
            tot["spde.busy_s"] += dur
        elif name == "parallel.worker":
            tot["parallel.chunks"] += 1
            tot["parallel.max_chunk_replicates"] = max(
                tot["parallel.max_chunk_replicates"], attrs["replicates"])
            paths = under(parent, "particles.paths")
            if paths is not None:
                seen.add("paths.worker")
                tot["particles.paths_self_s"] += selfs[sid]
                n, steps = paths[6]["n"], paths[6]["steps"]
                chunk = attrs["replicates"] * n * (2 * steps + 1) * BYTES_PER_VALUE
                tot["particles.chunk_bytes"] = max(tot["particles.chunk_bytes"], chunk)
        elif name == "particles.paths":
            tot["particles.paths_self_s"] += selfs[sid]
        elif name == "duality.cell":
            tot["duality.cell_self_s"] += selfs[sid]
        elif name == "cli.main":
            tot["cli.self_s"] += selfs[sid]
            if attrs and attrs["kind"] == "replay":
                seen.add("cli.replay")
                tot["cli.replay_s"] += dur
    return tot, seen


# metric -> span name that must occur for the metric to be defined
_SOURCE = {
    **{m: n for m, n in _SUMMED.items()},
    **{m: n for m, (n, _) in _COUNTED.items()},
    "parallel.chunks": "parallel.worker",
    "parallel.max_chunk_replicates": "parallel.worker",
    "particles.paths_self_s": "paths.worker",
    "particles.chunk_bytes": "paths.worker",
    "duality.cell_self_s": "duality.cell",
    "cli.self_s": "cli.main",
    "cli.replay_s": "cli.replay",
}


def layer_metrics(spans, rounds) -> dict:
    """Metrics over the spans whose op belongs to one of `rounds` (sets of op ids)."""
    selfs = self_times(spans)
    op_round = {op: r for r, ops in enumerate(rounds) for op in ops}
    grouped = [[] for _ in rounds]
    for span in spans:
        r = op_round.get(span[5])
        if r is not None:
            grouped[r].append(span)
    per_round, seen = [], set()
    for group in grouped:
        tot, round_seen = _round_totals(group, selfs)
        per_round.append(tot)
        seen |= round_seen
    out = {}
    for metric, source in _SOURCE.items():
        out[metric] = (
            statistics.median(t[metric] for t in per_round) if source in seen else None
        )
    for rate, (count, secs) in _RATES.items():
        num = sum(t[count] for t in per_round)
        den = sum(t[secs] for t in per_round)
        out[rate] = num / den if den > 0 else None
    for grid in COLE_HOPF_GRIDS:
        calls = [
            s[3] - s[2] for g in grouped for s in g
            if s[1] == "vhj.cole_hopf" and s[6] and s[6]["grid"] == grid
        ]
        out[f"vhj.cole_hopf_s.g{grid}"] = statistics.median(calls) if calls else None
    return out


# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_dklab_s": "s",
    "rng.single_draw_streams": "count",
    "rng.single_draw_s": "s",
    "rng.single_draw_streams_per_s": "1/s",
    "parallel.chunks": "count",
    "parallel.max_chunk_replicates": "count",
    "parallel.worker_busy_s": "s",
    "parallel.span_wall_s": "s",
    "parallel.overlap": "ratio",
    "parallel.single_draw_1t_s": "s",
    "parallel.single_draw_default_s": "s",
    "parallel.speedup_single_draw": "ratio",
    "parallel.paths_1t_s": "s",
    "parallel.paths_default_s": "s",
    "parallel.speedup_paths": "ratio",
    "torus.evaluate_points": "count",
    "torus.evaluate_s": "s",
    "torus.evaluate_points_per_s": "1/s",
    "particles.paths_self_s": "s",
    "particles.chunk_bytes": "bytes_computed",
    "duality.cell_self_s": "s",
    "vhj.cole_hopf_s.g256": "s",
    "vhj.cole_hopf_s.g1024": "s",
    "vhj.cole_hopf_s.g4096": "s",
    "vhj.checks_s": "s",
    "pgf.occupation_s": "s",
    "pgf.series_s": "s",
    "pgf.limit_s": "s",
    "pgf.monte_carlo_s": "s",
    "spde.steps": "count",
    "spde.steps_per_s": "1/s",
    "cli.self_s": "s",
    "cli.replay_s": "s",
    "trace.overhead_s": "s",
    "trace.probe_metrics": "count",
}

"""Span recording at the boundaries between dklab's modules.

A Tracer replaces a function that one module imported from another (or
that the benchmark calls) with a wrapper that records a span: name,
start, end, parent span and the id of the benchmark op it ran under.
Spans stay in memory and are written out once, when the run ends.

Only calls that do a batch of work are wrapped.  Per-stream calls such
as StreamBank.normals (about 6 us each) are left alone, since a wrapper
costing a microsecond or two would distort the time it measures.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import dklab.cli
import dklab.duality
import dklab.particles
import dklab.pgf
import dklab.spde
from dklab.torus import FourierFunction

_perf = time.perf_counter


def _streams(args, kwargs, result):
    return {"streams": int(args[0]) * int(args[1])}


def _paths(args, kwargs, result):
    return {"n": int(args[1]), "steps": int(args[4])}


def _grid(args, kwargs, result):
    return {"grid": int(args[0].grid_size)}


def _points(args, kwargs, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _replicates(args, kwargs, result):
    return {"replicates": int(args[4])}


def _evolve_steps(args, kwargs, result):
    return {"steps": int(args[2])}


def _ensemble_steps(args, kwargs, result):
    cap = result.max_steps
    return {"steps": sum(cap if rec is None else rec[0] for rec in result.hit_records)}


def _cli_kind(args, kwargs, result):
    return {"kind": args[0][0]}


# (module, attribute, span name, attributes from (args, kwargs, result));
# each row is a call that one dklab module makes into another.
PROGRAM_BOUNDARIES = [
    (dklab.cli, "run_duality_test", "duality.cell", _replicates),
    (dklab.cli, "martingale_ensemble", "particles.paths", _paths),
    (dklab.cli, "qv_statistic", "particles.qv", None),
    (dklab.cli, "occupation", "pgf.occupation", None),
    (dklab.cli, "atomicity_verdict", "pgf.series", None),
    (dklab.cli, "extract_coefficients_series", "pgf.series", None),
    (dklab.cli, "monte_carlo_pgf", "pgf.monte_carlo", None),
    (dklab.cli, "compare_histogram", "pgf.monte_carlo", None),
    (dklab.cli, "negativity_ensemble", "spde.ensemble", _ensemble_steps),
    (dklab.cli, "cole_hopf", "vhj.cole_hopf", _grid),
    (dklab.cli, "vhj_residual", "vhj.check", None),
    (dklab.cli, "check_extremum_principles", "vhj.check", None),
    (dklab.cli, "check_gradient_estimate", "vhj.check", None),
    (dklab.duality, "cole_hopf", "vhj.cole_hopf", _grid),
    (dklab.duality, "standard_increments", "rng.single_draw", _streams),
    (dklab.particles, "standard_increments", "rng.single_draw", _streams),
    (dklab.pgf, "terminal_ensemble", "particles.terminal", None),
]

# The same, for the calls the benchmark itself makes (workload.API).
API_BOUNDARIES = {
    "run_duality_test": ("duality.cell", _replicates),
    "martingale_ensemble": ("particles.paths", _paths),
    "qv_statistic": ("particles.qv", None),
    "cli_main": ("cli.main", _cli_kind),
    "cole_hopf": ("vhj.cole_hopf", _grid),
    "evolve": ("spde.evolve", _evolve_steps),
    "occupation": ("pgf.occupation", None),
    "atomicity_verdict": ("pgf.limit", None),
}

# run_chunked is wrapped in each module that hands it work.
CHUNKED_CALLERS = [dklab.particles, dklab.spde]


class Tracer:
    """Collects spans from wrapped calls; install() patches, remove() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_of=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            up = stack[-1] if stack else 0
            stack.append(sid)
            returned = False
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = _perf()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and returned else None
                tracer.spans.append((sid, name, start, end, up, tracer.op_id, attrs))

        traced.__wrapped__ = fn
        return traced

    def _chunked(self, fn):
        tracer = self

        def traced_run_chunked(total, worker, *args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            up = stack[-1] if stack else 0
            stack.append(sid)

            def traced_worker(lo, hi):
                wid = next(tracer._ids)
                wstack = tracer._stack()
                wstack.append(wid)
                start = _perf()
                try:
                    worker(lo, hi)
                finally:
                    end = _perf()
                    wstack.pop()
                    tracer.spans.append(
                        (wid, "parallel.worker", start, end, sid, tracer.op_id,
                         {"replicates": hi - lo})
                    )

            start = _perf()
            try:
                return fn(total, traced_worker, *args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                tracer.spans.append(
                    (sid, "parallel.run_chunked", start, end, up, tracer.op_id, None)
                )

        return traced_run_chunked

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, api) -> None:
        """Wrap every boundary, plus the benchmark's own entry points on api."""
        for module, attr, name, attrs_of in PROGRAM_BOUNDARIES:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, attrs_of))
        for attr, (name, attrs_of) in API_BOUNDARIES.items():
            self._patch(api, attr, self._wrap(getattr(api, attr), name, attrs_of))
        for module in CHUNKED_CALLERS:
            self._patch(module, "run_chunked", self._chunked(module.run_chunked))
        self._patch(
            FourierFunction, "evaluate",
            self._wrap(FourierFunction.evaluate, "torus.evaluate", _points),
        )

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per line: id, name, start, end, parent, op, attrs."""
        with open(path, "w") as fh:
            for sid, name, start, end, up, op, attrs in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": up, "op": op, "attrs": attrs}
                ) + "\n")

"""Deterministic replicate-level parallelism.

range(total) is split into one contiguous slab per thread; each worker
writes into a disjoint slice of preallocated output and owns its random
streams, so the result is bitwise independent of the thread count.  A
worker that needs bounded memory walks its slab in pieces of its own
choosing.  DKLAB_THREADS caps the pool size (default: all cores), and
the pool never outnumbers the cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count(threads: int | None = None) -> int:
    """The pool size in effect: threads, else DKLAB_THREADS, else all cores.

    Never more than os.cpu_count(): more threads than cores only add
    piece buffers, not speed.
    """
    cores = os.cpu_count() or 1
    if not threads:
        raw = os.environ.get("DKLAB_THREADS", "")
        if not raw.strip():
            return cores
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValueError(f"DKLAB_THREADS must be an integer, got {raw!r}") from exc
        if threads < 1:
            raise ValueError("DKLAB_THREADS must be >= 1")
    return min(threads, cores)


def run_chunked(total: int, worker, threads: int | None = None):
    """Call worker(lo, hi) once per slab of a partition of range(total).

    The slabs are contiguous, at most thread_count(threads) of them, and
    their sizes differ by at most 1; each runs on its own thread, or
    inline at one slab.  worker must only write to state indexed by
    [lo, hi), and the value at each index must be a function of the index
    alone (stream-keyed draws), so neither slab boundaries nor scheduling
    can change the result.  A worker's exception propagates.
    """
    slabs = min(thread_count(threads), total)
    if slabs <= 1:
        if total > 0:
            worker(0, total)
        return
    bounds = [total * s // slabs for s in range(slabs + 1)]
    with ThreadPoolExecutor(max_workers=slabs) as pool:
        list(pool.map(worker, bounds[:-1], bounds[1:]))

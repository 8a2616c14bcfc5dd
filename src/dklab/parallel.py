"""Deterministic replicate-level parallelism.

Work is split into contiguous replicate chunks; each worker writes into a
disjoint slice of preallocated output and owns its random streams, so the
result is bitwise independent of the thread count.  DKLAB_THREADS caps the
pool size (default: all cores).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    raw = os.environ.get("DKLAB_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"DKLAB_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError("DKLAB_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def run_chunked(
    total: int,
    worker,
    threads: int | None = None,
    min_chunk: int = 256,
    max_chunk: int | None = None,
):
    """Call worker(lo, hi) over a partition of range(total).

    worker must only write to state indexed by [lo, hi), and the value at
    each index must be a function of the index alone (stream-keyed draws),
    so neither chunk boundaries nor scheduling can change the result.

    Chunks aim at four per thread and hold at least min_chunk indices,
    but never more than max_chunk: a caller whose worker allocates per
    index passes the count its memory budget allows, so the memory in use
    stays bounded however large total is.
    """
    threads = threads or thread_count()
    if total <= 0:
        return
    chunk = max(min_chunk, -(-total // max(1, 4 * threads)))
    if max_chunk is not None:
        chunk = min(chunk, max(1, max_chunk))
    spans = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    if threads == 1 or len(spans) == 1:
        for lo, hi in spans:
            worker(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda span: worker(*span), spans))

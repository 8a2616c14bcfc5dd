"""run_chunked: one contiguous slab per thread, sizes within 1 of each other."""

import os
import threading

import pytest

import dklab.parallel
from dklab.cli import main, parse_manifest
from dklab.parallel import run_chunked, thread_count


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("total", [0, 1, 2, 7, 3000])
def test_slabs_partition_the_range(threads, total):
    calls = []
    lock = threading.Lock()

    def worker(lo, hi):
        with lock:
            calls.append((lo, hi))

    run_chunked(total, worker, threads)
    if total == 0:
        assert calls == []
        return
    calls.sort()
    assert len(calls) <= threads
    assert calls[0][0] == 0 and calls[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    sizes = [hi - lo for lo, hi in calls]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_worker_exception_propagates(threads):
    def worker(lo, hi):
        if lo <= 5 < hi:
            raise RuntimeError(f"slab {lo}..{hi}")

    with pytest.raises(RuntimeError, match="slab"):
        run_chunked(7, worker, threads)


class InlinePool:
    """A stand-in for ThreadPoolExecutor that records its size and runs
    the work inline, so no thread starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def three_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(dklab.parallel, "ThreadPoolExecutor", InlinePool)
    InlinePool.sizes.clear()
    return InlinePool.sizes


@pytest.mark.parametrize("env, threads", [("100000", None), (None, 100000)])
def test_pool_never_outnumbers_the_cores(three_cores, monkeypatch, env, threads):
    # a 20 000 000-replicate run is 19 532 blocks: at most 3 slabs, not 19 532
    if env is None:
        monkeypatch.delenv("DKLAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("DKLAB_THREADS", env)
    calls = []
    run_chunked(19532, lambda lo, hi: calls.append((lo, hi)), threads)
    assert three_cores == [3] and thread_count(threads) == 3
    assert [lo for lo, _ in calls] == [0, 6510, 13021] and calls[-1][1] == 19532


def test_manifest_records_the_capped_thread_count(three_cores, monkeypatch, tmp_path):
    monkeypatch.setenv("DKLAB_THREADS", "100000")
    out = tmp_path / "m.csv"
    args = ["martingale", "--alpha", "1", "--t", "0.02", "--replicates", "5000",
            "--num-steps", "4", "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    assert three_cores and set(three_cores) == {3}
    assert parse_manifest(str(out) + ".manifest")["threads_observed"] == "3"

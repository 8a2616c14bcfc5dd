"""run_chunked: one contiguous slab per thread, sizes within 1 of each other."""

import threading

import pytest

from dklab.parallel import run_chunked


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

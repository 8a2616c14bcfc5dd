"""Stream independence, determinism and distributional quality."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dklab import EmpiricalMeasure, RngStream, derive_seed, simulate_path, terminal_ensemble
from dklab import rng
from dklab.particles import standard_increments
from dklab.rng import block_stream_ids, normals, replicate_stream_ids
from oracles import block_increments

U64 = (1 << 64) - 1


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def reference_normals(seed, ids, count):
    """The first count normals of each stream (seed, id), one key at a time
    through numpy's own Philox; shape ids.shape + (count,)."""
    bg = np.random.Philox()
    gen = np.random.Generator(bg)
    state = rng._philox_state(seed, 0)
    flat = np.ravel(ids).tolist()
    out = np.empty((len(flat), count))
    for j, sid in enumerate(flat):
        state["state"]["key"][1] = sid  # the state of rng._philox_state(seed, sid)
        bg.state = state
        out[j] = gen.standard_normal(count)
    return out.reshape(np.shape(ids) + (count,))


def test_same_key_same_output():
    a = normals(123, [45], 100)
    assert np.array_equal(a, normals(123, [45], 100))
    assert np.array_equal(a[0], RngStream(123, 45).generator.standard_normal(100))


def test_distinct_keys_differ():
    a, b = normals(123, [45, 46], 100)
    c = normals(124, [45], 100)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# the variance of a particle's draw is n * dt, set by the path sampler


def test_variance_zero_returns_zeros():
    mu0 = EmpiricalMeasure([0.25, 0.5, 0.75])
    assert np.array_equal(terminal_ensemble(mu0, 3, 0.0, 50, 1), np.tile(mu0.positions, (50, 1)))
    path = simulate_path(mu0, 3, 0.0, 8, 1)
    assert np.array_equal(path.positions, np.tile(mu0.positions, (9, 1)))


def test_negative_variance_rejected():
    mu0 = EmpiricalMeasure([0.5])
    with pytest.raises(ValueError, match="t_final"):
        terminal_ensemble(mu0, 1, -1.0, 10, 1)
    with pytest.raises(ValueError, match="t_final"):
        simulate_path(mu0, 1, -1.0, 10, 1)


def test_sample_mean_within_lln_tolerance():
    x = normals(7, [0], 10**6)[0]
    assert abs(x.mean()) < 4.0 / np.sqrt(10**6)


def test_variance_scales():
    # 2 * 10**5 steps of variance n * dt = 2 * 0.125 / 10**5; each step is
    # under 0.01, so the wrapped positions give the steps back
    steps, target = 10**5, 2 * 0.125 / 10**5
    path = simulate_path(EmpiricalMeasure([0.2, 0.7]), 2, 0.125, steps, 8)
    dx = np.diff(path.positions, axis=0)
    x = dx - np.round(dx)
    assert abs(x.var() - target) < 4 * target * np.sqrt(2 / x.size)


def test_ks_statistic_below_criticial_value():
    # 0.001-level Kolmogorov-Smirnov on 1e5 samples
    n = 10**5
    x = normals(9, [1], n)[0]
    stat = stats.kstest(x, "norm").statistic
    critical = stats.kstwobign.isf(0.001) / np.sqrt(n)
    assert stat < critical


def test_normals_match_fresh_streams():
    # every count the drivers draw (1, 30, 200), repeated and far-apart ids
    ids = np.array([0, 1, 2**32, 5 * 2**32 + 3, 1, 0, 2**63 - 1, 2**32, 7], dtype=np.uint64)
    for count in (1, 2, 3, 16, 30, 200):
        want = reference_normals(321, ids, count)
        assert np.array_equal(bits(normals(321, ids, count)), bits(want))
        for sid, row in zip(ids.tolist(), want):
            fresh = RngStream(321, sid).generator.standard_normal(count)
            assert np.array_equal(bits(fresh), bits(row))
    # the rows _paths hands _fill_normals: the [:, 1:] column slice of a
    # C-ordered (R * n, steps + 1) array, which fixes the count by itself
    seed, steps = 2**63 + 321, 200
    keys = replicate_stream_ids(4, 3, 2**31 + 5).ravel()  # every key >= 2**63
    assert (keys >= 2**63).all()
    x = np.full((keys.size, steps + 1), np.nan)
    rng._fill_normals(seed, keys, x[:, 1:])
    assert np.isnan(x[:, 0]).all()
    assert np.array_equal(bits(x[:, 1:]), bits(reference_normals(seed, keys, steps)))


@pytest.mark.parametrize("first", [lambda k: 100 * k, lambda k: 1000 * k],
                         ids=["overlapping-ids", "disjoint-ids"])
def test_concurrent_draws_equal_sequential(first):
    # four threads on two cores, switching every microsecond: each
    # normals(seed, ids, 200) returns what it returns when the calls run
    # one after the other (300-replicate ranges 100 apart overlap)
    seed, count = 2**63 + 17, 200
    ids = [replicate_stream_ids(300, 2, first(k)).ravel() for k in range(4)]
    want = [normals(seed, i, count) for i in ids]
    got = [None] * len(ids)
    start = threading.Barrier(len(ids))

    def draw(k):
        start.wait(timeout=60)
        got[k] = normals(seed, ids[k], count)

    threads = [threading.Thread(target=draw, args=(k,)) for k in range(len(ids))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for g, w in zip(got, want):
        assert g is not None and np.array_equal(bits(g), bits(w))


def test_failed_fill_releases_the_draw_lock():
    # the second row is float32, so numpy refuses it after the first stream
    ids = np.arange(3, dtype=np.uint64)
    rows = [np.empty(200), np.empty(200, dtype=np.float32), np.empty(200)]
    with pytest.raises(TypeError, match="float64"):
        rng._fill_normals(5, ids, rows)
    assert not rng._DRAW_LOCK.locked()
    assert np.array_equal(bits(normals(5, ids, 200)), bits(reference_normals(5, ids, 200)))


def test_stream_keys_at_and_above_two_to_the_63():
    # every 64-bit key word reaches numpy exactly, with no float64 rounding
    keys = [(2**63, 0), (2**63 + 5, 0), (U64 - 2, 0), (5, 2**63 + 1), (U64, U64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, sid in keys:
            want = reference_normals(seed, [sid], 200)[0]
            got = RngStream(seed, sid).generator.standard_normal(200)
            assert np.array_equal(bits(got), bits(want))
            for count in (1, 30, 200):
                got = normals(seed, np.array([sid], dtype=np.uint64), count)[0]
                assert np.array_equal(bits(got), bits(want[:count]))
    a = RngStream(2**63 + 5, 0).generator.standard_normal(8)
    b = RngStream(2**63, 0).generator.standard_normal(8)
    assert not np.array_equal(a, b)


BLOCK = rng.REPLICATES_PER_BLOCK


# ranges that start inside a block, that cross two or three blocks, and
# that lie near r = 2**42, where the block keys wrap
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(2**63, U64),
    n=st.integers(1, 9),
    first_replicate=st.one_of(
        st.integers(0, 8 * BLOCK),
        st.integers(2**42 - 3 * BLOCK, 2**42 + BLOCK),
        st.integers(0, U64),
    ),
    replicates=st.integers(1, 3 * BLOCK),
)
@example(seed=2**63, n=1, first_replicate=0, replicates=1)
@example(seed=2**63 + 5, n=3, first_replicate=BLOCK - 1, replicates=2)
@example(seed=U64, n=9, first_replicate=5, replicates=2 * BLOCK + 10)
@example(seed=U64 - 7, n=2, first_replicate=2**42 - 2, replicates=5)
@example(seed=2**64 - 11, n=4, first_replicate=U64 - 3, replicates=9)
def test_block_draws_match_numpy_streams(seed, n, first_replicate, replicates):
    got = standard_increments(n, replicates, seed, first_replicate)
    assert got.shape == (replicates, n)
    want = block_increments(seed, n, replicates, first_replicate)
    assert np.array_equal(bits(got), bits(want))
    # the same rows, drawn as part of the whole blocks around the range
    start = first_replicate - first_replicate % BLOCK
    whole = standard_increments(n, 4 * BLOCK, seed, start)
    head = first_replicate - start
    assert np.array_equal(bits(got), bits(whole[head : head + replicates]))


def test_block_keys_are_not_path_keys():
    # a block key's low word is 2**32 - 1, a path key's is a particle index
    for first in (0, 5, 2**31, 2**32 - 1, U64 - 2):
        blocks = block_stream_ids(4, first)
        assert blocks.tolist() == [((first + b) * 2**32 + 2**32 - 1) & U64 for b in range(4)]
        paths = replicate_stream_ids(6, 9, first).ravel()
        assert np.intersect1d(blocks, paths).size == 0
        assert (paths & np.uint64(2**32 - 1) < 9).all()


def test_stream_ids_wrap_mod_two_to_the_64():
    # replicate indices that differ by 2**42 give the same block keys mod
    # 2**64, and the same place in their block
    a = standard_increments(3, 10, 99, 2**42 - 4)
    b = standard_increments(3, 10, 99, 2**43 - 4)
    assert np.array_equal(bits(a), bits(b))
    assert np.array_equal(bits(a), bits(block_increments(99, 3, 10, 2**42 - 4)))
    ids = np.array([-1, -2**32, -2**63], dtype=np.int64)
    for count in (1, 30):
        want = reference_normals(99, [int(i) & U64 for i in ids], count)
        assert np.array_equal(bits(normals(99, ids, count)), bits(want))
    with pytest.raises(TypeError):
        normals(99, [2**63 + 1, 2], 1)  # would round through float64


def test_empty_and_shaped_requests():
    assert standard_increments(4, 0, 1).shape == (0, 4)
    assert normals(8, np.zeros(0, dtype=np.uint64), 200).shape == (0, 200)
    ids = np.arange(12, dtype=np.uint64).reshape(3, 2, 2)
    for count in (1, 30):
        got = normals(8, ids, count)
        assert got.shape == (3, 2, 2, count)
        assert np.array_equal(bits(got.reshape(12, count)), bits(normals(8, ids.ravel(), count)))


def test_replicate_stream_layout():
    ids = replicate_stream_ids(3, 4, 7)
    assert ids.dtype == np.uint64 and ids.shape == (3, 4)
    assert ids.tolist() == [[(7 + r) * 2**32 + i for i in range(4)] for r in range(3)]
    top = (U64 << 32) & U64  # replicate 2**64 - 1; the next one wraps to 0
    assert replicate_stream_ids(2, 2, U64).tolist() == [[top, top + 1], [0, 1]]


def test_derive_seed_deterministic_and_spread():
    a = derive_seed(42, 0)
    b = derive_seed(42, 1)
    assert a == derive_seed(42, 0)
    assert a != b

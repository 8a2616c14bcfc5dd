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
from dklab.rng import REPLICATE_STRIDE, block_pieces, block_stream_ids
from oracles import block_increments

U64 = (1 << 64) - 1


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def reference_normals(seed, ids, count):
    """The first count normals of each stream (seed, id), one key at a time
    through numpy's own Philox with its full state set explicitly (key,
    counter 0, empty buffer); shape (len(ids), count)."""
    bg = np.random.Philox()
    gen = np.random.Generator(bg)
    key = np.array([seed & U64, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(ids), count))
    for j, sid in enumerate(ids):
        key[1] = sid & U64
        bg.state = state
        out[j] = gen.standard_normal(count)
    return out


def draw(seed, stream_id, count):
    return RngStream(seed, stream_id).generator.standard_normal(count)


def test_same_key_same_output():
    a = draw(123, 45, 100)
    assert np.array_equal(a, draw(123, 45, 100))
    assert np.array_equal(bits(a), bits(reference_normals(123, [45], 100)[0]))


def test_distinct_keys_differ():
    a, b = draw(123, 45, 100), draw(123, 46, 100)
    c = draw(124, 45, 100)
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
    x = draw(7, 0, 10**6)
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
    x = draw(9, 1, n)
    stat = stats.kstest(x, "norm").statistic
    critical = stats.kstwobign.isf(0.001) / np.sqrt(n)
    assert stat < critical


def test_streams_match_explicit_philox_state():
    # every count the drivers draw (1, 30, 200), repeated and far-apart ids
    ids = [0, 1, 2**32, 5 * 2**32 + 3, 1, 0, 2**63 - 1, 2**32, 7]
    for count in (1, 2, 3, 16, 30, 200):
        want = reference_normals(321, ids, count)
        for sid, row in zip(ids, want):
            assert np.array_equal(bits(draw(321, sid, count)), bits(row))
    # key words >= 2**63 and negative ints, taken mod 2**64, at the path
    # length of criterion 3
    keys = [(2**63 + 321, 2**63), (2**63 + 321, U64 - 1), (U64, U64), (-1, 5),
            (7, -1), (-(2**63), -(2**32)), (-5, 2**63 + 5)]
    for seed, sid in keys:
        want = reference_normals(seed & U64, [sid & U64], 200)[0]
        assert np.array_equal(bits(draw(seed, sid, 200)), bits(want))
        assert np.array_equal(bits(draw(seed & U64, sid & U64, 200)), bits(want))


BLOCK = rng.REPLICATES_PER_BLOCK


def walk(seed, width, lo, hi, cap):
    out = np.empty(cap * width)
    return np.concatenate([z.copy() for _, _, z in block_pieces(seed, width, lo, hi, cap, out)])


@pytest.mark.parametrize("first", [lambda k: 700 * k, lambda k: 3 * BLOCK * k + 500],
                         ids=["overlapping-ids", "disjoint-ids"])
def test_concurrent_draws_equal_sequential(first):
    # four threads on two cores, switching every microsecond, each walking
    # block_pieces as the pool's threads do: every walk returns what it
    # returns when the walks run one after the other.  Each 1300-replicate
    # range straddles a block edge, in pieces of 300 that straddle edges
    # too; ranges 700 apart share block streams, ranges 3 blocks apart do not
    seed, n, num_steps, cap = 2**63 + 17, 2, 3, 300
    ranges = [(first(k), first(k) + 1300) for k in range(4)]
    want = [walk(seed, n * num_steps, lo, hi, cap) for lo, hi in ranges]
    for (lo, hi), w in zip(ranges, want):
        oracle = block_increments(seed, n, hi - lo, lo, num_steps)
        assert np.array_equal(bits(w), bits(oracle))
    got = [[] for _ in ranges]
    start = threading.Barrier(len(ranges))

    def run(k):
        start.wait(timeout=60)
        for _ in range(5):
            got[k].append(walk(seed, n * num_steps, *ranges[k], cap))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(ranges))]
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
        assert len(g) == 5 and all(np.array_equal(bits(x), bits(w)) for x in g)


def test_stream_keys_at_and_above_two_to_the_63():
    # every 64-bit key word reaches numpy exactly, with no float64 rounding
    keys = [(2**63, 0), (2**63 + 5, 0), (U64 - 2, 0), (5, 2**63 + 1), (U64, U64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, sid in keys:
            want = reference_normals(seed, [sid], 200)[0]
            assert np.array_equal(bits(draw(seed, sid, 200)), bits(want))
    assert not np.array_equal(draw(2**63 + 5, 0, 8), draw(2**63, 0, 8))


# Known answers: the first raw Philox words and the first normals of the
# streams (11, id) for ids 0, 2**63 and 2**64 - 1, as numpy 2.4 gives them.
# Every other test here checks numpy against numpy; a numpy release that
# changes Philox or Generator.standard_normal (NEP 19 does not freeze
# them) fails this test by name before any digest pin.
KNOWN_STREAMS = {
    0: (
        [0x20843894DAE02517, 0xAF43D220B6AAAA04, 0xA352BD98CBAB0354, 0x9FA75F07C736520D],
        ["-0x1.7fad4a8bcb6f8p-7", "0x1.6e7a0b7e66c1ap-3", "-0x1.077ec49fc5fefp-3",
         "-0x1.2b3022b46affbp+0"],
    ),
    2**63: (
        [0xDBC5798552108B46, 0x003065F081696644, 0x427A3616C1F5E337, 0x61C0E2BE4A7420E1],
        ["-0x1.fa9f91d59b608p-1", "0x1.b3d2f4739b2c7p-8", "-0x1.45b9a685b27cep-4",
         "0x1.0e9163fac9980p-3"],
    ),
    U64: (
        [0xDF8F4BC91B8B0532, 0x472188CA2D6A686C, 0x39E254DF87F77DF5, 0x6CA2C056546F4CC8],
        ["-0x1.f2630c026bb60p-1", "0x1.3fb7e420c6e21p-2", "-0x1.27d164d6854b1p+1",
         "0x1.a943729367402p-1"],
    ),
}


def test_known_answer_streams():
    for sid, (words, normals) in KNOWN_STREAMS.items():
        raw = RngStream(11, sid).generator.bit_generator.random_raw(4)
        assert [int(w) for w in raw] == words, hex(sid)
        got = RngStream(11, sid).generator.standard_normal(4)
        assert [float(v).hex() for v in got] == normals, hex(sid)
    # 2**64 - 1 is the key of the last block, (2**32 - 1) * 1024 onward
    lo = (2**32 - 1) * BLOCK
    [(_, _, z)] = block_pieces(11, 4, lo, lo + 1, 1, np.empty(4))
    assert [float(v).hex() for v in z[0]] == KNOWN_STREAMS[U64][1]


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


# ranges and pieces of every size around the block edges, widths of one
# step (standard_increments) and of several
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, U64),
    n=st.integers(1, 4),
    num_steps=st.integers(1, 5),
    lo=st.one_of(st.integers(0, 3 * BLOCK), st.integers(0, U64)),
    replicates=st.integers(1, 3 * BLOCK),
    cap=st.one_of(st.integers(1, 40), st.integers(1, 4 * BLOCK)),
)
@example(seed=5, n=2, num_steps=3, lo=BLOCK - 1, replicates=BLOCK + 2, cap=BLOCK)
@example(seed=5, n=1, num_steps=1, lo=0, replicates=3 * BLOCK, cap=BLOCK)
def test_block_pieces_match_numpy_streams(seed, n, num_steps, lo, replicates, cap):
    hi = lo + replicates
    out = np.full(min(cap, replicates) * n * num_steps, np.nan)
    pieces = [(a, b, z.copy()) for a, b, z in block_pieces(seed, n * num_steps, lo, hi, cap, out)]
    assert [a for a, _, _ in pieces] == list(range(lo, hi, cap))
    assert all(b == min(a + cap, hi) and z.shape == (b - a, n * num_steps) for a, b, z in pieces)
    got = np.concatenate([z for _, _, z in pieces])
    want = block_increments(seed, n, replicates, lo, num_steps)
    assert np.array_equal(bits(got), bits(want))


def test_block_keys_are_not_spde_member_keys():
    # a block key's low word is 2**32 - 1, an SPDE member key's is 0
    for first in (0, 5, 2**31, 2**32 - 1, U64 - 2):
        blocks = block_stream_ids(4, first)
        members = (np.arange(6, dtype=np.uint64) + np.uint64(first)) * np.uint64(REPLICATE_STRIDE)
        assert np.intersect1d(blocks, members).size == 0
        assert (blocks & np.uint64(2**32 - 1) == 2**32 - 1).all()
        assert (members & np.uint64(2**32 - 1) == 0).all()


def test_stream_ids_wrap_mod_two_to_the_64():
    # replicate indices that differ by 2**42 give the same block keys mod
    # 2**64, and the same place in their block
    a = standard_increments(3, 10, 99, 2**42 - 4)
    b = standard_increments(3, 10, 99, 2**43 - 4)
    assert np.array_equal(bits(a), bits(b))
    assert np.array_equal(bits(a), bits(block_increments(99, 3, 10, 2**42 - 4)))


def test_empty_and_shaped_requests():
    assert standard_increments(4, 0, 1).shape == (0, 4)
    assert list(block_pieces(8, 200, 5, 5, 10, np.empty(0))) == []


def test_replicate_stream_layout():
    # replicate r draws from the stream of block r // 1024
    ids = block_stream_ids(3, 7)
    assert ids.dtype == np.uint64 and ids.shape == (3,)
    assert ids.tolist() == [(7 + b) * 2**32 + 2**32 - 1 for b in range(3)]
    for first in (0, 5, 2**31, 2**32 - 1, U64 - 2):
        assert block_stream_ids(4, first).tolist() == [
            ((first + b) * 2**32 + 2**32 - 1) & U64 for b in range(4)
        ]
    top = ((U64 << 32) | (2**32 - 1)) & U64  # block 2**64 - 1; the next one wraps to 0
    assert block_stream_ids(2, U64).tolist() == [top, 2**32 - 1]


def test_derive_seed_deterministic_and_spread():
    a = derive_seed(42, 0)
    b = derive_seed(42, 1)
    assert a == derive_seed(42, 0)
    assert a != b

"""Stream independence, determinism and distributional quality."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import make_ziggurat
from dklab import RngStream, derive_seed, gaussian_increment, replicate_stream
from dklab import rng
from dklab.particles import standard_increments
from dklab.rng import StreamBank, standard_normals

U64 = (1 << 64) - 1


def test_same_key_same_output():
    a = gaussian_increment(RngStream(123, 45), 100, 1.0)
    b = gaussian_increment(RngStream(123, 45), 100, 1.0)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    a = gaussian_increment(RngStream(123, 45), 100, 1.0)
    b = gaussian_increment(RngStream(123, 46), 100, 1.0)
    c = gaussian_increment(RngStream(124, 45), 100, 1.0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_variance_zero_returns_zeros():
    assert np.all(gaussian_increment(RngStream(1, 2), 8, 0.0) == 0.0)


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        gaussian_increment(RngStream(1, 2), 8, -1.0)


def test_sample_mean_within_lln_tolerance():
    x = gaussian_increment(RngStream(7, 0), 10**6, 1.0)
    assert abs(x.mean()) < 4.0 / np.sqrt(10**6)


def test_variance_scales():
    x = gaussian_increment(RngStream(8, 0), 10**5, 0.25)
    assert abs(x.var() - 0.25) < 4 * 0.25 * np.sqrt(2 / 10**5)


def test_ks_statistic_below_criticial_value():
    # 0.001-level Kolmogorov-Smirnov on 1e5 samples
    n = 10**5
    x = gaussian_increment(RngStream(9, 1), n, 1.0)
    stat = stats.kstest(x, "norm").statistic
    critical = stats.kstwobign.isf(0.001) / np.sqrt(n)
    assert stat < critical


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_stream_bank_matches_fresh_streams():
    bank = StreamBank(321)
    ids = (0, 1, 2**32, 5 * 2**32 + 3, 1, 0, 2**63 - 1, 2**32, 7)
    counts = (16, 1, 3, 16, 200, 2, 5, 1, 16)
    for sid, count in zip(ids, counts):
        fresh = RngStream(321, sid).generator.standard_normal(count)
        assert np.array_equal(bits(bank.normals(sid, count)), bits(fresh))


def test_stream_keys_at_and_above_two_to_the_63():
    # every 64-bit key word reaches numpy exactly, with no float64 rounding
    keys = [(2**63, 0), (2**63 + 5, 0), (U64 - 2, 0), (5, 2**63 + 1), (U64, U64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, sid in keys:
            got = RngStream(seed, sid).generator.standard_normal(16)
            assert np.array_equal(bits(got), bits(StreamBank(seed).normals(sid, 16)))
    a = RngStream(2**63 + 5, 0).generator.standard_normal(8)
    b = RngStream(2**63, 0).generator.standard_normal(8)
    assert not np.array_equal(a, b)


def reference_increments(n, replicates, seed, first_replicate):
    bank = StreamBank(seed)
    return np.array([
        [bank.normals((first_replicate + r) * 2**32 + i, 1)[0] for i in range(n)]
        for r in range(replicates)
    ]).reshape(replicates, n)


# 40 examples of about 25 000 keys each: 10**6 keys against the per-stream draws
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, U64),
    first_replicate=st.integers(0, U64),
    n=st.integers(1, 6),
    extra=st.integers(1, 4095),
)
@example(seed=2**63, first_replicate=2**32 - 3, n=5, extra=17)
@example(seed=U64, first_replicate=U64 - 1, n=3, extra=4095)
@example(seed=0, first_replicate=0, n=1, extra=1)
def test_vectorised_first_draws_match_per_stream_draws(seed, first_replicate, n, extra):
    replicates = (6 * rng._BLOCK + extra) // n
    got = standard_increments(n, replicates, seed, first_replicate)
    want = reference_increments(n, replicates, seed, first_replicate)
    assert got.shape == (replicates, n)
    assert np.array_equal(bits(got), bits(want))


def numpy_first_words(seed, ids):
    """Word 0 of each stream (seed, id), from numpy's own Philox."""
    bg = np.random.Philox()
    out = []
    for sid in ids.tolist():
        bg.state = rng._philox_state(seed, sid)
        out.append(bg.random_raw())
    return np.array(out, dtype=np.uint64)


# the in-place kernel, run block by block through one reused scratch as
# standard_normals runs it, against numpy's Philox4x64-10
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, U64),
    first=st.integers(0, U64),
    stride=st.integers(1, U64),
    count=st.integers(1, 3 * rng._BLOCK).filter(lambda c: c % rng._BLOCK),
)
@example(seed=0, first=0, stride=1, count=1)
@example(seed=U64, first=U64, stride=U64, count=rng._BLOCK + 1)
@example(seed=2**63 + 5, first=2**63, stride=2**32 + 1, count=2 * rng._BLOCK - 1)
def test_philox_first_words_match_numpy(seed, first, stride, count):
    ids = np.uint64(first) + np.arange(count, dtype=np.uint64) * np.uint64(stride)
    work = np.full((9, rng._BLOCK), U64, dtype=np.uint64)
    got = np.concatenate([
        rng._philox_first_words(seed, ids[lo : lo + rng._BLOCK], work).copy()
        for lo in range(0, count, rng._BLOCK)
    ])
    assert np.array_equal(got, numpy_first_words(seed, ids))
    assert np.array_equal(rng._philox_first_words(seed, ids), got)


def test_stream_ids_wrap_mod_two_to_the_64():
    # replicate indices that differ by 2**32 give the same ids mod 2**64
    a = standard_increments(3, 10, 99, 2**32 - 4)
    b = standard_increments(3, 10, 99, 2**33 - 4)
    assert np.array_equal(bits(a), bits(b))
    ids = np.array([-1, -2**32, -2**63], dtype=np.int64)
    want = [StreamBank(99).normals(int(i) & U64, 1)[0] for i in ids]
    assert np.array_equal(bits(standard_normals(99, ids)), bits(want))
    with pytest.raises(TypeError):
        standard_normals(99, [2**63 + 1, 2])  # would round through float64


def test_fallback_keys_match_per_stream_draws():
    seed, ids = 2**64 - 11, np.arange(40000, dtype=np.uint64) * np.uint64(2**32 + 1)
    _, accepted = rng._ziggurat_fast_path(rng._philox_first_words(seed, ids))
    missed = ids[~accepted]
    assert 200 < missed.size < 1200  # about 1.5% of the keys
    bank = StreamBank(seed)
    want = [bank.normals(int(i), 1)[0] for i in missed]
    assert np.array_equal(bits(standard_normals(seed, missed)), bits(want))


def test_every_key_forced_onto_the_fallback(monkeypatch):
    monkeypatch.setattr(rng, "_ZIGGURAT_KI", np.zeros(256, dtype=np.uint64))
    got = standard_increments(2, 300, 12345, 7)
    assert np.array_equal(bits(got), bits(reference_increments(2, 300, 12345, 7)))


def test_empty_and_shaped_requests():
    assert standard_increments(4, 0, 1).shape == (0, 4)
    ids = np.arange(12, dtype=np.uint64).reshape(3, 2, 2)
    got = standard_normals(8, ids)
    assert got.shape == (3, 2, 2)
    assert np.array_equal(bits(got.ravel()), bits(standard_normals(8, ids.ravel())))


@pytest.fixture(scope="module")
def fake_bitgen():
    gen = make_ziggurat.load()
    if gen is None:
        pytest.skip("numpy does not export random_standard_normal")
    return gen


def test_ziggurat_literals_match_numpy(fake_bitgen):
    ki, wi = make_ziggurat.ziggurat_tables(fake_bitgen)
    assert rng._ZIGGURAT_KI.tolist() == ki
    assert np.array_equal(bits(rng._ZIGGURAT_WI), bits(wi))
    assert ki[1] == 0  # layer 1 never takes the fast path, not even at rabs = 0


def test_ziggurat_layer_edges(fake_bitgen):
    for idx in range(256):
        edge = int(rng._ZIGGURAT_KI[idx])
        if edge > 0:
            assert fake_bitgen.fast_path(idx, edge - 1), idx
        if edge < make_ziggurat.RABS_LIMIT:
            assert not fake_bitgen.fast_path(idx, edge), idx
        # the fast-path value is the same product numpy forms, with its sign
        for rabs in (0, 1, max(edge - 1, 0)):
            for sign in (0, 1):
                word = (rabs << 9) | (sign << 8) | idx
                if rabs < edge:
                    x, calls = fake_bitgen.draw(word)
                    ours, ok = rng._ziggurat_fast_path(np.array([word], dtype=np.uint64))
                    assert calls == 1 and ok[0]
                    assert bits(ours)[0] == bits(x), (idx, rabs, sign)


def test_replicate_stream_layout():
    s = replicate_stream(99, 7)
    assert s.stream_id == 7 * 2**32
    assert s.child(3).stream_id == 7 * 2**32 + 3


def test_derive_seed_deterministic_and_spread():
    a = derive_seed(42, 0)
    b = derive_seed(42, 1)
    assert a == derive_seed(42, 0)
    assert a != b

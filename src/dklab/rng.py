"""Counter-based random streams, keyed by (seed, stream_id).

A stream is numpy's Philox4x64-10 under the 128-bit key (seed, stream_id).
Streams with distinct keys are statistically independent, and a stream's
output depends only on its key and the order of draws on it, never on
scheduling.  The simulation drivers key their streams by one of two
conventions, so that any replicate can be re-derived in isolation:

- Paths: particle i of replicate r draws its steps from stream
  r * 2**32 + i (replicate_stream_ids), one stream per particle, so a
  path of any length is the head of that stream.  The path sampler in
  particles (simulate_path, martingale_ensemble) keys its draws this way.
- One draw: replicates come in blocks of REPLICATES_PER_BLOCK = 1024, and
  block b = r // 1024 is stream b * 2**32 + 2**32 - 1 (block_stream_ids).
  Particle i of replicate r takes normal (r mod 1024) * n + i of its
  block's stream, counting from the start of the stream.  The one-draw
  sampler particles.standard_increments, and through it terminal_ensemble,
  duality and the pgf Monte Carlo check, keys its draws this way: numpy
  fills a block's 1024 n normals in one call, at a small fraction of the
  cost of 1024 n streams of one draw each.

Keys wrap mod 2**64.  The low word 2**32 - 1 of a block key is never a
particle index of a path, so the two conventions share no key at fewer
than 2**32 - 1 particles; blocks stay distinct for r < 2**42, paths for
r < 2**32.

There are two ways to draw any stream:

- RngStream(seed, stream_id).generator is the live stream, a numpy
  Generator, for callers that draw step by step and may stop early.
- normals(seed, stream_ids, count) is the first count standard normals of
  every stream of an array of keys, bit for bit what count
  standard_normal() draws on each live stream would give.

Both ways, and the one-draw sampler, reset one Philox bit generator to
each key in turn and let numpy fill the draws (_streams); the path
sampler fills its position array through the same loop (_fill_normals),
so its draws need no array of their own.

The per-stream loop of _fill_normals runs one thread at a time, under a
lock.  Its Python work per stream holds the GIL, so threads that draw
together trade the GIL on every stream: two of them ran at 0.75x the
speed of the same draws made one after the other.  Under the lock, the
other threads of a pool run their GIL-free numpy work meanwhile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

_PARTICLE_BITS = 32
REPLICATE_STRIDE = 1 << _PARTICLE_BITS

# replicates per stream of the one-draw convention (see the module docstring)
REPLICATES_PER_BLOCK = 1024

_MASK64 = (1 << 64) - 1

# serialises _fill_normals' per-stream loop across threads (see there)
_DRAW_LOCK = threading.Lock()


def _philox_state(seed: int, stream_id: int) -> dict:
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass
class RngStream:
    """One logical random stream, owned by a single task at a time."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            # key and state as uint64 arrays: numpy reads a tuple key through
            # float64, which rounds words >= 2**63
            state = _philox_state(self.seed, self.stream_id)
            bg = np.random.Philox(key=state["state"]["key"])
            bg.state = state
            self._gen = np.random.Generator(bg)
        return self._gen


def replicate_stream_ids(replicates: int, n: int, first_replicate: int = 0) -> np.ndarray:
    """Stream ids (first_replicate + r) * 2**32 + i mod 2**64, shape (replicates, n)."""
    reps = np.arange(replicates, dtype=np.uint64) + np.uint64(first_replicate & _MASK64)
    return (reps << np.uint64(_PARTICLE_BITS))[:, None] + np.arange(n, dtype=np.uint64)


def block_stream_ids(blocks: int, first_block: int = 0) -> np.ndarray:
    """Stream ids (first_block + b) * 2**32 + 2**32 - 1 mod 2**64, shape (blocks,)."""
    return replicate_stream_ids(blocks, 1, first_block)[:, 0] + np.uint64(REPLICATE_STRIDE - 1)


def _streams(seed: int, ids: np.ndarray):
    """Each stream (seed, id) of the uint64 keys ids in turn, as a Generator at its start.

    One Philox bit generator is reset to each key, which is bit-identical
    to a fresh RngStream per key and about an order of magnitude cheaper.
    The same Generator object is yielded every time: it is valid until the
    next key.
    """
    bg = np.random.Philox(0)
    gen = np.random.Generator(bg)
    # the reset state in plain ints and lists: numpy's state setter reads
    # them about 2.5x faster than uint64 arrays, same draws
    key = [int(seed) & _MASK64, 0]
    state = {
        **_philox_state(key[0], 0),
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
    }
    for stream_id in ids.tolist():
        key[1] = stream_id
        bg.state = state
        yield gen


def _fill_normals(seed: int, ids: np.ndarray, out: np.ndarray) -> None:
    """Write the first out.shape[1] normals of stream (seed, ids[j]) into out[j].

    out is float64 of shape (ids.size, count) with contiguous rows, such as
    a column slice of a C-ordered array.

    The loop runs under _DRAW_LOCK, one thread at a time.  Each stream holds
    the GIL for its Philox reset and the Python call (about 1.9 of 6.6 us
    at 200 draws) and releases it for numpy's fill, so two threads drawing
    at once hand the GIL back and forth on every stream: measured over
    25 000 streams of 200 draws each, two concurrent calls ran at 0.75x the
    speed of the same calls one after the other.  Under the lock, one
    thread draws while the others do GIL-free numpy work (the path pool's
    Fourier moments).  The draws do not depend on the order of calls.
    """
    with _DRAW_LOCK:
        for row, gen in zip(out, _streams(seed, ids)):
            # size is left out: numpy would check it against row.shape on every
            # call, about 0.6 us a stream, and out= alone fixes the count
            gen.standard_normal(out=row)


def normals(seed: int, stream_ids, count: int) -> np.ndarray:
    """The first count standard normals of each stream (seed, id).

    The result has shape stream_ids.shape + (count,), and its row for id is
    bit for bit RngStream(seed, id).generator.standard_normal(count).
    stream_ids is an integer array whose values are taken mod 2**64.
    """
    ids = np.asarray(stream_ids)
    if ids.dtype.kind not in "iu":
        # e.g. a list mixing ints >= 2**63 with small ones becomes float64
        raise TypeError(f"stream_ids must be an integer array, got dtype {ids.dtype}")
    flat = ids.astype(np.uint64, copy=False).ravel()
    out = np.empty((flat.size, count))
    _fill_normals(seed, flat, out)
    return out.reshape(ids.shape + (count,))


def derive_seed(seed: int, label: int) -> int:
    """Deterministic 64-bit sub-seed for independent experiment cells."""
    ss = np.random.SeedSequence(entropy=(int(seed) & _MASK64, int(label) & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])

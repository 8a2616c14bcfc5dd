"""Counter-based random streams, keyed by (seed, stream_id).

A stream is numpy's Philox4x64-10 under the 128-bit key (seed, stream_id).
Streams with distinct keys are statistically independent, and a stream's
output depends only on its key and the order of draws on it, never on
scheduling.  The particle samplers key their draws by one convention, so
that any replicate can be re-derived in isolation:

- Replicates come in blocks of REPLICATES_PER_BLOCK = 1024, and block
  b = r // 1024 is stream b * 2**32 + 2**32 - 1 (block_stream_ids).  A
  replicate of width normals (n particles of num_steps steps each) takes
  normals (r mod 1024) * width to (r mod 1024 + 1) * width - 1 of its
  block's stream, counting from the start of the stream: particle i,
  step k takes normal ((r mod 1024) * n + i) * num_steps + k.  The path
  sampler of particles (simulate_path, martingale_ensemble) and its
  one-step case, standard_increments (terminal_ensemble, duality and the
  pgf Monte Carlo check), draw this way, through block_pieces: numpy
  fills a block's normals in a few calls, at a small fraction of the cost
  of a stream per particle.

The breakdown members of spde draw from stream r * 2**32 (REPLICATE_STRIDE)
for member r.  Keys wrap mod 2**64.  The low word of a block key is
2**32 - 1 and that of a member key is 0, so the two never share a key;
blocks stay distinct for r < 2**42.

There are three ways to draw a stream:

- RngStream(seed, stream_id).generator is the live stream, a numpy
  Generator, for callers that draw step by step and may stop early.
- normals(seed, stream_ids, count) is the first count standard normals of
  every stream of an array of keys, bit for bit what count
  standard_normal() draws on each live stream would give.
- block_pieces(seed, width, lo, hi, cap, out) walks the replicates of the
  block convention in pieces of bounded size.

normals and block_pieces reset one Philox bit generator to each key in
turn and let numpy fill the draws (_streams).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REPLICATE_STRIDE = 1 << 32

# replicates per stream of the block convention (see the module docstring)
REPLICATES_PER_BLOCK = 1024

_MASK64 = (1 << 64) - 1


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


def block_stream_ids(blocks: int, first_block: int = 0) -> np.ndarray:
    """Stream ids (first_block + b) * 2**32 + 2**32 - 1 mod 2**64, shape (blocks,)."""
    b = np.arange(blocks, dtype=np.uint64) + np.uint64(first_block & _MASK64)
    return (b << np.uint64(32)) + np.uint64(REPLICATE_STRIDE - 1)


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


def block_pieces(seed: int, width: int, lo: int, hi: int, cap: int, out: np.ndarray):
    """The normals of replicates lo..hi-1 of the block convention, piece by piece.

    Yields (a, b, z) for consecutive pieces [a, b) of at most cap
    replicates, in order; z, of shape (b - a, width), holds their normals:
    row r is normals ((a + r) mod 1024) * width onward of the stream of
    block (a + r) // 1024 (see the module docstring).  z is a view of the head
    of out, a contiguous 1-D float64 buffer of at least min(cap, hi - lo) *
    width entries, and is valid until the next piece.

    The stream of the current block stays live from piece to piece, so a
    piece costs one standard_normal(out=...) call per block it touches, and
    numpy releases the GIL for the fill.  A range that starts inside a
    block draws that block's head into out and drops it, so every piece is
    bitwise the matching rows of any larger range.
    """
    if hi <= lo:
        return
    first_block, offset = divmod(lo, REPLICATES_PER_BLOCK)
    blocks = (hi - 1) // REPLICATES_PER_BLOCK - first_block + 1
    streams = _streams(seed, block_stream_ids(blocks, first_block))
    gen = next(streams)
    head = offset * width
    while head:  # the block's head, before the range, through out
        k = min(head, out.size)
        gen.standard_normal(out=out[:k])
        head -= k
    block_end = (first_block + 1) * REPLICATES_PER_BLOCK
    for a in range(lo, hi, cap):
        b = min(a + cap, hi)
        z = out[: (b - a) * width]
        r = a
        while r < b:
            if r == block_end:
                gen = next(streams)
                block_end += REPLICATES_PER_BLOCK
            s = min(b, block_end)
            gen.standard_normal(out=z[(r - a) * width : (s - a) * width])
            r = s
        yield a, b, z.reshape(b - a, width)


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
    for row, gen in zip(out, _streams(seed, flat)):
        gen.standard_normal(out=row)
    return out.reshape(ids.shape + (count,))


def derive_seed(seed: int, label: int) -> int:
    """Deterministic 64-bit sub-seed for independent experiment cells."""
    ss = np.random.SeedSequence(entropy=(int(seed) & _MASK64, int(label) & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])

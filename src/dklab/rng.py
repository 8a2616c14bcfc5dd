"""Counter-based random streams, keyed by (seed, stream_id).

A stream is numpy's Philox4x64-10 under the 128-bit key (seed, stream_id).
Streams with distinct keys are statistically independent, and a stream's
output depends only on its key and the order of draws on it, never on
scheduling.  The convention used by the simulation drivers is

    stream_id = replicate_index * 2**32 + particle_index

(replicate_stream_ids), so any replicate/particle pair can be re-derived
in isolation.  There are two ways to draw:

- RngStream(seed, stream_id).generator is the live stream, a numpy
  Generator, for callers that draw step by step and may stop early.
- normals(seed, stream_ids, count) is the first count standard normals of
  every stream of an array of keys, bit for bit what count
  standard_normal() draws on each live stream would give.

For count > 1, normals resets one Philox bit generator to each key in
turn and lets numpy draw (_streams, _fill_normals); the path sampler in
particles fills its position array through the same loop, so its draws
need no array of their own.  For count == 1 it computes the draws for
all keys at once: Philox is a pure function of (key, counter), so the
first 64-bit word of a stream is one Philox4x64-10 evaluation at counter
(1, 0, 0, 0), done here on uint64 arrays; numpy's ziggurat then turns
that word into a normal on its fast path, with the tables frozen below.
The keys whose word misses the fast path (about 1.5%) need further words
and are drawn through the same reset bit generator (_streams).

The per-stream loop of _fill_normals runs one thread at a time, under a
lock.  Its Python work per stream holds the GIL, so threads that draw
together trade the GIL on every stream: two of them ran at 0.75x the
speed of the same draws made one after the other.  Under the lock, the
other threads of a pool run their GIL-free numpy work meanwhile.

The Philox kernel works in place: every ufunc writes into one of nine
preallocated uint64 buffers, reused block after block, and the keys go
through in blocks of _BLOCK, sized so that those buffers stay in L2.
It forms only the products that reach output word 0: rounds 1 and 2 are
closed forms (the counter starts at (1, 0, 0, 0), so the round-2 M0
products are scalars), round 9 skips its M1 high and M0 low products, and
round 10 forms only its M1 high product.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

_PARTICLE_BITS = 32
REPLICATE_STRIDE = 1 << _PARTICLE_BITS

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
        **_philox_state(seed, 0),
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


# -- first draws of many streams at once --------------------------------------
#
# Philox4x64-10 (Salmon et al., SC'11) as numpy runs it: a stream's first
# output word is word 0 of ten rounds on counter (1, 0, 0, 0) under key
# (seed, stream_id), the key bumped by (W0, W1) between rounds.

_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M0 = int(_PHILOX_M0)
_M0_LO, _M0_HI = _PHILOX_M0 & _LOW32, _PHILOX_M0 >> _SHIFT32
_M1_LO, _M1_HI = _PHILOX_M1 & _LOW32, _PHILOX_M1 >> _SHIFT32

# keys per block of normals(..., 1): its nine uint64 Philox buffers take
# 1.2 MB, which stays in a 2 MB L2 (the kernel on a 2-core Xeon, 2 MB L2
# per core: 123 ns a key at 4096 keys, 85 at 16384, 108 at 65536)
_BLOCK = 16384

# numpy's 256-layer ziggurat for the standard normal (distributions.c),
# regenerated by tests/make_ziggurat.py: a word r is accepted on the fast
# path iff rabs < _ZIGGURAT_KI[idx], and then x = +-rabs * _ZIGGURAT_WI[idx]
_RABS_MASK = np.uint64((1 << 52) - 1)
_ZIGGURAT_KI = np.array(
    [
        0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142,
        0xE51F67EC1EEEA, 0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA,
        0xF37ED61FFCB18, 0xF4F469561255C, 0xF61A5E41BA396, 0xF707A755396A4,
        0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE, 0xF9724C74DD0DA,
        0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
        0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E,
        0xFBDAB9D040BED, 0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1,
        0xFC6A2977AEE31, 0xFC87AA92896A4, 0xFCA325E4BDE85, 0xFCBCCE902231A,
        0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930, 0xFD1464DD6C4E6,
        0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
        0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C,
        0xFD9DD07A7ADD2, 0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0,
        0xFDC9DEBB99A7D, 0xFDD3B8118729D, 0xFDDD288342F90, 0xFDE6364369F64,
        0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40, 0xFE06FE4BC24F2,
        0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
        0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A,
        0xFE410E99EAD7F, 0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524,
        0xFE559F74EBC78, 0xFE5A5C8E41212, 0xFE5EF3E138689, 0xFE6366FD91078,
        0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2, 0xFE73E5900A702,
        0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
        0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6,
        0xFE929CC879B1D, 0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866,
        0xFE9DF2694B6D5, 0xFEA0973ABE67C, 0xFEA329CF166A4, 0xFEA5AAB32952C,
        0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920, 0xFEAF07865E63C,
        0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
        0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E,
        0xFEC0BE31EBDE8, 0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196,
        0xFEC75406CEEF4, 0xFEC8DD2500CB4, 0xFECA5B6911F12, 0xFECBCF0C427FE,
        0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7, 0xFED1377358528,
        0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
        0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704,
        0xFEDB3C8746AB4, 0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3,
        0xFEDED0F909980, 0xFEDFA1E0FD414, 0xFEE06AE124BC4, 0xFEE12C0D95A06,
        0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC, 0xFEE3E3DB89B3C,
        0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
        0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA,
        0xFEE84D2484AB2, 0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA,
        0xFEE9851A829EA, 0xFEE9C0E13485C, 0xFEE9F557273F4, 0xFEEA22762CCAE,
        0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA, 0xFEEA8CE04FA0A,
        0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
        0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024,
        0xFEE9BBC26AF2E, 0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516,
        0xFEE88AE369C7A, 0xFEE828E7F3DFD, 0xFEE7BDEA7B888, 0xFEE749BFF37FF,
        0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888, 0xFEE51994E57B6,
        0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
        0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C,
        0xFEDDBE422047E, 0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9,
        0xFED937237E98D, 0xFED7F1C38A836, 0xFED69D2B9C02B, 0xFED538D06AE00,
        0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644, 0xFECEFDA07FE34,
        0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
        0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0,
        0xFEBC429A0B692, 0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E,
        0xFEB13B00B2D4B, 0xFEAE2591A02E9, 0xFEAAEAE992257, 0xFEA788D8EE326,
        0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B, 0xFE9843BA947A4,
        0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
        0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202,
        0xFE67DA0B6ABD8, 0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280,
        0xFE48BD436F458, 0xFE3F9BFFD1E37, 0xFE35D35EEB19C, 0xFE2B5122FE4FE,
        0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0, 0xFDF82B02B71AA,
        0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
        0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012,
        0xFD1A1A7B4C7AC, 0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22,
        0xFC32B2F1E22ED, 0xFBD6581C0B83A, 0xFB606C4005434, 0xFAC40582A2874,
        0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C, 0xF1A5A4B331C4A,
    ],
    dtype=np.uint64,
)
_ZIGGURAT_WI = np.array(
    [
        float.fromhex(h)
        for h in (
            "0x1.f493b7815d979p-51", "0x1.b8d0be3fdf6c6p-55", "0x1.250af3c2c5bb4p-54",
            "0x1.57cb938443b61p-54", "0x1.801fce82fa70cp-54", "0x1.a230c2e4cd0bcp-54",
            "0x1.c004d2f3861f7p-54", "0x1.dac2f5a747274p-54", "0x1.f32482d4cd5c3p-54",
            "0x1.04d32278ebbadp-53", "0x1.0f5053b025d43p-53", "0x1.192a697413677p-53",
            "0x1.227a28f7a1af5p-53", "0x1.2b52e3863d880p-53", "0x1.33c3fc05791f5p-53",
            "0x1.3bd9ec1a2b12fp-53", "0x1.439ef8dff9b55p-53", "0x1.4b1bb363dfea7p-53",
            "0x1.52575621ad374p-53", "0x1.59580a707ce96p-53", "0x1.60231cfd97eeap-53",
            "0x1.66bd261a37c3dp-53", "0x1.6d2a292000570p-53", "0x1.736dad346f8a6p-53",
            "0x1.798ad10b32a77p-53", "0x1.7f845ad46f543p-53", "0x1.855cc53430a77p-53",
            "0x1.8b1649e7b769ap-53", "0x1.90b2ea94ecf98p-53", "0x1.96347822c1eeap-53",
            "0x1.9b9c98e38c546p-53", "0x1.a0eccdca4a72cp-53", "0x1.a62676d77cd59p-53",
            "0x1.ab4ad6e101630p-53", "0x1.b05b16d136c9cp-53", "0x1.b558487427a29p-53",
            "0x1.ba4368e529f3ap-53", "0x1.bf1d62abf8232p-53", "0x1.c3e70f9594ef3p-53",
            "0x1.c8a13a5323b61p-53", "0x1.cd4c9fe72268bp-53", "0x1.d1e9f0e80b748p-53",
            "0x1.d679d29e41f10p-53", "0x1.dafce0023b8c3p-53", "0x1.df73aa9f17653p-53",
            "0x1.e3debb5d2edfep-53", "0x1.e83e9337a6f00p-53", "0x1.ec93abdf982cep-53",
            "0x1.f0de784f06226p-53", "0x1.f51f654d8f688p-53", "0x1.f956d9e87d7aep-53",
            "0x1.fd8537dfa2eacp-53", "0x1.00d56e04234ecp-52", "0x1.02e40f5398f9ap-52",
            "0x1.04eea9e16a5fcp-52", "0x1.06f565b72a010p-52", "0x1.08f869071f40bp-52",
            "0x1.0af7d84bc6113p-52", "0x1.0cf3d664bcc7fp-52", "0x1.0eec84b16086bp-52",
            "0x1.10e20329515eep-52", "0x1.12d4707310fbep-52", "0x1.14c3e9f8e9141p-52",
            "0x1.16b08bfc4201ep-52", "0x1.189a71a78da34p-52", "0x1.1a81b51ee6d88p-52",
            "0x1.1c666f8f82acbp-52", "0x1.1e48b93e0d42ep-52", "0x1.2028a9940a09fp-52",
            "0x1.2206572c4c6e9p-52", "0x1.23e1d7de9c31fp-52", "0x1.25bb40ca96bfbp-52",
            "0x1.2792a661dd37fp-52", "0x1.29681c719d71bp-52", "0x1.2b3bb62b82edap-52",
            "0x1.2d0d862e1b853p-52", "0x1.2edd9e8cba98ep-52", "0x1.30ac10d6e48d7p-52",
            "0x1.3278ee1f4b930p-52", "0x1.3444470265ea1p-52", "0x1.360e2baca52d5p-52",
            "0x1.37d6abe05586ap-52", "0x1.399dd6fb2b264p-52", "0x1.3b63bbfb83d03p-52",
            "0x1.3d28698561de0p-52", "0x1.3eebede725a83p-52", "0x1.40ae571e09e74p-52",
            "0x1.426fb2da6745dp-52", "0x1.44300e83c30a4p-52", "0x1.45ef773cac75dp-52",
            "0x1.47adf9e66c336p-52", "0x1.496ba32488f2fp-52", "0x1.4b287f602415dp-52",
            "0x1.4ce49acb311dcp-52", "0x1.4ea001638a605p-52", "0x1.505abef5e5562p-52",
            "0x1.5214df20a8b5ap-52", "0x1.53ce6d56a664fp-52", "0x1.558774e1bb2c8p-52",
            "0x1.574000e555f78p-52", "0x1.58f81c60e8514p-52", "0x1.5aafd23241b59p-52",
            "0x1.5c672d17d733dp-52", "0x1.5e1e37b2f8cd3p-52", "0x1.5fd4fc89f5e38p-52",
            "0x1.618b860a31fc3p-52", "0x1.6341de8a2b0a2p-52", "0x1.64f8104b7260bp-52",
            "0x1.66ae257c99672p-52", "0x1.6864283b13137p-52", "0x1.6a1a22950b2b1p-52",
            "0x1.6bd01e8b343bbp-52", "0x1.6d8626128d352p-52", "0x1.6f3c43161f854p-52",
            "0x1.70f27f78b68ebp-52", "0x1.72a8e516914c6p-52", "0x1.745f7dc70eedcp-52",
            "0x1.7616535e5731fp-52", "0x1.77cd6faeff449p-52", "0x1.7984dc8babd93p-52",
            "0x1.7b3ca3c8b1409p-52", "0x1.7cf4cf3db22fbp-52", "0x1.7ead68c73dee7p-52",
            "0x1.80667a486ea1fp-52", "0x1.82200dac88676p-52", "0x1.83da2ce899f15p-52",
            "0x1.8594e1fd1f5bdp-52", "0x1.875036f7a7ec5p-52", "0x1.890c35f47f72dp-52",
            "0x1.8ac8e9205c043p-52", "0x1.8c865aba10c9cp-52", "0x1.8e44951446a27p-52",
            "0x1.9003a2973b58fp-52", "0x1.91c38dc288347p-52", "0x1.9384612ef0afcp-52",
            "0x1.954627903a28ap-52", "0x1.9708ebb70d5eep-52", "0x1.98ccb892e2a31p-52",
            "0x1.9a919933f99bfp-52", "0x1.9c5798cd5d92cp-52", "0x1.9e1ec2b6f7411p-52",
            "0x1.9fe7226fad24ap-52", "0x1.a1b0c39f93692p-52", "0x1.a37bb21a2c85bp-52",
            "0x1.a547f9e0bbb88p-52", "0x1.a715a724aa9a4p-52", "0x1.a8e4c64a0313dp-52",
            "0x1.aab563e9ff108p-52", "0x1.ac878cd5af5cep-52", "0x1.ae5b4e18bb336p-52",
            "0x1.b030b4fc3a11ap-52", "0x1.b207cf09a985bp-52", "0x1.b3e0aa0e00c00p-52",
            "0x1.b5bb541ce3d03p-52", "0x1.b797db93f8927p-52", "0x1.b9764f1e5f73cp-52",
            "0x1.bb56bdb85256ep-52", "0x1.bd3936b2ec0a2p-52", "0x1.bf1dc9b81ae83p-52",
            "0x1.c10486cec16a0p-52", "0x1.c2ed7e5f07a2dp-52", "0x1.c4d8c136e0d1cp-52",
            "0x1.c6c6608ec8705p-52", "0x1.c8b66e0eba617p-52", "0x1.caa8fbd36a2abp-52",
            "0x1.cc9e1c73bd690p-52", "0x1.ce95e3068e037p-52", "0x1.d0906328b8f6ep-52",
            "0x1.d28db1037ef20p-52", "0x1.d48de1533c647p-52", "0x1.d691096e7f123p-52",
            "0x1.d8973f4d7fba5p-52", "0x1.daa0999206e70p-52", "0x1.dcad2f8fc490ep-52",
            "0x1.debd195522e37p-52", "0x1.e0d06fb49d21cp-52", "0x1.e2e74c4ea46f6p-52",
            "0x1.e501c99c1d188p-52", "0x1.e72002f97fe25p-52", "0x1.e94214b2abf0ap-52",
            "0x1.eb681c0f76f08p-52", "0x1.ed9237610a73ap-52", "0x1.efc086101eca9p-52",
            "0x1.f1f328ac25321p-52", "0x1.f42a40fb74d6dp-52", "0x1.f665f20c90168p-52",
            "0x1.f8a6604899782p-52", "0x1.faebb187122bfp-52", "0x1.fd360d22fe785p-52",
            "0x1.ff859c118f60bp-52", "0x1.00ed447d3a075p-51", "0x1.021a8028fc947p-51",
            "0x1.034a983a902abp-51", "0x1.047da4e3ef5c7p-51", "0x1.05b3bf6adb37ep-51",
            "0x1.06ed023a72668p-51", "0x1.082988f632e17p-51", "0x1.0969708e8a254p-51",
            "0x1.0aacd7571c0c4p-51", "0x1.0bf3dd1eed448p-51", "0x1.0d3ea34aa3d30p-51",
            "0x1.0e8d4cf116593p-51", "0x1.0fdffefa69fb6p-51", "0x1.1136e04207041p-51",
            "0x1.129219bbb5d35p-51", "0x1.13f1d69c4096dp-51", "0x1.1556448602e3bp-51",
            "0x1.16bf93b9deef3p-51", "0x1.182df74d21261p-51", "0x1.19a1a564eebacp-51",
            "0x1.1b1ad777f2f8ep-51", "0x1.1c99ca971a694p-51", "0x1.1e1ebfbe4ae39p-51",
            "0x1.1fa9fc2e2d901p-51", "0x1.213bc9d04cc81p-51", "0x1.22d477a6fd3eep-51",
            "0x1.24745a4ac9c24p-51", "0x1.261bcc77658e0p-51", "0x1.27cb2faa8592ep-51",
            "0x1.2982ecd770e78p-51", "0x1.2b437532a0a52p-51", "0x1.2d0d43196db97p-51",
            "0x1.2ee0db1a978f5p-51", "0x1.30becd256aeeep-51", "0x1.32a7b5e68a4a3p-51",
            "0x1.349c405ae12a3p-51", "0x1.369d27a33a840p-51", "0x1.38ab39256410ap-51",
            "0x1.3ac7570ae88fap-51", "0x1.3cf27b31704a6p-51", "0x1.3f2dbaa60f475p-51",
            "0x1.417a49cb9e5dap-51", "0x1.43d9815545e94p-51", "0x1.464ce44a73a15p-51",
            "0x1.48d62759c43bcp-51", "0x1.4b7739d6b5a27p-51", "0x1.4e3250dcd8902p-51",
            "0x1.5109f53e9ac41p-51", "0x1.54011523a7e42p-51", "0x1.571b1a94ae41bp-51",
            "0x1.5a5c08b718dd9p-51", "0x1.5dc8a243ad0fep-51", "0x1.61669cf861e4cp-51",
            "0x1.653ce7b006aeap-51", "0x1.69540be9fe5c3p-51", "0x1.6db6b8d09e232p-51",
            "0x1.72728f05f7a34p-51", "0x1.7799556090673p-51", "0x1.7d42df4d6ce8cp-51",
            "0x1.839030529f234p-51", "0x1.8ab0fbfaa7c14p-51", "0x1.92ee0946f4496p-51",
            "0x1.9cbee014057abp-51", "0x1.a8fdc7894775ap-51", "0x1.b981f3878fdb1p-51",
            "0x1.d3bb48209ad33p-51",
        )
    ]
)


def _mulhi(m_lo: np.uint64, m_hi: np.uint64, x, out, a, c, d) -> None:
    """out = high 64 bits of the 128-bit products (m_hi * 2**32 + m_lo) * x.

    Schoolbook product on 32-bit halves, every step in place; a, c and d
    are scratch buffers of x's shape, and x is left untouched.
    """
    np.bitwise_and(x, _LOW32, out=a)  # x_lo
    np.right_shift(x, _SHIFT32, out=out)  # x_hi
    np.multiply(a, m_lo, out=c)
    c >>= _SHIFT32
    a *= m_hi
    c += a  # t = (x_lo m_lo >> 32) + x_lo m_hi, < 2**64
    np.multiply(out, m_lo, out=a)  # x_hi m_lo
    out *= m_hi  # x_hi m_hi
    np.bitwise_and(c, _LOW32, out=d)
    a += d  # x_hi m_lo + (t mod 2**32), < 2**64
    c >>= _SHIFT32
    out += c
    a >>= _SHIFT32
    out += a


def _philox_first_words(seed: int, ids: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Output word 0 of Philox4x64-10 at counter (1, 0, 0, 0), key (seed, ids).

    work is uint64 scratch of shape (9, >= ids.size), allocated when None;
    every ufunc writes into it, and the result is a view of it, valid until
    work is used again.  Rounds 1 and 2 are done in closed form, and rounds
    9 and 10 form only the products that reach word 0.
    """
    n = ids.size
    if work is None:
        work = np.empty((9, n), dtype=np.uint64)
    c0, c1, c2, c3, k1, h, a, c, d = work[:, :n]
    # round 1 on counter (1, 0, 0, 0) leaves (seed, 0, ids, M0); in round 2
    # the M0 products of c0 = seed are scalars
    k0 = (seed + _PHILOX_W0) & _MASK64
    np.add(ids, _PHILOX_W1, out=k1)
    _mulhi(_M1_LO, _M1_HI, ids, c0, a, c, d)
    c0 ^= np.uint64(k0)
    np.multiply(ids, _PHILOX_M1, out=c1)
    p = _M0 * seed
    np.bitwise_xor(k1, np.uint64((p >> 64) ^ _M0), out=c2)
    c3.fill(p & _MASK64)
    for _ in range(6):  # rounds 3 to 8
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 += _PHILOX_W1
        _mulhi(_M1_LO, _M1_HI, c2, h, a, c, d)
        c1 ^= h
        c1 ^= np.uint64(k0)  # c0 of the next round
        c2 *= _PHILOX_M1  # c1
        _mulhi(_M0_LO, _M0_HI, c0, h, a, c, d)
        c3 ^= h
        c3 ^= k1  # c2
        c0 *= _PHILOX_M0  # c3
        c0, c1, c2, c3 = c1, c2, c3, c0
    # round 9: word 0 of round 10 reads only c1 and c2, so the M1 high and
    # M0 low products are skipped; round 10 needs only the M1 high product
    k1 += _PHILOX_W1
    _mulhi(_M0_LO, _M0_HI, c0, h, a, c, d)
    c3 ^= h
    c3 ^= k1
    c2 *= _PHILOX_M1
    k0 = (k0 + 2 * _PHILOX_W0) & _MASK64
    _mulhi(_M1_LO, _M1_HI, c3, h, a, c, d)
    h ^= c2
    h ^= np.uint64(k0)
    return h


def _ziggurat_fast_path(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(normals, accepted) for the words r; only accepted entries are normals."""
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & _RABS_MASK
    x = rabs.astype(np.float64) * _ZIGGURAT_WI[idx]
    np.negative(x, out=x, where=(r & np.uint64(0x100)) != 0)
    return x, rabs < _ZIGGURAT_KI[idx]


def normals(seed: int, stream_ids, count: int) -> np.ndarray:
    """The first count standard normals of each stream (seed, id).

    The result has shape stream_ids.shape + (count,), and its row for id is
    bit for bit RngStream(seed, id).generator.standard_normal(count).
    stream_ids is an integer array whose values are taken mod 2**64.  For
    count == 1 the Philox words are computed for all ids at once, in blocks
    of _BLOCK keys through one set of nine buffers reused by every block,
    so memory does not grow with the number of streams and the kernel's
    working set stays in L2 (see the module docstring).
    """
    seed = int(seed) & _MASK64
    ids = np.asarray(stream_ids)
    if ids.dtype.kind not in "iu":
        # e.g. a list mixing ints >= 2**63 with small ones becomes float64
        raise TypeError(f"stream_ids must be an integer array, got dtype {ids.dtype}")
    flat = ids.astype(np.uint64, copy=False).ravel()
    if count != 1:
        out = np.empty((flat.size, count))
        _fill_normals(seed, flat, out)
        return out.reshape(ids.shape + (count,))
    out = np.empty(flat.size)
    accepted = np.empty(flat.size, dtype=bool)
    work = np.empty((9, min(flat.size, _BLOCK)), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        hi = lo + _BLOCK
        out[lo:hi], accepted[lo:hi] = _ziggurat_fast_path(
            _philox_first_words(seed, flat[lo:hi], work)
        )
    missed = np.flatnonzero(~accepted)
    if missed.size:
        # a scalar draw: about 1 us a key cheaper than filling a row
        out[missed] = [gen.standard_normal() for gen in _streams(seed, flat[missed])]
    return out.reshape(ids.shape + (1,))


def derive_seed(seed: int, label: int) -> int:
    """Deterministic 64-bit sub-seed for independent experiment cells."""
    ss = np.random.SeedSequence(entropy=(int(seed) & _MASK64, int(label) & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])

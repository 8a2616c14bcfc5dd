"""Regenerate the ziggurat tables frozen in src/dklab/rng.py.

numpy's Generator.standard_normal is a 256-layer ziggurat whose fast path
reads one 64-bit word r: idx = r & 0xff, sign = bit 8,
rabs = (r >> 9) & (2**52 - 1), x = +-rabs * wi[idx], accepted iff
rabs < ki[idx].  The tables are private to numpy, so this script recovers
them from numpy's exported C function random_standard_normal, fed by a
fake bitgen_t whose next_uint64 returns chosen words:

* wi[idx] is the draw for rabs = 1 (accepted on either path, since
  1 * wi[idx] is far inside every layer);
* ki[idx] is the smallest rabs that leaves the fast path, found by a
  binary search over [0, 2**52] that counts the bit-generator calls.

Usage: python tests/make_ziggurat.py   (prints the literal block for rng.py)
"""

from __future__ import annotations

import ctypes

import numpy as np

RABS_LIMIT = 1 << 52
# a word every layer accepts on the fast path: idx 2, rabs 1
_SAFE_WORD = (1 << 9) | 2

_U64_FN = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_U32_FN = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_F64_FN = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    """numpy/random/bitgen.h: bitgen_t."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _U64_FN),
        ("next_uint32", _U32_FN),
        ("next_double", _F64_FN),
        ("next_raw", _U64_FN),
    ]


class FakeBitGen:
    """Calls numpy's random_standard_normal on words of our choosing."""

    def __init__(self, fn):
        self._fn = fn
        self._words: list[int] = []
        self.calls = 0

        def next_uint64(_):
            self.calls += 1
            return self._words.pop() if self._words else _SAFE_WORD

        def next_uint32(_):
            self.calls += 1
            return 0

        def next_double(_):
            # 0.5 ends both slow paths: the wedge test for small x and the
            # tail loop (yy + yy > xx * xx) for idx 0
            self.calls += 1
            return 0.5

        # ctypes calls back through these, so they must live as long as self
        self._keep = (_U64_FN(next_uint64), _U32_FN(next_uint32), _F64_FN(next_double))
        self._struct = _BitGen(None, self._keep[0], self._keep[1], self._keep[2], self._keep[0])

    def draw(self, word: int) -> tuple[float, int]:
        """(standard_normal fed `word` first, number of bit-generator calls)."""
        self._words = [word]
        self.calls = 0
        x = self._fn(ctypes.byref(self._struct))
        return x, self.calls

    def fast_path(self, idx: int, rabs: int) -> bool:
        return self.draw((rabs << 9) | idx)[1] == 1


def load() -> FakeBitGen | None:
    """A FakeBitGen bound to numpy's exported symbol, or None if it is absent."""
    try:
        lib = ctypes.CDLL(np.random._generator.__file__)
        fn = lib.random_standard_normal
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.POINTER(_BitGen)]
    return FakeBitGen(fn)


def ziggurat_tables(gen: FakeBitGen) -> tuple[list[int], list[float]]:
    """(ki, wi) as numpy uses them."""
    ki, wi = [], []
    for idx in range(256):
        lo, hi = 0, RABS_LIMIT  # the answer is in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if gen.fast_path(idx, mid):
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
        wi.append(gen.draw((1 << 9) | idx)[0])
    return ki, wi


def _rows(items, per_row):
    return [", ".join(items[k:k + per_row]) + "," for k in range(0, len(items), per_row)]


def literal_block(ki, wi) -> str:
    lines = ["_ZIGGURAT_KI = np.array(", "    ["]
    lines += ["        " + row for row in _rows([f"0x{k:013X}" for k in ki], 4)]
    lines += ["    ],", "    dtype=np.uint64,", ")"]
    lines += ["_ZIGGURAT_WI = np.array(", "    [", "        float.fromhex(h)", "        for h in ("]
    lines += ["            " + row for row in _rows([f'"{w.hex()}"' for w in wi], 3)]
    lines += ["        )", "    ]", ")"]
    return "\n".join(lines)


def main() -> int:
    gen = load()
    if gen is None:
        print("numpy does not export random_standard_normal")
        return 1
    print(literal_block(*ziggurat_tables(gen)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

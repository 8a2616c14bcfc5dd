"""Pinned results digests of every subcommand at small sizes.

A change that moves a results_sha256 breaks replay of every manifest
written before it, so a move must be deliberate: update the pin here and
say in CHANGES.md why the new numbers are equally valid.  Each case runs
at one and at two threads, since the thread count must never change a
digest.

History: martingale moved by round-off when the pairings went through
shared Fourier moments (was 50dddb79...bd64891). pgf-integer-monte-carlo
moved when the chi-square p-value became the closed-form tail in place
of scipy's chdtrc (was 911f3aa7...b465d08b301): its p-value went from
0.3109870613201613 to 0.31098706132016124, which is exp(-stat / 2) at 2
degrees of freedom correctly rounded, so the new number is closer to
exact; the statistic and the verdict are unchanged. duality and
duality-several-blocks moved by round-off when each antithetic pair was
paired with f from one cos and sin of its increment, in place of f at
wrap(x0 + s) and wrap(x0 - s) (were 6bfb9d5c...a8167d and
7c840052...d85faa): across their six rows z moved by at most 3.5e-14,
mc_mean by at most 5.6e-17 (1.2e-16 relative) and mc_stderr by at most
2.2e-19 (3.9e-16 relative); the rhs and every verdict are unchanged, and
the new pairing is the more accurate one, since it never rounds x0 + s.
The pgf several-blocks pin, also at 2 degrees of freedom, held through
that change because chdtrc had rounded its p-value correctly. duality,
duality-several-blocks, pgf-integer-monte-carlo and
pgf-integer-monte-carlo-several-blocks moved when the one-draw samplers
went from one Philox stream per (replicate, particle) to one stream per
block of 1024 replicates (were 8232bf30...6937199, 267d05f5...0917a8,
cf19e630...e4c99f and a410b4d7...f9abe5). The new draws are as valid as
the old: each block key is a distinct Philox key, disjoint from every
path key, so the blocks are independent streams of independent standard
normals, as the per-particle streams were. Every verdict is unchanged:
the duality z-scores went from (0.16, 0.35, 0.21) to (-0.01, -1.47,
0.97) and from (0.80, -1.85, -1.36) to (0.59, -0.37, 0.10), all passes,
and the pgf chi-square p-values from 0.311 to 0.780 and from 0.631 to
0.584, both passes. The standard error, now taken in place, is bit for
bit np.std's, so only the draws moved these digests. martingale moved
when the paths took the same blocks, one Philox stream per block of 1024
replicates with a replicate's n * num_steps normals in a row, where each
(replicate, particle) had a stream of its own (was dd43175d...bb76c0).
The new draws are as valid as the old: distinct Philox keys give
independent streams, and consecutive normals of one stream are
independent, so the particles' steps are independent standard normals
as before. Every verdict held: z_mean went from (-1.53, -0.36, -0.62)
to (0.61, 0.45, 0.08) and z_qv from (-0.58, -2.52, -1.39) to (-1.79,
0.45, -0.42). martingale moved by round-off when the Fourier moments
took exp(2 pi i x) as the fourth power of cos + i sin of the quarter
angle (x - rint(x)) pi/2, where they rounded 2 pi x and took its complex
exp (was daa7a711...c707ebc): z_mean went from (0.6141767396543992,
0.4528779875879011, 0.08439436598559408) to (0.6141767396544222,
0.45287798758789993, 0.08439436598559084) and z_qv from
(-1.7930310546394614, 0.4530583638776717, -0.4221349278666809) to
(-1.7930310546394619, 0.4530583638776725, -0.42213492786668455), z by at
most 2.3e-14; mean_qv and se_diff did not move, and every verdict held.
The new numbers are the more accurate: x - rint(x) is exact, so the
phase error stays below 7.2e-16 at every |x| up to 1e6 (tests/test_torus.py
checks 1e-15 against a long-double reference), where rounding 2 pi x
dropped the bits of x below its last bit and the old error grew with |x|,
to 6.1e-12 at |x| = 1e4 and 7.1e-10 at 1e6. martingale moved by
round-off when the trapezoid time integral of the moments was taken as
dt [(T + 1) mean - (initial + final) / 2], with mean one pairwise
np.add.reduce per mode over a replicate's n (T + 1) grid points, where
one einsum per mode summed them against the trapezoid weights in turn
(was cf87c231...4965d1): z_mean went from (0.6141767396544222,
0.45287798758789993, 0.08439436598559084) to (0.6141767396544224,
0.45287798758789916, 0.0843943659855908) and z_qv from
(-1.7930310546394619, 0.4530583638776725, -0.42213492786668455) to
(-1.7930310546394737, 0.4530583638776626, -0.4221349278666962), z by at
most 1.2e-14; se_m, mean_m2 and se_diff did not move, and every verdict
held. The new numbers are as valid: it is the same trapezoid rule, with
weight dt at every grid time and dt / 2 at the two ends, summed
pairwise, whose rounding error bound grows like log N where a sequential
sum's grows like N. pgf-fractional, pgf-integer-monte-carlo and
pgf-integer-monte-carlo-several-blocks moved when h = P_t 1_A came from
the exact Fourier series of the indicator, cut where its tail is below
2**-60, in place of the grid-256 projection of the cell-averaged
indicator, and the series' leading factor took math.log1p in place of
np.log1p (were 41d3c5f4...b8ca0e0c, e69d1f0c...b316e16a5 and
98c9bc35...f60436d). At the pgf-fractional atom 0.5, h went from
0.29599782552312 (the value p_0 = (1 - h)**1.5 implies) to
0.29599950296646244, within 1e-16 of a 40-digit erf image sum
(0.2959995029664624016), so the grid's half-cell bias of 1.7e-6 is gone:
p_0 went from 0.5906918800242479 to 0.5906897688413463 and p_3 from
-2.7440029781512667e-03 to -2.7440594373695838e-03, still the first
negative coefficient. The integer cases keep their draws; the chi-square
p-values went from 0.7804961745355654 to 0.7805455896022562 and from
0.5838481684767656 to 0.5839690438038962, both passes. Exact h is the
better number: the Monte Carlo counts never saw the grid, so a reference
built from a grid h fails at enough replicates (pgf --alpha 2 --t 0.005
--grid 16 --replicates 200000 read p = 1.9e-13; with exact h it reads
0.44). math.log1p returns the bits numpy's loop returns without AVX-512,
so all three pins now replay at every dispatch level. All other pins are
unchanged since the seed import.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dklab
from dklab.cli import main, parse_manifest

CASES = {
    "duality": (
        ["duality", "--alpha", "2", "--t", "0.02", "--replicates", "4000", "--seed", "3"],
        "00a45d2080a83f75021c0bccb4c0df0690b5f4e137487c05e1dc05347dbf5c8c",
    ),
    # 10**4 antithetic pairs of 5 particles per cell: ten one-draw blocks of
    # 1024 pairs, the last one partial, walked in pieces of three blocks
    "duality-several-blocks": (
        ["duality", "--alpha", "5", "--t", "0.02", "--replicates", "20000", "--seed", "3"],
        "5730fb75a930299245a613243357467787e0d1b49267f5c17fd54ac583654ff4",
    ),
    "martingale": (
        ["martingale", "--alpha", "2", "--t", "0.02", "--replicates", "2000",
         "--num-steps", "50", "--seed", "11"],
        "54a14b020be04463b2878868bc949be3c0bc03d9ea04439372dfb6fd672bdb2d",
    ),
    "pgf-fractional": (
        ["pgf", "--alpha", "1.5", "--t", "0.05", "--order", "8"],
        "08c0b2b5c554bcff692e50682a2f63b72de5d85f9b0537855429ab816ff397c2",
    ),
    "pgf-integer-monte-carlo": (
        ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "5000", "--seed", "42"],
        "1ff22f92d2a94673a0790ade5f1f6a098f69a20c9e23a26f85126cfd3d76d56b",
    ),
    # 25 one-draw blocks of 1024 replicates, the last one partial
    "pgf-integer-monte-carlo-several-blocks": (
        ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "25000", "--seed", "42"],
        "9d7e79d6b60e334bc55c47424265341c0389e48071f7a6b5e808799a405ebec2",
    ),
    "breakdown": (
        ["breakdown", "--alpha", "1.5", "--grid", "64", "--replicates", "10",
         "--max-steps", "2000", "--seed", "5"],
        "8d226d85ed9a2357970eec9586332bd509cd5a90b5bfd33abd58b06e291d55d1",
    ),
    "vhj-check": (
        ["vhj-check", "--alpha", "1", "--t", "0.05", "--suite", "10", "--seed", "7"],
        "0932b7d4abf28323daa22cd917bb913f86c29bc622f8ad89eea8dd2261a6b360",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_results_digest_pinned(name, threads, tmp_path, monkeypatch):
    argv, digest = CASES[name]
    monkeypatch.setenv("DKLAB_THREADS", threads)
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert parse_manifest(str(out) + ".manifest")["results_sha256"] == digest


# numpy's AVX-512 dispatch targets; NPY_DISABLE_CPU_FEATURES set to these
# makes a child process run the code paths of an x86-64 CPU without AVX-512
NO_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
# and with X86_V3 too, those of an x86-64-v2 CPU, without AVX2 and FMA
NO_X86_V3 = NO_AVX512 + ("X86_V3",)

# the child checks that the variable took effect, then prints the digest
_REPLAY_CHILD = (
    "import sys\n"
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "from dklab.cli import main, parse_manifest\n"
    "assert not any(__cpu_features__.get(name) for name in sys.argv[2].split())\n"
    "assert main(sys.argv[3:] + ['--out', sys.argv[1]]) == 0\n"
    "print(parse_manifest(sys.argv[1] + '.manifest')['results_sha256'])\n"
)


def _host_dispatches(level) -> bool:
    features = np._core._multiarray_umath.__cpu_features__
    return any(features.get(name) for name in level)


def _replay_digest(name, level, tmp_path) -> str:
    """The digest of CASES[name], run in a child process with level disabled."""
    argv, _ = CASES[name]
    src = str(pathlib.Path(dklab.__file__).parents[1])
    disabled = " ".join(level)
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled}
    res = subprocess.run(
        [sys.executable, "-c", _REPLAY_CHILD, str(tmp_path / f"{name}.csv"), disabled, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.split()[-1]


# Slices of a gate for replay on other x86-64 CPUs.  Every case replays
# without AVX-512.  Without AVX2/FMA too (X86_V3), martingale's complex
# multiplies move, so at that level every case but martingale is gated.
@pytest.mark.skipif(not _host_dispatches(NO_AVX512), reason="numpy dispatches no AVX-512 here")
@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_pinned_without_avx512(name, tmp_path):
    assert _replay_digest(name, NO_AVX512, tmp_path) == CASES[name][1]


@pytest.mark.skipif(not _host_dispatches(("X86_V3",)), reason="numpy dispatches no X86_V3 here")
@pytest.mark.parametrize("name", sorted(set(CASES) - {"martingale"}))
def test_digest_pinned_without_x86_v3(name, tmp_path):
    assert _replay_digest(name, NO_X86_V3, tmp_path) == CASES[name][1]

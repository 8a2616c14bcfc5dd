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
0.45, -0.42). All other pins are unchanged since the seed import.
"""

import pytest

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
        "daa7a711fb458413a04a323280ea92c0a3ae6a4932baf2287a9a67026c707ebc",
    ),
    "pgf-fractional": (
        ["pgf", "--alpha", "1.5", "--t", "0.05", "--order", "8"],
        "41d3c5f412a8c7c24c31a1a7e7448214e789cec71fc707fff15fef77b8ca0e0c",
    ),
    "pgf-integer-monte-carlo": (
        ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "5000", "--seed", "42"],
        "e69d1f0c5461fedf21ab846866ff92e53f759ff6af5874fe015cf8eb316e16a5",
    ),
    # 25 one-draw blocks of 1024 replicates, the last one partial
    "pgf-integer-monte-carlo-several-blocks": (
        ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "25000", "--seed", "42"],
        "98c9bc35bfcf4c07b4ca01d595f54174da9027ba221198852b6c46f31d60436d",
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

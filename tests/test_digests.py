"""Pinned results digests of every subcommand at small sizes.

A change that moves a results_sha256 breaks replay of every manifest
written before it, so a move must be deliberate: update the pin here and
say in CHANGES.md why the new numbers are equally valid.  Each case runs
at one and at two threads, since the thread count must never change a
digest.

History: martingale moved by round-off when the pairings went through
shared Fourier moments (was 50dddb79...bd64891).  pgf-integer-monte-carlo
moved when the chi-square p-value became the closed-form tail in place of
scipy's chdtrc (was 911f3aa7...b465d08b301): its p-value went from
0.3109870613201613 to 0.31098706132016124, which is exp(-stat / 2) at 2
degrees of freedom correctly rounded, so the new number is closer to
exact; the statistic and the verdict are unchanged.  duality and
duality-several-blocks moved by round-off when each antithetic pair was
paired with f from one cos and sin of its increment, in place of f at
wrap(x0 + s) and wrap(x0 - s) (were 6bfb9d5c...a8167d and
7c840052...d85faa): across their six rows z moved by at most 3.5e-14,
mc_mean by at most 5.6e-17 (1.2e-16 relative) and mc_stderr by at most
2.2e-19 (3.9e-16 relative); the rhs and every verdict are unchanged, and
the new pairing is the more accurate one, since it never rounds x0 + s.
All other pins are unchanged since the seed import; the pgf
several-blocks pin, also at 2 degrees of freedom, held because chdtrc had
rounded its p-value correctly.  The two "several-blocks" pins were
recorded before the one-draw Philox kernel went in place over larger
blocks; the pgf one still holds the new kernel to the old one's bits, and
the duality one did until the re-pin above.
"""

import pytest

from dklab.cli import main, parse_manifest

CASES = {
    "duality": (
        ["duality", "--alpha", "2", "--t", "0.02", "--replicates", "4000", "--seed", "3"],
        "8232bf302181a961cee497793e1931fd9efb5f23c8db831e1c06d467c6937199",
    ),
    # 5 * 10**4 one-draw keys per cell: several blocks of rng.standard_normals
    "duality-several-blocks": (
        ["duality", "--alpha", "5", "--t", "0.02", "--replicates", "20000", "--seed", "3"],
        "267d05f595e914ca2d22235b8cd3f51cf0b3530a7aabf5b05cf49f3a780917a8",
    ),
    "martingale": (
        ["martingale", "--alpha", "2", "--t", "0.02", "--replicates", "2000",
         "--num-steps", "50", "--seed", "11"],
        "dd43175d27ce543e165eb52e7dcedc4b139c9496e92fe130c6fcff2a51bb76c0",
    ),
    "pgf-fractional": (
        ["pgf", "--alpha", "1.5", "--t", "0.05", "--order", "8"],
        "41d3c5f412a8c7c24c31a1a7e7448214e789cec71fc707fff15fef77b8ca0e0c",
    ),
    "pgf-integer-monte-carlo": (
        ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "5000", "--seed", "42"],
        "cf19e630755e7420901e02933ab2c4cc8d7fe1070f47e6db5e10042181e4c99f",
    ),
    "pgf-integer-monte-carlo-several-blocks": (
        ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "25000", "--seed", "42"],
        "a410b4d74094f1a1601a6089d7a6fe7abc6cd48727986a38b76aeaeffbf9abe5",
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

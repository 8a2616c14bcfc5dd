"""Monte Carlo verification of the Laplace duality.

For integer alpha and matching atomic initial data the particle
construction and the Cole-Hopf flow must agree through

    E exp(-<mu_t, f>) = exp(-<mu_0, V_t f>).

The left side is estimated over independent replicates of the terminal
empirical measure, the right side evaluated exactly (up to the reported
projection error) through the solver, and the gap is scored in standard
errors.  Verdicts use the 3-sigma convention; a sweep therefore carries a
small expected false-failure budget, and callers should judge pass rates
at the sweep level rather than flinch at single cells.

Antithetic increments are always used: replicate pairs share one set of
Gaussian draws with opposite signs, the estimator averaging first within
pairs.  This touches only the estimator variance, never the particle law.

Both members of a pair are paired with f from one cos and one sin of the
increment s.  With a_k, b_k the mode-k coefficients of f,

    f(x0 + s) = mean + sum_k c_k(x0) cos 2 pi k s + d_k(x0) sin 2 pi k s,
    f(x0 - s) = mean + sum_k c_k(x0) cos 2 pi k s - d_k(x0) sin 2 pi k s,

where c_k = a_k cos 2 pi k x0 + b_k sin 2 pi k x0 and d_k = b_k cos 2 pi k
x0 - a_k sin 2 pi k x0 are tabled once per cell, at every atom.  The
turns s - rint s are exact, their cos and sin are taken on a quarter
turn (_cos_sin_turns), and the higher modes follow by the angle-addition
recurrence.  No sum x0 + s is ever rounded, so the pairing keeps its
accuracy at large alpha t, where f(wrap(x0 + s)) loses the bits of x0
that the rounding of x0 + s drops.  The pairs are walked in pieces of
at most _PIECE_BYTES of draws (rng.block_pieces, which keeps a block's
stream live from piece to piece), and a cell keeps only its 8-byte value
per pair; every sum runs within a pair, so a value does not depend on the
piece it fell in.  The standard error is taken from those values
in place, with no copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .particles import EmpiricalMeasure, _check_spread, require_integer_alpha, z_score
from .particles import standard_increments  # noqa: F401  bench/spans.py wraps this name
from .rng import REPLICATES_PER_BLOCK, block_pieces, derive_seed
from .torus import TWO_PI, FourierFunction, TorusDomain
from .vhj import cole_hopf

# Bytes of draws (8 a normal) in one piece of a duality cell: 2**14
# normals, rounded down to whole blocks of REPLICATES_PER_BLOCK pairs where
# a block fits (alpha <= 16), else at least one pair.  A piece's pairing
# holds about six arrays of its draws' size, so the cap, not the
# replicate count or alpha, sets a cell's working memory; pieces of 2**15
# and 2**16 normals ran the criterion-1 grid no faster and peaked higher.
_PIECE_BYTES = 1 << 17


@dataclass(frozen=True)
class DualityReport:
    """One duality cell: Monte Carlo mean vs Cole-Hopf right-hand side."""

    alpha: int
    t: float
    f_id: str
    replicates: int
    seed: int
    mc_mean: float
    mc_stderr: float
    rhs: float
    z_score: float
    verdict: bool

    @property
    def verdict_str(self) -> str:
        return "pass" if self.verdict else "fail"


def laplace_rhs(
    dom: TorusDomain, mu0: EmpiricalMeasure, f: FourierFunction, alpha: float, t: float
) -> float:
    """exp(-<mu_0, V_t f>) with V_t f evaluated exactly at the atoms."""
    field = cole_hopf(dom, f, alpha, t)
    return float(np.exp(-np.mean(field.evaluate(mu0.positions))))


def _turns(k, x):
    """k x - rint(k x), in [-1/2, 1/2], for integers k < 2**26 and floats x,
    to one rounding.

    x is split into two halves of at most 26 significant bits (Veltkamp),
    so that k times either half is exact, and so is taking the nearest
    integer off the first product.
    """
    hi = x * 134217729.0  # 2**27 + 1
    hi = hi - (hi - x)
    head = k * hi
    turns = (head - np.rint(head)) + k * (x - hi)
    return turns - np.rint(turns)


def _shift_table(f: FourierFunction, x0: np.ndarray):
    """(modes, c, d) for the modes of f with a nonzero coefficient.

    Row j of c and d holds, at every atom x0_i, the coefficients of
    cos 2 pi k s and sin 2 pi k s in the mode-k term of f(x0_i + s), k =
    modes[j] (see the module docstring).
    """
    a, b = f.cos_coeffs, f.sin_coeffs
    live = np.flatnonzero((a != 0.0) | (b != 0.0))
    a, b = a[live, None], b[live, None]
    c, s = _cos_sin_turns(_turns((live + 1)[:, None], x0))
    return live + 1, a * c + b * s, b * c - a * s


def _cos_sin_turns(r: np.ndarray):
    """(cos 2 pi r, sin 2 pi r) for turns r in [-1/2, 1/2]; r is overwritten.

    r is split, exactly, into its nearest quarter turn q and a rest in
    [-1/8, 1/8] turns, so libm's cos and sin see only [-pi/4, pi/4], where
    they run about three times faster than on [-pi, pi].  The quarter turn
    is then an exact rotation, by cos(q pi/2) = 1 - |q| and sin(q pi/2) =
    q (2 - |q|) for q in {-2, ..., 2}.
    """
    r *= 4.0
    q = np.rint(r)
    r -= q
    r *= TWO_PI / 4
    cos_r = np.cos(r)
    sin_r = np.sin(r, out=r)
    cos_q = np.abs(q)
    scratch = np.subtract(2.0, cos_q)
    sin_q = np.multiply(q, scratch, out=q)
    np.subtract(1.0, cos_q, out=cos_q)
    np.multiply(sin_r, sin_q, out=scratch)
    sin_r *= cos_q
    sin_q *= cos_r
    sin_r += sin_q
    cos_r *= cos_q
    cos_r -= scratch
    return cos_r, sin_r


def _antithetic_pairings(mean: float, shifts, step: np.ndarray):
    """(<mu^+, f>, <mu^-, f>) of each pair, the atoms moved by +step and -step.

    step has one row per pair and one column per atom, and is overwritten;
    shifts is _shift_table(f, atoms).  Each pair is summed on its own
    (einsum, no BLAS), so its values do not depend on how many pairs come
    with it.
    """
    modes, c, d = shifts
    pairs, n = step.shape
    even = np.zeros(pairs)  # sum over modes and atoms of c_k cos 2 pi k s
    odd = np.zeros(pairs)  # and of d_k sin 2 pi k s
    if modes.size:
        step -= np.rint(step)
        c1, s1 = _cos_sin_turns(step)
        ck, sk = c1, s1
        if modes[-1] > 1:  # the recurrence's own arrays
            ck, sk = c1.copy(), s1.copy()
            cs, ss = np.empty_like(c1), np.empty_like(c1)
        row = 0
        for k in range(1, modes[-1] + 1):
            if k > 1:  # (ck, sk) <- mode k from mode k - 1
                np.multiply(ck, s1, out=cs)
                np.multiply(sk, s1, out=ss)
                ck *= c1
                ck -= ss
                sk *= c1
                sk += cs
            if k == modes[row]:
                even += np.einsum("pi,i->p", ck, c[row])
                odd += np.einsum("pi,i->p", sk, d[row])
                row += 1
    return mean + (even + odd) / n, mean + (even - odd) / n


def run_duality_test(
    alpha: int,
    mu0: EmpiricalMeasure,
    f: FourierFunction,
    t: float,
    replicates: int,
    seed: int,
    dom: TorusDomain | None = None,
    f_id: str = "f",
) -> DualityReport:
    """Score one (alpha, t, f) cell of the duality identity.

    Parameters
    ----------
    alpha : int
        Positive integer parameter; mu0 must carry alpha atoms.
    mu0 : EmpiricalMeasure
        Initial atoms of weight 1/alpha.
    f : FourierFunction
        Test function (any bounded Fourier sum; the headline suites use
        nonnegative ones so both sides live in (0, 1]).
    t : float
        Nonnegative time.
    replicates : int
        Number of sampled replicates: an even count of at least 4, so
        that the replicate pairs give a standard error.
    seed : int
        Stream seed; pair r, particle i takes row r, column i of
        standard_increments(n, pairs, seed) (rng.block_pieces at width n),
        which the pair's two replicates take with opposite signs.

    Scored by particles.z_score: a non-finite cell raises ValueError, as
    does alpha t past 2**38, where the increments would keep fewer than 30
    fractional bits.
    """
    n = require_integer_alpha(alpha, mu0.n)
    _check_spread(n, t)
    if replicates % 2 or replicates < 4:
        raise ValueError(
            f"replicates: {replicates} given; the antithetic estimator needs an "
            "even count of at least 4 (2 pairs) for a standard error"
        )
    dom = dom or TorusDomain(256)
    rhs = laplace_rhs(dom, mu0, f, n, t)

    pairs = replicates // 2
    shifts = _shift_table(f, mu0.positions)
    values = np.empty(pairs)
    cap = _PIECE_BYTES // (8 * n)
    cap = cap - cap % REPLICATES_PER_BLOCK if cap >= REPLICATES_PER_BLOCK else max(1, cap)
    for lo, hi, step in block_pieces(seed, n, 0, pairs, cap, np.empty(min(cap, pairs) * n)):
        step *= np.sqrt(n * t)
        plus, minus = _antithetic_pairings(f.mean, shifts, step)
        values[lo:hi] = 0.5 * (np.exp(-plus) + np.exp(-minus))
    mc_mean = float(np.mean(values))
    # np.std(values, ddof=1) step for step, but in place: np.std would
    # hold a full-size copy of the deviations
    values -= mc_mean
    np.square(values, out=values)
    mc_stderr = float(np.sqrt(np.sum(values) / (pairs - 1)) / np.sqrt(pairs))
    z = z_score("z", mc_mean, rhs, mc_stderr)
    return DualityReport(
        alpha=n,
        t=float(t),
        f_id=f_id,
        replicates=replicates,
        seed=seed,
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        rhs=rhs,
        z_score=float(z),
        verdict=bool(abs(z) <= 3.0),
    )


def default_f_suite() -> list[tuple[str, FourierFunction]]:
    """Three nonnegative Fourier test functions used by the headline sweep."""
    return [
        ("cos1", FourierFunction.from_modes(mean=1.0, cos={1: 0.5})),
        ("mix2", FourierFunction.from_modes(mean=0.8, sin={1: 0.3}, cos={2: 0.2})),
        ("mix3", FourierFunction.from_modes(mean=1.2, cos={1: 0.4, 3: 0.1}, sin={2: 0.3})),
    ]


def equally_spaced_atoms(n: int) -> EmpiricalMeasure:
    """Default initial condition: n atoms at (i + 1/2)/n."""
    return EmpiricalMeasure((np.arange(n) + 0.5) / n)


def sweep(
    alphas: list[int],
    times: list[float],
    f_suite: list[tuple[str, FourierFunction]],
    replicates: int,
    seed: int,
    dom: TorusDomain | None = None,
) -> list[DualityReport]:
    """Run the duality test over the full (alpha, t, f) grid.

    Each cell draws from an independent sub-seed derived from (seed, cell
    index), so the sweep is reproducible cell by cell and in total.
    Each alpha starts from alpha equally spaced atoms.
    """
    reports = []
    cell = 0
    for alpha in alphas:
        mu0 = equally_spaced_atoms(alpha)
        for t in times:
            for f_id, f in f_suite:
                reports.append(
                    run_duality_test(
                        alpha,
                        mu0,
                        f,
                        t,
                        replicates,
                        derive_seed(seed, cell),
                        dom=dom,
                        f_id=f_id,
                    )
                )
                cell += 1
    return reports


def pass_rate(reports: list[DualityReport]) -> tuple[int, int]:
    return sum(r.verdict for r in reports), len(reports)

"""Monte Carlo verification of the Laplace duality.

For integer alpha and matching atomic initial data the particle
construction and the Cole-Hopf flow must agree through

    E exp(-<mu_t, f>) = exp(-<mu_0, V_t f>).

The left side is estimated over independent replicates of the terminal
empirical measure, the right side evaluated through the solver on the
first grid that resolves exp(-f/alpha) to round-off (laplace_rhs), and
the gap is scored in standard errors.  Verdicts use the 3-sigma
convention; a sweep therefore carries a small expected false-failure
budget, and callers should judge pass rates at the sweep level rather
than flinch at single cells.

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
that the rounding of x0 + s drops.

The pairs are walked in pieces of at most _PIECE_BYTES of draws
(rng.block_pieces, which keeps a block's stream live from piece to
piece), and a piece allocates nothing: its draws and every array of its
pairing live in one float64 workspace per thread.  The cap bounds a
piece's workspace at _KEPT_ENTRIES = 9 * 2**14 entries (1.2 MB) for
alpha <= 2**14; the thread keeps it from cell to cell, grown to the
largest such piece it has served.  A larger one (one pair of 6 alpha + 3
entries, alpha >= 3 * 2**13) is allocated for its cell alone and freed
with it.  The pairing, the exp and the pair mean write through out= in
the order of the allocating arithmetic they replace (kept as the tests'
reference), so every value keeps its bits.  A cell keeps only its
8-byte value per pair; every sum runs within a pair, so a value does
not depend on the piece it fell in.  The standard error is taken from
those values in place, with no copy of them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .particles import EmpiricalMeasure, _check_spread, require_integer_alpha, z_score
from .particles import standard_increments  # noqa: F401  bench/spans.py wraps this name
from .rng import REPLICATES_PER_BLOCK, block_pieces, derive_seed
from .torus import FourierFunction, TorusDomain, _cos_sin_turns, _turns
from .vhj import cole_hopf

# Bytes of draws (8 a normal) in one piece of a duality cell: 2**14
# normals, rounded down to whole blocks of REPLICATES_PER_BLOCK pairs where
# a block fits (alpha <= 16), else at least one pair.  A piece's pairing
# holds about six arrays of its draws' size, so the cap, not the
# replicate count or alpha, sets a cell's working memory; pieces of 2**15
# and 2**16 normals ran the criterion-1 grid no faster and peaked higher.
_PIECE_BYTES = 1 << 17
# laplace_rhs's grid search starts from TorusDomain's default, the grid of
# every pinned duality run: there the default suite and random mode-3
# functions (alpha 1 to 2**20, t 0 to 1e3) read a top-half coefficient of
# at most 1.12 eps max w, over 50 times below _RESOLVED
_RHS_GRID = 256
_RHS_MAX_GRID = 1 << 16
_RESOLVED = 64 * np.finfo(float).eps
# the most entries a thread keeps in its workspace between cells: a
# piece's draws and _pairing_entries, at most 6 * 2**14 + 3 * 2**14 (one
# atom, 2**14 pairs) for alpha <= 2**14
_KEPT_ENTRIES = 9 * (_PIECE_BYTES // 8)

# each thread's workspace: the draws and the pairing arrays of a piece
_local = threading.local()


def _workspace(size: int) -> np.ndarray:
    """A float64 workspace of at least size entries.

    A cell's pieces write to it through out= arguments, so a cell allocates
    only its values.  Up to _KEPT_ENTRIES it is this thread's buffer, grown
    to the largest size asked for and kept from cell to cell; a larger one
    (alpha >= 3 * 2**13) is allocated for the caller alone.
    """
    if size > _KEPT_ENTRIES:
        return np.empty(size)
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < size:
        buf = _local.buf = np.empty(size)
    return buf


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


def laplace_rhs(mu0: EmpiricalMeasure, f: FourierFunction, alpha: float, t: float) -> float:
    """exp(-<mu_0, V_t f>) with V_t f evaluated exactly at the atoms.

    The Cole-Hopf grid doubles from _RHS_GRID, or from the first power of
    two above 2 f.max_mode, until exp(-f/alpha) is resolved: no mode of its
    projection in the top half of the grid's modes is above _RESOLVED max w,
    w the propagated transform.  Past _RHS_MAX_GRID it raises ValueError.
    """
    grid = max(_RHS_GRID, 1 << (2 * f.max_mode).bit_length())
    while grid <= _RHS_MAX_GRID:
        field = cole_hopf(TorusDomain(grid), f, alpha, t)
        p = field.projection
        top = np.max(np.hypot(p.cos_coeffs, p.sin_coeffs)[p.max_mode // 2:])
        # not (top > bound): a w that is not finite at t goes on to the z-score, which refuses it
        if not top > _RESOLVED * np.max(field.exp_transform):
            return float(np.exp(-np.mean(field.evaluate(mu0.positions))))
        grid *= 2
    raise ValueError(f"laplace_rhs: exp(-f/alpha), f of top mode {f.max_mode}, alpha = {alpha}, "
                     f"is not resolved on a grid of {_RHS_MAX_GRID} points")


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


def _pairing_entries(pairs: int, n: int) -> int:
    """Entries of the work buffer _antithetic_pairings needs for pairs rows of n atoms."""
    return 5 * pairs * n + 3 * pairs


def _antithetic_pairings(mean: float, shifts, step: np.ndarray, work: np.ndarray):
    """(<mu^+, f>, <mu^-, f>) of each pair, the atoms moved by +step and -step.

    step has one row per pair and one column per atom, and is overwritten;
    shifts is _shift_table(f, atoms).  work is a contiguous float64 buffer
    of at least _pairing_entries(*step.shape) entries; it holds every array
    of the pairing, the two returned among them, so nothing is allocated.
    Each pair is summed on its own (einsum, no BLAS), so its values do not
    depend on how many pairs come with it.
    """
    modes, c, d = shifts
    pairs, n = step.shape
    size = step.size
    c1, ck, sk, cs, ss = work[: 5 * size].reshape(5, pairs, n)
    # plus is also each mode's einsum output until the sums are done
    even, odd, plus = work[5 * size : 5 * size + 3 * pairs].reshape(3, pairs)
    even.fill(0.0)  # sum over modes and atoms of c_k cos 2 pi k s
    odd.fill(0.0)  # and of d_k sin 2 pi k s
    if modes.size:
        step -= np.rint(step, out=c1)
        # the turns' work arrays are ck, sk and cs, free until the copies below
        c1, s1 = _cos_sin_turns(step, c1, work[size : 4 * size].reshape(3, pairs, n))
        if modes[-1] > 1:  # the recurrence's own arrays
            np.copyto(ck, c1)
            np.copyto(sk, s1)
        else:
            ck, sk = c1, s1
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
                even += np.einsum("pi,i->p", ck, c[row], out=plus)
                odd += np.einsum("pi,i->p", sk, d[row], out=plus)
                row += 1
    np.add(even, odd, out=plus)
    plus /= n
    plus += mean
    minus = np.subtract(even, odd, out=odd)
    minus /= n
    minus += mean
    return plus, minus


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
    fractional bits.  A t that is not finite raises ValueError before the
    right-hand side or any draw.  dom is ignored (laplace_rhs picks its
    own grid).
    """
    n = require_integer_alpha(alpha, mu0.n)
    if not math.isfinite(t):
        raise ValueError(f"t = {t}: must be finite")
    _check_spread(n, t)
    if replicates % 2 or replicates < 4:
        raise ValueError(
            f"replicates: {replicates} given; the antithetic estimator needs an "
            "even count of at least 4 (2 pairs) for a standard error"
        )
    rhs = laplace_rhs(mu0, f, n, t)

    pairs = replicates // 2
    shifts = _shift_table(f, mu0.positions)
    values = np.empty(pairs)
    cap = _PIECE_BYTES // (8 * n)
    cap = cap - cap % REPLICATES_PER_BLOCK if cap >= REPLICATES_PER_BLOCK else max(1, cap)
    rows = min(cap, pairs)
    buf = _workspace(rows * n + _pairing_entries(rows, n))
    draws, work = buf[: rows * n], buf[rows * n :]
    for lo, hi, step in block_pieces(seed, n, 0, pairs, cap, draws):
        step *= np.sqrt(n * t)
        plus, minus = _antithetic_pairings(f.mean, shifts, step, work)
        # 0.5 (exp(-plus) + exp(-minus)), in place and in that order
        np.exp(np.negative(plus, out=plus), out=plus)
        np.exp(np.negative(minus, out=minus), out=minus)
        out = np.add(plus, minus, out=values[lo:hi])
        out *= 0.5
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
) -> list[DualityReport]:
    """Run the duality test over the full (alpha, t, f) grid.

    Each cell draws from an independent sub-seed derived from (seed, cell
    index), so the sweep is reproducible cell by cell and in total.
    Each alpha starts from alpha equally spaced atoms.
    """
    reports = []
    for alpha in alphas:
        mu0 = equally_spaced_atoms(alpha)
        for t in times:
            for f_id, f in f_suite:
                reports.append(run_duality_test(alpha, mu0, f, t, replicates,
                                                derive_seed(seed, len(reports)), f_id=f_id))
    return reports


def pass_rate(reports: list[DualityReport]) -> tuple[int, int]:
    return sum(r.verdict for r in reports), len(reports)

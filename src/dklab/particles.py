"""Empirical-measure solutions and their martingale functionals.

The measure-valued process under study has solutions only when the noise
parameter is a positive integer n and the initial condition is n atoms of
weight 1/n.  Those solutions are explicit: run n independent Brownian
particles (generator Laplacian/2) at internal time n*t and take the
empirical measure.  This module samples exactly that construction and
evaluates the martingale functional

    M_t(phi) = <mu_t, phi> - <mu_0, phi> - (alpha/2) int_0^t <mu_s, L phi> ds

together with its predicted quadratic variation int_0^t <mu_s, Gamma phi> ds.

Brownian increments are exact in law at the stored grid times (Gaussian
increments plus wrap-around), so the only discretization error is the
trapezoid rule in the two time integrals, O((t/num_steps)^2) per integral.

Every pairing <mu, f> goes through the empirical Fourier moments
m_k = mean_i exp(2 pi i k x_i) of torus.fourier_moments: one cos and one
sin of a quarter angle per atom and state, taken after the exact
reduction x - rint(x), so the positions need no wrapping and the phase
does not lose accuracy as a particle wanders; <mu, phi>, <mu, L phi> and
<mu, Gamma phi> are then dot products with their coefficients
(FourierFunction.pair_moments).  The ensemble driver integrates the
moments over time before pairing, since it keeps only the final M_t and
qv_t.  On T steps of dt the trapezoid integral of a mode is
dt [(T + 1) mean - (initial + final) / 2]: mean is the plain mean of the
mode over a replicate's n (T + 1) grid points, one pairwise row sum, and
initial and final are the moments of mu_0 and of the final state, which
the ensemble takes anyway, so no time weights are applied.  Each thread
takes one contiguous slab of replicates (parallel.run_chunked hands out
whole blocks of 1024 replicates, the unit of the draws) and one set of
buffers for it: the positions (at most _CHUNK_BYTES) and the two
complex moment arrays (twice that each).  It walks its slab in pieces
that fit those buffers, so a call holds about 5 * _CHUNK_BYTES per
thread whatever the replicate count, allocates and page-faults that
memory once, and a piece's working set stays close to the L2 cache.  A
piece's normals are drawn into the first moment buffer, which the
moments overwrite only after the positions are summed from them.  Every
step releases the GIL: one standard_normal fill per block a
piece touches (rng.block_pieces), the cumulative sum and the Fourier
moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .parallel import run_chunked
from .rng import REPLICATES_PER_BLOCK, block_pieces
from .torus import (
    FourierFunction,
    _fourier_moments_into,
    carre_du_champ,
    fourier_moments,
    generator_L,
    wrap,
)

# bytes of one piece's positions (replicates x particles x grid times,
# float64) in martingale_ensemble; each of the two complex moment arrays
# takes twice that, so 512 KiB keeps a piece and its moments near a 2 MB
# L2 cache, and a thread's buffers, which hold all three, at about
# 5 * _CHUNK_BYTES
_CHUNK_BYTES = 1 << 19

_DEGENERATE_ATOL = 1e-9

# a one-draw sample is atom + sqrt(n t) xi, wrapped to [0, 1); past
# n t = 2**38 a draw of 8 sigma reaches 2**22, where a float64 keeps fewer
# than 30 fractional bits for wrap to return
_MAX_SPREAD_VARIANCE = 2.0**38


def require_integer_alpha(alpha, n_atoms: int) -> int:
    """Validate the only parameter regime in which the process exists."""
    if not float(alpha).is_integer() or alpha < 1:
        raise ValueError(
            f"alpha = {alpha}: the dynamics only exists for positive integer "
            "alpha with alpha atoms of weight 1/alpha; for non-integer alpha "
            "there is no process to sample, so the request is refused rather "
            "than fabricated"
        )
    n = int(alpha)
    if n != n_atoms:
        raise ValueError(
            f"alpha = {n} requires exactly {n} atoms of weight 1/{n}, "
            f"got {n_atoms}"
        )
    return n


@dataclass(frozen=True)
class EmpiricalMeasure:
    """n unit-weight/n atoms on the torus; total mass is exactly 1."""

    positions: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.positions, dtype=float))
        if p.ndim != 1 or p.size == 0:
            raise ValueError("positions must be a nonempty 1-D array")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"positions must be finite, got {p[~np.isfinite(p)][0]}")
        object.__setattr__(self, "positions", wrap(p))

    @property
    def n(self) -> int:
        return self.positions.size


def pair_against(phi: FourierFunction, mu: EmpiricalMeasure) -> float:
    """<mu, phi>: the average of phi over the atoms, from their Fourier moments."""
    return float(phi.pair_moments(fourier_moments(mu.positions, phi.max_mode)))


@dataclass(frozen=True)
class ParticlePath:
    """Trajectory of the empirical measure on a uniform time grid.

    positions[k, i] is particle i at external time times[k]; increments
    between grid times are exact Gaussian draws of variance
    alpha * (time step) per particle (internal clock runs alpha times
    faster than the external one).
    """

    times: np.ndarray
    positions: np.ndarray  # shape (len(times), n)
    alpha: int

    @cached_property
    def states(self) -> list[EmpiricalMeasure]:
        return [EmpiricalMeasure(row) for row in self.positions]


@dataclass(frozen=True)
class MartingaleSample:
    """M_t(phi) and the quadratic-variation integrand along one path."""

    times: np.ndarray
    m_values: np.ndarray
    qv_integral: np.ndarray


def _check_grid(mu0: EmpiricalMeasure, alpha, t_final: float, num_steps: int) -> int:
    """The particle count of a path request; refuses an empty or reversed time grid."""
    n = require_integer_alpha(alpha, mu0.n)
    if t_final < 0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    if num_steps < 1:
        raise ValueError(f"num_steps must be a positive integer, got {num_steps}")
    return n


def _check_spread(n: int, t: float) -> None:
    """Refuses a one-draw sample of n particles at a t past 2**38 / n (see above)."""
    if t > _MAX_SPREAD_VARIANCE / n:
        raise ValueError(
            f"t = {t}: the spread sqrt(alpha t) = {math.sqrt(n * t):.3g} leaves the wrapped "
            "positions fewer than 30 fractional bits; alpha t must stay below 2**38"
        )


def _path_pieces(
    mu0: EmpiricalMeasure,
    sigma: float,
    num_steps: int,
    seed: int,
    lo: int,
    hi: int,
    cap: int,
    positions: np.ndarray,
    draws: np.ndarray,
):
    """Unwrapped positions of replicates lo..hi-1, in pieces of at most cap replicates.

    Yields (a, b, x) for consecutive pieces [a, b), with x of shape
    (b - a, n, num_steps + 1): x[r, i, k] is particle i of replicate a + r
    after k steps, its initial atom plus sigma times the sum of the
    replicate's normals i * num_steps to i * num_steps + k - 1 in
    rng.block_pieces (width n * num_steps).  simulate_path and
    martingale_ensemble both draw through here.  With m = min(cap, hi - lo),
    positions and draws are contiguous 1-D float64 buffers of at least
    m * n * (num_steps + 1) and m * n * num_steps entries; x is a view of
    the head of positions, valid until the next piece, and the normals go
    through draws, nothing of which is read before it is written.
    """
    n = mu0.n
    for a, b, z in block_pieces(seed, n * num_steps, lo, hi, cap, draws):
        x = positions[: (b - a) * n * (num_steps + 1)].reshape(b - a, n, num_steps + 1)
        x[..., 0] = 0.0
        np.cumsum(z.reshape(b - a, n, num_steps), axis=-1, out=x[..., 1:])
        x *= sigma
        x += mu0.positions[:, None]
        yield a, b, x


def simulate_path(
    mu0: EmpiricalMeasure,
    alpha: int,
    t_final: float,
    num_steps: int,
    seed: int,
    replicate: int = 0,
) -> ParticlePath:
    """Sample one path of the empirical-measure process.

    The path is replicate `replicate` of martingale_ensemble(..., seed): its
    n * num_steps normals sit in the stream of its block of 1024 replicates
    (rng.block_pieces), after those of the replicates before it in the
    block, which are drawn and dropped.

    Parameters
    ----------
    mu0 : EmpiricalMeasure
        Initial atoms; must be alpha atoms of weight 1/alpha (repetitions
        allowed).
    alpha : int
        Positive integer parameter; also the particle count.
    t_final : float
        External end time (internal clock runs to alpha * t_final).
    num_steps : int
        Uniform steps of the storage grid.
    seed, replicate : int
        Stream seed and replicate index of the path.
    """
    n = _check_grid(mu0, alpha, t_final, num_steps)
    sigma = np.sqrt(n * (t_final / num_steps))
    positions, draws = np.empty(n * (num_steps + 1)), np.empty(n * num_steps)
    [(_, _, x)] = _path_pieces(
        mu0, sigma, num_steps, seed, replicate, replicate + 1, 1, positions, draws
    )
    return ParticlePath(
        times=np.linspace(0.0, t_final, num_steps + 1), positions=wrap(x[0].T), alpha=n
    )


def martingale_functional(path: ParticlePath, phi: FourierFunction) -> MartingaleSample:
    """Evaluate M_t(phi) and the QV integrand along the stored grid.

    Time integrals use the trapezoid rule on the path's grid; the grid must
    be fine enough for the resulting O(dt^2) bias to sit below the
    caller's tolerance.
    """
    lphi = generator_L(phi)
    gphi = carre_du_champ(phi)
    moments = fourier_moments(path.positions, _moment_order(phi, lphi, gphi))
    dt = np.diff(path.times)
    cumtrap = lambda y: np.concatenate(  # noqa: E731
        [[0.0], np.cumsum(0.5 * dt * (y[1:] + y[:-1]))]
    )
    pairing = phi.pair_moments(moments)
    m = pairing - pairing[0] - 0.5 * path.alpha * cumtrap(lphi.pair_moments(moments))
    qv = cumtrap(gphi.pair_moments(moments))
    return MartingaleSample(times=path.times, m_values=m, qv_integral=qv)


def _moment_order(*fs: FourierFunction) -> int:
    return max(f.max_mode for f in fs)


@dataclass(frozen=True)
class QvReport:
    """Ensemble statistics for the martingale and quadratic-variation checks."""

    t: float
    replicates: int
    mean_m: float
    se_m: float
    z_mean: float
    mean_m2: float
    mean_qv: float
    se_diff: float
    z_qv: float

    @property
    def passed(self) -> bool:
        return abs(self.z_mean) <= 3.0 and abs(self.z_qv) <= 3.0


def z_score(name: str, estimate: float, target: float, stderr: float) -> float:
    """(estimate - target) / stderr, the score every 3-sigma verdict reads.

    A non-finite input raises ValueError naming the statistic.  In a
    degenerate cell (t = 0, a constant test function) stderr <= 64 eps
    |estimate| is summation round-off, and the score is 0 if
    |estimate - target| <= 1e-9 max(1, |target|), inf otherwise.
    """
    if not all(math.isfinite(v) for v in (estimate, target, stderr)):
        raise ValueError(f"{name}: not finite (estimate {estimate!r}, target {target!r}, "
                         f"standard error {stderr!r}); no verdict is drawn from it")
    if stderr > 64 * np.finfo(float).eps * max(abs(estimate), 1e-300):
        return float((estimate - target) / stderr)
    return 0.0 if abs(estimate - target) <= _DEGENERATE_ATOL * max(1.0, abs(target)) else math.inf


def qv_statistic(ensemble: tuple[np.ndarray, np.ndarray, float]) -> QvReport:
    """Reduce the (m_final, qv_final, t) ensemble that martingale_ensemble returns.

    The QV z-score uses the paired per-replicate differences
    M_t^2 - qv_t, which is the correct standard error for testing that
    their common mean gap is zero; both scores follow z_score.  Raises
    ValueError for fewer than 100 replicates and, before anything is
    squared, for an M_t or qv_t that is not finite or so large that the
    sum of squares in the standard error of M_t^2 - qv_t could overflow
    (at large t, M_t^2 overflows although M_t does not).
    """
    m_final, qv_final, t = ensemble
    r = m_final.size
    if r < 100:
        raise ValueError(f"need at least 100 replicates, got {r}")
    # |M_t^2 - qv_t| <= 2 bound, so its r squared deviations sum below max / 4
    bound = math.sqrt(np.finfo(float).max / r) / 8
    m_max, qv_max = float(np.max(np.abs(m_final))), float(np.max(np.abs(qv_final)))
    if not (m_max <= math.sqrt(bound) and qv_max <= bound):  # NaN fails too
        raise ValueError(f"M_t: max |M_t| {m_max:.3g}, max |qv_t| {qv_max:.3g}: the ensemble "
                         "holds non-finite values, or values whose squares in the QV standard "
                         "error are not finite; no verdict is drawn from it")
    se = lambda x: float(np.std(x, ddof=1) / np.sqrt(x.size))  # noqa: E731
    mean_m = float(np.mean(m_final))
    se_m = se(m_final)
    diff = m_final**2 - qv_final
    se_d = se(diff)
    return QvReport(
        t=float(t),
        replicates=r,
        mean_m=mean_m,
        se_m=se_m,
        z_mean=z_score("z_mean", mean_m, 0.0, se_m),
        mean_m2=float(np.mean(m_final**2)),
        mean_qv=float(np.mean(qv_final)),
        se_diff=se_d,
        z_qv=z_score("z_qv", float(np.mean(diff)), 0.0, se_d),
    )


# -- ensemble drivers ----------------------------------------------------------
#
# Replicate r of martingale_ensemble is the path simulate_path(..., seed,
# replicate=r): both draw through _path_pieces, by the block convention of
# rng, and the ensemble takes the same trapezoid rule from the moments of
# the unwrapped positions, so its values agree with martingale_functional
# on that path to round-off.  standard_increments is the one-step case of
# the same draws.


def standard_increments(
    n: int, replicates: int, seed: int, first_replicate: int = 0, threads: int | None = None
) -> np.ndarray:
    """One standard normal per (replicate, particle), shape (replicates, n).

    Row r is replicate first_replicate + r of rng.block_pieces at width n:
    particle i takes normal ((first_replicate + r) mod 1024) * n + i of the
    stream of its block of 1024 replicates, which is the one-step path's
    draw.  The result is bitwise the matching slice of any larger range.
    threads is accepted for call compatibility and has no effect.
    """
    out = np.empty((replicates, n))
    lo = int(first_replicate)
    for _ in block_pieces(seed, n, lo, lo + replicates, replicates, out.reshape(-1)):
        pass
    return out


def terminal_ensemble(
    mu0: EmpiricalMeasure,
    alpha: int,
    t: float,
    replicates: int,
    seed: int,
    first_replicate: int = 0,
) -> np.ndarray:
    """Positions of mu_t for replicates first_replicate onward, shape (replicates, n).

    Replicate r is mu0 moved by sqrt(alpha t) times the row of
    standard_increments for r, the final state of the one-step path
    simulate_path(mu0, alpha, t, 1, seed, r).  alpha t past 2**38 raises
    ValueError: the positions would keep fewer than 30 fractional bits.
    """
    n = _check_grid(mu0, alpha, t, 1)
    _check_spread(n, t)
    z = standard_increments(n, replicates, seed, first_replicate)
    return wrap(mu0.positions + np.sqrt(n * t) * z)


def martingale_ensemble(
    mu0: EmpiricalMeasure,
    alpha: int,
    phi: FourierFunction,
    t_final: float,
    num_steps: int,
    replicates: int,
    seed: int,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Final-time (M_t(phi), qv_t) over an ensemble of paths.

    Returns (m_final, qv_final, t_final) ready for qv_statistic.  Replicate
    r is the path simulate_path(..., seed, replicate=r).  Each thread
    takes one contiguous slab of whole blocks of 1024 replicates and walks
    it in pieces of at most _CHUNK_BYTES bytes of positions, whatever the
    replicate count.  Each piece is reduced to two sets of Fourier moments
    per replicate: those of its final state, and the plain mean over all
    its particles and grid times.  The trapezoid time integral of the
    moments is dt [(num_steps + 1) mean - (initial + final) / 2], with
    initial the moments of mu0, and the three pairings are taken from the
    final and integrated moments.  A thread writes all its pieces
    into one positions buffer and two complex moment buffers, sized for
    one piece and allocated once per slab: about 5 * _CHUNK_BYTES per
    thread.  The normals of a piece are drawn into the first moment
    buffer, before its moments overwrite them.
    """
    n = _check_grid(mu0, alpha, t_final, num_steps)
    dt = t_final / num_steps
    sigma = np.sqrt(n * dt)
    lphi = generator_L(phi)
    gphi = carre_du_champ(phi)
    order = _moment_order(phi, lphi, gphi)
    initial = fourier_moments(mu0.positions, order)
    start = phi.pair_moments(initial)
    m_final = np.empty(replicates)
    qv_final = np.empty(replicates)
    cap = max(1, _CHUNK_BYTES // ((num_steps + 1) * n * 8))

    def fill(first_block, last_block):
        lo = first_block * REPLICATES_PER_BLOCK
        hi = min(last_block * REPLICATES_PER_BLOCK, replicates)
        size = min(cap, hi - lo) * n * (num_steps + 1)
        positions = np.empty(size)
        e1 = np.empty(size, dtype=complex)
        ek = np.empty(size, dtype=complex)
        pieces = _path_pieces(mu0, sigma, num_steps, seed, lo, hi, cap, positions, e1.view(float))
        for a, b, x in pieces:
            final = _fourier_moments_into(x[:, :, -1], order, e1, ek)
            mean = _fourier_moments_into(x.reshape(b - a, -1), order, e1, ek)
            # the trapezoid rule: every grid time weighs dt, the two ends dt / 2
            integral = dt * ((num_steps + 1) * mean - 0.5 * (initial + final))
            m_final[a:b] = (
                phi.pair_moments(final) - start - 0.5 * n * lphi.pair_moments(integral)
            )
            qv_final[a:b] = gphi.pair_moments(integral)

    run_chunked(-(-replicates // REPLICATES_PER_BLOCK), fill, threads)
    return m_final, qv_final, t_final

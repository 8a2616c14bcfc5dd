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
m_k = mean_i exp(2 pi i k x_i) of torus.fourier_moments: one complex
exponential per atom and state, after which <mu, phi>, <mu, L phi> and
<mu, Gamma phi> are dot products with their coefficients
(FourierFunction.pair_moments).  The ensemble driver integrates the
moments over time before pairing, since it keeps only the final M_t and
qv_t, and it simulates paths in chunks whose arrays hold at most
_CHUNK_BYTES (512 KiB) each, so its memory does not grow with the
replicate count and a chunk's working set stays close to the L2 cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .parallel import run_chunked
from .rng import (
    REPLICATE_STRIDE,
    RngStream,
    StreamBank,
    gaussian_increment,
    replicate_stream_ids,
    standard_normals,
)
from .torus import FourierFunction, carre_du_champ, fourier_moments, generator_L, wrap

# bytes of one chunk array (replicates x particles x grid times, float64)
# in martingale_ensemble; the complex moment arrays take twice that, so
# 512 KiB keeps a chunk and its moments near a 2 MB L2 cache
_CHUNK_BYTES = 1 << 19


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

    phi: FourierFunction
    times: np.ndarray
    m_values: np.ndarray
    qv_integral: np.ndarray


def simulate_path(
    mu0: EmpiricalMeasure,
    alpha: int,
    t_final: float,
    num_steps: int,
    stream: RngStream,
) -> ParticlePath:
    """Sample one path of the empirical-measure process.

    Particle i draws its increments from stream.child(i), so with
    stream = replicate_stream(seed, r) the layout is the documented
    stream_id = r * 2**32 + i.

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
    stream : RngStream
        Base stream of this replicate.
    """
    n = require_integer_alpha(alpha, mu0.n)
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    if num_steps < 1:
        raise ValueError("num_steps must be positive")
    times = np.linspace(0.0, t_final, num_steps + 1)
    dt_internal = n * (t_final / num_steps)
    incr = np.empty((num_steps, n))
    for i in range(n):
        incr[:, i] = gaussian_increment(stream.child(i), num_steps, dt_internal)
    pos = np.empty((num_steps + 1, n))
    pos[0] = mu0.positions
    pos[1:] = wrap(mu0.positions[None, :] + np.cumsum(incr, axis=0))
    return ParticlePath(times=times, positions=pos, alpha=n)


def sample_terminal(
    mu0: EmpiricalMeasure, alpha: int, t: float, stream: RngStream
) -> EmpiricalMeasure:
    """Exact-in-law sample of mu_t without storing a path.

    Particle i sits at x_i + N(0, alpha * t) wrapped; one draw per
    particle from stream.child(i).
    """
    n = require_integer_alpha(alpha, mu0.n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return mu0
    sigma = np.sqrt(n * t)
    incr = np.array(
        [gaussian_increment(stream.child(i), 1, 1.0)[0] for i in range(n)]
    )
    return EmpiricalMeasure(wrap(mu0.positions + sigma * incr))


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
    return MartingaleSample(phi=phi, times=path.times, m_values=m, qv_integral=qv)


def _moment_order(*fs: FourierFunction) -> int:
    return max(f.max_mode for f in fs)


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """w with sum_j w_j y_j the trapezoid rule for the integral of y over times."""
    dt = np.diff(times)
    w = np.zeros(times.size)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


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


def qv_statistic(samples, t_index: int = -1) -> QvReport:
    """Reduce an ensemble of MartingaleSample (or raw (m, qv) arrays).

    The QV z-score uses the paired per-replicate differences
    M_t^2 - qv_t, which is the correct standard error for testing that
    their common mean gap is zero.  Raises ValueError for fewer than 100
    replicates or for any non-finite M_t or qv_t.
    """
    if isinstance(samples, tuple):
        m_final, qv_final, t = samples
    else:
        samples = list(samples)
        if not samples:
            raise ValueError("empty ensemble")
        m_final = np.array([s.m_values[t_index] for s in samples])
        qv_final = np.array([s.qv_integral[t_index] for s in samples])
        t = float(samples[0].times[t_index])
    r = m_final.size
    if r < 100:
        raise ValueError(f"need at least 100 replicates, got {r}")
    # a NaN standard error would read as z = 0 below, so a non-finite
    # ensemble would pass
    if not (np.all(np.isfinite(m_final)) and np.all(np.isfinite(qv_final))):
        raise ValueError("the ensemble holds non-finite M_t or qv_t values")
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
        z_mean=mean_m / se_m if se_m > 0 else 0.0,
        mean_m2=float(np.mean(m_final**2)),
        mean_qv=float(np.mean(qv_final)),
        se_diff=se_d,
        z_qv=float(np.mean(diff) / se_d) if se_d > 0 else 0.0,
    )


# -- vectorized ensemble drivers ---------------------------------------------
#
# The drivers below reproduce, bit for bit, what per-replicate
# simulate_path / sample_terminal calls would draw (same stream keys, same
# draw order); the one-draw streams are computed as arrays and the
# post-processing is batched.


def standard_increments(
    n: int, replicates: int, seed: int, first_replicate: int = 0, threads: int | None = None
) -> np.ndarray:
    """One standard normal per (replicate, particle), shape (replicates, n).

    Replicate r (global index first_replicate + r) particle i takes the
    first draw of stream (seed, (first_replicate + r) * 2**32 + i).  The
    draws are computed as one array by standard_normals, not in the thread
    pool; threads is accepted for call compatibility and has no effect.
    """
    return standard_normals(seed, replicate_stream_ids(replicates, n, first_replicate))


def terminal_ensemble(
    mu0: EmpiricalMeasure,
    alpha: int,
    t: float,
    replicates: int,
    seed: int,
    first_replicate: int = 0,
) -> np.ndarray:
    """Positions of mu_t for a block of replicates, shape (replicates, n)."""
    n = require_integer_alpha(alpha, mu0.n)
    xi = standard_increments(n, replicates, seed, first_replicate)
    if t == 0.0:
        return np.tile(mu0.positions, (replicates, 1))
    return wrap(mu0.positions[None, :] + np.sqrt(n * t) * xi)


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

    Returns (m_final, qv_final, t_final) ready for qv_statistic.  The
    per-replicate stream draws are identical to simulate_path.  Each chunk
    of paths is reduced to the Fourier moments of its final states and the
    trapezoid time integral of its moments, and the three pairings are
    taken from those; a chunk holds at most _CHUNK_BYTES bytes of
    positions, whatever the replicate count.
    """
    n = require_integer_alpha(alpha, mu0.n)
    times = np.linspace(0.0, t_final, num_steps + 1)
    sigma = np.sqrt(n * (t_final / num_steps))
    lphi = generator_L(phi)
    gphi = carre_du_champ(phi)
    order = _moment_order(phi, lphi, gphi)
    # weights of the time integral of the particle mean, over (particle, time)
    weights = np.tile(_trapezoid_weights(times) / n, n)
    start = phi.pair_moments(fourier_moments(mu0.positions, order))
    m_final = np.empty(replicates)
    qv_final = np.empty(replicates)

    def fill(lo, hi):
        bank = StreamBank(seed)
        # x[r, i] is particle i of replicate lo + r along the grid; column 0
        # is zero so that the cumulative sum starts from the initial atom
        x = np.zeros((hi - lo, n, num_steps + 1))
        for r in range(lo, hi):
            base = r * REPLICATE_STRIDE
            for i in range(n):
                x[r - lo, i, 1:] = bank.normals(base + i, num_steps)
        np.cumsum(x, axis=-1, out=x)
        x *= sigma
        x += mu0.positions[None, :, None]
        final = fourier_moments(x[:, :, -1], order)
        integral = fourier_moments(x.reshape(hi - lo, -1), order, weights)
        m_final[lo:hi] = (
            phi.pair_moments(final) - start - 0.5 * n * lphi.pair_moments(integral)
        )
        qv_final[lo:hi] = gphi.pair_moments(integral)

    cap = max(1, _CHUNK_BYTES // ((num_steps + 1) * n * 8))
    run_chunked(replicates, fill, threads, min_chunk=512, max_chunk=cap)
    return m_final, qv_final, t_final

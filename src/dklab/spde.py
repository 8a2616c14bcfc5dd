"""Deliberately naive finite-volume integrator for the conservative
square-root-noise SPDE.

The scheme is the plainest possible grid projection: explicit Euler for
the diffusion (alpha/2) Laplacian in conservative flux form, plus a noise
flux sqrt(max(interface density, 0)) * xi * sqrt(dt/dx) per interface and
step, with independent standard normals xi.  The divergence of both fluxes
is applied without any clipping of the density, so total mass is conserved
to round-off at every step while negative cell values remain observable.

That is the point of the module: for non-integer parameters (and any
absolutely continuous initial datum) no solution exists, and this
integrator exhibits the matching practical breakdown, cells going
negative.  It makes no convergence claim; its outputs are descriptive
breakdown statistics, and every threshold quoted in the tests is
calibrated on this artifact, not taken from theory.

One kernel (_StepKernel) does every step: it copies the density once and
advances the copy in place through preallocated neighbour, flux and
scratch buffers.  step (one advance), evolve and first_negativity all go
through it, with the operation order of the plain allocating update, so
their results are bit for bit those of repeated single steps; none of
them writes into the field it is given.  make_field refuses an alpha or
dt that is not finite and positive, naming the value, and a dt beyond the
diffusive stability bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import run_chunked  # noqa: F401  bench/spans.py wraps spde.run_chunked
from .rng import REPLICATE_STRIDE, RngStream
from .torus import TorusDomain


@dataclass(frozen=True)
class DensityField:
    """Grid density (mass per unit length), its step size and step count.

    cell_values may be (N,) for one trajectory or (R, N) for a batch of
    independent trajectories advanced in lockstep.
    """

    cell_values: np.ndarray
    dt: float
    step_count: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "cell_values", np.asarray(self.cell_values, dtype=float)
        )

    @property
    def grid_size(self) -> int:
        return self.cell_values.shape[-1]

    def mass(self) -> np.ndarray | float:
        m = self.cell_values.sum(axis=-1) / self.grid_size
        return float(m) if np.ndim(m) == 0 else m


def stability_limit(dom: TorusDomain, alpha: float) -> float:
    """Largest stable explicit step: dt <= dx^2 / (2 * (alpha/2))."""
    return dom.dx**2 / alpha


def make_field(
    dom: TorusDomain, values: np.ndarray | float, dt: float, alpha: float
) -> DensityField:
    """Validate the configuration (diffusive stability) and build the field.

    alpha and dt must be finite and positive, and dt within the stability
    bound dx^2 / alpha; anything else raises ValueError naming the value.
    """
    for name, value in (("alpha", alpha), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    limit = stability_limit(dom, alpha)
    if dt > limit * (1 + 1e-12):
        raise ValueError(
            f"dt = {dt:.3e} violates the diffusive stability bound {limit:.3e}"
        )
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        v = np.full(dom.grid_size, float(v))
    if v.shape[-1] != dom.grid_size:
        raise ValueError("values do not match the grid")
    return DensityField(cell_values=v, dt=dt)


class _StepKernel:
    """A copy of a density array, advanced in place by the step of step().

    The arithmetic is that of the allocating form, operation for operation,
    so every step is bit for bit the same.  The state lives in the head of a
    buffer one column wider, whose last column repeats the first, so the
    right neighbours are a view; the fluxes likewise sit behind one column
    that repeats the last, so the left fluxes are a view too.  Nothing is
    allocated per step but the draw's bookkeeping.
    """

    def __init__(self, values: np.ndarray, dt: float, alpha: float,
                 stream: RngStream, noise_scale: float):
        shape = values.shape
        n = shape[-1]
        self._padded = np.empty(shape[:-1] + (n + 1,))
        self.mu = self._padded[..., :n]
        self.mu[...] = values
        self._flux = np.empty(shape[:-1] + (n + 1,))
        self._scratch = np.empty(shape)
        self._xi = np.empty(shape)
        self._draw = stream.generator.standard_normal if noise_scale != 0.0 else None
        self._dx = 1.0 / n
        self._dt = dt
        self._diff_coeff = 0.5 * alpha / self._dx
        self._noise_scale = noise_scale
        self._noise_coeff = np.sqrt(dt / self._dx)

    def advance(self, num_steps: int) -> None:
        padded, mu, flux, scratch, xi = self._padded, self.mu, self._flux, self._scratch, self._xi
        right, total, total_left = padded[..., 1:], flux[..., 1:], flux[..., :-1]
        dx, dt, diff_coeff, draw = self._dx, self._dt, self._diff_coeff, self._draw
        noise_scale, noise_coeff = self._noise_scale, self._noise_coeff
        for _ in range(num_steps):
            padded[..., -1] = padded[..., 0]
            np.subtract(right, mu, out=total)
            np.multiply(diff_coeff, total, out=total)
            np.multiply(dt, total, out=total)
            if draw is not None:
                draw(out=xi)
                np.add(mu, right, out=scratch)
                np.multiply(0.5, scratch, out=scratch)
                np.maximum(scratch, 0.0, out=scratch)
                np.sqrt(scratch, out=scratch)
                np.multiply(noise_scale, scratch, out=scratch)
                np.multiply(scratch, xi, out=scratch)
                np.multiply(scratch, noise_coeff, out=scratch)
                np.add(total, scratch, out=total)
            flux[..., 0] = flux[..., -1]
            np.subtract(total, total_left, out=scratch)
            np.divide(scratch, dx, out=scratch)
            np.add(mu, scratch, out=mu)


def step(
    field: DensityField,
    alpha: float,
    stream: RngStream,
    noise_scale: float = 1.0,
) -> DensityField:
    """One explicit conservative update, into a new field.

    Interface j+1/2 carries the diffusive flux (alpha/2)(mu_{j+1}-mu_j)/dx
    and the noise flux sqrt(max(mean(mu_j, mu_{j+1}), 0)) * xi * sqrt(dt/dx);
    only the argument of the square root is truncated at zero, never the
    density itself.  noise_scale multiplies the noise flux (0 gives the
    deterministic heat limit).
    """
    return evolve(field, alpha, 1, stream, noise_scale)


def evolve(
    field: DensityField,
    alpha: float,
    num_steps: int,
    stream: RngStream,
    noise_scale: float = 1.0,
) -> DensityField:
    """num_steps applications of step, in place on one copy of the field.

    The input field is never written into; num_steps < 1 returns it.
    """
    if num_steps < 1:
        return field
    kernel = _StepKernel(field.cell_values, field.dt, alpha, stream, noise_scale)
    kernel.advance(num_steps)
    return DensityField(cell_values=np.ascontiguousarray(kernel.mu), dt=field.dt,
                        step_count=field.step_count + num_steps)


def first_negativity(
    field: DensityField,
    alpha: float,
    max_steps: int,
    stream: RngStream,
    noise_scale: float = 1.0,
) -> tuple[int, int] | None:
    """Earliest (step, cell) at which any cell goes negative, or None.

    The initial state is checked too (step 0) so a pathological start is
    reported rather than evolved.
    """
    if field.cell_values.ndim != 1:
        raise ValueError("first_negativity tracks a single trajectory")
    kernel = _StepKernel(field.cell_values, field.dt, alpha, stream, noise_scale)
    for k in range(max_steps + 1):
        neg = np.nonzero(kernel.mu < 0.0)[0]
        if neg.size:
            return k, int(neg[0])
        if k == max_steps:
            return None
        kernel.advance(1)
    return None


@dataclass(frozen=True)
class BreakdownReport:
    """Breakdown statistics over an ensemble of seeds (artifact-calibrated)."""

    max_steps: int
    seeds: int
    hit_records: list[tuple[int, int] | None]  # (step, cell) per member

    @property
    def hits(self) -> int:
        return sum(1 for rec in self.hit_records if rec is not None)

    @property
    def median_step(self) -> float:
        vals = [rec[0] for rec in self.hit_records if rec is not None]
        return float(np.median(vals)) if vals else float("inf")


def negativity_ensemble(
    dom: TorusDomain,
    alpha: float,
    dt: float,
    seeds: int,
    max_steps: int,
    seed: int,
    noise_scale: float = 1.0,
) -> BreakdownReport:
    """first_negativity from density 1 for each member r, on stream (seed, r * 2**32).

    The members run one after another on the calling thread: a member is a
    few small numpy steps, too little work to pay for handing it to a pool.
    """
    fld = make_field(dom, 1.0, dt, alpha)  # step never writes into a field
    hits = [
        first_negativity(fld, alpha, max_steps, RngStream(seed, r * REPLICATE_STRIDE), noise_scale)
        for r in range(seeds)
    ]
    return BreakdownReport(max_steps=max_steps, seeds=seeds, hit_records=hits)

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
    """Validate the configuration (diffusive stability) and build the field."""
    if dt <= 0:
        raise ValueError("dt must be positive")
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


def step(
    field: DensityField,
    alpha: float,
    stream: RngStream,
    noise_scale: float = 1.0,
) -> DensityField:
    """One explicit conservative update.

    Interface j+1/2 carries the diffusive flux (alpha/2)(mu_{j+1}-mu_j)/dx
    and the noise flux sqrt(max(mean(mu_j, mu_{j+1}), 0)) * xi * sqrt(dt/dx);
    only the argument of the square root is truncated at zero, never the
    density itself.  noise_scale multiplies the noise flux (0 gives the
    deterministic heat limit).
    """
    mu = field.cell_values
    n = field.grid_size
    dx = 1.0 / n
    dt = field.dt
    # the periodic neighbours by slices: bit for bit np.roll, at a fifth of its cost
    mu_right = np.concatenate((mu[..., 1:], mu[..., :1]), axis=-1)
    diff_flux = (0.5 * alpha / dx) * (mu_right - mu)
    if noise_scale != 0.0:
        xi = stream.generator.standard_normal(mu.size).reshape(mu.shape)
        interface = 0.5 * (mu + mu_right)
        noise_flux = (
            noise_scale * np.sqrt(np.maximum(interface, 0.0)) * xi * np.sqrt(dt / dx)
        )
    else:
        noise_flux = np.zeros_like(mu)
    total = dt * diff_flux + noise_flux
    new = mu + (total - np.concatenate((total[..., -1:], total[..., :-1]), axis=-1)) / dx
    return DensityField(cell_values=new, dt=dt, step_count=field.step_count + 1)


def evolve(
    field: DensityField,
    alpha: float,
    num_steps: int,
    stream: RngStream,
    noise_scale: float = 1.0,
) -> DensityField:
    for _ in range(num_steps):
        field = step(field, alpha, stream, noise_scale)
    return field


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
    current = field
    for k in range(max_steps + 1):
        neg = np.nonzero(current.cell_values < 0.0)[0]
        if neg.size:
            return k, int(neg[0])
        if k == max_steps:
            return None
        current = step(current, alpha, stream, noise_scale)
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

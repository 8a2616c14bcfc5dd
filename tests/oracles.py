"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force and shares no code path with
the implementation under test: explicit finite differences for the PDEs,
direct convolution for the Poisson binomial, quadrature against the
periodized Gaussian kernel, the defining spectral identity for the
squared-gradient form, the chi-square tail summed in 60-digit decimal
arithmetic, and the block-convention draws read off whole live streams.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.special import binom, erf

from dklab import FourierFunction, RngStream, generator_L, product


def fd_heat_solve(f, diffusivity: float, t: float, cells: int = 4096, safety: float = 0.9):
    """Explicit-Euler heat equation on a periodic grid; returns grid values."""
    x = np.arange(cells) / cells
    u = f(x)
    dx = 1.0 / cells
    d = 0.5 * diffusivity
    dt = safety * dx**2 / (2.0 * d)
    steps = int(np.ceil(t / dt))
    dt = t / steps
    c = d * dt / dx**2
    for _ in range(steps):
        u = u + c * (np.roll(u, -1) - 2.0 * u + np.roll(u, 1))
    return x, u


def fd_vhj_solve(f, alpha: float, t: float, cells: int = 4096, safety: float = 0.45):
    """Explicit time stepping of dv/dt = (alpha/2) v'' - (1/2)(v')^2."""
    x = np.arange(cells) / cells
    v = f(x)
    dx = 1.0 / cells
    d = 0.5 * alpha
    dt = safety * dx**2 / d
    steps = int(np.ceil(t / dt))
    dt = t / steps
    for _ in range(steps):
        lap = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / dx**2
        grad = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
        v = v + dt * (d * lap - 0.5 * grad**2)
    return x, v


def wrapped_gaussian_pdf(z, variance: float, terms: int = 12):
    """Transition density of Brownian motion on the unit torus."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for m in range(-terms, terms + 1):
        out += np.exp(-((z + m) ** 2) / (2.0 * variance))
    return out / np.sqrt(2.0 * np.pi * variance)


def wrapped_gaussian_cdf(z, mean: float, variance: float, terms: int = 12):
    """CDF on [0, 1) of a wrapped normal, for KS-style comparisons."""
    z = np.asarray(z, dtype=float)
    sig = np.sqrt(variance)
    out = np.zeros_like(z)
    for m in range(-terms, terms + 1):
        out += 0.5 * (
            erf((z - mean + m) / (sig * np.sqrt(2)))
            - erf((0.0 - mean + m) / (sig * np.sqrt(2)))
        )
    return out


def kernel_quadrature(integrand, x0: float, variance: float, points: int = 1 << 14):
    """integral of p(x0 - y) * integrand(y) dy with the wrapped kernel.

    The rectangle rule on a periodic smooth integrand converges spectrally,
    so 2^14 points leaves error far below Monte Carlo resolution.
    """
    y = np.arange(points) / points
    return float(np.mean(wrapped_gaussian_pdf(x0 - y, variance) * integrand(y)))


def poisson_binomial(h_values) -> np.ndarray:
    """PMF of a sum of independent Bernoulli(h_i), by direct convolution."""
    pmf = np.array([1.0])
    for p in np.atleast_1d(h_values):
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def generalized_binomial_pmf(alpha: float, h: float, orders: int) -> np.ndarray:
    """Coefficients of (1 - h + h s)^alpha: C(alpha, k) h^k (1-h)^(alpha-k)."""
    k = np.arange(orders + 1)
    return binom(alpha, k) * h**k * (1.0 - h) ** (alpha - k)


def gamma_by_defining_identity(f: FourierFunction, g: FourierFunction) -> FourierFunction:
    """(1/2)(L(fg) - f Lg - g Lf), all terms exact trig polynomials."""
    lfg = generator_L(product(f, g))
    flg = product(f, generator_L(g))
    glf = product(g, generator_L(f))
    half = 0.5
    return (lfg - flg - glf) * half


def _decimal_pi() -> Decimal:
    """pi at the current decimal precision, by Machin's formula."""

    def arctan_inverse(k: int) -> Decimal:  # arctan(1/k) = sum (-1)^n / ((2n + 1) k^(2n+1))
        power = Decimal(1) / k
        total, n = power, 0
        while True:
            power /= -k * k
            n += 1
            step = power / (2 * n + 1)
            if total + step == total:
                return total
            total += step

    return 16 * arctan_inverse(5) - 4 * arctan_inverse(239)


def chi2_sf_exact(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer df >= 1, in decimal arithmetic.

    With y = x / 2 and m = df // 2 the tail is e^-y sum_(j<m) y^j / j! for
    even df, and erfc(sqrt y) + e^-y sum_(j<m) y^(j+1/2) / Gamma(j + 3/2)
    for odd df.  erfc is 1 - erf, with erf from its positive series
    erf(z) = 2/sqrt(pi) e^-z^2 sum_n (2 z^2)^n z / (1 * 3 * ... * (2n + 1)).
    1 - erf cancels about y / ln 10 leading digits, so the working
    precision is 70 digits (60 and 10 guard digits) raised by that much.
    """
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 70 + int(x / (2.0 * math.log(10.0)))
        y = Decimal(x) / 2
        m, odd = divmod(df, 2)
        decay = (-y).exp()
        total = Decimal(0)
        if odd:
            sqrt_pi = _decimal_pi().sqrt()
            z = y.sqrt()
            series, term, n = Decimal(0), z, 0
            while series + term != series:
                series += term
                n += 1
                term = term * 2 * y / (2 * n + 1)
            total = 1 - 2 / sqrt_pi * decay * series
            power = z * 2 / sqrt_pi  # y^(1/2) / Gamma(3/2)
            shift = Decimal(3) / 2
        else:
            power = Decimal(1)  # y^0 / Gamma(1)
            shift = Decimal(1)
        for j in range(m):
            total += decay * power
            power = power * y / (j + shift)
        return float(total)


def block_increments(
    seed: int, n: int, replicates: int, first_replicate: int = 0, num_steps: int = 1
) -> np.ndarray:
    """The block-convention normals of replicates first_replicate onward, straight from numpy.

    Row j, of n * num_steps normals, is replicate r = first_replicate + j:
    normals (r mod 1024) n num_steps onward of the live stream (seed,
    (r // 1024) 2**32 + 2**32 - 1 mod 2**64), each block's 1024 n num_steps
    normals drawn in one call from the stream's start.  At num_steps = 1
    this is standard_increments(n, replicates, seed, first_replicate).
    """
    width = n * num_steps
    blocks = {}
    out = np.empty((replicates, width))
    for j in range(replicates):
        b, k = divmod(first_replicate + j, 1024)
        if b not in blocks:
            key = (b * 2**32 + 2**32 - 1) & ((1 << 64) - 1)
            blocks[b] = RngStream(seed, key).generator.standard_normal(1024 * width)
        out[j] = blocks[b][k * width : (k + 1) * width]
    return out

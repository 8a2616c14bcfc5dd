"""Reference values the benchmark checks dklab's outputs against.

Each function computes its answer by a route that shares no code with
dklab: numpy and the standard library only, closed forms where the
mathematics gives one, brute-force sums where it does not.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def fourier_values(x, mean: float, cos: dict, sin: dict):
    """mean + sum_k cos[k] cos(2 pi k x) + sin[k] sin(2 pi k x)."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, float(mean))
    for k, a in cos.items():
        out += a * np.cos(TWO_PI * k * x)
    for k, b in sin.items():
        out += b * np.sin(TWO_PI * k * x)
    return out


def wrapped_gaussian_pdf(z, variance: float, images: int = 12):
    """Density on the unit torus of a centred normal with this variance."""
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape)
    for m in range(-images, images + 1):
        out += np.exp(-((z + m) ** 2) / (2.0 * variance))
    return out / math.sqrt(TWO_PI * variance)


def duality_rhs(atoms, mean: float, cos: dict, sin: dict, n: int, t: float,
                points: int = 1 << 14) -> float:
    """E exp(-<mu_t, f>) for n independent particles at internal time n t.

    The particles are independent, so the expectation factorises into one
    wrapped-Gaussian integral of exp(-f/n) per atom, each with variance
    n t.  The rectangle rule on a smooth periodic integrand converges
    spectrally, so 2^14 points are exact to round-off.
    """
    y = np.arange(points) / points
    weight = np.exp(-fourier_values(y, mean, cos, sin) / n)
    out = 1.0
    for x0 in atoms:
        out *= float(np.mean(wrapped_gaussian_pdf(x0 - y, n * t) * weight))
    return out


def _complex_coeffs(mean: float, cos: dict, sin: dict) -> np.ndarray:
    """c_k, k = -K..K, with f(x) = sum_k c_k exp(2 pi i k x)."""
    kmax = max([0, *cos, *sin])
    c = np.zeros(2 * kmax + 1, dtype=complex)
    c[kmax] = mean
    for k, a in cos.items():
        c[kmax + k] += a / 2
        c[kmax - k] += a / 2
    for k, b in sin.items():
        c[kmax + k] += b / 2j
        c[kmax - k] -= b / 2j
    return c


def expected_qv_final(atoms, mean: float, cos: dict, sin: dict, n: int,
                      t_final: float, num_steps: int) -> float:
    """E of the trapezoid sum of <mu_s, (phi')^2> on the uniform path grid.

    (phi')^2 is squared by convolving complex Fourier coefficients; each
    mode k of it decays as exp(-(2 pi k)^2 n s / 2) under the particles'
    heat flow.  Expectation commutes with the trapezoid sum, so the result
    is the exact mean of the statistic dklab returns as qv_final.
    """
    c = _complex_coeffs(mean, cos, sin)
    kmax = (c.size - 1) // 2
    k = np.arange(-kmax, kmax + 1)
    dc = TWO_PI * 1j * k * c
    sq = np.convolve(dc, dc)
    k2 = np.arange(-2 * kmax, 2 * kmax + 1)
    times = np.linspace(0.0, t_final, num_steps + 1)
    x = np.asarray(atoms, dtype=float)
    phase = np.exp(TWO_PI * 1j * np.outer(x, k2)).mean(axis=0)
    damp = np.exp(-0.5 * (TWO_PI * k2[None, :]) ** 2 * n * times[:, None])
    values = (damp * (sq * phase)[None, :]).sum(axis=1).real
    dt = np.diff(times)
    return float(np.sum(0.5 * dt * (values[1:] + values[:-1])))


def occupation_at(x0: float, intervals, variance: float, images: int = 12) -> float:
    """P(x0 + N(0, variance) mod 1 lies in the union of the intervals)."""
    sd = math.sqrt(2.0 * variance)
    total = 0.0
    for a, b in intervals:
        for m in range(-images, images + 1):
            total += 0.5 * (math.erf((b + m - x0) / sd) - math.erf((a + m - x0) / sd))
    return total


def generalized_binomial(alpha: float, h: float, orders: int) -> np.ndarray:
    """Coefficients C(alpha, k) h^k (1 - h)^(alpha - k) of (1 - h + h s)^alpha."""
    out = np.empty(orders + 1)
    coef = 1.0
    for k in range(orders + 1):
        out[k] = coef * h**k * (1.0 - h) ** (alpha - k)
        coef *= (alpha - k) / (k + 1)
    return out


def poisson_binomial(h_values) -> np.ndarray:
    """Law of a sum of independent Bernoulli(h_i), by direct convolution."""
    pmf = np.array([1.0])
    for p in h_values:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def bessel_i(k: int, z: float, terms: int = 60) -> float:
    """Modified Bessel function I_k(z) from its power series."""
    return math.fsum(
        (z / 2.0) ** (2 * m + k) / (math.factorial(m) * math.factorial(m + k))
        for m in range(terms)
    )


def cole_hopf_cosine(m: float, c: float, alpha: float, t: float, grid: int,
                     modes: int = 40) -> np.ndarray:
    """V_t f on the grid j/grid for f = m + c cos(2 pi x).

    exp(-f/alpha) = exp(-m/alpha) [I_0(z) + 2 sum_k (-1)^k I_k(z) cos(2 pi k x)]
    with z = c/alpha; the heat flow of generator (alpha/2) Laplacian damps
    mode k by exp(-(alpha/2)(2 pi k)^2 t), and V = -alpha log of the result.
    """
    z = c / alpha
    x = np.arange(grid) / grid
    w = np.full(grid, bessel_i(0, z))
    for k in range(1, modes + 1):
        damp = math.exp(-0.5 * alpha * (TWO_PI * k) ** 2 * t)
        w += 2.0 * (-1) ** k * bessel_i(k, z) * damp * np.cos(TWO_PI * k * x)
    return m - alpha * np.log(w)


def heat_decay(grid: int, base: float, amp: float, mode: int, alpha: float,
               dt: float, steps: int) -> np.ndarray:
    """Explicit-Euler heat flow of base + amp cos(2 pi mode x) on a periodic grid.

    The update mu += dt (alpha/2) (mu_{j+1} - 2 mu_j + mu_{j-1}) / dx^2 maps
    the cosine mode to itself times 1 - alpha dt/dx^2 (1 - cos(2 pi mode dx)).
    """
    dx = 1.0 / grid
    factor = 1.0 - alpha * dt / dx**2 * (1.0 - math.cos(TWO_PI * mode * dx))
    x = np.arange(grid) * dx
    return base + amp * factor**steps * np.cos(TWO_PI * mode * x)


def z_within(z_scores, sigma: float = 3.0, gross: float = 6.0) -> tuple[int, bool]:
    """(misses beyond sigma, whether the set passes the sweep-level rule).

    A correct program misses sigma = 3 on 0.27% of independent z-scores,
    so a run is judged as criterion 1 judges a sweep: at most one miss in
    every 27 (and at least one miss allowed), and none beyond `gross`.
    """
    z = np.abs(np.asarray(z_scores, dtype=float))
    misses = int(np.sum(~(z <= sigma)))
    allowed = max(1, z.size // 27)
    return misses, misses <= allowed and bool(np.all(z <= gross))

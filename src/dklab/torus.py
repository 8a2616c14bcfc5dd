"""Periodic state space and exact spectral calculus.

Everything downstream (particle simulation, the viscous Hamilton-Jacobi
solver, the occupation-function machinery) lives on the unit torus [0, 1).
Test functions and initial data are finite Fourier sums, so the Laplacian,
the squared-gradient form, and the heat semigroup are all exact: the only
error budgets left in the laboratory are Monte Carlo noise and explicitly
reported projection error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# FourierFunction.evaluate takes its points in blocks whose terms and
# angles fill at most this many bytes
_EVAL_BYTES = 1 << 20


@dataclass(frozen=True)
class TorusDomain:
    """Uniform grid on the unit torus.

    grid_size must be a power of two and at least 8 so that forward and
    inverse real FFTs are exact, fast transforms of trigonometric
    polynomials up to mode grid_size/2 - 1.
    """

    grid_size: int = 256

    def __post_init__(self):
        n = self.grid_size
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(
                f"grid_size must be a power of two >= 8, got {n}"
            )

    @property
    def dx(self) -> float:
        return 1.0 / self.grid_size

    def grid(self) -> np.ndarray:
        """Grid points j/N, j = 0..N-1."""
        return np.arange(self.grid_size) / self.grid_size

    @property
    def max_mode(self) -> int:
        """Highest Fourier mode representable without aliasing (Nyquist excluded)."""
        return self.grid_size // 2 - 1


def wrap(x: np.ndarray | float) -> np.ndarray | float:
    """Reduce coordinates modulo 1 into [0, 1).

    Bit for bit np.mod(x, 1.0), at a fraction of its cost.  np.mod takes
    the exact remainder fmod(x, 1) and, for x < 0 with a nonzero
    remainder, adds 1 and rounds once; x - floor(x) is that same real
    number, rounded once (and exact for x >= 0).  A zero remainder gives
    +0.0 either way, and inf or nan gives nan.  As with np.mod, a tiny
    negative x rounds up to 1.0.
    """
    return x - np.floor(x)


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


def _cos_sin_turns(r: np.ndarray, cos: np.ndarray | None = None, work: np.ndarray | None = None):
    """(cos 2 pi r, sin 2 pi r) for turns r in [-1/2, 1/2], into cos and r.

    cos, of r's shape, and work, of shape (3, *r.shape), are allocated
    when not given; work is overwritten.  A caller that passes both
    allocates nothing.

    r is split, exactly, into its nearest quarter turn q and a rest in
    [-1/8, 1/8] turns, so libm's cos and sin see only [-pi/4, pi/4], where
    they run about three times faster than on [-pi, pi].  The quarter turn
    is then an exact rotation, by cos(q pi/2) = 1 - |q| and sin(q pi/2) =
    q (2 - |q|) for q in {-2, ..., 2}.
    """
    if cos is None:
        cos = np.empty_like(r)
    if work is None:
        work = np.empty((3, *r.shape))
    q, cos_q, scratch = work
    r *= 4.0
    np.rint(r, out=q)
    r -= q
    r *= TWO_PI / 4
    cos_r = np.cos(r, out=cos)
    sin_r = np.sin(r, out=r)
    np.abs(q, out=cos_q)
    np.subtract(2.0, cos_q, out=scratch)
    sin_q = np.multiply(q, scratch, out=q)
    np.subtract(1.0, cos_q, out=cos_q)
    np.multiply(sin_r, sin_q, out=scratch)
    sin_r *= cos_q
    sin_q *= cos_r
    sin_r += sin_q
    cos_r *= cos_q
    cos_r -= scratch
    return cos_r, sin_r


@dataclass(frozen=True)
class FourierFunction:
    """Real trigonometric polynomial f(x) = mean + sum_k (a_k cos 2pi k x + b_k sin 2pi k x).

    cos_coeffs[k-1] and sin_coeffs[k-1] hold the mode-k coefficients.
    Evaluation, differentiation and the heat flow act on the coefficients
    exactly; no grid is involved until a caller samples the function.
    """

    mean: float
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        # copies, so that the function never shares a caller's array
        a = np.array(self.cos_coeffs, dtype=float, ndmin=1)
        b = np.array(self.sin_coeffs, dtype=float, ndmin=1)
        if a.size != b.size:  # np.pad costs more than the rest of a construction
            m = max(a.size, b.size)
            a = np.pad(a, (0, m - a.size))
            b = np.pad(b, (0, m - b.size))
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)
        object.__setattr__(self, "mean", float(self.mean))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "FourierFunction":
        return cls(mean=c)

    @classmethod
    def from_modes(
        cls,
        mean: float = 0.0,
        cos: dict[int, float] | None = None,
        sin: dict[int, float] | None = None,
    ) -> "FourierFunction":
        """Build from sparse {mode: coefficient} dictionaries (modes >= 1)."""
        cos = cos or {}
        sin = sin or {}
        kmax = max([0, *cos.keys(), *sin.keys()])
        a = np.zeros(kmax)
        b = np.zeros(kmax)
        for k, v in cos.items():
            if k < 1:
                raise ValueError("cosine modes must be >= 1")
            a[k - 1] = v
        for k, v in sin.items():
            if k < 1:
                raise ValueError("sine modes must be >= 1")
            b[k - 1] = v
        return cls(mean=mean, cos_coeffs=a, sin_coeffs=b)

    @classmethod
    def from_grid(cls, values: np.ndarray, max_mode: int | None = None) -> "FourierFunction":
        """Project uniform-grid samples onto Fourier modes 1..max_mode.

        For a trigonometric polynomial of degree < len(values)/2 the
        projection is exact; for general smooth data it is the alias-folded
        truncation.  The Nyquist mode is always dropped, so the default
        max_mode is len(values)//2 - 1.
        """
        v = np.asarray(values, dtype=float)
        n = v.size
        if max_mode is None:
            max_mode = n // 2 - 1
        if max_mode > n // 2 - 1:
            raise ValueError("max_mode exceeds what the grid resolves")
        spec = np.fft.rfft(v)
        a = 2.0 * spec[1 : max_mode + 1].real / n
        b = -2.0 * spec[1 : max_mode + 1].imag / n
        return cls(mean=spec[0].real / n, cos_coeffs=a, sin_coeffs=b)

    # -- basic queries ---------------------------------------------------------

    @property
    def max_mode(self) -> int:
        return self.cos_coeffs.size

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        """Evaluate at arbitrary points (periodic, so no wrapping needed).

        The sum is mean + a_1 cos + b_1 sin + a_2 cos + ... in that order,
        one term per nonzero coefficient, each cos or sin taken at
        (2 pi k) * x.  All the terms of a block of points are computed at
        once and added up one after another along the term axis
        (_sum_rows), so the result is that of the term-by-term loop bit for
        bit.  A block holds at least two points and, past that, at most
        _EVAL_BYTES of terms and angles.
        """
        x = np.asarray(x, dtype=float)
        a, b = self.cos_coeffs, self.sin_coeffs
        live = np.flatnonzero((a != 0.0) | (b != 0.0))
        has_a, has_b = a[live] != 0.0, b[live] != 0.0
        # row 0 holds the mean; a mode's cosine term precedes its sine term
        count = has_a.astype(int) + has_b
        first = np.cumsum(count) - count + 1
        cos_row, sin_row = first[has_a], (first + has_a)[has_b]
        cos_coeff, sin_coeff = a[live][has_a, None], b[live][has_b, None]
        freq = (TWO_PI * (live + 1))[:, None]
        rows = 1 + int(count.sum())
        flat = x.reshape(-1)
        out = np.empty(flat.size)
        width = max(2, _EVAL_BYTES // (8 * (rows + live.size)))
        for lo in range(0, flat.size, width):
            pts = flat[lo : lo + width]
            ang = freq * pts
            terms = np.empty((rows, pts.size))
            terms[0] = self.mean
            terms[cos_row] = np.cos(ang[has_a]) * cos_coeff
            terms[sin_row] = np.sin(ang[has_b]) * sin_coeff
            out[lo : lo + width] = _sum_rows(terms)
        return out.reshape(x.shape) if x.shape else float(out[0])

    def pair_moments(self, moments):
        """<mu, f> from the Fourier moments of mu (see fourier_moments).

        moments[..., k] is m_k for k = 0..K with K >= max_mode, and the
        pairing is mean * m_0 + sum_k a_k Re m_k + b_k Im m_k.  It is linear
        in the moments, so pairing time-integrated moments gives the time
        integral of the pairing.
        """
        m = np.asarray(moments)
        k = self.max_mode
        if m.shape[-1] <= k:
            raise ValueError(f"need moments up to mode {k}, got {m.shape[-1] - 1}")
        head = m[..., 1 : k + 1]
        return (
            self.mean * m[..., 0].real
            + np.einsum("...k,k->...", head.real, self.cos_coeffs)
            + np.einsum("...k,k->...", head.imag, self.sin_coeffs)
        )

    def _half_spectrum(self, n: int) -> np.ndarray:
        """rfft of the n uniform samples of f, for max_mode < n/2."""
        spec = np.zeros(n // 2 + 1, dtype=complex)
        spec[0] = n * self.mean
        k = self.max_mode
        spec[1 : k + 1] = 0.5 * n * (self.cos_coeffs - 1j * self.sin_coeffs)
        return spec

    def sample(self, dom: TorusDomain) -> np.ndarray:
        """Exact samples on the domain grid via inverse FFT.

        Requires max_mode < grid_size/2; for the range on a finer grid use
        extrema.
        """
        n = dom.grid_size
        if self.max_mode >= n // 2:
            raise ValueError("grid too coarse to hold this function exactly")
        return np.fft.irfft(self._half_spectrum(n), n=n)

    def extrema(self, n_points: int = 4096) -> tuple[float, float]:
        """(min, max) over n uniform points, sampled by one inverse FFT.

        n = max(n_points, 8 * (max_mode + 1)): n_points is raised if the
        function has modes too high for the default sampling.  Every mode
        is then below n/8, so the inverse FFT gives the function's values
        at the points, to round-off, with no aliasing, for odd n as well.
        """
        n = max(n_points, 8 * (self.max_mode + 1))
        v = np.fft.irfft(self._half_spectrum(n), n=n)
        return float(v.min()), float(v.max())

    # -- calculus (exact on coefficients) --------------------------------------

    def derivative(self) -> "FourierFunction":
        k = np.arange(1, self.max_mode + 1)
        return FourierFunction(
            mean=0.0,
            cos_coeffs=TWO_PI * k * self.sin_coeffs,
            sin_coeffs=-TWO_PI * k * self.cos_coeffs,
        )

    def laplacian(self) -> "FourierFunction":
        k = np.arange(1, self.max_mode + 1)
        mult = -((TWO_PI * k) ** 2)
        return FourierFunction(
            mean=0.0,
            cos_coeffs=mult * self.cos_coeffs,
            sin_coeffs=mult * self.sin_coeffs,
        )

    def __add__(self, other):
        if isinstance(other, FourierFunction):
            m = max(self.max_mode, other.max_mode)
            pad = lambda c, n: np.pad(c, (0, n - c.size))  # noqa: E731
            return FourierFunction(
                self.mean + other.mean,
                pad(self.cos_coeffs, m) + pad(other.cos_coeffs, m),
                pad(self.sin_coeffs, m) + pad(other.sin_coeffs, m),
            )
        return FourierFunction(self.mean + float(other), self.cos_coeffs, self.sin_coeffs)

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, FourierFunction) else -float(other))

    def __mul__(self, scalar: float) -> "FourierFunction":
        s = float(scalar)
        return FourierFunction(self.mean * s, self.cos_coeffs * s, self.sin_coeffs * s)

    __rmul__ = __mul__


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... added one row after another, as a loop would.

    Across rows of two or more columns, np.add.reduce adds row by row
    (numpy sums pairwise only along the contiguous axis); a single column
    is contiguous, so it goes through np.add.accumulate, which is
    sequential by definition and costs about 4 ns an entry, ten times the
    reduction's.
    """
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def fourier_moments(x, max_mode: int) -> np.ndarray:
    """Fourier moments m_k = (1/N) sum_j exp(2 pi i k x_j), k = 0..max_mode.

    The mean runs over the last axis of x, of N points; the result has
    shape x.shape[:-1] + (max_mode + 1,).  m_k is the k-th moment of the
    empirical measure of the points, and m_0 = 1 exactly;
    FourierFunction.pair_moments turns the moments into <mu, f>, for every
    f up to mode max_mode, at the cost of a dot product.

    Mode 1 is exp(2 pi i r) for the rest r = x - rint(x) in [-1/2, 1/2],
    which is exact for |x| < 2**52, so x need not be wrapped and the phase
    error does not grow with |x|: rounding 2 pi x would drop the bits of
    x below the last bit of 2 pi x.  It is taken as the fourth power of
    exp(i theta), theta = r pi/2 in [-pi/4, pi/4], where libm's cos and
    sin take their fast path, and complex multiplies give the higher
    modes.  Each mode is one pairwise np.add.reduce along the contiguous
    last axis, times 1/N: its error grows like log N where a sequential
    sum's grows like N, and a row's sum does not depend on how many rows
    come with it.  A point's moments are bit for bit the same in any array
    of two or more points.  A one-point array rounds otherwise: numpy
    multiplies a single element in place (e1 *= e1, ek *= e1) through its
    scalar loop, not its array loop.  The sums use no matmul: BLAS rounds a
    row differently depending on how many rows it is handed, which would
    tie the result to how a caller batches its points.
    """
    x = np.asarray(x, dtype=float)
    return _fourier_moments_into(
        x, max_mode, np.empty(x.size, dtype=complex), np.empty(x.size, dtype=complex)
    )


def _fourier_moments_into(x, max_mode: int, e1_buf, ek_buf) -> np.ndarray:
    """fourier_moments(x, max_mode) of a float64 array x, with its complex
    arrays in the buffers.

    e1_buf and ek_buf are contiguous 1-D complex buffers of at least x.size
    entries; the first x.size entries of each are overwritten, by
    exp(2 pi i x) and by its higher powers; on the way, the first x.size
    floats of ek_buf hold the quarter angle theta.  A caller that takes
    moments piece after piece passes the same two buffers every time, so
    no call allocates (and page-faults) an array of x's size.
    """
    out = np.empty(x.shape[:-1] + (max_mode + 1,), dtype=complex)
    out[..., 0] = 1.0
    if max_mode < 1:
        return out
    e1 = e1_buf[: x.size].reshape(x.shape)
    ek = ek_buf[: x.size].reshape(x.shape)
    theta = ek_buf[: x.size].view(float)[: x.size].reshape(x.shape)
    np.rint(x, out=theta)
    np.subtract(x, theta, out=theta)
    theta *= np.pi / 2
    np.cos(theta, out=e1.real)
    np.sin(theta, out=e1.imag)
    e1 *= e1
    e1 *= e1
    np.add.reduce(e1, axis=-1, out=out[..., 1])
    for k in range(2, max_mode + 1):
        if k == 2:
            np.multiply(e1, e1, out=ek)
        else:
            ek *= e1
        np.add.reduce(ek, axis=-1, out=out[..., k])
    # the real and imaginary parts of modes 1..max_mode: each sum times 1/N
    out.view(float)[..., 2:] *= 1.0 / x.shape[-1]
    return out


def product(f: FourierFunction, g: FourierFunction) -> FourierFunction:
    """Exact pointwise product, a trigonometric polynomial of degree
    max_mode(f) + max_mode(g).

    Computed by sampling on a grid fine enough to avoid aliasing and
    projecting back, which is exact (up to round-off) for trig polynomials.
    """
    deg = f.max_mode + g.max_mode
    n = 8
    while n < 2 * deg + 2:
        n *= 2
    x = np.arange(n) / n
    fx = f.evaluate(x)
    vals = fx * (fx if g is f else g.evaluate(x))
    return FourierFunction.from_grid(vals, max_mode=deg if deg > 0 else None)


def generator_L(f: FourierFunction) -> FourierFunction:
    """The generator, the one-dimensional Laplacian: mode-k multiplier -(2 pi k)^2."""
    return f.laplacian()


def heat_semigroup(f: FourierFunction, diffusivity: float, t: float) -> FourierFunction:
    """Apply the heat flow with generator (diffusivity/2) * Laplacian for time t.

    Acts diagonally on modes: coefficient k picks up
    exp(-(diffusivity/2) (2 pi k)^2 t); the mean is untouched, so mass is
    conserved exactly.  The flow is grid-free: it touches only the
    coefficients, so no domain is needed.

    Parameters
    ----------
    f : FourierFunction
        Input function.
    diffusivity : float
        Positive diffusion coefficient in front of Laplacian/2.
    t : float
        Nonnegative time.
    """
    if t < 0:
        raise ValueError(f"heat flow needs t >= 0, got {t}")
    if diffusivity <= 0:
        raise ValueError(f"diffusivity must be positive, got {diffusivity}")
    if f.max_mode == 0:
        return f
    k = np.arange(1, f.max_mode + 1)
    with np.errstate(over="ignore"):  # a huge diffusivity gives exp(-inf) = 0, rightly
        damp = np.exp(-0.5 * diffusivity * (TWO_PI * k) ** 2 * t)
    return FourierFunction(f.mean, f.cos_coeffs * damp, f.sin_coeffs * damp)


def carre_du_champ(f: FourierFunction, g: FourierFunction | None = None) -> FourierFunction:
    """Squared-gradient form Gamma(f, g) = f' g' (g defaults to f).

    The result is returned as an exact FourierFunction (the product of two
    trig polynomials is one), so it can be evaluated pointwise or pushed
    through the heat flow without further approximation.
    """
    df = f.derivative()
    return product(df, df if g is None else g.derivative())


def random_fourier_suite(seed: int, count: int, max_mode: int = 3) -> list[FourierFunction]:
    """Deterministic suite of random low-mode test functions.

    The mean is uniform on [-1, 1] and the mode-k coefficients uniform on
    [-0.5/k, 0.5/k], so the functions stay tame.
    """
    rng = np.random.Generator(np.random.Philox(key=(seed, 0xF0F0)))
    out = []
    for _ in range(count):
        k = np.arange(1, max_mode + 1)
        a = 0.5 * rng.uniform(-1, 1, max_mode) / k
        b = 0.5 * rng.uniform(-1, 1, max_mode) / k
        out.append(FourierFunction(rng.uniform(-1, 1), a, b))
    return out

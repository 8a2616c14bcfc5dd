"""Generating-function analysis of the occupation variable.

For a set A and time t, the duality identity pins down the generating
function of X = alpha * mu_t(A):

    g(s) = exp(alpha * <mu_0, log(1 + (s - 1) h)>),    h = P_t 1_A,

well defined for s > -delta once h <= 1 - delta.  If a process exists, g
must be the generating function of a genuine nonnegative-integer random
variable: every extracted coefficient p_k is a probability, they sum to 1
over k <= floor(alpha), and the small-s expansion is a true Taylor
expansion at every order.  Integer alpha with matching atoms satisfies all
of this (the coefficients are exactly a Poisson-binomial law); any other
configuration breaks one of the consequences, and this module extracts
which one, with evidence.

Two extraction routes are implemented.  The series route composes formal
power series (exact log then exp recurrences) and is available for atomic
initial data.  The limit route uses only a black-box evaluator of g on a
geometric grid s_j = s0 * 2^-j, forming divided differences over node
windows (the numerically stable rendering of "subtract the partial sum,
rescale by s^n, take s to 0"), Richardson-accelerating them across levels,
and applying three falsifiable criteria:

* stabilization: two consecutive accelerated estimates agree to 1e-7
  relative;
* divergence: the raw estimates keep growing at the fine end of the grid,
  by a factor >= 2 over three consecutive levels (the remainder is not
  o(s^n));
* round-off floor: the divided difference sinks below its compensated
  error bound; the order is then certified as zero only if that bound is
  tight enough, otherwise extraction aborts with a precision report
  rather than returning a wrong coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .particles import EmpiricalMeasure, require_integer_alpha, terminal_ensemble
from .rng import REPLICATES_PER_BLOCK
from .torus import (FourierFunction, TorusDomain, _cos_sin_turns, _sum_rows, _turns,
                    heat_semigroup, wrap)

_FLOOR_EPS = 8 * np.finfo(float).eps  # per-term bound: g itself is good to ~2 eps
_DIVERGENCE_SIGNAL = 64.0  # raw estimates must clear the floor by this factor
_LEVELS = 52  # levels of the limit route's geometric grid
_NEVILLE_DEPTH = 6  # Richardson depth across levels
_RTOL = 1e-7  # stabilization tolerance on consecutive accelerated estimates
_ZERO_TOL = 1e-6  # largest round-off bound that certifies a floor-limited p_k as zero
# draws (8 bytes a normal) in one piece of monte_carlo_pgf, rounded down to
# whole blocks of REPLICATES_PER_BLOCK replicates, at least one
_PIECE_BYTES = 1 << 17
_SERIES_TAIL = 2.0**-60  # occupation cuts the series of 1_A where its tail bound is below this
_MAX_MODES = 1 << 16  # and refuses a series that needs more modes than this


# ---------------------------------------------------------------------------
# occupation function h = P_t 1_A
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccupationFunction:
    """Heat-smoothed occupation probability of a finite union of intervals.

    h is P_t 1_A for the heat flow with diffusivity alpha, from the exact
    Fourier series of the indicator (see occupation).
    """

    intervals: tuple[tuple[float, float], ...]
    t: float
    alpha: float
    h: FourierFunction
    measure: float

    def evaluate(self, x):
        """h at points x, from the exact turns k x of every mode k, a point's
        terms added one after another from the highest mode down and the
        mean last, so that small terms meet a small running sum (in mode
        order the error grew to 1.6e-15 at alpha t = 1e-4)."""
        x = np.asarray(x, dtype=float)
        h, flat = self.h, x.reshape(-1)
        c, s = _cos_sin_turns(_turns(np.arange(h.max_mode, 0, -1)[:, None], flat))
        terms = h.cos_coeffs[::-1, None] * c + h.sin_coeffs[::-1, None] * s
        out = _sum_rows(np.vstack([terms, np.full((1, flat.size), h.mean)]))
        return out.reshape(x.shape) if x.shape else float(out[0])

    def contains(self, x) -> np.ndarray:
        """Exact membership of points in A."""
        x = wrap(np.asarray(x, dtype=float))
        inside = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            inside |= (x >= a) & (x < b)
        return inside


def _series_modes(intervals: int, variance: float) -> int:
    """Smallest K <= _MAX_MODES whose tail bound sum_(k>K) (2m/(pi k))
    exp(-2 pi^2 k^2 variance) is below _SERIES_TAIL, for m intervals.

    The bound is its first term over 1 - exp(-4 pi^2 (K + 1) variance), by
    a geometric series that dominates it; it falls with K, so K is bisected.
    """
    c = 2.0 * math.pi**2 * variance

    def tail(k):
        n = k + 1
        return 2.0 * intervals / (math.pi * n) * math.exp(-c * n * n) / -math.expm1(-2.0 * c * n)

    if not tail(_MAX_MODES) < _SERIES_TAIL:
        raise ValueError(f"alpha t = {variance:.3e} is too small: the Fourier series of 1_A "
                         f"needs more than {_MAX_MODES} modes (alpha t below about 5e-10)")
    lo, hi = -1, _MAX_MODES  # tail(hi) is below the bound, tail(lo) not (or lo = -1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail(mid) < _SERIES_TAIL else (mid, hi)
    return hi


def occupation(
    dom: TorusDomain | None,
    intervals: list[tuple[float, float]],
    t: float,
    alpha: float,
) -> OccupationFunction:
    """Build h = P_t 1_A for A a finite union of intervals.

    Intervals are (a, b) with 0 <= a < b <= 1, pairwise disjoint; their
    union must be nonempty and proper so that 0 < h < 1 for t > 0.  t must
    be positive and finite, alpha t not so small that the series needs
    more than _MAX_MODES modes (_series_modes).  dom is ignored (h needs no grid).

    [a, b) has mean b - a, mode-k cos coefficient (sin 2 pi k b - sin 2 pi
    k a)/(pi k) and sin coefficient (cos 2 pi k a - cos 2 pi k b)/(pi k),
    the angles taken from exact turns; heat_semigroup damps them.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"occupation time t must be positive and finite, got {t}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    if not ivs:
        raise ValueError("need at least one interval")
    for a, b in ivs:
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"bad interval ({a}, {b}): need 0 <= a < b <= 1")
    for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
        if a1 < b0:
            raise ValueError("intervals must be disjoint")
    measure = sum(b - a for a, b in ivs)
    if measure >= 1.0:
        raise ValueError("A must be a proper subset of the torus")

    k = np.arange(1, _series_modes(len(ivs), alpha * t) + 1)
    c, s = _cos_sin_turns(_turns(k[:, None, None], np.array(ivs)))  # (mode, interval, end)
    ind = FourierFunction(measure, (s[..., 1] - s[..., 0]).sum(axis=1) / (np.pi * k),
                          (c[..., 0] - c[..., 1]).sum(axis=1) / (np.pi * k))
    h = heat_semigroup(ind, diffusivity=alpha, t=t)
    return OccupationFunction(tuple(ivs), float(t), float(alpha), h, float(measure))


# ---------------------------------------------------------------------------
# the generating function g
# ---------------------------------------------------------------------------


class GeneratingFunction:
    """Evaluator of g(s) = exp(alpha <mu_0, log(1 + (s-1) h)>), s > -delta,
    with delta = 1 - max h over the atoms."""

    def __init__(self, alpha: float, weights: np.ndarray, h_atoms: np.ndarray):
        self.h_atoms = np.asarray(h_atoms, dtype=float)
        if not np.all((self.h_atoms > 0) & (self.h_atoms < 1)):  # NaN fails too
            raise ValueError("h must lie strictly inside (0, 1) at the atoms")
        self.alpha = float(alpha)
        self.weights = np.asarray(weights, dtype=float)
        self.delta = 1.0 - float(np.max(self.h_atoms))

    def __call__(self, s):
        """g at a point or elementwise on an array of points.

        The atoms are summed one after another in their order (a running
        sum along the atom axis), so g(s)[j] is bit for bit g(s[j]) at any
        batch size; a BLAS dot or an einsum reorders that sum once the
        point axis is short.
        """
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= -self.delta):
            raise ValueError(
                f"g is defined on ({-self.delta}, inf); got s = {s}"
            )
        logs = np.log1p(np.multiply.outer(self.h_atoms, s_arr - 1.0))
        terms = self.weights.reshape((-1,) + (1,) * s_arr.ndim) * logs
        expo = self.alpha * np.cumsum(terms, axis=0)[-1]
        out = np.exp(expo)
        return out if out.shape else float(out)


def build_g(alpha: float, mu0: EmpiricalMeasure, occ: OccupationFunction) -> GeneratingFunction:
    """Generating-function evaluator for X = alpha * mu_t(A), mu0 atomic."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return GeneratingFunction(alpha, np.full(mu0.n, 1.0 / mu0.n), occ.evaluate(mu0.positions))


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

NEGATIVITY_TOL = 1e-10
MAX_SERIES_ORDER = 64


@dataclass(frozen=True)
class PgfExpansion:
    """Candidate atom probabilities p_k with extraction provenance."""

    coefficients: np.ndarray
    negativity_flag: int | None = None  # first k with p_k < -tol
    divergence_flag: tuple[int, str] | None = None  # (order, evidence)
    uncertainties: np.ndarray | None = None

    @property
    def flagged(self) -> bool:
        return self.negativity_flag is not None or self.divergence_flag is not None

    def total_mass(self) -> float:
        return float(np.sum(self.coefficients))


def _first_negative(p: np.ndarray, tol: float, unc: np.ndarray | None = None) -> int | None:
    """First k with p_k below -tol (and below -3 uncertainties, if given)."""
    thresh = np.full(p.shape, -tol)
    if unc is not None:
        thresh = np.minimum(thresh, -3.0 * np.asarray(unc))
    bad = np.nonzero(p < thresh)[0]
    return int(bad[0]) if bad.size else None


def series_from_bernoulli(
    alpha: float, weights: np.ndarray, h_values: np.ndarray, order: int
) -> PgfExpansion:
    """Formal-series extraction of p_0..p_order from atomic data.

    g(s) = prod_i (1 - h_i)^(alpha w_i) * exp(sum_i alpha w_i
    log(1 + c_i s)) with c_i = h_i / (1 - h_i); the log series is summed
    exactly per order and exponentiated with the standard recurrence
    b_n = (1/n) sum_{m<=n} m a_m b_{n-m}.
    """
    if order > MAX_SERIES_ORDER:
        raise ValueError(
            f"order {order} exceeds the series conditioning budget ({MAX_SERIES_ORDER})"
        )
    w = np.asarray(weights, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if not np.all((h > 0) & (h < 1)):  # NaN fails too
        raise ValueError("h values must lie strictly inside (0, 1)")
    c = h / (1.0 - h)
    # a_m = alpha * sum_i w_i * (-1)^(m+1) c_i^m / m  for m = 1..order
    a = np.empty(order + 1)
    a[0] = 0.0
    cp = np.ones_like(c)
    for m in range(1, order + 1):
        cp = cp * c
        a[m] = alpha * ((-1.0) ** (m + 1)) * float(np.dot(w, cp)) / m
    b = np.zeros(order + 1)
    b[0] = 1.0
    for n in range(1, order + 1):
        b[n] = float(np.dot(np.arange(1, n + 1) * a[1 : n + 1], b[n - 1 :: -1][: n])) / n
    # math.log1p, not np.log1p: numpy's AVX-512 loop rounds some values
    # otherwise, and these few atoms feed the results digest
    lead = math.exp(alpha * float(np.dot(w, [math.log1p(-v) for v in h.tolist()])))
    p = lead * b
    return PgfExpansion(
        coefficients=p,
        negativity_flag=_first_negative(p, NEGATIVITY_TOL),
        uncertainties=np.zeros(order + 1),
    )


def extract_coefficients_series(
    alpha: float, mu0: EmpiricalMeasure, occ: OccupationFunction, order: int
) -> PgfExpansion:
    """Series extraction with h read off at the atoms of mu0."""
    h_at = occ.evaluate(mu0.positions)
    w = np.full(mu0.n, 1.0 / mu0.n)
    return series_from_bernoulli(alpha, w, h_at, order)


class PrecisionLossError(RuntimeError):
    """Raised when limit extraction cannot certify a coefficient.

    Carries the order, the levels consumed and the round-off bound so the
    failure is a report, not a silently wrong number.
    """

    def __init__(self, order: int, levels_used: int, floor_bound: float, detail: str):
        self.order = order
        self.levels_used = levels_used
        self.floor_bound = floor_bound
        super().__init__(
            f"coefficient p_{order} not certifiable: {detail} "
            f"(levels used {levels_used}, round-off bound {floor_bound:.3e})"
        )


def _divided_difference(gv, s, j, n):
    """n-th divided difference over nodes s[j..j+n], with an error bound.

    Uses the Lagrange-weight form summed by math.fsum, so the quoted bound
    covers only the (relative) evaluation error of g itself.
    """
    if n == 0:
        return gv[j], _FLOOR_EPS * abs(gv[j])
    nodes = s[j : j + n + 1]
    terms = []
    for i in range(n + 1):
        dprod = 1.0
        for l in range(n + 1):
            if l != i:
                dprod *= nodes[i] - nodes[l]
        terms.append(gv[j + i] / dprod)
    dd = math.fsum(terms)
    floor = _FLOOR_EPS * math.fsum(abs(tm) for tm in terms)
    return dd, floor


def extract_coefficients_limit(
    g,
    order: int,
    s0: float = 0.5,
) -> PgfExpansion:
    """Coefficient extraction from a black-box evaluator on a geometric grid.

    Parameters
    ----------
    g : callable
        Generating-function evaluator, defined at least on (0, s0].  It
        takes an array of points and returns g elementwise: it is called
        once, on the whole node array.
    order : int
        Highest coefficient requested.
    s0 : float
        Geometric grid s_j = s0 * 2^-j, j = 0.._LEVELS-1 (plus `order`
        extra nodes for the deepest windows).  _NEVILLE_DEPTH, _RTOL and
        _ZERO_TOL fix the acceleration and the three criteria.

    Raises
    ------
    PrecisionLossError
        When an order neither stabilizes, nor diverges, nor is certifiably
        zero within the precision budget.
    """
    if order > MAX_SERIES_ORDER:
        raise ValueError(
            f"order {order} exceeds the conditioning budget ({MAX_SERIES_ORDER})"
        )
    s = s0 * 0.5 ** np.arange(_LEVELS + order + 1)
    gv = np.asarray(g(s), dtype=float).tolist()

    coeffs: list[float] = []
    uncs: list[float] = []
    divergence = None
    for n in range(order + 1):
        value, unc, div = _extract_order(n, gv, s)
        if div is not None:
            divergence = (n, div)
            break
        coeffs.append(value)
        uncs.append(unc)
    p = np.array(coeffs)
    u = np.array(uncs)
    return PgfExpansion(
        coefficients=p,
        negativity_flag=_first_negative(p, NEGATIVITY_TOL, u),
        divergence_flag=divergence,
        uncertainties=u,
    )


def _extract_order(n, gv, s):
    """One order of the limit scheme; returns (value, uncertainty, divergence).

    Streams levels coarse to fine.  Stabilization is checked on the
    Richardson-accelerated diagonal as levels arrive, against the larger of
    the relative tolerance and the propagated round-off level of the
    divided differences (conditioning eps/s^n is inherent to the problem,
    so demanding better than it would abort perfectly good coefficients;
    the achieved level is recorded as the uncertainty).  The divergence and
    decays-to-zero verdicts look at the tail of the raw sequence once the
    stream ends (grid exhausted or round-off floor reached).
    """
    noise_amp = 4.0  # Richardson columns amplify input noise by about this
    noise_cap = 1e-3  # beyond this, a noise-stalled estimate is not a result
    raw: list[float] = []
    floors: list[float] = []
    accel: list[float] = []
    prev_row: list[float] = []
    floor_stop = None
    for j in range(_LEVELS):
        dd, floor = _divided_difference(gv, s, j, n)
        if abs(dd) <= floor:
            floor_stop = floor
            break
        raw.append(dd)
        floors.append(floor)
        row = [dd]
        for m in range(1, min(len(prev_row) + 1, _NEVILLE_DEPTH + 1)):
            row.append(row[m - 1] + (row[m - 1] - prev_row[m - 1]) / (2.0**m - 1.0))
        prev_row = row
        accel.append(row[-1])
        if len(accel) >= 3:
            scale = max(abs(accel[-1]), abs(accel[-2]), 1e-12)
            noise = noise_amp * floor
            tol = max(_RTOL * scale, noise)
            converged = (
                abs(accel[-1] - accel[-2]) <= tol
                and abs(accel[-2] - accel[-3]) <= tol
            )
            if converged:
                if noise <= _RTOL * scale:
                    return accel[-1], _RTOL * scale, None
                if noise <= noise_cap * max(1.0, abs(accel[-1])):
                    return accel[-1], noise, None
                # stalled at an unusably coarse noise level: keep streaming,
                # the floor stop and the abort path below take over

    # stream ended without stabilizing
    if not raw:
        if floor_stop is not None and floor_stop <= _ZERO_TOL:
            return 0.0, floor_stop, None
        raise PrecisionLossError(
            n, 0, floor_stop or 0.0, "first level already below the round-off floor"
        )
    ratios = [abs(b) / abs(a) for a, b in zip(raw, raw[1:]) if a != 0.0]
    if len(ratios) >= 3:
        tail = ratios[-3:]
        grown = tail[0] * tail[1] * tail[2]
        signal = abs(raw[-1]) >= _DIVERGENCE_SIGNAL * floors[-1]
        if all(r >= 1.15 for r in tail) and grown >= 2.0 and signal:
            return (
                None,
                None,
                f"remainder grows x{grown:.2f} over the last 3 levels "
                f"(ratios {tail[0]:.3f} {tail[1]:.3f} {tail[2]:.3f}); not o(s^{n})",
            )
    if len(ratios) >= 4 and all(r <= 0.9 for r in ratios[-4:]):
        return 0.0, abs(raw[-1]), None
    if floor_stop is not None:
        # the estimates sank into the round-off floor before settling: the
        # coefficient is indistinguishable from zero at this precision,
        # certifiable only if the noise bound is tight enough to matter
        spread = abs(raw[-1] - raw[-2]) if len(raw) >= 2 else 0.0
        bound = noise_amp * floor_stop + spread
        if abs(raw[-1]) <= noise_amp * floor_stop and bound <= max(_ZERO_TOL, noise_cap):
            return 0.0, bound, None
    raise PrecisionLossError(
        n,
        len(raw),
        floor_stop if floor_stop is not None else floors[-1],
        "estimates neither stabilized, nor diverged, nor decayed to zero",
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

MASS_TOL = 1e-8

VERDICT_CONSISTENT = "consistent-integer"
VERDICT_NEGATIVE = "violates-nonnegativity"
VERDICT_TAYLOR = "violates-taylor"
VERDICT_MASS = "violates-total-mass"


@dataclass(frozen=True)
class AtomicityReport:
    verdict: str
    expansion: PgfExpansion
    detail: str


def mass_order(alpha: float) -> int:
    """floor(alpha), the last p_k the mass check sums; ValueError beyond MAX_SERIES_ORDER."""
    kmax = math.floor(alpha)
    if kmax > MAX_SERIES_ORDER:
        raise ValueError(
            f"alpha = {alpha}: the mass check needs p_0..p_floor(alpha), beyond "
            f"the series budget ({MAX_SERIES_ORDER})"
        )
    return kmax


def atomicity_verdict(
    alpha: float,
    mu0: EmpiricalMeasure,
    occ: OccupationFunction,
    order: int = 12,
    method: str = "series",
) -> AtomicityReport:
    """Check the chain of consequences a genuine process would impose.

    In order: every p_k is a probability (nonnegative), the expansion is a
    true Taylor expansion at every tested order, and the mass of
    {0, ..., floor(alpha)} is 1.  The first broken link is returned with
    evidence; integer alpha with weight-1/alpha atoms passes all three.
    The taylor check can only fail on the limit route (the series route
    presupposes analyticity); pass method="limit" to exercise it.

    Coefficients are extracted through max(order, floor(alpha)), so the
    mass check sums only coefficients it has; floor(alpha) beyond
    MAX_SERIES_ORDER raises ValueError (see mass_order).
    """
    order = max(order, mass_order(alpha))
    if method == "series":
        exp = extract_coefficients_series(alpha, mu0, occ, order)
    elif method == "limit":
        exp = extract_coefficients_limit(build_g(alpha, mu0, occ), order)
    else:
        raise ValueError(f"unknown method {method!r}")
    return verdict_from_expansion(alpha, exp)


def verdict_from_expansion(alpha: float, exp: PgfExpansion) -> AtomicityReport:
    """Apply the consequence chain to an already extracted expansion.

    A coefficient or uncertainty that is not finite raises ArithmeticError
    rather than deciding a verdict.  The mass link sums p_0..p_floor(alpha),
    so an expansion that reaches it with fewer coefficients raises
    ValueError.
    """
    unc = exp.uncertainties
    if not np.all(np.isfinite(exp.coefficients)) or (
        unc is not None and not np.all(np.isfinite(unc))
    ):
        raise ArithmeticError(
            f"pgf coefficients are not finite at alpha = {alpha}: "
            f"p = {exp.coefficients}, uncertainties = {unc}"
        )
    if exp.negativity_flag is not None:
        k = exp.negativity_flag
        return AtomicityReport(
            VERDICT_NEGATIVE, exp, f"p_{k} = {exp.coefficients[k]:.6e} < 0"
        )
    if exp.divergence_flag is not None:
        k, why = exp.divergence_flag
        return AtomicityReport(VERDICT_TAYLOR, exp, f"order {k}: {why}")
    kmax = int(math.floor(alpha))
    if exp.coefficients.size <= kmax:
        raise ValueError(
            f"the mass check needs p_0..p_{kmax}; the expansion has "
            f"{exp.coefficients.size} coefficients"
        )
    head = float(np.sum(exp.coefficients[: kmax + 1]))
    total = exp.total_mass()
    if abs(head - 1.0) > MASS_TOL or total > 1.0 + MASS_TOL:
        return AtomicityReport(
            VERDICT_MASS, exp, f"sum_(k<={kmax}) p_k = {head:.12f}; total {total:.12f}"
        )
    return AtomicityReport(VERDICT_CONSISTENT, exp, f"sum_(k<={kmax}) p_k = {head:.12f}")


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


def monte_carlo_pgf(
    alpha: int,
    mu0: EmpiricalMeasure,
    occ: OccupationFunction,
    replicates: int,
    seed: int,
) -> PgfExpansion:
    """Empirical frequencies of X = alpha * mu_t(A) from particle samples.

    Only meaningful for integer alpha (otherwise there is no process);
    membership in A is exact, so every sampled X is an integer in
    {0, ..., alpha}.  Uncertainties are binomial standard errors, and
    the nonnegativity tolerance for Monte Carlo output is 3 of them.
    The replicates are those of terminal_ensemble(mu0, alpha, occ.t,
    replicates, seed), sampled in pieces of whole blocks (_PIECE_BYTES) of
    which only the counts are kept, so the memory does not grow with the
    replicate count.
    """
    n = require_integer_alpha(alpha, mu0.n)
    width = max(1, _PIECE_BYTES // (8 * n * REPLICATES_PER_BLOCK)) * REPLICATES_PER_BLOCK
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, replicates, width):
        pos = terminal_ensemble(mu0, n, occ.t, min(width, replicates - lo), seed, lo)
        counts += np.bincount(occ.contains(pos).sum(axis=1), minlength=n + 1)
    freq = counts / replicates
    return PgfExpansion(
        coefficients=freq,
        negativity_flag=None,
        uncertainties=np.sqrt(freq * (1.0 - freq) / replicates),
    )


def _chi2_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer df >= 1, in closed form.

    With y = x / 2 and m = df // 2, the tail is a finite sum:
    sum_(j<m) e^-y y^j / j! for even df, and
    erfc(sqrt y) + sum_(j<m) e^-y y^(j+1/2) / Gamma(j + 3/2) for odd df.
    Each term is taken in log space, so it does not underflow with e^-y
    once y passes 708, and the terms are added by math.fsum.  Rounding can
    take that sum a few ulp past 1 near x = 0, so it is capped at 1.
    x <= 0 gives 1, x = inf gives 0, and NaN stays NaN.
    """
    if math.isnan(x):
        return x
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    m, odd = divmod(df, 2)
    shift = 0.5 * odd
    log_y = math.log(y)
    terms = [math.exp((j + shift) * log_y - y - math.lgamma(j + shift + 1.0)) for j in range(m)]
    if odd:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))


def compare_histogram(
    mc: PgfExpansion, reference: np.ndarray, replicates: int
) -> tuple[float, float]:
    """Chi-square of Monte Carlo frequencies against reference probabilities.

    Bins with expected count below 5 are merged into their neighbor.
    Returns (statistic, p_value).  Fewer than 2 bins after merging raise
    ValueError, and a statistic or p-value that is not finite raises
    ArithmeticError: neither can decide a verdict.

    The statistic is Pearson's sum((o - e)**2 / e) over the merged bins,
    with the arithmetic of scipy.stats.chisquare, so the two agree bit for
    bit.  The p-value is the exact chi-square tail at bins - 1 degrees of
    freedom, in closed form (_chi2_sf), good to about (1 + stat) rounding
    errors relative; it needs no scipy.
    """
    obs = mc.coefficients * replicates
    exp = np.asarray(reference, dtype=float) * replicates
    if exp.size != obs.size:
        raise ValueError("histogram sizes differ")
    keep_obs, keep_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            keep_obs.append(acc_o)
            keep_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and keep_exp:
        keep_obs[-1] += acc_o
        keep_exp[-1] += acc_e
    if len(keep_exp) < 2:
        raise ValueError(
            f"chi-square needs 2 bins of expected count >= 5; {replicates} "
            "replicates fill fewer"
        )
    keep_exp = np.array(keep_exp) * (sum(keep_obs) / sum(keep_exp))
    stat = float(np.sum((np.asarray(keep_obs, dtype=np.float64) - keep_exp) ** 2 / keep_exp))
    pvalue = _chi2_sf(keep_exp.size - 1, stat)
    if not (math.isfinite(stat) and math.isfinite(pvalue)):
        raise ArithmeticError(f"chi-square statistic {stat}, p-value {pvalue} not finite")
    return stat, pvalue


# ---------------------------------------------------------------------------
# the A -> whole-space probe
# ---------------------------------------------------------------------------


def mass_slope_probe(alpha: float, coverage: float, t: float) -> float:
    """Fitted log-log slope of g for A covering the given fraction.

    As A grows to the whole space, h tends to 1 and g(s) to s^alpha, so the
    fitted slope tends to alpha.  Because h < 1 strictly, the true slope
    decays to 0 as s -> 0+, so the fit window must keep s well above
    1 - h; the window, 12 log-spaced points on [0.3, 1], does for
    coverages up to 0.99.  Initial mass is uniform: one atom at each of
    the 256 points j/256, the uniform grid rule.
    """
    gap = 1.0 - coverage
    occ = occupation(None, [(gap / 2, 1.0 - gap / 2)], t, alpha)
    g = build_g(alpha, EmpiricalMeasure(np.arange(256) / 256), occ)
    svals = np.exp(np.linspace(np.log(0.3), np.log(1.0), 12))
    slope = np.polyfit(np.log(svals), np.log(g(svals)), 1)[0]
    return float(slope)

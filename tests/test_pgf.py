"""Generating-function extraction, verdicts and non-existence witnesses."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dklab import (
    EmpiricalMeasure,
    GeneratingFunction,
    PrecisionLossError,
    TorusDomain,
    atomicity_verdict,
    build_g,
    extract_coefficients_limit,
    extract_coefficients_series,
    mass_slope_probe,
    monte_carlo_pgf,
    occupation,
    series_from_bernoulli,
    verdict_from_expansion,
)
from dklab.pgf import PgfExpansion, _chi2_sf, compare_histogram
from oracles import (
    chi2_sf_exact,
    generalized_binomial_pmf,
    occupation_long_double,
    poisson_binomial,
)

EPS = np.finfo(float).eps


def _random_histograms():
    """2000 (frequencies, probabilities, replicates) with 2..65 bins.

    Every expected count is at least 5, so compare_histogram merges no bin
    and scores the histogram at p.size - 1 degrees of freedom.
    """
    rng = np.random.Generator(np.random.Philox(key=(14, 0)))
    for _ in range(2000):
        expected = np.exp(rng.uniform(np.log(5.0), np.log(1e5), rng.integers(2, 66)))
        replicates = int(np.ceil(expected.sum())) + 1
        p = expected / expected.sum()
        yield rng.multinomial(replicates, p) / replicates, p, replicates


@pytest.fixture(scope="module")
def dom():
    return TorusDomain(256)


@pytest.fixture(scope="module")
def occ_15(dom):
    return occupation(dom, [(0.2, 0.45)], t=0.05, alpha=1.5)


def _intervals(ends):
    """Disjoint intervals from sorted distinct ends, paired off in order."""
    ends = sorted(ends)[: len(ends) // 2 * 2]
    return list(zip(ends[::2], ends[1::2]))


class TestOccupation:
    def test_h_strictly_inside_unit_interval(self, occ_15):
        h = occ_15.evaluate(np.arange(4096) / 4096)
        assert np.all((h > 0.0) & (h < 1.0))

    def test_mean_h_equals_measure(self, occ_15):
        # the series' mean is |A|, and the heat flow keeps the mean
        assert occ_15.h.mean == occ_15.measure

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True),
        atoms=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
        alpha=st.floats(1.0, 64.0),
        t=st.floats(math.log(1e-4), math.log(10.0)).map(math.exp),
    )
    def test_h_at_the_atoms_matches_the_reference(self, ends, atoms, alpha, t):
        intervals = _intervals(ends)
        if intervals == [(0.0, 1.0)]:
            intervals = [(0.0, 0.5)]  # A must be a proper subset
        occ = occupation(None, intervals, t, alpha)
        ref = occupation_long_double(atoms, intervals, alpha * t)
        assert np.max(np.abs(occ.evaluate(np.array(atoms)) - ref)) <= 1e-15

    def test_series_past_its_mode_budget_refused(self):
        occ = occupation(None, [(0.2, 0.45)], 1e-9, 1.0)
        assert 0 < occ.h.max_mode <= 1 << 16
        with pytest.raises(ValueError, match="alpha t = 1.000e-10"):
            occupation(None, [(0.2, 0.45)], 1e-10, 1.0)

    def test_union_of_intervals(self, dom):
        occ = occupation(dom, [(0.1, 0.2), (0.6, 0.8)], t=0.02, alpha=1)
        assert abs(occ.measure - 0.3) < 1e-15
        inside = occ.contains(np.array([0.15, 0.5, 0.7, 0.95]))
        assert inside.tolist() == [True, False, True, False]

    def test_rejects_bad_sets(self, dom):
        with pytest.raises(ValueError):
            occupation(dom, [], t=0.05, alpha=1)
        with pytest.raises(ValueError):
            occupation(dom, [(0.5, 0.4)], t=0.05, alpha=1)
        with pytest.raises(ValueError):
            occupation(dom, [(0.1, 0.6), (0.5, 0.9)], t=0.05, alpha=1)
        with pytest.raises(ValueError):
            occupation(dom, [(0.0, 1.0)], t=0.05, alpha=1)

    def test_rejects_zero_time(self, dom):
        with pytest.raises(ValueError, match="positive"):
            occupation(dom, [(0.2, 0.4)], t=0.0, alpha=1)

    @pytest.mark.parametrize("t", [-1.0, np.inf, np.nan])
    def test_time_must_be_positive_and_finite(self, dom, t):
        with pytest.raises(ValueError, match="positive and finite"):
            occupation(dom, [(0.2, 0.45)], t=t, alpha=1.5)


class TestGeneratingFunction:
    def test_normalization_exact(self, occ_15):
        g = build_g(1.5, EmpiricalMeasure([0.3, 0.8]), occ_15)
        assert g(1.0) == 1.0

    def test_single_atom_is_affine_for_alpha_one(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=1)
        x0 = 0.35
        g = build_g(1, EmpiricalMeasure([x0]), occ)
        h = occ.evaluate(x0)
        for s in (0.0, 0.25, 0.5, 2.0):
            assert abs(g(s) - (1 - h + s * h)) < 1e-13

    def test_domain_error_below_minus_delta(self, occ_15):
        g = build_g(1.5, EmpiricalMeasure([0.3, 0.5]), occ_15)
        assert g.delta == 1.0 - max(occ_15.evaluate(0.3), occ_15.evaluate(0.5))
        with pytest.raises(ValueError, match="defined on"):
            g(-g.delta - 1e-3)

    def test_nan_h_refused(self):
        with pytest.raises(ValueError, match="strictly inside"):
            GeneratingFunction(1.5, np.array([1.0]), np.array([math.nan]))

    def test_increasing_and_in_unit_interval(self, occ_15):
        g = build_g(2.0, EmpiricalMeasure([0.3, 0.7]), occ_15)
        s = np.linspace(0.02, 0.98, 25)
        vals = np.array([g(v) for v in s])
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals > 0) & (vals < 1))

    def test_uniform_density_route(self, dom, occ_15):
        g = build_g(1.5, EmpiricalMeasure(dom.grid()), occ_15)
        # <mu0, log(1-h)> with one atom per grid point: plain grid average
        expected = np.exp(1.5 * np.mean(np.log1p(-occ_15.evaluate(dom.grid()))))
        assert abs(g(0.0) - expected) < 1e-12

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5])
    def test_batched_values_are_the_pointwise_ones(self, atoms):
        # the limit route calls g once on its whole node array, so each value
        # must be the one a call at that point alone gives, bit for bit
        rng = np.random.Generator(np.random.Philox(key=(97, atoms)))
        for _ in range(20):
            g = GeneratingFunction(float(rng.uniform(0.3, 4.0)), rng.dirichlet(np.ones(atoms)),
                                   rng.uniform(0.01, 0.99, atoms))
            s = np.concatenate([rng.uniform(0.0, 2.0, 61), 0.5 * 0.5 ** np.arange(30)])
            batched = g(s)
            assert np.array_equal(batched, [g(x) for x in s])
            assert np.array_equal(g(s.reshape(13, 7)), batched.reshape(13, 7))

    def test_slope_probe_approaches_alpha(self):
        slopes = [mass_slope_probe(1.5, c, t=0.005) for c in (0.5, 0.9, 0.99)]
        assert slopes[0] < slopes[1] < slopes[2] < 1.5
        assert abs(slopes[2] - 1.5) < 0.05


class TestSeriesExtraction:
    def test_single_bernoulli(self):
        exp = series_from_bernoulli(1.0, np.array([1.0]), np.array([0.5]), 4)
        assert np.allclose(exp.coefficients, [0.5, 0.5, 0, 0, 0], atol=1e-14)
        assert exp.negativity_flag is None

    def test_poisson_binomial_oracle(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=2)
        mu0 = EmpiricalMeasure([0.3, 0.8])
        exp = extract_coefficients_series(2, mu0, occ, 6)
        pb = poisson_binomial(occ.evaluate(mu0.positions))
        assert np.max(np.abs(exp.coefficients[:3] - pb)) < 1e-10
        assert np.max(np.abs(exp.coefficients[3:])) < 1e-10
        assert exp.negativity_flag is None

    @pytest.mark.parametrize("h", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_generalized_binomial_witness(self, h):
        # alpha = 1.5 single atom: the binomial series goes negative by k=5;
        # coefficients grow like (h/(1-h))^k, so compare relatively
        exp = series_from_bernoulli(1.5, np.array([1.0]), np.array([h]), 8)
        ref = generalized_binomial_pmf(1.5, h, 8)
        rel = np.abs(exp.coefficients - ref) / np.maximum(np.abs(ref), 1.0)
        assert np.max(rel) < 1e-12
        assert exp.negativity_flag is not None
        assert exp.negativity_flag <= 5

    def test_order_budget(self):
        with pytest.raises(ValueError, match="budget"):
            series_from_bernoulli(1.0, np.array([1.0]), np.array([0.5]), 65)

    def test_nan_h_refused(self):
        with pytest.raises(ValueError, match="strictly inside"):
            series_from_bernoulli(1.5, np.array([1.0]), np.array([math.nan]), 4)

    # the pgf chi-square check reads its reference p_0..p_alpha from the
    # verdict's extraction at a higher order, which relies on this
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), atoms=st.integers(1, 6),
           low=st.integers(0, 12), extra=st.integers(0, 20))
    def test_low_orders_do_not_depend_on_the_order(self, seed, atoms, low, extra):
        rng = np.random.Generator(np.random.Philox(key=(seed, 11)))
        alpha = float(rng.uniform(0.5, 6.0))
        w = rng.uniform(0.1, 1.0, atoms)
        h = rng.uniform(0.01, 0.99, atoms)
        short = series_from_bernoulli(alpha, w, h, low).coefficients
        long = series_from_bernoulli(alpha, w, h, low + extra).coefficients
        assert np.array_equal(long[: low + 1], short)

    def test_integer_mass_sums_to_one(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=3)
        mu0 = EmpiricalMeasure([0.15, 0.55, 0.95])
        exp = extract_coefficients_series(3, mu0, occ, 12)
        assert abs(exp.total_mass() - 1.0) < 1e-12
        assert np.all(exp.coefficients >= -1e-10)


class TestLimitExtraction:
    def test_polynomial_input(self):
        exp = extract_coefficients_limit(lambda s: 0.3 + 0.5 * s + 0.2 * s * s, 2)
        assert np.allclose(exp.coefficients, [0.3, 0.5, 0.2], atol=1e-9)
        assert not exp.flagged

    def test_polynomial_beyond_degree_certified_zero(self):
        exp = extract_coefficients_limit(lambda s: 0.3 + 0.5 * s + 0.2 * s * s, 6)
        assert np.max(np.abs(exp.coefficients[3:])) == 0.0
        assert np.all(exp.uncertainties[3:] < 1e-6)
        assert not exp.flagged

    def test_fractional_power_divergence(self):
        exp = extract_coefficients_limit(lambda s: s**1.5, 4)
        assert np.allclose(exp.coefficients, [0.0, 0.0], atol=1e-12)
        assert exp.divergence_flag is not None
        order, evidence = exp.divergence_flag
        assert order == 2
        assert "1.414" in evidence  # remainder/s^2 grows by sqrt(2) per level

    def test_cross_method_poisson_binomial(self):
        ha, hb = 0.35, 0.6
        g = lambda s: np.exp(  # noqa: E731
            2 * (0.5 * np.log1p((s - 1) * ha) + 0.5 * np.log1p((s - 1) * hb))
        )
        lim = extract_coefficients_limit(g, 6)
        ser = series_from_bernoulli(2.0, np.array([0.5, 0.5]), np.array([ha, hb]), 6)
        assert np.max(np.abs(lim.coefficients - ser.coefficients)) < 1e-6

    @pytest.mark.parametrize("h", [0.1, 0.2, 0.3])
    def test_cross_method_fractional(self, h):
        g = lambda s: (1 - h + h * s) ** 1.5  # noqa: E731
        lim = extract_coefficients_limit(g, 4)
        ser = series_from_bernoulli(1.5, np.array([1.0]), np.array([h]), 4)
        assert np.max(np.abs(lim.coefficients - ser.coefficients)) < 1e-6
        assert lim.negativity_flag == ser.negativity_flag == 3

    def test_cross_method_within_reported_uncertainty(self):
        # past the clean envelope the extraction still agrees within the
        # uncertainty it reports for itself
        h = 0.4
        g = lambda s: (1 - h + h * s) ** 1.5  # noqa: E731
        lim = extract_coefficients_limit(g, 4)
        ser = series_from_bernoulli(1.5, np.array([1.0]), np.array([h]), 4)
        gap = np.abs(lim.coefficients - ser.coefficients)
        assert np.all(gap <= np.maximum(1e-6, 3 * lim.uncertainties))
        assert lim.negativity_flag == ser.negativity_flag == 3

    def test_precision_abort_carries_report(self):
        # h = 0.9 blows the coefficients up against the eps/s^n conditioning
        # wall; the extractor must refuse rather than return garbage
        g = lambda s: (0.1 + 0.9 * s) ** 1.5  # noqa: E731
        with pytest.raises(PrecisionLossError) as err:
            extract_coefficients_limit(g, 5, s0=0.05)
        assert err.value.order >= 3
        assert err.value.floor_bound > 0
        assert "certifiable" in str(err.value)

    def test_order_budget(self):
        with pytest.raises(ValueError, match="budget"):
            extract_coefficients_limit(lambda s: s, 65)


class TestVerdicts:
    def test_integer_three_atoms_consistent(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=3)
        rep = atomicity_verdict(3, EmpiricalMeasure([0.1, 0.5, 0.9]), occ, order=10)
        assert rep.verdict == "consistent-integer"

    def test_fractional_single_atom_negativity(self, occ_15):
        rep = atomicity_verdict(1.5, EmpiricalMeasure([0.5]), occ_15, order=8)
        assert rep.verdict == "violates-nonnegativity"
        assert "p_3" in rep.detail

    def test_half_weight_atoms_negativity(self, dom):
        # alpha = 1 but two atoms of weight 1/2: sqrt of a genuine quadratic
        occ = occupation(dom, [(0.3, 0.6)], t=0.03, alpha=1)
        rep = atomicity_verdict(1, EmpiricalMeasure([0.35, 0.8]), occ, order=8)
        assert rep.verdict == "violates-nonnegativity"
        assert "p_2" in rep.detail

    def test_total_mass_violation(self, dom):
        # h small enough that no coefficient dips below the negativity
        # tolerance, yet mass leaks past floor(alpha)
        occ = occupation(dom, [(0.45, 0.55)], t=0.002, alpha=2.5)
        h = float(occ.evaluate(0.27))
        assert 0.0032 < h < 0.0071  # window where only the mass check can fire
        rep = atomicity_verdict(2.5, EmpiricalMeasure([0.27]), occ, order=8)
        assert rep.verdict == "violates-total-mass"

    def test_taylor_violation_from_expansion(self):
        exp = extract_coefficients_limit(lambda s: s**1.5, 4)
        rep = verdict_from_expansion(1.5, exp)
        assert rep.verdict == "violates-taylor"
        assert "o(s^2)" in rep.detail

    def test_limit_method_agrees_on_integer_case(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=2)
        mu0 = EmpiricalMeasure([0.3, 0.8])
        rep = atomicity_verdict(2, mu0, occ, order=5, method="limit")
        assert rep.verdict == "consistent-integer"


class TestMonteCarlo:
    def test_values_are_integer_counts(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=2)
        mu0 = EmpiricalMeasure([0.3, 0.7])
        mc = monte_carlo_pgf(2, mu0, occ, replicates=5000, seed=5)
        assert mc.coefficients.size == 3
        assert abs(mc.total_mass() - 1.0) < 1e-12

    def test_bernoulli_frequency(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=1)
        x0 = 0.35
        mc = monte_carlo_pgf(1, EmpiricalMeasure([x0]), occ, replicates=50000, seed=6)
        h = occ.evaluate(x0)
        se = np.sqrt(h * (1 - h) / 50000)
        assert abs(mc.coefficients[1] - h) <= 3 * se

    def test_chi_square_against_series(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=2)
        mu0 = EmpiricalMeasure([0.3, 0.7])
        mc = monte_carlo_pgf(2, mu0, occ, replicates=100000, seed=42)
        ref = extract_coefficients_series(2, mu0, occ, 2)
        _, pvalue = compare_histogram(mc, ref.coefficients, 100000)
        assert pvalue > 0.001

    def test_chi_square_matches_scipy_bit_for_bit(self):
        # compare_histogram computes Pearson's statistic itself;
        # scipy.stats.chisquare on the same bins is the reference.
        for freq, p, replicates in _random_histograms():
            obs, exp = list(freq * replicates), list(p * replicates)
            want = stats.chisquare(obs, np.array(exp) * (sum(obs) / sum(exp)))
            stat, _ = compare_histogram(PgfExpansion(freq), p, replicates)
            assert stat == float(want.statistic)

    def test_chi_square_pvalue_is_the_exact_tail(self):
        # scipy's chdtrc misses this bound; the closed form meets it
        for freq, p, replicates in _random_histograms():
            stat, pvalue = compare_histogram(PgfExpansion(freq), p, replicates)
            ref = chi2_sf_exact(p.size - 1, stat)
            assert abs(pvalue - ref) <= 2.0 * (1.0 + stat) * EPS * ref

    def test_non_integer_alpha_refused(self, occ_15):
        with pytest.raises(ValueError, match="non-integer"):
            monte_carlo_pgf(1.5, EmpiricalMeasure([0.5]), occ_15, 100, seed=1)

    def test_peak_memory_does_not_grow_with_replicates(self, dom):
        # the replicates are sampled in pieces, of which only the counts stay
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=2)
        mu0 = EmpiricalMeasure([0.3, 0.7])

        def peak(replicates):
            tracemalloc.start()
            try:
                monte_carlo_pgf(2, mu0, occ, replicates, seed=9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations are not piece memory
        small, large = peak(2 * 10**4), peak(2 * 10**5)
        assert large - small <= 64 * 1024, (small, large)


@functools.cache
def _far_quantile(df: int) -> float:
    """x with Q(x) = 1e-250 at df degrees of freedom, by bisection on _chi2_sf.

    It only bounds the sampled x, so taking it from the function under
    test does not weaken the checks against the oracle below.
    """
    lo, hi = 0.0, 2.0 * df + 64.0
    while _chi2_sf(df, hi) > 1e-250:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _chi2_sf(df, mid) > 1e-250 else (lo, mid)
    return hi


class TestChiSquareTail:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(df=st.integers(1, 64), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    def test_near_the_exact_tail_and_never_rising(self, df, u, v):
        x, x_far = sorted((u * _far_quantile(df), v * _far_quantile(df)))
        q, q_far = _chi2_sf(df, x), _chi2_sf(df, x_far)
        for at, got in ((x, q), (x_far, q_far)):
            ref = chi2_sf_exact(df, at)
            assert abs(got - ref) <= 2.0 * (1.0 + at) * EPS * ref
        # non-increasing, up to the rounding the bound above allows
        assert q_far <= q * (1.0 + 4.0 * (1.0 + x_far) * EPS)

    @pytest.mark.parametrize("df", [1, 2, 7, 64])
    def test_ends_of_the_range(self, df):
        assert _chi2_sf(df, 0.0) == 1.0
        assert _chi2_sf(df, -1.0) == 1.0
        assert _chi2_sf(df, math.inf) == 0.0
        assert math.isnan(_chi2_sf(df, math.nan))

    @pytest.mark.parametrize("df, x", [(63, 1420.0), (64, 1500.0), (40, 1450.0)])
    def test_past_the_underflow_of_exp_minus_y(self, df, x):
        # y = x / 2 > 708, so e^-y underflows while the tail is still normal
        ref = chi2_sf_exact(df, x)
        assert ref > 1e-300
        assert abs(_chi2_sf(df, x) - ref) <= 2.0 * (1.0 + x) * EPS * ref

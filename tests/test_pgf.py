"""Generating-function extraction, verdicts and non-existence witnesses."""

import numpy as np
import pytest
from scipy import stats

from dklab import (
    EmpiricalMeasure,
    FourierFunction,
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
from dklab.pgf import PgfExpansion, compare_histogram
from oracles import generalized_binomial_pmf, poisson_binomial


@pytest.fixture(scope="module")
def dom():
    return TorusDomain(256)


@pytest.fixture(scope="module")
def occ_15(dom):
    return occupation(dom, [(0.2, 0.45)], t=0.05, alpha=1.5)


class TestOccupation:
    def test_h_strictly_inside_unit_interval(self, occ_15):
        assert 0.0 < occ_15.h_min
        assert occ_15.delta > 0.0
        assert np.all(occ_15.h_values > 0.0)
        assert np.all(occ_15.h_values < 1.0)

    def test_mean_h_equals_measure(self, occ_15):
        # cell averaging preserves mass and the heat flow keeps the mean
        assert abs(occ_15.h.mean - occ_15.measure) < 1e-14

    def test_bias_bound_is_half_cell(self, dom, occ_15):
        assert occ_15.h_bias_bound == dom.dx / 2

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
        g = build_g(1.5, EmpiricalMeasure([0.5]), occ_15)
        with pytest.raises(ValueError, match="defined on"):
            g(-occ_15.delta - 1e-3)

    def test_increasing_and_in_unit_interval(self, occ_15):
        g = build_g(2.0, EmpiricalMeasure([0.3, 0.7]), occ_15)
        s = np.linspace(0.02, 0.98, 25)
        vals = np.array([g(v) for v in s])
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals > 0) & (vals < 1))

    def test_uniform_density_route(self, occ_15):
        g = build_g(1.5, FourierFunction.constant(1.0), occ_15)
        # <mu0, log(1-h)> with uniform mass: plain grid average
        expected = np.exp(1.5 * np.mean(np.log1p(-occ_15.h_values)))
        assert abs(g(0.0) - expected) < 1e-12

    def test_slope_probe_approaches_alpha(self, dom):
        slopes = [mass_slope_probe(1.5, c, t=0.005, dom=dom) for c in (0.5, 0.9, 0.99)]
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
        assert abs(mc.coefficients[1] - h) <= 3 * se + occ.h_bias_bound * 0.1

    def test_chi_square_against_series(self, dom):
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=2)
        mu0 = EmpiricalMeasure([0.3, 0.7])
        mc = monte_carlo_pgf(2, mu0, occ, replicates=100000, seed=42)
        ref = extract_coefficients_series(2, mu0, occ, 2)
        _, pvalue = compare_histogram(mc, ref.coefficients, 100000)
        assert pvalue > 0.001

    def test_chi_square_matches_scipy_bit_for_bit(self):
        # compare_histogram computes Pearson's statistic and its p-value
        # itself; scipy.stats.chisquare on the same bins is the reference.
        # Every expected count is at least 5, so no bin is merged.
        rng = np.random.Generator(np.random.Philox(key=(14, 0)))
        for _ in range(2000):
            expected = np.exp(rng.uniform(np.log(5.0), np.log(1e5), rng.integers(2, 66)))
            replicates = int(np.ceil(expected.sum())) + 1
            p = expected / expected.sum()
            freq = rng.multinomial(replicates, p) / replicates
            obs, exp = list(freq * replicates), list(p * replicates)
            want = stats.chisquare(obs, np.array(exp) * (sum(obs) / sum(exp)))
            got = compare_histogram(PgfExpansion(freq), p, replicates)
            assert got == (float(want.statistic), float(want.pvalue))

    def test_non_integer_alpha_refused(self, occ_15):
        with pytest.raises(ValueError, match="non-integer"):
            monte_carlo_pgf(1.5, EmpiricalMeasure([0.5]), occ_15, 100, seed=1)

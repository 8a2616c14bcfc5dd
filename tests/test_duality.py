"""Laplace-duality Monte Carlo against the Cole-Hopf right-hand side."""

import numpy as np
import pytest

from dklab import (
    EmpiricalMeasure,
    FourierFunction,
    TorusDomain,
    default_f_suite,
    equally_spaced_atoms,
    pass_rate,
    run_duality_test,
    sweep,
)
from oracles import kernel_quadrature


@pytest.fixture(scope="module")
def dom():
    return TorusDomain(256)


def bump():
    return FourierFunction.from_modes(mean=1.0, cos={1: 0.5})


class TestSingleCell:
    def test_time_zero_exact(self, dom):
        mu0 = equally_spaced_atoms(2)
        rep = run_duality_test(2, mu0, bump(), 0.0, 1000, seed=1, dom=dom)
        expected = np.exp(-np.mean(bump().evaluate(mu0.positions)))
        assert rep.mc_stderr <= 1e-16  # pure summation round-off
        assert abs(rep.mc_mean - expected) < 1e-14
        assert abs(rep.rhs - expected) < 1e-9
        assert rep.verdict

    def test_constant_f_exact(self, dom):
        mu0 = equally_spaced_atoms(3)
        rep = run_duality_test(
            3, mu0, FourierFunction.constant(0.7), 0.08, 1000, seed=2, dom=dom
        )
        assert abs(rep.mc_mean - np.exp(-0.7)) < 1e-12
        assert abs(rep.rhs - np.exp(-0.7)) < 1e-9
        assert rep.verdict

    def test_non_integer_alpha_rejected(self, dom):
        with pytest.raises(ValueError, match="non-integer"):
            run_duality_test(1.5, EmpiricalMeasure([0.5]), bump(), 0.05, 100, 3, dom=dom)

    def test_atom_count_checked(self, dom):
        with pytest.raises(ValueError, match="atoms"):
            run_duality_test(2, EmpiricalMeasure([0.5]), bump(), 0.05, 100, 3, dom=dom)

    def test_spread_past_2_to_38_refused(self, dom):
        mu0 = EmpiricalMeasure([0.25, 0.75])
        with pytest.raises(ValueError, match="fractional bits"):
            run_duality_test(2, mu0, bump(), np.nextafter(2.0**37, np.inf), 100, 3, dom=dom)

    def test_single_particle_against_quadrature(self, dom):
        # n = 1 closed form: E exp(-f(X_t)) = integral of the wrapped kernel
        # against exp(-f); fully independent of the Cole-Hopf code path
        f = bump()
        t = 0.05
        rep = run_duality_test(1, EmpiricalMeasure([0.5]), f, t, 10**5, seed=4, dom=dom)
        quad = kernel_quadrature(lambda y: np.exp(-f.evaluate(y)), 0.5, t)
        assert abs(rep.mc_mean - quad) <= 3 * rep.mc_stderr
        # and the Cole-Hopf rhs agrees with the quadrature to solver accuracy
        assert abs(rep.rhs - quad) < 1e-8

    def test_in_unit_interval_for_nonnegative_f(self, dom):
        rep = run_duality_test(2, equally_spaced_atoms(2), bump(), 0.05, 4000, 5, dom=dom)
        assert 0.0 < rep.mc_mean <= 1.0
        assert 0.0 < rep.rhs <= 1.0

    def test_antithetic_negation_invariance(self, dom):
        # negating every increment swaps the antithetic pair members, so the
        # pooled estimate is bitwise unchanged; checked by symmetry of mu0
        # and f under x -> 1 - x... instead assert the documented weaker
        # property: an independent antithetic run stays within 3 sigma.
        f = bump()
        a = run_duality_test(1, EmpiricalMeasure([0.5]), f, 0.05, 20000, 6, dom=dom)
        b = run_duality_test(
            1, EmpiricalMeasure([0.5]), f, 0.05, 20000, 6, dom=dom, antithetic=False
        )
        assert a.verdict and b.verdict
        gap = abs(a.mc_mean - b.mc_mean)
        assert gap <= 3 * np.hypot(a.mc_stderr, b.mc_stderr)

    def test_deterministic(self, dom):
        one = run_duality_test(2, equally_spaced_atoms(2), bump(), 0.05, 2000, 7, dom=dom)
        two = run_duality_test(2, equally_spaced_atoms(2), bump(), 0.05, 2000, 7, dom=dom)
        assert one == two

    def test_monotone_in_f(self, dom):
        # pointwise larger f pushes both sides down; with common random
        # numbers the Monte Carlo side is monotone replicate by replicate
        f = bump()
        g = f + FourierFunction.constant(0.25)
        mu0 = equally_spaced_atoms(2)
        rf = run_duality_test(2, mu0, f, 0.05, 4000, 8, dom=dom)
        rg = run_duality_test(2, mu0, g, 0.05, 4000, 8, dom=dom)
        assert rg.mc_mean < rf.mc_mean
        assert rg.rhs < rf.rhs


class TestSweep:
    def test_empty_sweep(self, dom):
        assert sweep([], [], default_f_suite(), 100, 1, dom=dom) == []

    def test_small_sweep_pass_rate(self, dom):
        reports = sweep([1, 2], [0.02, 0.05], default_f_suite(), 20000, seed=9, dom=dom)
        passed, total = pass_rate(reports)
        assert total == 12
        assert passed >= 11  # 3-sigma false-alarm budget

    def test_sweep_deterministic(self, dom):
        a = sweep([1], [0.02], default_f_suite(), 2000, seed=10, dom=dom)
        b = sweep([1], [0.02], default_f_suite(), 2000, seed=10, dom=dom)
        assert a == b

    def test_cells_use_distinct_seeds(self, dom):
        reports = sweep([1], [0.02, 0.05], default_f_suite()[:1], 2000, seed=11, dom=dom)
        assert reports[0].seed != reports[1].seed

"""Cole-Hopf solution properties: residual order, principles, gradient bounds."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from dklab import (
    FourierFunction,
    TorusDomain,
    check_extremum_principles,
    check_gradient_estimate,
    cole_hopf,
    heat_semigroup,
    random_fourier_suite,
    residual_from_fields,
    vhj_residual,
)
from dklab.vhj import _PROJECTION_MARGIN

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "frozen.json"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURES.read_text())


@pytest.fixture(scope="module")
def dom():
    return TorusDomain(256)


def bump():
    return FourierFunction.from_modes(mean=1.0, cos={1: 0.5})


class TestColeHopf:
    def test_constant_datum_is_fixed(self, dom):
        f = FourierFunction.constant(2.5)
        for t, alpha in ((0.0, 1.0), (0.3, 1.0), (0.1, 2.7)):
            field = cole_hopf(dom, f, alpha, t)
            assert np.allclose(field.values, 2.5, atol=1e-12)

    def test_time_zero_identity_within_projection(self, dom):
        f = bump()
        field = cole_hopf(dom, f, 1.0, 0.0)
        assert np.max(np.abs(field.values - f.sample(dom))) < 1e-8
        assert field.projection_error < 1e-10

    @pytest.mark.parametrize("grid", [16, 32])
    def test_projection_error_bounds_the_flow(self, grid):
        # at t = 0 the flow is the projection itself, so -log w - f is the
        # projection's whole effect on V; the error at the grid points alone
        # reads round-off there and bounds none of it
        fine = TorusDomain(4 * grid)
        for f in random_fourier_suite(5, 20):
            field = cole_hopf(TorusDomain(grid), f, 1.0, 0.0)
            w = field.transform.sample(fine)
            gap = float(np.max(np.abs(-np.log(w) - f.sample(fine))))
            assert gap <= _PROJECTION_MARGIN * field.projection_error / float(w.min())

    def test_invalid_alpha_rejected(self, dom):
        with pytest.raises(ValueError, match="alpha"):
            cole_hopf(dom, bump(), 0.0, 0.1)

    def test_negative_time_rejected(self, dom):
        with pytest.raises(ValueError, match="t"):
            cole_hopf(dom, bump(), 1.0, -0.1)

    def test_exp_transform_positive(self, dom):
        field = cole_hopf(dom, bump(), 1.0, 0.05)
        assert np.all(field.exp_transform > 0)
        assert np.allclose(
            field.values, -field.alpha * np.log(field.exp_transform), atol=1e-14
        )

    def test_matches_fd_oracle(self, dom, frozen):
        # frozen explicit time-stepping solve of the nonlinear PDE (4096 cells)
        ref = frozen["vhj_fd"]
        field = cole_hopf(dom, bump(), 1.0, 0.05)
        mine = field.evaluate(np.array(ref["probe_x"]))
        assert np.max(np.abs(mine - np.array(ref["values"]))) < 1e-5

    def test_duality_consistency_alpha_one(self, dom):
        # exp(-V_t f) = P_t exp(-f) holds by construction at alpha = 1
        f = bump()
        field = cole_hopf(dom, f, 1.0, 0.07)
        u0 = FourierFunction.from_grid(np.exp(-f.sample(dom)), max_mode=dom.max_mode)
        direct = heat_semigroup(u0, 1.0, 0.07).sample(dom)
        assert np.max(np.abs(np.exp(-field.values) - direct)) < 1e-14


class TestResidual:
    def test_constant_residual_roundoff(self, dom):
        f = FourierFunction.constant(1.0)
        rep = vhj_residual(dom, f, 1.0, 0.05, num_levels=2)
        assert all(l.residual_sup < 1e-12 for l in rep.levels)

    def test_too_few_levels_rejected(self, dom):
        f = bump()
        fields = [cole_hopf(dom, f, 1.0, t) for t in (0.05, 0.051)]
        with pytest.raises(ValueError, match="3 time levels"):
            residual_from_fields(fields)

    def test_halving_reduces_by_3_5(self, dom, frozen):
        rep = vhj_residual(dom, bump(), 1.0, 0.05, dt0=1e-3, num_levels=3)
        for a, b in zip(rep.levels, rep.levels[1:]):
            assert a.residual_sup / b.residual_sup >= 3.5
        assert all(o >= 1.9 for o in rep.observed_orders)

    def test_frozen_threshold(self, dom, frozen):
        # calibrated on the first run (make_fixtures.py) and frozen
        rep = vhj_residual(dom, bump(), 1.0, 0.05, dt0=1e-3, num_levels=2)
        assert rep.levels[0].residual_sup <= frozen["vhj_residual"]["frozen_threshold"]
        # at the first refinement the residual sits below 1e-4
        assert rep.levels[1].residual_sup <= 1e-4

    def test_non_finite_residual_refused(self, dom):
        # t + dt == t at t = 1e30: the centred difference is 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="nan"):
                vhj_residual(dom, bump(), 1.0, 1e30)

    def test_exact_zero_residual_gives_order_inf(self, dom):
        # the round-off floor: the flow is constant to the last bit
        rep = vhj_residual(dom, FourierFunction.from_modes(mean=1.0, cos={1: 0.5}), 1.0, 1e12)
        assert [lvl.residual_sup for lvl in rep.levels] == [0.0, 0.0, 0.0]
        assert rep.observed_orders == [np.inf, np.inf]


class TestExtremumPrinciples:
    def test_constant_equality(self, dom):
        rep = check_extremum_principles(cole_hopf(dom, FourierFunction.constant(1.5), 1.0, 0.1))
        assert rep.passed
        assert abs(rep.inf_v - rep.inf_f) < 1e-12
        assert abs(rep.sup_v - rep.sup_f) < 1e-12

    def test_cos_strict_contraction(self, dom):
        rep = check_extremum_principles(cole_hopf(dom, bump(), 1.0, 0.05))
        assert rep.passed
        assert rep.inf_v > rep.inf_f + 1e-3
        assert rep.sup_v < rep.sup_f - 1e-3

    def test_alpha_that_rounds_f_away_is_refused(self, dom):
        # max|bump| = 1.5: 2**40 keeps max|f|/alpha above 2**-40, 1e16 does not
        assert check_extremum_principles(cole_hopf(dom, bump(), 2.0**40, 0.05)).passed
        with pytest.raises(ArithmeticError, match="alpha = 1e\\+16: max\\|f\\|/alpha"):
            check_extremum_principles(cole_hopf(dom, bump(), 1e16, 0.05))

    def test_random_suite_passes(self, dom):
        rng = np.random.Generator(np.random.Philox(key=(61, 0)))
        for f in random_fourier_suite(61, 50):
            t = float(rng.uniform(0.0, 0.2))
            alpha = float(rng.uniform(0.5, 3.0))
            assert check_extremum_principles(cole_hopf(dom, f, alpha, t)).passed


    @pytest.mark.parametrize("grid", [16, 32])
    @pytest.mark.parametrize("t", [0.0, 1e-6])
    def test_coarse_grid_projection_is_not_a_fail(self, grid, t):
        # at t = 0 the principle holds with equality, and the projection of
        # exp(-f/alpha) onto a coarse grid's modes moved V by up to 507x the
        # projection error at the grid points: most of these failed before
        dom = TorusDomain(grid)
        for alpha in (1.0, 10.0):
            for f in random_fourier_suite(7, 60):
                assert check_extremum_principles(cole_hopf(dom, f, alpha, t)).passed

    def test_coarse_grid_violations_sit_within_the_bound(self):
        # the previous cases are not vacuous: at grid 16 and t = 0 the 1e-12
        # slack alone fails more than half the suite
        dom = TorusDomain(16)
        violations = 0
        for f in random_fourier_suite(7, 60):
            rep = check_extremum_principles(cole_hopf(dom, f, 1.0, 0.0))
            excess = max(rep.inf_f - rep.inf_v, rep.sup_v - rep.sup_f) - 1e-12
            violations += excess > 0
            assert excess <= rep.projection_bound
        assert violations > 30

    @pytest.mark.parametrize("grid", [64, 256])
    def test_fine_grid_verdicts_unchanged(self, grid):
        # the bound widens the 1e-12 slack by round-off only: each verdict is
        # the one the slack alone gives
        dom = TorusDomain(grid)
        rng = np.random.Generator(np.random.Philox(key=(grid, 3)))
        for f in random_fourier_suite(grid, 40):
            rep = check_extremum_principles(
                cole_hopf(dom, f, 1.0, float(rng.choice([0.0, 1e-6, 1e-4, 0.05]))))
            alone = rep.inf_f <= rep.inf_v + 1e-12 and rep.sup_v <= rep.sup_f + 1e-12
            assert rep.passed == alone
            assert rep.projection_bound < 1e-12

    def test_a_shifted_transform_still_fails(self, dom):
        # V moved by alpha log(1.0001), about 1e-4, far above the bound
        field = cole_hopf(dom, bump(), 1.0, 0.0)
        rep = check_extremum_principles(dataclasses.replace(field, transform=field.transform * 1.0001))
        assert not rep.passed
        assert rep.projection_bound < 1e-12

    def test_transform_not_positive_between_grid_points_is_refused(self):
        dom = TorusDomain(16)
        f = random_fourier_suite(0, 20)[9]
        field = cole_hopf(dom, f, 0.3, 0.0)  # positive at the 16 grid points
        with pytest.raises(ArithmeticError, match="between grid points"):
            check_extremum_principles(field)


class TestGradientEstimate:
    def test_constant_zero_bound(self, dom):
        rep = check_gradient_estimate(cole_hopf(dom, FourierFunction.constant(1.0), 1.0, 0.1))
        assert rep.passed and rep.passed_sharp
        assert rep.max_gradient_sq < 1e-20

    def test_cos_strict_margin(self, dom):
        rep = check_gradient_estimate(cole_hopf(dom, bump(), 1.0, 0.05))
        assert rep.passed and rep.passed_sharp
        assert rep.max_gradient_sq < rep.coarse_bound * 0.9

    def test_alpha_whose_square_overflows_is_named(self, dom):
        field = cole_hopf(dom, bump(), 1e308, 0.05)
        with pytest.raises(ArithmeticError, match="alpha = 1e\\+308"):
            check_gradient_estimate(field)

    def test_random_suite_both_forms(self, dom):
        rng = np.random.Generator(np.random.Philox(key=(62, 0)))
        for f in random_fourier_suite(62, 20):
            t = float(rng.uniform(0.0, 0.15))
            alpha = float(rng.uniform(0.5, 3.0))
            rep = check_gradient_estimate(cole_hopf(dom, f, alpha, t))
            assert rep.passed and rep.passed_sharp


class TestFlowProperties:
    def test_semigroup_flow(self, dom):
        # V_{t+s} f = V_t (V_s f) after re-projecting V_s f
        f = bump()
        alpha = 1.3
        s, t = 0.04, 0.06
        direct = cole_hopf(dom, f, alpha, s + t)
        half = cole_hopf(dom, f, alpha, s)
        vs = FourierFunction.from_grid(half.values, max_mode=dom.max_mode)
        two_step = cole_hopf(dom, vs, alpha, t)
        assert np.max(np.abs(direct.values - two_step.values)) < 1e-6

    def test_monotonicity(self, dom):
        f = bump()
        g = f + FourierFunction.from_modes(mean=0.3, cos={2: 0.1})  # g >= f + 0.2
        for t in (0.02, 0.1):
            vf = cole_hopf(dom, f, 1.0, t).values
            vg = cole_hopf(dom, g, 1.0, t).values
            assert np.all(vf <= vg + 1e-10)

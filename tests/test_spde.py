"""Naive conservative integrator: mass exactness, noise scaling, breakdown."""

import numpy as np
import pytest

import dklab.parallel
import dklab.spde
from dklab import (
    FourierFunction,
    TorusDomain,
    first_negativity,
    heat_semigroup,
    make_field,
    negativity_ensemble,
    RngStream,
    stability_limit,
    step,
)
from dklab.rng import REPLICATE_STRIDE
from dklab.spde import DensityField, evolve


@pytest.fixture
def dom():
    return TorusDomain(64)


def initial(dom, fn):
    return fn(dom.grid())


class TestConfiguration:
    def test_stability_violation_rejected(self, dom):
        alpha = 1.5
        with pytest.raises(ValueError, match="stability"):
            make_field(dom, 1.0, dt=2 * stability_limit(dom, alpha), alpha=alpha)

    @pytest.mark.parametrize("name", ["alpha", "dt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_refused(self, dom, name, bad):
        # nan once slipped through to a field that was nan after 3 steps, and
        # an infinite or non-positive alpha was blamed on the stability bound
        args = {"alpha": 1.5, "dt": 1e-5, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {bad!r}"):
            make_field(dom, 1.0, **args)

    def test_accepts_half_stability(self, dom):
        fld = make_field(dom, 1.0, dt=0.5 * stability_limit(dom, 1.5), alpha=1.5)
        assert fld.grid_size == 64
        assert fld.mass() == 1.0


class TestMassConservation:
    def test_exact_per_step(self, dom):
        alpha = 1.5
        fld = make_field(dom, 1.0, 0.5 * stability_limit(dom, alpha), alpha)
        stream = RngStream(1, 0)
        for _ in range(200):
            fld = step(fld, alpha, stream)
            assert abs(fld.mass() - 1.0) < 1e-12

    def test_nonuniform_initial_mass(self, dom):
        alpha = 1.0
        rho = FourierFunction.from_modes(mean=2.0, cos={1: 0.5}, sin={3: 0.2})
        fld = make_field(dom, initial(dom, rho.evaluate), 0.5 * stability_limit(dom, alpha), alpha)
        m0 = fld.mass()
        fld = evolve(fld, alpha, 100, RngStream(2, 0))
        assert abs(fld.mass() - m0) < 1e-12 * abs(m0)


class TestZeroNoiseHeatLimit:
    def test_converges_to_mean(self, dom):
        alpha = 2.0
        rho = FourierFunction.from_modes(mean=1.0, cos={1: 0.5})
        fld = make_field(dom, initial(dom, rho.evaluate), 0.9 * stability_limit(dom, alpha), alpha)
        fld = evolve(fld, alpha, 20000, RngStream(3, 0), noise_scale=0.0)
        assert np.max(np.abs(fld.cell_values - 1.0)) < 1e-6

    def test_matches_spectral_heat_solution(self, dom):
        alpha = 1.0
        rho = FourierFunction.from_modes(mean=1.0, cos={1: 0.4}, sin={2: 0.2})
        dt = 0.5 * stability_limit(dom, alpha)
        steps = 400
        t = dt * steps
        fld = make_field(dom, initial(dom, rho.evaluate), dt, alpha)
        fld = evolve(fld, alpha, steps, RngStream(4, 0), noise_scale=0.0)
        exact = heat_semigroup(rho, alpha, t).sample(dom)
        # O(dx^2 + dt) scheme; dx = 1/64 dominates
        assert np.max(np.abs(fld.cell_values - exact)) < 5 * (dom.dx**2 + dt) * 40


class TestNoiseStatistics:
    def test_single_step_variance_formula(self):
        # Var(update) = 2 dt / dx^3 per cell from a flat unit density;
        # 10^6 independent one-step samples via a batched field
        dom = TorusDomain(8)
        alpha = 1.0
        dt = 0.5 * stability_limit(dom, alpha)
        reps = 10**6
        fld = make_field(dom, np.ones((reps, dom.grid_size)), dt, alpha)
        stepped = step(fld, alpha, RngStream(5, 0))
        samples = (stepped.cell_values - 1.0).ravel()
        target = 2.0 * dt / dom.dx**3
        var = samples.var()
        se = target * np.sqrt(2.0 / samples.size)
        assert abs(var - target) < 4 * se
        assert abs(samples.mean()) < 4 * np.sqrt(target / samples.size)

    def test_same_seed_same_trajectory(self, dom):
        alpha = 1.5
        dt = 0.5 * stability_limit(dom, alpha)
        a = evolve(make_field(dom, 1.0, dt, alpha), alpha, 50, RngStream(6, 0))
        b = evolve(make_field(dom, 1.0, dt, alpha), alpha, 50, RngStream(6, 0))
        assert np.array_equal(a.cell_values, b.cell_values)


def step_by_roll(field, alpha, stream, noise_scale=1.0):
    """spde.step as written with np.roll, before its neighbours were sliced."""
    mu = field.cell_values
    dx = 1.0 / field.grid_size
    dt = field.dt
    mu_right = np.roll(mu, -1, axis=-1)
    diff_flux = (0.5 * alpha / dx) * (mu_right - mu)
    if noise_scale != 0.0:
        xi = stream.generator.standard_normal(mu.size).reshape(mu.shape)
        interface = 0.5 * (mu + mu_right)
        noise_flux = noise_scale * np.sqrt(np.maximum(interface, 0.0)) * xi * np.sqrt(dt / dx)
    else:
        noise_flux = np.zeros_like(mu)
    total = dt * diff_flux + noise_flux
    return mu + (total - np.roll(total, 1, axis=-1)) / dx


class TestStepMatchesRoll:
    @pytest.mark.parametrize("shape", [(256,), (5, 64)])
    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_bits_match(self, shape, noise):
        dom = TorusDomain(shape[-1])
        alpha = 1.3
        dt = 0.5 * stability_limit(dom, alpha)
        rng = np.random.Generator(np.random.Philox(key=(14, shape[0])))
        fld = make_field(dom, rng.uniform(0.0, 2.0, shape), dt, alpha)
        for seed in range(3):
            got = step(fld, alpha, RngStream(seed, 0), noise).cell_values
            want = step_by_roll(fld, alpha, RngStream(seed, 0), noise)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            fld = step(fld, alpha, RngStream(seed, 1), noise)


def evolve_reference(field, alpha, num_steps, stream, noise_scale):
    """num_steps of step_by_roll, each into fresh arrays."""
    for _ in range(num_steps):
        field = DensityField(step_by_roll(field, alpha, stream, noise_scale), field.dt,
                             field.step_count + 1)
    return field


def first_negativity_reference(field, alpha, max_steps, stream, noise_scale):
    for k in range(max_steps + 1):
        neg = np.nonzero(field.cell_values < 0.0)[0]
        if neg.size:
            return k, int(neg[0])
        if k == max_steps:
            return None
        field = evolve_reference(field, alpha, 1, stream, noise_scale)
    return None


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_start(shape, alpha):
    dom = TorusDomain(shape[-1])
    rng = np.random.Generator(np.random.Philox(key=(27, shape[-1] * len(shape))))
    return make_field(dom, rng.uniform(0.5, 1.5, shape), 0.5 * stability_limit(dom, alpha), alpha)


class TestKernelMatchesReference:
    """step, evolve and first_negativity against looping step_by_roll."""

    @pytest.mark.parametrize("shape", [(64,), (256,), (4, 64), (3, 256)], ids=str)
    @pytest.mark.parametrize("noise", [0.0, 0.04, 1.0])
    def test_evolve_and_step(self, shape, noise):
        alpha, steps = 1.3, 240
        start = random_start(shape, alpha)
        before = start.cell_values.copy()
        want = evolve_reference(start, alpha, steps, RngStream(31, 0), noise)
        got = evolve(start, alpha, steps, RngStream(31, 0), noise)
        assert got.step_count == want.step_count == steps
        assert same_bits(got.cell_values, want.cell_values)
        stepped, stream = start, RngStream(31, 0)
        for _ in range(steps):
            stepped = step(stepped, alpha, stream, noise)
        assert stepped.step_count == steps
        assert same_bits(stepped.cell_values, want.cell_values)
        # evolve and step never write into their input
        assert same_bits(start.cell_values, before)
        assert not np.shares_memory(got.cell_values, start.cell_values)

    @pytest.mark.parametrize("grid", [64, 256])
    @pytest.mark.parametrize("noise", [0.0, 0.04, 1.0])
    def test_first_negativity(self, grid, noise):
        alpha, cap = 1.3, 400
        start = random_start((grid,), alpha)
        hits = []
        for seed in range(4):
            want = first_negativity_reference(start, alpha, cap, RngStream(seed, 7), noise)
            assert first_negativity(start, alpha, cap, RngStream(seed, 7), noise) == want
            hits.append(want)
        # not vacuous: full noise breaks down inside the cap, the heat limit never
        if noise == 1.0:
            assert None not in hits
        if noise == 0.0:
            assert hits == [None] * 4


class TestNegativity:
    def test_zero_noise_never_negative(self, dom):
        alpha = 1.5
        fld = make_field(dom, 1.0, 0.5 * stability_limit(dom, alpha), alpha)
        assert first_negativity(fld, alpha, 2000, RngStream(7, 0), noise_scale=0.0) is None

    def test_breakdown_is_fast_at_full_noise(self, dom):
        alpha = 1.5
        rep = negativity_ensemble(
            dom, alpha, 0.5 * stability_limit(dom, alpha), seeds=20,
            max_steps=2000, seed=8,
        )
        assert rep.hits == 20
        assert rep.median_step < 50

    def test_weaker_noise_survives_longer(self, dom):
        # median time-to-negativity weakly increases as the amplitude drops;
        # amplitudes chosen below the one-step-breakdown saturation
        alpha = 1.5
        dt = 0.5 * stability_limit(dom, alpha)
        medians = []
        for lam in (0.04, 0.05, 0.1):
            rep = negativity_ensemble(
                dom, alpha, dt, seeds=30, max_steps=5000, seed=9, noise_scale=lam
            )
            assert rep.hits == 30
            medians.append(rep.median_step)
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[0] > medians[2]

    def test_members_run_on_the_calling_thread(self, dom, monkeypatch):
        # member r owns stream (seed, r * 2**32), so its record is
        # first_negativity on that stream alone, whatever runs the members
        def no_pool(*args, **kwargs):
            raise AssertionError("negativity_ensemble handed its members to run_chunked")

        monkeypatch.setattr(dklab.spde, "run_chunked", no_pool)
        monkeypatch.setattr(dklab.parallel, "run_chunked", no_pool)
        alpha = 1.5
        dt = 0.5 * stability_limit(dom, alpha)
        rep = negativity_ensemble(dom, alpha, dt, seeds=6, max_steps=100, seed=12, noise_scale=0.04)
        fld = make_field(dom, 1.0, dt, alpha)
        assert rep.hit_records == [
            first_negativity(fld, alpha, 100, RngStream(12, r * REPLICATE_STRIDE), 0.04)
            for r in range(6)
        ]

    def test_reports_step_and_cell(self, dom):
        alpha = 1.5
        fld = make_field(dom, 1.0, 0.5 * stability_limit(dom, alpha), alpha)
        hit = first_negativity(fld, alpha, 2000, RngStream(10, 0))
        assert hit is not None
        step_idx, cell = hit
        assert step_idx >= 1
        assert 0 <= cell < dom.grid_size

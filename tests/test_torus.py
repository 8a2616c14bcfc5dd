"""Domain, Fourier calculus and heat-flow contracts."""

import json
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dklab import (
    FourierFunction,
    TorusDomain,
    carre_du_champ,
    fourier_moments,
    generator_L,
    heat_semigroup,
    product,
    random_fourier_suite,
    wrap,
)
from dklab import torus
from dklab.torus import TWO_PI, _fourier_moments_into
from oracles import gamma_by_defining_identity

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "frozen.json"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURES.read_text())


def grid(n=1024):
    return np.arange(n) / n


class TestTorusDomain:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TorusDomain(100)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            TorusDomain(4)

    def test_wrap_reduces_mod_one(self):
        x = np.array([-0.25, 0.0, 1.25, 3.5])
        assert np.array_equal(wrap(x), [0.75, 0.0, 0.25, 0.5])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    1e-300, -1e-300, 2.0**-60, -(2.0**-60), 1.0, -1.0, -0.5, -(1 - 2.0**-53),
    2.0**52, -(2.0**52), 2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**53 + 2, -(2.0**60), 1e300, -1e300,
]


class TestWrapMatchesMod:
    """wrap against np.mod(x, 1.0), the expression it replaced, bit for bit."""

    @staticmethod
    def check(x):
        x = np.asarray(x, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, fmod(inf)
            want = np.mod(x, 1.0)
            got = wrap(x)
        assert np.array_equal(bits(got), bits(want))

    def test_specials(self):
        self.check(SPECIAL)
        for v in SPECIAL:
            self.check(v)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=50))
    def test_any_double(self, xs):
        self.check(xs)

    def test_every_scale(self):
        rng = np.random.Generator(np.random.Philox(key=(8, 8)))
        mags = 10.0 ** rng.uniform(-320.0, 20.0, 200_000)
        self.check(rng.choice([-1.0, 1.0], mags.size) * mags)
        self.check(rng.uniform(-3.0, 4.0, (40, 50)))  # as the duality pairing passes them


class TestFourierFunction:
    def test_evaluation_is_exact(self):
        f = FourierFunction.from_modes(mean=2.0, cos={1: 0.5}, sin={3: -0.25})
        x = grid()
        expected = 2.0 + 0.5 * np.cos(2 * np.pi * x) - 0.25 * np.sin(6 * np.pi * x)
        assert np.allclose(f.evaluate(x), expected, atol=1e-14)

    def test_sample_matches_evaluate(self):
        dom = TorusDomain(64)
        f = FourierFunction.from_modes(mean=1.0, cos={2: 0.3}, sin={5: 0.7})
        assert np.allclose(f.sample(dom), f.evaluate(dom.grid()), atol=1e-13)

    def test_from_grid_roundtrip(self):
        dom = TorusDomain(128)
        f = FourierFunction.from_modes(mean=0.2, cos={1: 1.0, 7: 0.1}, sin={3: -0.4})
        g = FourierFunction.from_grid(f.sample(dom))
        assert abs(g.mean - f.mean) < 1e-14
        assert np.allclose(g.cos_coeffs[:7], f.cos_coeffs, atol=1e-13)

    def test_unequal_coefficient_lengths_zero_pad(self):
        f = FourierFunction(1.0, [0.5, 0.25, 0.125], [2.0])
        assert f.cos_coeffs.tolist() == [0.5, 0.25, 0.125]
        assert f.sin_coeffs.tolist() == [2.0, 0.0, 0.0]
        g = FourierFunction(1.0, 3.0, np.array([0.5, 0.25]))
        assert g.cos_coeffs.tolist() == [3.0, 0.0]
        assert g.sin_coeffs.tolist() == [0.5, 0.25]

    def test_coefficients_are_copies(self):
        # the equal-length case skips np.pad, which used to make the copy
        a, b = np.array([0.5, 0.25]), np.array([1.0, 2.0])
        f = FourierFunction(0.0, a, b)
        a[0] = b[0] = 9.0
        assert f.cos_coeffs.tolist() == [0.5, 0.25]
        assert f.sin_coeffs.tolist() == [1.0, 2.0]

    def test_product_is_exact(self):
        f = FourierFunction.from_modes(cos={1: 1.0})
        fg = product(f, f)  # cos^2 = 1/2 + cos(2.)/2
        assert abs(fg.mean - 0.5) < 1e-14
        assert abs(fg.cos_coeffs[1] - 0.5) < 1e-14
        assert np.all(np.abs(fg.sin_coeffs) < 1e-14)


def evaluate_per_mode(f, x):
    """FourierFunction.evaluate as the term-by-term loop it was before it
    added all the terms of a block at once: the reference it must match
    bit for bit."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, f.mean)
    for k in range(1, f.max_mode + 1):
        a = f.cos_coeffs[k - 1]
        b = f.sin_coeffs[k - 1]
        if a == 0.0 and b == 0.0:
            continue
        ang = TWO_PI * k * x
        if a != 0.0:
            out += a * np.cos(ang)
        if b != 0.0:
            out += b * np.sin(ang)
    return out if out.shape else float(out)


class TestEvaluateMatchesPerMode:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_mode=st.integers(0, 8),
        shape=st.lists(st.integers(1, 6), min_size=0, max_size=3),
        zero_cos=st.lists(st.booleans(), min_size=8, max_size=8),
        zero_sin=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @example(seed=1, max_mode=0, shape=[], zero_cos=[False] * 8, zero_sin=[False] * 8)
    @example(seed=2, max_mode=8, shape=[], zero_cos=[True] * 8, zero_sin=[False] * 8)
    @example(seed=3, max_mode=8, shape=[3, 4, 5], zero_cos=[True, False] * 4,
             zero_sin=[True, True, False, False] * 2)
    @example(seed=4, max_mode=5, shape=[7], zero_cos=[True] * 8, zero_sin=[True] * 8)
    def test_bits_match(self, seed, max_mode, shape, zero_cos, zero_sin):
        f = random_fourier_suite(seed, 1, max_mode=max_mode)[0]
        a, b = f.cos_coeffs.copy(), f.sin_coeffs.copy()
        a[np.array(zero_cos[:max_mode], dtype=bool)] = 0.0
        b[np.array(zero_sin[:max_mode], dtype=bool)] = 0.0
        f = FourierFunction(f.mean, a, b)
        rng = np.random.Generator(np.random.Philox(key=(seed, 2)))
        x = rng.uniform(-3.0, 4.0, shape)
        got, want = f.evaluate(x), evaluate_per_mode(f, x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(bits(got), bits(want))
        if not shape:
            assert np.array_equal(bits(f.evaluate(float(x))), bits(want))

    @pytest.mark.parametrize("eval_bytes", [None, 1, 8 * 3 * 450])
    def test_bits_match_up_to_300_modes(self, eval_bytes, monkeypatch):
        # evaluate takes the points in blocks of at least two points and at
        # most _EVAL_BYTES of terms and angles: 1 byte gives blocks of two
        # (and a last block of one, summed by the single-column path),
        # 10800 bytes blocks of three or more
        if eval_bytes is not None:
            monkeypatch.setattr(torus, "_EVAL_BYTES", eval_bytes)
        rng = np.random.Generator(np.random.Philox(key=(19, 3)))
        specials = [np.nan, np.inf, -np.inf, 1e300, -0.0]
        for case in range(120):
            modes = int(rng.integers(0, 301))
            a = rng.standard_normal(modes) * (rng.random(modes) < 0.6)
            b = rng.standard_normal(modes) * (rng.random(modes) < 0.6)
            f = FourierFunction(rng.standard_normal(), a, b)
            shape = [(), (int(rng.integers(0, 8)),), (3, int(rng.integers(1, 5)))][case % 3]
            x = rng.uniform(-3.0, 4.0, shape)
            if case % 4 == 0 and x.size:
                x.flat[-1] = specials[case % len(specials)]
            with np.errstate(invalid="ignore"):  # cos and sin of inf
                got, want = f.evaluate(x), evaluate_per_mode(f, x)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want)), (modes, shape)

    def test_memory_bounded_by_blocks(self):
        rng = np.random.Generator(np.random.Philox(key=(19, 4)))
        f = FourierFunction(0.5, rng.standard_normal(2047), rng.standard_normal(2047))
        x = rng.uniform(0.0, 1.0, 4096)
        f.evaluate(x[:8])
        tracemalloc.start()
        try:
            f.evaluate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's terms, angles and cos/sin rows, and the output; the
        # whole table of terms would take 2 * 2047 * 4096 * 8 = 134 MB
        assert peak <= 3 * torus._EVAL_BYTES + x.nbytes


class TestFourierMoments:
    """The moments pairing against the pointwise evaluation it replaces."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_mode=st.integers(0, 8),
        which=st.sampled_from(["f", "L", "Gamma"]),
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    )
    @example(seed=1, max_mode=0, which="f", shape=[3, 4, 1])
    @example(seed=2, max_mode=0, which="Gamma", shape=[2, 3, 1])
    @example(seed=3, max_mode=8, which="Gamma", shape=[4, 6, 1])
    @example(seed=4, max_mode=8, which="L", shape=[2, 7, 5])
    def test_pairing_matches_evaluate(self, seed, max_mode, which, shape):
        f = random_fourier_suite(seed, 1, max_mode=max_mode)[0]
        g = {"f": f, "L": generator_L(f), "Gamma": carre_du_champ(f)}[which]
        rng = np.random.Generator(np.random.Philox(key=(seed, 1)))
        x = rng.uniform(-3.0, 4.0, shape)  # unwrapped, as the path drivers pass them
        tol = 1e-12 * (
            1.0 + abs(g.mean) + np.abs(g.cos_coeffs).sum() + np.abs(g.sin_coeffs).sum()
        )
        got = g.pair_moments(fourier_moments(x, g.max_mode))
        want = g.evaluate(x).mean(axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= tol)

    def test_mass_and_order(self):
        m = fourier_moments(np.array([[0.1, 0.7, 0.2]]), 4)
        assert m.shape == (1, 5)
        assert m[0, 0] == 1.0
        with pytest.raises(ValueError, match="mode 3"):
            FourierFunction.from_modes(cos={3: 1.0}).pair_moments(m[..., :3])

    # one point (x.size == 1) is the case to keep: numpy rounds a one-point
    # product taken in place otherwise, and both bodies take the same products
    # in place (the squarings of e1, modes 3 and up) and mode 2 out of place
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_mode=st.integers(0, 6),
        layout=st.sampled_from(["1-D", "2-D", "strided"]),
        rows=st.integers(1, 9),
        points=st.integers(1, 40),
        spare=st.integers(0, 50),
    )
    @example(seed=1, max_mode=2, layout="1-D", rows=1, points=1, spare=0)
    @example(seed=2, max_mode=6, layout="strided", rows=1, points=1, spare=3)
    @example(seed=3, max_mode=6, layout="2-D", rows=9, points=40, spare=0)
    def test_buffered_moments_match_fresh_arrays(
        self, seed, max_mode, layout, rows, points, spare
    ):
        rng = np.random.Generator(np.random.Philox(key=(seed, 3)))
        if layout == "1-D":
            x = rng.uniform(-3.0, 4.0, points)
        elif layout == "2-D":
            x = rng.uniform(-3.0, 4.0, (rows, points))
        else:  # the final states of a path chunk, x[:, :, -1]
            x = rng.uniform(-3.0, 4.0, (rows, points, 7))[:, :, -1]
        want = fourier_moments_with_fresh_arrays(x, max_mode)
        e1 = np.full(x.size + spare, np.nan, dtype=complex)
        ek = np.full(x.size + spare, np.nan, dtype=complex)
        for _ in range(2):  # the second call finds the first call's values
            got = _fourier_moments_into(x, max_mode, e1, ek)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        fresh = fourier_moments(x, max_mode)
        assert np.array_equal(fresh.view(np.uint64), want.view(np.uint64))
        assert np.isnan(e1[x.size :]).all() and np.isnan(ek[x.size :]).all()

    def test_phase_near_exact_at_every_scale(self):
        """Mode 1 of each point against a long-double exp(2 pi i x), within
        1e-15 at every |x| up to 1e6 and at the exact eighths.

        Measured: 6.4e-16 to 7.2e-16 at every scale, where rounding 2 pi x
        before a complex exp gave 8.1e-14 at |x| = 1e2, 6.1e-12 at 1e4 and
        7.1e-10 at 1e6."""
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("needs a 64-bit long double significand")
        rng = np.random.Generator(np.random.Philox(key=(23, 1)))
        eighths = np.arange(-64, 65) / 8
        for x in [rng.uniform(-s, s, 20000) for s in (1.0, 1e2, 1e4, 1e6)] + [
            eighths, eighths + 1e6
        ]:
            got = fourier_moments(x[:, None], 1)[:, 1]
            ang = 2 * np.arccos(np.longdouble(-1)) * (x - np.rint(x)).astype(np.longdouble)
            err = np.hypot(got.real - np.cos(ang), got.imag - np.sin(ang))
            assert err.max() <= 1e-15, np.abs(x).max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_mode=st.integers(1, 8),
        points=st.sampled_from([1, 2, 3, 40]),
        rows=st.integers(1, 5),
    )
    @example(seed=1, max_mode=8, points=1, rows=1)
    @example(seed=2, max_mode=8, points=40, rows=5)
    def test_close_to_the_complex_exp(self, seed, max_mode, points, rows):
        """Within the old body's phase error at mode 1, one unit in the last
        place of 2 pi |x| <= 8 pi (half of it for rounding the product, less
        than half for the constant 2 pi's error times |x| <= 4), plus 8 eps
        for the two bodies' cos, sin, exp and multiplies; k times that at
        mode k.  Measured: up to 2.9e-15 k for one point and 3.1e-15 for
        rows of 40 points."""
        rng = np.random.Generator(np.random.Philox(key=(seed, 7)))
        x = rng.uniform(-3.0, 4.0, (rows, points))
        new = fourier_moments(x, max_mode)
        old = fourier_moments_by_complex_exp(x, max_mode)
        eps = np.finfo(float).eps
        tol = np.arange(max_mode + 1) * (np.spacing(TWO_PI * 4.0) + 8 * eps)
        assert np.all(np.abs(new - old) <= tol)

    def test_point_does_not_depend_on_its_batch(self):
        """A point's moments, bit for bit, in arrays of 2 to 70, 300 and
        1000 points, each at a run of offsets into a longer array.

        One-point arrays are the exception: numpy multiplies one element in
        place through its scalar loop, which rounds otherwise."""
        rng = np.random.Generator(np.random.Philox(key=(29, 3)))
        pts = np.concatenate([rng.uniform(-3.0, 4.0, 1100), np.arange(-16, 17) / 8])
        want = fourier_moments(pts[:, None], 6)
        for size in [*range(2, 71), 300, 1000]:
            for start in range(0, pts.size - size + 1, max(1, size // 3)):
                got = fourier_moments(pts[start : start + size, None], 6)
                assert np.array_equal(
                    got.view(np.uint64), want[start : start + size].view(np.uint64)
                ), (size, start)


def fourier_moments_with_fresh_arrays(x, max_mode):
    """fourier_moments with a fresh array for each step, in place of buffers."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (max_mode + 1,), dtype=complex)
    out[..., 0] = 1.0
    if max_mode < 1:
        return out
    theta = (x - np.rint(x)) * (np.pi / 2)
    e1 = np.empty(x.shape, dtype=complex)
    e1.real = np.cos(theta)
    e1.imag = np.sin(theta)
    e1 *= e1
    e1 *= e1
    ek = e1
    for k in range(1, max_mode + 1):
        if k == 2:
            ek = e1 * e1
        elif k > 2:
            ek *= e1
        sums = np.add.reduce(ek, axis=-1)
        out[..., k].real = sums.real * (1.0 / x.shape[-1])
        out[..., k].imag = sums.imag * (1.0 / x.shape[-1])
    return out


def fourier_moments_by_complex_exp(x, max_mode):
    """fourier_moments as it was before it reduced x: exp(2 pi i x) of
    the unreduced positions."""
    x = np.asarray(x, dtype=float)
    w = np.full(x.shape[-1], 1.0 / x.shape[-1])
    out = np.empty(x.shape[:-1] + (max_mode + 1,), dtype=complex)
    out[..., 0] = w.sum()
    e1 = np.exp((1j * TWO_PI) * x)
    ek = e1.copy()
    for k in range(1, max_mode + 1):
        if k > 1:
            ek *= e1
        out[..., k] = np.einsum("...j,j->...", ek, w)
    return out


def extrema_by_evaluate(f, n_points=4096):
    """FourierFunction.extrema as it was before it sampled by inverse FFT."""
    n = max(n_points, 8 * (f.max_mode + 1))
    x = np.arange(n) / n
    v = f.evaluate(x)
    return float(v.min()), float(v.max())


class TestExtremaMatchEvaluate:
    """Extrema from one inverse FFT against pointwise evaluation on the same points."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_mode=st.integers(0, 40),
        gamma=st.booleans(),
        n_points=st.one_of(
            st.integers(0, 14).map(lambda e: 2**e),
            st.integers(0, 3000).map(lambda k: 2 * k + 1),
            st.integers(-3, 9000),
        ),
    )
    @example(seed=1, max_mode=0, gamma=False, n_points=4096)  # a constant
    @example(seed=2, max_mode=0, gamma=True, n_points=1)  # the zero function
    @example(seed=3, max_mode=40, gamma=True, n_points=7)  # n raised to 8 * 81
    @example(seed=4, max_mode=40, gamma=False, n_points=329)  # odd, just above 8 * 41
    @example(seed=5, max_mode=3, gamma=False, n_points=31)  # odd, below 8 * 4
    def test_extrema_match(self, seed, max_mode, gamma, n_points):
        f = random_fourier_suite(seed, 1, max_mode=max_mode)[0]
        if gamma:
            f = carre_du_champ(f)
        tol = 1e-13 * (
            1.0 + abs(f.mean) + np.abs(f.cos_coeffs).sum() + np.abs(f.sin_coeffs).sum()
        )
        got, want = f.extrema(n_points), extrema_by_evaluate(f, n_points)
        assert all(type(v) is float for v in got)
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol

    def test_constant_default_points(self):
        assert FourierFunction.constant(2.5).extrema() == (2.5, 2.5)


class TestGenerator:
    def test_constant_maps_to_zero(self):
        out = generator_L(FourierFunction.constant(5.0))
        assert out.mean == 0.0
        assert np.allclose(out.evaluate(grid()), 0.0)

    def test_cos_eigenfunction(self):
        f = FourierFunction.from_modes(cos={1: 1.0})
        out = generator_L(f)
        assert np.allclose(out.evaluate(grid()), -4 * np.pi**2 * np.cos(2 * np.pi * grid()), atol=1e-10)

    def test_sin_two_eigenfunction(self):
        f = FourierFunction.from_modes(sin={2: 1.0})
        out = generator_L(f)
        assert np.allclose(out.evaluate(grid()), -16 * np.pi**2 * np.sin(4 * np.pi * grid()), atol=1e-9)

    def test_laplacian_has_zero_mean(self):
        for f in random_fourier_suite(3, 5):
            assert generator_L(f).mean == 0.0


class TestHeatSemigroup:
    def test_constant_fixed_point(self):
        dom = TorusDomain(64)
        f = FourierFunction.constant(3.3)
        for t in (0.0, 0.1, 2.0):
            out = heat_semigroup(f, 1.0, t)
            assert out.mean == 3.3
            assert np.allclose(out.evaluate(grid()), 3.3)

    def test_eigenfunction_decay(self):
        dom = TorusDomain(64)
        f = FourierFunction.from_modes(cos={1: 1.0})
        t = 0.13
        out = heat_semigroup(f, 1.0, t)
        assert abs(out.cos_coeffs[0] - np.exp(-2 * np.pi**2 * t)) < 1e-15

    def test_negative_time_rejected(self):
        dom = TorusDomain(64)
        with pytest.raises(ValueError):
            heat_semigroup(FourierFunction.constant(1.0), 1.0, -0.1)

    def test_matches_fd_oracle(self, frozen):
        # frozen explicit-Euler solve on 4096 cells (see make_fixtures.py)
        dom = TorusDomain(4096)
        f = FourierFunction.from_modes(cos={1: 1.0}, sin={2: 1.0})
        out = heat_semigroup(f, diffusivity=2.0, t=0.1)
        ref = frozen["heat_fd"]
        assert abs(out.mean - ref["mean"]) < 1e-6
        assert abs(out.cos_coeffs[0] - ref["a1"]) < 1e-6
        assert abs(out.sin_coeffs[1] - ref["b2"]) < 1e-6
        assert abs(out.sin_coeffs[0] - ref["b1"]) < 1e-6
        assert abs(out.cos_coeffs[1] - ref["a2"]) < 1e-6

    def test_semigroup_property_exact_on_coefficients(self):
        dom = TorusDomain(64)
        for f in random_fourier_suite(11, 4):
            one = heat_semigroup(heat_semigroup(f, 1.7, 0.03), 1.7, 0.07)
            two = heat_semigroup(f, 1.7, 0.10)
            denom = np.maximum(np.abs(two.cos_coeffs), 1e-300)
            assert np.all(np.abs(one.cos_coeffs - two.cos_coeffs) / denom < 1e-12)
            denom = np.maximum(np.abs(two.sin_coeffs), 1e-300)
            assert np.all(np.abs(one.sin_coeffs - two.sin_coeffs) / denom < 1e-12)

    def test_mass_conservation(self):
        dom = TorusDomain(64)
        for f in random_fourier_suite(12, 6):
            assert heat_semigroup(f, 2.5, 0.4).mean == f.mean

    def test_overflowing_exponent_damps_to_zero_without_a_warning(self):
        f = FourierFunction.from_modes(mean=0.7, cos={1: 1.0}, sin={3: 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = heat_semigroup(f, 1e308, 0.05)
        assert out.mean == 0.7
        assert not out.cos_coeffs.any() and not out.sin_coeffs.any()


class TestCarreDuChamp:
    def test_constant_gives_zero(self):
        g = FourierFunction.from_modes(cos={2: 1.0})
        out = carre_du_champ(FourierFunction.constant(4.0), g)
        assert np.allclose(out.evaluate(grid()), 0.0, atol=1e-14)

    def test_sin_squared_gradient(self):
        f = FourierFunction.from_modes(sin={1: 1.0})
        out = carre_du_champ(f)
        x = grid()
        assert np.allclose(out.evaluate(x), 4 * np.pi**2 * np.cos(2 * np.pi * x) ** 2, atol=1e-9)

    def test_nonnegative(self):
        for f in random_fourier_suite(21, 6):
            lo, _ = carre_du_champ(f).extrema()
            assert lo >= -1e-10

    def test_defining_identity(self):
        # Gamma(f,g) = (1/2)(L(fg) - f Lg - g Lf), evaluated spectrally
        fs = random_fourier_suite(31, 3)
        gs = random_fourier_suite(32, 3)
        x = grid(2048)
        for f, g in zip(fs, gs):
            direct = carre_du_champ(f, g).evaluate(x)
            identity = gamma_by_defining_identity(f, g).evaluate(x)
            assert np.max(np.abs(direct - identity)) < 1e-10


class TestDiffusionAndGradientProperties:
    def test_diffusion_property_square(self):
        # L(f^2) = 2 f Lf + 2 Gamma f for psi(u) = u^2
        x = grid(2048)
        for f in random_fourier_suite(41, 5):
            lhs = generator_L(product(f, f)).evaluate(x)
            rhs = 2 * product(f, generator_L(f)).evaluate(x) + 2 * carre_du_champ(f).evaluate(x)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_gradient_bound_flat_space(self):
        # Gamma(P_t f) <= P_t(Gamma f), pointwise, zero-curvature case
        dom = TorusDomain(128)
        x = grid(1024)
        rng = np.random.Generator(np.random.Philox(key=(51, 0)))
        for f in random_fourier_suite(51, 8):
            t = float(rng.uniform(0.001, 0.3))
            ptf = heat_semigroup(f, 1.0, t)
            lhs = carre_du_champ(ptf).evaluate(x)
            rhs = heat_semigroup(carre_du_champ(f), 1.0, t).evaluate(x)
            assert np.all(lhs <= rhs + 1e-10)

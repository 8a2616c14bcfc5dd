"""Laplace-duality Monte Carlo against the Cole-Hopf right-hand side."""

import tracemalloc

import numpy as np
import pytest

from dklab import duality
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
from dklab.torus import wrap
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

    @pytest.mark.parametrize("replicates", [2, 3, 1001])
    def test_replicates_must_make_two_antithetic_pairs(self, dom, replicates):
        with pytest.raises(ValueError, match=f"replicates: {replicates} given"):
            run_duality_test(1, EmpiricalMeasure([0.5]), bump(), 0.05, replicates, 3, dom=dom)

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


class TestPieces:
    """The pairs of a cell are walked in pieces of at most _PIECE_BYTES of
    draws: whole blocks where one fits, else at least one pair."""

    @pytest.mark.parametrize("n", [3, 9])
    def test_piece_size_does_not_change_the_report(self, dom, n, monkeypatch):
        # 1001 pairs; n = 9 puts more atoms in a pair than numpy sums in
        # one unrolled block, so a sum over atoms that depended on the
        # number of pairs in its piece would show
        f = FourierFunction.from_modes(mean=0.4, cos={1: 0.3, 4: -0.2}, sin={2: 0.25, 5: 0.1})
        args = (n, equally_spaced_atoms(n), f, 0.03, 2002, 2**63 + 5)
        want = run_duality_test(*args, dom=dom)
        # a pair a piece, then 333 pairs (a last piece of 2), then 7 (143 full pieces)
        for piece_bytes in (1, 8 * n * 333 + 5, 8 * n * 7):
            monkeypatch.setattr(duality, "_PIECE_BYTES", piece_bytes)
            assert run_duality_test(*args, dom=dom) == want

    def test_pieces_of_one_block_give_the_same_report(self, dom, monkeypatch):
        # 3077 pairs at n = 2: one piece of 8 blocks by default, four
        # pieces (the last of 5 pairs) at one block a piece
        f = default_f_suite()[2][1]
        args = (2, equally_spaced_atoms(2), f, 0.05, 6154, 2**63 + 9)
        want = run_duality_test(*args, dom=dom)
        monkeypatch.setattr(duality, "_PIECE_BYTES", 8 * 2 * 1024)
        assert run_duality_test(*args, dom=dom) == want

    def test_thread_count_does_not_change_the_report(self, dom, monkeypatch):
        args = (3, equally_spaced_atoms(3), bump(), 0.04, 2 * 2100, 17)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DKLAB_THREADS", threads)
            reports.append(run_duality_test(*args, dom=dom))
        assert reports[0] == reports[1]

    def test_peak_memory_does_not_grow_with_replicates(self, dom):
        # n = 2: pieces of 8192 pairs, so both runs take many full pieces
        mu0 = equally_spaced_atoms(2)
        f = default_f_suite()[2][1]

        def peak(replicates):
            tracemalloc.start()
            try:
                run_duality_test(2, mu0, f, 0.05, replicates, 12, dom=dom)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # first-call allocations are not piece memory
        small, large = peak(2 * 10**5), peak(4 * 10**5)
        values = 8 * (4 * 10**5 - 2 * 10**5) // 2  # one float64 a pair
        assert large - small <= values + 64 * 1024

    def test_peak_memory_does_not_grow_with_alpha(self, dom):
        # at alpha = 256 a block of draws is 2 MiB, so the pieces (64 pairs
        # at the default cap) must be smaller than a block: pieces of one
        # whole block would peak at 12.7 MB here
        mu0 = equally_spaced_atoms(256)
        f = default_f_suite()[2][1]
        run_duality_test(256, mu0, f, 0.01, 200, 12, dom=dom)
        tracemalloc.start()
        try:
            run_duality_test(256, mu0, f, 0.01, 4096, 12, dom=dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 10**6, peak


def pairings_long_double(f, x0, step):
    """mean_i f(x0_i +- s_i) in long double, for float64 atoms and steps.

    x0 + (s - rint s) is exact in a 64-bit significand, and k x is reduced
    by its nearest integer before it is scaled by 2 pi.
    """
    ld = np.longdouble
    two_pi = 2 * np.arccos(ld(-1))
    turns = (step - np.rint(step)).astype(ld)
    out = []
    for sign in (1, -1):
        x = x0.astype(ld) + sign * turns
        acc = np.full(x.shape, ld(f.mean))
        for k in range(1, f.max_mode + 1):
            kx = k * x
            ang = two_pi * (kx - np.rint(kx))
            acc += ld(f.cos_coeffs[k - 1]) * np.cos(ang) + ld(f.sin_coeffs[k - 1]) * np.sin(ang)
        out.append(acc.mean(axis=1))
    return out


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="needs a 64-bit long double significand"
)
class TestPairingAccuracy:
    """The antithetic pairing against a long-double reference of f(x0 +- s).

    The unit is eps (|mean| + sum_k |a_k| + |b_k|), with every coefficient
    uniform on [-1, 1] and no decay in k.  The error of mode k grows like
    k eps, from the rounding of the angle, so a function carried by its
    top mode alone sees more: up to about 20 units at mode 64 alone,
    where f(wrap(x0 + s)) sees over 100 even at small alpha t.
    """

    TIMES = 10.0 ** np.arange(-4, 7)  # alpha t
    PAIRS = 12  # a time

    def worst(self):
        rng = np.random.Generator(np.random.Philox(key=(19, 5)))
        eps = np.finfo(float).eps
        new, old = np.zeros(self.TIMES.size), np.zeros(self.TIMES.size)
        for _ in range(120):
            modes, n = int(rng.integers(1, 65)), int(rng.integers(1, 7))
            f = FourierFunction(rng.uniform(-1, 1), rng.uniform(-1, 1, modes),
                                rng.uniform(-1, 1, modes))
            unit = eps * (abs(f.mean) + np.abs(f.cos_coeffs).sum() + np.abs(f.sin_coeffs).sum())
            x0 = rng.uniform(0, 1, n)
            spread = np.repeat(np.sqrt(self.TIMES), self.PAIRS)[:, None]
            step = spread * rng.standard_normal((spread.size, n))
            want = pairings_long_double(f, x0, step)
            got = duality._antithetic_pairings(f.mean, duality._shift_table(f, x0), step.copy())
            today = [f.evaluate(wrap(x0 + sign * step)).mean(axis=1) for sign in (1, -1)]
            for errs, pair in ((new, got), (old, today)):
                err = np.maximum(*(np.abs(p - w).astype(float) for p, w in zip(pair, want)))
                errs[:] = np.maximum(errs, err.reshape(self.TIMES.size, -1).max(axis=1) / unit)
        return new, old

    def test_within_16_eps_at_every_time(self):
        new, old = self.worst()
        assert (new <= 16).all(), dict(zip(self.TIMES, new))
        # evaluating f at wrap(x0 + s) rounds x0 + s first and loses the
        # bits of x0 below the ulp of s: that is why the digests moved
        assert (old[self.TIMES >= 1e2] > 16).all(), dict(zip(self.TIMES, old))


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

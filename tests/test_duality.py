"""Laplace-duality Monte Carlo against the Cole-Hopf right-hand side."""

import sys
import threading
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
    laplace_rhs,
    pass_rate,
    run_duality_test,
    sweep,
)
from dklab.torus import wrap
from oracles import antithetic_pairings_allocating, kernel_quadrature


def bump():
    return FourierFunction.from_modes(mean=1.0, cos={1: 0.5})


class TestSingleCell:
    def test_time_zero_exact(self):
        mu0 = equally_spaced_atoms(2)
        rep = run_duality_test(2, mu0, bump(), 0.0, 1000, seed=1)
        expected = np.exp(-np.mean(bump().evaluate(mu0.positions)))
        assert rep.mc_stderr <= 1e-16  # pure summation round-off
        assert abs(rep.mc_mean - expected) < 1e-14
        assert abs(rep.rhs - expected) < 1e-9
        assert rep.verdict

    def test_constant_f_exact(self):
        mu0 = equally_spaced_atoms(3)
        rep = run_duality_test(3, mu0, FourierFunction.constant(0.7), 0.08, 1000, seed=2)
        assert abs(rep.mc_mean - np.exp(-0.7)) < 1e-12
        assert abs(rep.rhs - np.exp(-0.7)) < 1e-9
        assert rep.verdict

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            run_duality_test(1.5, EmpiricalMeasure([0.5]), bump(), 0.05, 100, 3)

    def test_atom_count_checked(self):
        with pytest.raises(ValueError, match="atoms"):
            run_duality_test(2, EmpiricalMeasure([0.5]), bump(), 0.05, 100, 3)

    def test_spread_past_2_to_38_refused(self):
        mu0 = EmpiricalMeasure([0.25, 0.75])
        with pytest.raises(ValueError, match="fractional bits"):
            run_duality_test(2, mu0, bump(), np.nextafter(2.0**37, np.inf), 100, 3)

    @pytest.mark.parametrize("replicates", [2, 3, 1001])
    def test_replicates_must_make_two_antithetic_pairs(self, replicates):
        with pytest.raises(ValueError, match=f"replicates: {replicates} given"):
            run_duality_test(1, EmpiricalMeasure([0.5]), bump(), 0.05, replicates, 3)

    def test_single_particle_against_quadrature(self):
        # n = 1 closed form: E exp(-f(X_t)) = integral of the wrapped kernel
        # against exp(-f); fully independent of the Cole-Hopf code path
        f = bump()
        t = 0.05
        rep = run_duality_test(1, EmpiricalMeasure([0.5]), f, t, 10**5, seed=4)
        quad = kernel_quadrature(lambda y: np.exp(-f.evaluate(y)), 0.5, t)
        assert abs(rep.mc_mean - quad) <= 3 * rep.mc_stderr
        # and the Cole-Hopf rhs agrees with the quadrature to solver accuracy
        assert abs(rep.rhs - quad) < 1e-8

    def test_in_unit_interval_for_nonnegative_f(self):
        rep = run_duality_test(2, equally_spaced_atoms(2), bump(), 0.05, 4000, 5)
        assert 0.0 < rep.mc_mean <= 1.0
        assert 0.0 < rep.rhs <= 1.0

    def test_deterministic(self):
        one = run_duality_test(2, equally_spaced_atoms(2), bump(), 0.05, 2000, 7)
        two = run_duality_test(2, equally_spaced_atoms(2), bump(), 0.05, 2000, 7)
        assert one == two

    def test_monotone_in_f(self):
        # pointwise larger f pushes both sides down; with common random
        # numbers the Monte Carlo side is monotone replicate by replicate
        f = bump()
        g = f + FourierFunction.constant(0.25)
        mu0 = equally_spaced_atoms(2)
        rf = run_duality_test(2, mu0, f, 0.05, 4000, 8)
        rg = run_duality_test(2, mu0, g, 0.05, 4000, 8)
        assert rg.mc_mean < rf.mc_mean
        assert rg.rhs < rf.rhs


class TestPieces:
    """The pairs of a cell are walked in pieces of at most _PIECE_BYTES of
    draws: whole blocks where one fits, else at least one pair."""

    @pytest.mark.parametrize("n", [3, 9])
    def test_piece_size_does_not_change_the_report(self, n, monkeypatch):
        # 1001 pairs; n = 9 puts more atoms in a pair than numpy sums in
        # one unrolled block, so a sum over atoms that depended on the
        # number of pairs in its piece would show
        f = FourierFunction.from_modes(mean=0.4, cos={1: 0.3, 4: -0.2}, sin={2: 0.25, 5: 0.1})
        args = (n, equally_spaced_atoms(n), f, 0.03, 2002, 2**63 + 5)
        want = run_duality_test(*args)
        # a pair a piece, then 333 pairs (a last piece of 2), then 7 (143 full pieces)
        for piece_bytes in (1, 8 * n * 333 + 5, 8 * n * 7):
            monkeypatch.setattr(duality, "_PIECE_BYTES", piece_bytes)
            assert run_duality_test(*args) == want

    def test_pieces_of_one_block_give_the_same_report(self, monkeypatch):
        # 3077 pairs at n = 2: one piece of 8 blocks by default, four
        # pieces (the last of 5 pairs) at one block a piece
        f = default_f_suite()[2][1]
        args = (2, equally_spaced_atoms(2), f, 0.05, 6154, 2**63 + 9)
        want = run_duality_test(*args)
        monkeypatch.setattr(duality, "_PIECE_BYTES", 8 * 2 * 1024)
        assert run_duality_test(*args) == want

    def test_thread_count_does_not_change_the_report(self, monkeypatch):
        args = (3, equally_spaced_atoms(3), bump(), 0.04, 2 * 2100, 17)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DKLAB_THREADS", threads)
            reports.append(run_duality_test(*args))
        assert reports[0] == reports[1]

    def test_peak_memory_does_not_grow_with_replicates(self):
        # n = 2: pieces of 8192 pairs, so both runs take many full pieces
        mu0 = equally_spaced_atoms(2)
        f = default_f_suite()[2][1]

        def peak(replicates):
            tracemalloc.start()
            try:
                run_duality_test(2, mu0, f, 0.05, replicates, 12)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # first-call allocations are not piece memory
        small, large = peak(2 * 10**5), peak(4 * 10**5)
        values = 8 * (4 * 10**5 - 2 * 10**5) // 2  # one float64 a pair
        assert large - small <= values + 64 * 1024

    def test_peak_memory_does_not_grow_with_alpha(self):
        # at alpha = 256 a block of draws is 2 MiB, so the pieces (64 pairs
        # at the default cap) must be smaller than a block: pieces of one
        # whole block would peak at 12.7 MB here
        mu0 = equally_spaced_atoms(256)
        f = default_f_suite()[2][1]
        run_duality_test(256, mu0, f, 0.01, 200, 12)
        tracemalloc.start()
        try:
            run_duality_test(256, mu0, f, 0.01, 4096, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 10**6, peak

    @pytest.mark.parametrize("replicates", [2 * 10**4, 2 * 10**5])
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_pieces_allocate_nothing(self, n, replicates):
        # the draws and every pairing array live in the thread's workspace:
        # once a first call has sized it, a cell allocates its values and a
        # few small objects (the block stream ids, about 35 bytes a block);
        # the rhs solve (about 20 KiB on the 256 grid) is freed before the
        # values are allocated
        args = (n, equally_spaced_atoms(n), default_f_suite()[2][1], 0.05, replicates, 12)
        run_duality_test(*args)
        tracemalloc.start()
        try:
            run_duality_test(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (replicates // 2) + 16 * 1024, peak

    @pytest.mark.parametrize("n, kept", [(2**14, 6 * 2**14 + 3), (3 * 2**13, None)])
    def test_a_workspace_past_the_cap_bound_is_not_kept(self, n, kept):
        # one pair of 6 n + 3 entries: kept by the thread up to
        # _KEPT_ENTRIES (alpha below 3 * 2**13), freed with its cell from there
        f = default_f_suite()[0][1]
        left = []

        def run():
            run_duality_test(n, equally_spaced_atoms(n), f, 1e-3, 4, 5)
            buf = getattr(duality._local, "buf", None)
            left.append(None if buf is None else buf.size)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert left == [kept]

    def test_threads_running_different_cells_give_the_sequential_reports(self):
        # four threads, switching every 10 us: cells of different alpha
        # size the workspace differently, so a workspace shared between
        # threads would mix their pieces
        f = default_f_suite()[1][1]
        cells = [(n, equally_spaced_atoms(n), f, 0.04, 4000, 100 + n) for n in (1, 2, 5, 17)]
        want = [run_duality_test(*cell) for cell in cells]
        got = [[] for _ in cells]
        start = threading.Barrier(len(cells))

        def run(i):
            start.wait(timeout=30)
            for _ in range(3):
                got[i].append(run_duality_test(*cells[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cells))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[report] * 3 for report in want]


class TestInPlacePairing:
    """_antithetic_pairings writes to its work buffer, and agrees bit for bit
    with the same arithmetic on fresh arrays (oracles)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 40])
    def test_bitwise_the_allocating_pairing(self, n):
        rng = np.random.Generator(np.random.Philox(key=(23, n)))
        suite = [FourierFunction.from_modes(mean=0.7),
                 FourierFunction.from_modes(mean=0.3, cos={2: 0.4}, sin={5: -0.2})]
        suite += [FourierFunction(rng.uniform(-1, 1), rng.uniform(-1, 1, m),
                                  rng.uniform(-1, 1, m)) for m in range(1, 7)]
        x0 = equally_spaced_atoms(n).positions
        cap = duality._PIECE_BYTES // (8 * n)
        cap = cap - cap % 1024 if cap >= 1024 else max(1, cap)
        # around a block (1024 pairs) and a piece (cap pairs)
        counts = sorted({c for edge in (1024, cap) for c in (edge - 1, edge, edge + 1)} | {1, 2})
        work = np.full(duality._pairing_entries(max(counts), n), np.nan)  # reused: no stale value
        for t in (0.0, 1e-3, 0.05, 3.0):
            for f in suite:
                shifts = duality._shift_table(f, x0)
                for pairs in counts:
                    step = np.sqrt(n * t) * rng.standard_normal((pairs, n))
                    want = antithetic_pairings_allocating(f.mean, shifts, step.copy())
                    got = duality._antithetic_pairings(f.mean, shifts, step.copy(), work)
                    for g, w in zip(got, want):
                        assert g.tobytes() == w.tobytes(), (t, f, pairs)


class TestRhsGrid:
    """laplace_rhs picks its own Cole-Hopf grid, from 256 up."""

    @pytest.mark.parametrize("alpha", [1, 2, 3, 5])
    def test_against_kernel_quadrature(self, alpha):
        # exp(-<mu_0, V_t f>) is the product over the atoms x of
        # E exp(-f(X)/alpha), X the atom moved by a heat kernel of variance
        # alpha t: no Cole-Hopf code on this side
        mu0 = equally_spaced_atoms(alpha)
        for t in (0.001, 0.01, 0.05, 0.2):
            for f_id, f in default_f_suite():
                want = np.prod([kernel_quadrature(lambda y: np.exp(-f.evaluate(y) / alpha),
                                                  x, alpha * t) for x in mu0.positions])
                got = laplace_rhs(mu0, f, alpha, t)
                assert abs(got - want) <= 1e-14 * want, (f_id, t, got, want)

    def test_rough_f_refines_the_grid(self):
        # mode 200 starts the search at 512, where the rhs is 1.8e-11 off
        f = FourierFunction.from_modes(mean=1.0, cos={1: 0.5, 200: 0.3})
        want = kernel_quadrature(lambda y: np.exp(-f.evaluate(y)), 0.5, 0.001, points=1 << 16)
        got = laplace_rhs(EmpiricalMeasure([0.5]), f, 1, 0.001)
        assert abs(got - want) <= 1e-14 * want, (got, want)

    def test_unresolved_past_the_largest_grid_refused(self):
        # grid 2**15 holds mode 12000 in its top half, 2**16 its harmonic 24000
        f = FourierFunction.from_modes(mean=1.0, cos={12000: 0.5})
        with pytest.raises(ValueError, match="top mode 12000.* 65536 points"):
            laplace_rhs(EmpiricalMeasure([0.5]), f, 1, 0.001)

    def test_dom_is_ignored(self):
        args = (1, equally_spaced_atoms(1), default_f_suite()[2][1], 0.001, 2000, 21)
        assert run_duality_test(*args, dom=TorusDomain(8)) == run_duality_test(*args)


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
            work = np.empty(duality._pairing_entries(*step.shape))
            got = duality._antithetic_pairings(f.mean, duality._shift_table(f, x0), step.copy(),
                                               work)
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
    def test_empty_sweep(self):
        assert sweep([], [], default_f_suite(), 100, 1) == []

    def test_small_sweep_pass_rate(self):
        reports = sweep([1, 2], [0.02, 0.05], default_f_suite(), 20000, seed=9)
        passed, total = pass_rate(reports)
        assert total == 12
        assert passed >= 11  # 3-sigma false-alarm budget

    def test_sweep_deterministic(self):
        a = sweep([1], [0.02], default_f_suite(), 2000, seed=10)
        b = sweep([1], [0.02], default_f_suite(), 2000, seed=10)
        assert a == b

    def test_cells_use_distinct_seeds(self):
        reports = sweep([1], [0.02, 0.05], default_f_suite()[:1], 2000, seed=11)
        assert reports[0].seed != reports[1].seed

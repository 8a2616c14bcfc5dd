"""Particle construction, martingale functional and QV statistics."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from dklab import particles
from dklab import (
    EmpiricalMeasure,
    FourierFunction,
    ParticlePath,
    martingale_ensemble,
    martingale_functional,
    pair_against,
    qv_statistic,
    simulate_path,
    terminal_ensemble,
    wrap,
)
from dklab.particles import z_score
from oracles import block_increments, wrapped_gaussian_cdf

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def stream_normals(seed, replicate, n, count):
    """The count normals of each particle of path `replicate`, shape (n, count),
    read off numpy's Philox stream of the replicate's block (oracles)."""
    return block_increments(seed, n, 1, replicate, count).reshape(n, count)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def cos1():
    return FourierFunction.from_modes(cos={1: 1.0})


class TestEmpiricalMeasure:
    def test_mass_is_one(self):
        mu = EmpiricalMeasure([0.1, 0.4, 0.9])
        assert pair_against(FourierFunction.constant(1.0), mu) == 1.0

    def test_positions_wrapped(self):
        mu = EmpiricalMeasure([1.2, -0.3])
        assert np.allclose(mu.positions, [0.2, 0.7])

    def test_pairing_trivial_cancellation(self):
        mu = EmpiricalMeasure([0.25, 0.75])
        assert abs(pair_against(cos1(), mu)) < 1e-15

    def test_pairing_constant(self):
        mu = EmpiricalMeasure([0.11, 0.52, 0.93, 0.2])
        assert pair_against(FourierFunction.constant(2.5), mu) == 2.5

    def test_pairing_matches_naive_loop(self):
        rng = np.random.Generator(np.random.Philox(key=(5, 5)))
        f = FourierFunction.from_modes(mean=0.3, cos={1: 0.4, 2: -0.2}, sin={3: 0.9})
        mu = EmpiricalMeasure(rng.uniform(0, 1, 50))
        naive = sum(f.evaluate(x) for x in mu.positions) / mu.n
        assert abs(pair_against(f, mu) - naive) < 1e-14


class TestSimulatePath:
    def test_zero_time_is_constant(self):
        mu0 = EmpiricalMeasure([0.3])
        path = simulate_path(mu0, 1, 0.0, 10, 1)
        assert np.all(path.positions == 0.3)

    def test_non_integer_alpha_refused(self):
        mu0 = EmpiricalMeasure([0.3])
        with pytest.raises(ValueError, match="non-integer"):
            simulate_path(mu0, 1.5, 0.1, 10, 1)

    def test_atom_count_must_match_alpha(self):
        mu0 = EmpiricalMeasure([0.3, 0.6])
        with pytest.raises(ValueError, match="atoms"):
            simulate_path(mu0, 3, 0.1, 10, 1)

    def test_mass_one_along_path(self):
        mu0 = EmpiricalMeasure([0.2, 0.7])
        path = simulate_path(mu0, 2, 0.05, 50, 3)
        one = FourierFunction.constant(1.0)
        for state in path.states:
            assert pair_against(one, state) == 1.0

    def test_repeated_atoms_allowed(self):
        mu0 = EmpiricalMeasure([0.5, 0.5])
        path = simulate_path(mu0, 2, 0.01, 5, 4)
        assert path.positions.shape == (6, 2)

    def test_increment_variance(self):
        # displacement variance equals internal elapsed time n*t; at
        # n*t = 0.004 no displacement reaches 1/2, so none is hidden by the wrap
        t, n, n_rep = 0.002, 2, 10**5
        pos = terminal_ensemble(EmpiricalMeasure([0.5, 0.5]), n, t, n_rep, seed=11)
        var = (pos - 0.5).var()
        se = n * t * np.sqrt(2.0 / pos.size)
        assert abs(var - n * t) < 3 * se

    def test_marginal_is_wrapped_normal(self):
        # KS against the wrapped normal CDF, mean 0.5, variance n*t = 0.1
        t, n_rep = 0.1, 20000
        pos = terminal_ensemble(EmpiricalMeasure([0.5]), 1, t, n_rep, seed=12)[:, 0]
        res = stats.kstest(pos, lambda z: wrapped_gaussian_cdf(z, 0.5, t))
        assert res.pvalue > 0.001

    def test_scaling_consistency(self):
        # n particles at external t vs independent singles at internal n*t
        t, n, n_rep = 0.04, 3, 4000
        pos_multi = terminal_ensemble(
            EmpiricalMeasure([0.5, 0.5, 0.5]), n, t, n_rep, seed=13
        ).ravel()
        pos_single = terminal_ensemble(
            EmpiricalMeasure([0.5]), 1, n * t, 3 * n_rep, seed=14
        ).ravel()
        res = stats.ks_2samp(pos_multi, pos_single)
        assert res.pvalue > 0.001

    def test_spread_past_2_to_38_refused(self):
        # alpha t = 2**38 is the last spread whose 8-sigma draws keep 30
        # fractional bits once wrapped
        mu0 = EmpiricalMeasure([0.1, 0.6])
        assert np.all(np.isfinite(terminal_ensemble(mu0, 2, 2.0**37, 10, seed=1)))
        for t in (np.nextafter(2.0**37, np.inf), 1e100, np.inf):
            with pytest.raises(ValueError, match="fractional bits"):
                terminal_ensemble(mu0, 2, t, 10, seed=1)

    def test_terminal_matches_per_stream_draws(self):
        # replicate r, particle i is normal (r mod 1024) n + i of its block's
        # stream, read off numpy directly, and the final state of the
        # one-step path r; 2100 replicates fill two blocks and start a third
        mu0 = EmpiricalMeasure([0.1, 0.6])
        for seed in (21, 2**63 + 21):
            batch = terminal_ensemble(mu0, 2, 0.05, 2100, seed=seed)
            z = block_increments(seed, 2, 2100)
            assert np.array_equal(batch, wrap(mu0.positions + np.sqrt(2 * 0.05) * z))
            assert np.array_equal(terminal_ensemble(mu0, 2, 0.05, 1, seed=seed), batch[:1])
            assert np.array_equal(terminal_ensemble(mu0, 2, 0.05, 77, seed, 1000), batch[1000:1077])
            for r in (0, 1, 1023, 1024, 1500, 2048, 2099):
                one_step = simulate_path(mu0, 2, 0.05, 1, seed, r)
                assert np.array_equal(batch[r], one_step.positions[1])

    @pytest.mark.parametrize("t_final, num_steps, name", [(-0.01, 10, "t_final"),
                                                          (0.05, 0, "num_steps")])
    def test_refuses_reversed_or_empty_time_grid(self, t_final, num_steps, name):
        mu0 = EmpiricalMeasure([0.3])
        with pytest.raises(ValueError, match=name):
            martingale_ensemble(mu0, 1, cos1(), t_final, num_steps, 200, seed=1)
        with pytest.raises(ValueError, match=name):
            simulate_path(mu0, 1, t_final, num_steps, seed=1)


class TestMartingaleFunctional:
    def test_constant_phi_gives_zero(self):
        mu0 = EmpiricalMeasure([0.2, 0.9])
        path = simulate_path(mu0, 2, 0.05, 40, 31)
        ms = martingale_functional(path, FourierFunction.constant(7.0))
        assert np.allclose(ms.m_values, 0.0, atol=1e-12)
        assert np.allclose(ms.qv_integral, 0.0, atol=1e-12)

    def test_starts_at_zero_and_qv_nondecreasing(self):
        mu0 = EmpiricalMeasure([0.2, 0.9, 0.4])
        path = simulate_path(mu0, 3, 0.05, 60, 32)
        phi = FourierFunction.from_modes(cos={1: 0.5}, sin={2: 0.2})
        ms = martingale_functional(path, phi)
        assert ms.m_values[0] == 0.0
        assert np.all(np.diff(ms.qv_integral) >= -1e-15)

    def test_per_particle_decomposition(self):
        # M_t = (1/n) sum_i M^i at internal time, recomputed independently
        n, t, steps = 3, 0.06, 80
        mu0 = EmpiricalMeasure([0.15, 0.5, 0.85])
        path = simulate_path(mu0, n, t, steps, 33)
        phi = FourierFunction.from_modes(cos={1: 0.7}, sin={1: -0.3})
        ms = martingale_functional(path, phi)

        lphi = phi.laplacian()
        total = np.zeros(steps + 1)
        for i in range(n):
            xi = path.positions[:, i]
            vals = phi.evaluate(xi)
            lvals = lphi.evaluate(xi)
            # internal time u = n * s on the same grid: du = n * ds
            du = n * (t / steps)
            integral = np.concatenate(
                [[0.0], np.cumsum(0.5 * du * (lvals[1:] + lvals[:-1]))]
            )
            total += vals - vals[0] - 0.5 * integral
        assert np.allclose(ms.m_values, total / n, atol=1e-12)

    def test_ensemble_matches_per_path(self):
        # reference paths built here from numpy's Philox, block by block;
        # 2100 replicates, so some paths sit in the second and third blocks
        mu0 = EmpiricalMeasure([0.3, 0.8])
        phi = FourierFunction.from_modes(cos={1: 0.5})
        t, steps = 0.05, 30
        times = np.linspace(0.0, t, steps + 1)
        sigma = np.sqrt(2 * (t / steps))
        for seed in (34, 2**63 + 34):
            m, qv, _ = martingale_ensemble(mu0, 2, phi, t, steps, 2100, seed=seed)
            for r in (*range(10), 1023, 1024, 1777, 2047, 2048, 2099):
                z = stream_normals(seed, r, 2, steps)
                walk = wrap(mu0.positions + np.cumsum(z.T, axis=0) * sigma)
                want = np.vstack([mu0.positions, walk])
                path = simulate_path(mu0, 2, t, steps, seed, r)
                assert np.array_equal(path.positions, want)
                assert np.array_equal(path.times, times)
                ms = martingale_functional(ParticlePath(times, want, 2), phi)
                assert abs(ms.m_values[-1] - m[r]) < 1e-12
                assert abs(ms.qv_integral[-1] - qv[r]) < 1e-12


class TestEnsembleChunks:
    """Chunk boundaries never change results, and chunks respect the byte budget."""

    PHI = FourierFunction.from_modes(mean=0.2, cos={1: 0.6}, sin={3: 0.4})

    def test_threads_and_budget_do_not_change_results(self, monkeypatch):
        # each worker reuses one set of buffers for all its chunks, so a
        # chunk shorter than the one before it must not read stale values
        args = (EmpiricalMeasure([0.1, 0.5, 0.7]), 3, self.PHI, 0.03, 40, 3000, 2**63 + 77)
        monkeypatch.setenv("DKLAB_THREADS", "1")
        m1, qv1, _ = martingale_ensemble(*args)
        # 499 replicates per chunk leave a last chunk of 6; 7 leave one of 4
        for budget in (None, 499 * 41 * 3 * 8, 7 * 41 * 3 * 8, 1):
            if budget is not None:
                monkeypatch.setattr(particles, "_CHUNK_BYTES", budget)
            for threads in ("1", "2", "3"):
                if budget == 1 and threads != "2":
                    continue  # 3000 one-replicate chunks: one thread count is enough
                monkeypatch.setenv("DKLAB_THREADS", threads)
                m2, qv2, _ = martingale_ensemble(*args)
                assert np.array_equal(m1, m2) and np.array_equal(qv1, qv2)

    @pytest.mark.parametrize("replicates", [1000, 2100, 3000])
    def test_block_slabs_do_not_change_results(self, replicates, monkeypatch):
        # fewer replicates than a block, and counts that are not a multiple
        # of 1024: every thread count and piece size gives the same bits,
        # and each ensemble is the head of the largest one
        mu0 = EmpiricalMeasure([0.1, 0.5, 0.7])
        args = (mu0, 3, self.PHI, 0.03, 20, replicates, 2**63 + 78)
        want = martingale_ensemble(*args, threads=1)
        full = martingale_ensemble(*args[:5], 3000, args[6], threads=2)
        assert np.array_equal(bits(want[0]), bits(full[0][:replicates]))
        assert np.array_equal(bits(want[1]), bits(full[1][:replicates]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch every microsecond
        try:
            for budget in (None, 37 * 21 * 3 * 8):  # pieces of 37 cross the block edges
                if budget is not None:
                    monkeypatch.setattr(particles, "_CHUNK_BYTES", budget)
                for threads in (1, 2, 3):
                    m, qv, _ = martingale_ensemble(*args, threads=threads)
                    assert np.array_equal(bits(m), bits(want[0]))
                    assert np.array_equal(bits(qv), bits(want[1]))
        finally:
            sys.setswitchinterval(interval)

    def test_paths_into_a_poisoned_buffer(self):
        # pieces of 3 replicates, the last of 1, from a range inside a block
        mu0 = EmpiricalMeasure([0.1, 0.5, 0.7])
        args = (mu0, 0.3, 40, 2**63 + 77, 5, 12, 3)
        size = 3 * 3 * 41

        def pieces(positions, draws):
            return [(a, b, x.copy(), x) for a, b, x in
                    particles._path_pieces(*args, positions, draws)]

        want = pieces(np.empty(size), np.empty(size))
        positions = np.full(size + 100, np.nan)
        draws = np.full(size + 100, np.nan)
        got = pieces(positions, draws)
        assert [(a, b) for a, b, _, _ in got] == [(5, 8), (8, 11), (11, 12)]
        for (a, b, x, view), (_, _, w, _) in zip(got, want):
            assert np.shares_memory(view, positions)
            assert np.array_equal(bits(x), bits(w))
        assert np.isnan(positions[size:]).all()

    def test_every_chunk_within_budget(self, monkeypatch):
        # every piece of a slab is one item of a _path_pieces walk
        spans = []
        walk = particles._path_pieces

        def recording(*args):
            for a, b, x in walk(*args):
                spans.append((a, b))
                yield a, b, x

        monkeypatch.setattr(particles, "_path_pieces", recording)
        n, steps, replicates = 5, 200, 3000
        martingale_ensemble(EmpiricalMeasure(np.arange(n) / n), n, self.PHI, 0.02, steps,
                            replicates, 5)
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == replicates
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all((hi - lo) * (steps + 1) * n * 8 <= particles._CHUNK_BYTES for lo, hi in spans)

    def test_peak_memory_does_not_grow_with_replicates(self):
        # n = 5 and 200 steps: both runs take chunks of the budgeted size
        mu0 = EmpiricalMeasure(np.arange(5) / 5)

        def peak(replicates):
            tracemalloc.start()
            try:
                martingale_ensemble(mu0, 5, self.PHI, 0.02, 200, replicates, 9, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations are not chunk memory
        small, large = peak(2000), peak(20000)
        outputs = 2 * 8 * (20000 - 2000)  # m_final and qv_final
        assert large - small <= outputs + 64 * 1024

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage (Linux)"
    )
    def test_page_faults_do_not_grow_with_replicates(self):
        # one thread, so every chunk runs in this thread: a worker that
        # allocated fresh arrays for each chunk would fault them in afresh
        # (about 7.5 faults a path here), while one set of buffers per call
        # is faulted in once
        mu0 = EmpiricalMeasure(np.arange(5) / 5)

        def faults(replicates):
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            martingale_ensemble(mu0, 5, self.PHI, 0.02, 200, replicates, 9, 1)
            return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

        faults(10)  # first-call allocations are not chunk memory
        small, large = faults(2000), faults(10000)
        assert large <= 2 * small + 4000, (small, large)


class TestQvStatistic:
    def test_requires_hundred_replicates(self):
        with pytest.raises(ValueError, match="100"):
            qv_statistic((np.zeros(50), np.zeros(50), 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["m", "qv"])
    def test_non_finite_ensemble_refused(self, bad, which):
        # a NaN standard error must not read as z = 0 and pass
        m, qv = np.linspace(-1.0, 1.0, 200), np.linspace(0.5, 1.5, 200)
        (m if which == "m" else qv)[17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qv_statistic((m, qv, 0.1))
        with pytest.raises(ValueError, match="non-finite"):
            qv_statistic((np.full(200, np.nan), np.full(200, np.nan), 0.1))

    def test_zero_mean_and_qv_identity(self):
        # moderate-size ensemble; acceptance runs the full 1e5 version
        mu0 = EmpiricalMeasure([0.5])
        phi = FourierFunction.from_modes(cos={1: 1.0})
        rep = qv_statistic(martingale_ensemble(mu0, 1, phi, 0.05, 200, 20000, seed=35))
        assert abs(rep.z_mean) <= 3.0
        assert abs(rep.z_qv) <= 3.0

    def test_qv_grows_with_time(self):
        mu0 = EmpiricalMeasure([0.5])
        phi = FourierFunction.from_modes(cos={1: 1.0})
        r1 = qv_statistic(martingale_ensemble(mu0, 1, phi, 0.02, 100, 2000, seed=36))
        r2 = qv_statistic(martingale_ensemble(mu0, 1, phi, 0.04, 200, 2000, seed=36))
        assert r2.mean_qv > r1.mean_qv


class TestZScore:
    def test_regular_score(self):
        assert z_score("z", 1.5, 1.0, 0.25) == 2.0
        assert z_score("z", 0.5, 1.0, 0.25) == -2.0

    def test_degenerate_cell_scores_zero_or_inf(self):
        # stderr at or below summation round-off: an absolute comparison
        assert z_score("z", 0.5, 0.5, 0.0) == 0.0
        assert z_score("z_mean", 0.0, 0.0, 0.0) == 0.0
        assert z_score("z", 0.5, 0.5 + 1e-12, 1e-20) == 0.0
        assert z_score("z", 1e6, 1e6 + 1e-4, 0.0) == 0.0  # 1e-9 relative to |target|
        assert z_score("z", 0.5, 0.6, 0.0) == math.inf
        assert z_score("z", 1e6, 1e6 + 1e-2, 0.0) == math.inf
        assert z_score("z", 0.5, 0.6, 1e-20) == math.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_input_refused(self, bad, slot):
        args = [0.5, 0.4, 0.1]
        args[slot] = bad
        with pytest.raises(ValueError, match="z_qv: not finite"):
            z_score("z_qv", *args)

    def test_qv_statistic_refuses_an_overflowed_square(self):
        # every M_t finite, but M_t^2 overflows: no verdict, where the old
        # guards read the inf standard error as z_mean = -0.0 and pass
        m = np.linspace(-1e200, 1e200, 201)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                qv_statistic((m, np.ones(201), 1e200))

    def test_qv_statistic_refuses_before_squaring(self):
        # the refusal names M_t and comes before numpy overflows (and warns)
        m = np.linspace(-1e200, 1e200, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="M_t"):
                qv_statistic((m, np.ones(201), 1e200))
            rep = qv_statistic((np.linspace(-1e75, 1e75, 201), np.ones(201), 1e200))
        assert math.isfinite(rep.se_diff) and math.isfinite(rep.mean_m2)

    def test_zero_ensemble_scores_zero(self):
        rep = qv_statistic((np.zeros(200), np.zeros(200), 0.0))
        assert (rep.z_mean, rep.z_qv, rep.passed) == (0.0, 0.0, True)

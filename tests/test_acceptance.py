"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest -s to see them inline).
Monte Carlo criteria use fixed seeds, so the suite is deterministic; the
3-sigma verdicts carry the documented sweep-level false-alarm budget.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from dklab import (
    EmpiricalMeasure,
    FourierFunction,
    TorusDomain,
    check_extremum_principles,
    check_gradient_estimate,
    cole_hopf,
    default_f_suite,
    equally_spaced_atoms,
    extract_coefficients_limit,
    extract_coefficients_series,
    martingale_ensemble,
    mass_slope_probe,
    monte_carlo_pgf,
    negativity_ensemble,
    occupation,
    pass_rate,
    qv_statistic,
    random_fourier_suite,
    run_duality_test,
    series_from_bernoulli,
    stability_limit,
    sweep,
    terminal_ensemble,
    verdict_from_expansion,
    vhj_residual,
)
from dklab.cli import main as cli_main
from dklab.pgf import compare_histogram
from oracles import kernel_quadrature, poisson_binomial

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "frozen.json"


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{tag}] {name}  {detail}")
    return ok


@pytest.fixture(scope="module")
def dom():
    return TorusDomain(256)


def test_criterion_1_duality_sweep():
    """alpha x t x f sweep: >= 26/27 cells inside 3 sigma, under 5 minutes."""
    start = time.perf_counter()
    reports = sweep(
        alphas=[1, 2, 5],
        times=[0.02, 0.05, 0.1],
        f_suite=default_f_suite(),
        replicates=10**5,
        seed=1001,
    )
    elapsed = time.perf_counter() - start
    passed, total = pass_rate(reports)
    worst = max(abs(r.z_score) for r in reports)
    ok = report(
        1,
        "Laplace duality sweep",
        passed >= 26 and total == 27 and elapsed <= 300.0,
        f"{passed}/{total} cells, max |z| {worst:.2f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_2_single_particle_closed_form():
    """n = 1 reduces to a 1-D wrapped-heat-kernel integral (vhj-free oracle)."""
    f = FourierFunction.from_modes(mean=1.0, cos={1: 0.5})
    t = 0.05
    rep = run_duality_test(1, EmpiricalMeasure([0.5]), f, t, 10**5, seed=1002)
    quad = kernel_quadrature(lambda y: np.exp(-f.evaluate(y)), 0.5, t)
    gap = abs(rep.mc_mean - quad)
    ok = report(
        2,
        "single-particle closed form",
        gap <= 3 * rep.mc_stderr,
        f"|mc - quadrature| = {gap:.2e} vs 3 SE = {3 * rep.mc_stderr:.2e}",
    )
    assert ok


def test_criterion_3_martingale_qv():
    """Zero mean and QV identity over 1e5 paths for three (n, phi, t) cases."""
    cases = [
        (1, FourierFunction.from_modes(cos={1: 1.0}), 0.05),
        (2, FourierFunction.from_modes(mean=0.5, sin={1: 0.8}, cos={2: 0.3}), 0.05),
        (5, FourierFunction.from_modes(cos={1: 0.6}, sin={2: 0.4}), 0.02),
    ]
    all_ok = True
    details = []
    for idx, (n, phi, t) in enumerate(cases):
        ens = martingale_ensemble(
            equally_spaced_atoms(n), n, phi, t, 200, 10**5, seed=1003 + idx
        )
        rep = qv_statistic(ens)
        all_ok &= abs(rep.z_mean) <= 3.0 and abs(rep.z_qv) <= 3.0
        details.append(f"n={n}: z_mean {rep.z_mean:+.2f} z_qv {rep.z_qv:+.2f}")
    ok = report(3, "martingale and quadratic variation", all_ok, "; ".join(details))
    assert ok


def test_criterion_4_cole_hopf(dom):
    """Residual order >= 1.9; principles at 1e-12; gradient bound at 1e-8."""
    f = FourierFunction.from_modes(mean=1.0, cos={1: 0.5})
    res = vhj_residual(dom, f, alpha=1.0, t=0.05, dt0=1e-3, num_levels=3)
    order_ok = all(o >= 1.9 for o in res.observed_orders)

    rng = np.random.Generator(np.random.Philox(key=(1004, 0)))
    suite = random_fourier_suite(1004, 50)
    ext_ok = grad_ok = True
    for g in suite:
        t = float(rng.uniform(0.0, 0.2))
        alpha = float(rng.uniform(0.5, 3.0))
        field = cole_hopf(dom, g, alpha, t)
        ext_ok &= check_extremum_principles(field, slack=1e-12).passed
        grep = check_gradient_estimate(field, slack=1e-8)
        grad_ok &= grep.passed and grep.passed_sharp
    ok = report(
        4,
        "Cole-Hopf correctness",
        order_ok and ext_ok and grad_ok,
        f"orders {['%.2f' % o for o in res.observed_orders]}, "
        f"principles 50/50 {'ok' if ext_ok else 'violated'}, "
        f"gradient {'ok' if grad_ok else 'violated'}",
    )
    assert ok


def test_criterion_5_pgf_integer_case(dom):
    """Series matches the Poisson-binomial law; Monte Carlo agrees by chi-square."""
    atom_sets = {1: [0.35], 2: [0.3, 0.7], 3: [0.15, 0.5, 0.85]}
    series_ok = mc_ok = integer_ok = True
    details = []
    for alpha, atoms in atom_sets.items():
        occ = occupation(dom, [(0.2, 0.45)], t=0.05, alpha=alpha)
        mu0 = EmpiricalMeasure(atoms)
        ser = extract_coefficients_series(alpha, mu0, occ, alpha)
        oracle = poisson_binomial(occ.evaluate(mu0.positions))
        gap = float(np.max(np.abs(ser.coefficients - oracle)))
        series_ok &= gap <= 1e-10

        mc = monte_carlo_pgf(alpha, mu0, occ, replicates=10**5, seed=1005 + alpha)
        _, pvalue = compare_histogram(mc, ser.coefficients, 10**5)
        mc_ok &= pvalue > 0.001

        pos = terminal_ensemble(mu0, alpha, occ.t, 2000, seed=1015 + alpha)
        counts = occ.contains(pos).sum(axis=1)
        integer_ok &= counts.dtype.kind == "i" or np.all(counts == np.round(counts))
        integer_ok &= np.all((0 <= counts) & (counts <= alpha))
        details.append(f"a={alpha}: series gap {gap:.1e} chi2 p {pvalue:.3f}")
    ok = report(
        5,
        "integer-case atom probabilities",
        series_ok and mc_ok and integer_ok,
        "; ".join(details),
    )
    assert ok


def test_criterion_6_nonexistence_witnesses(dom):
    """Negative coefficients, non-Taylor behavior, and the mass probe."""
    # (a) alpha = 1.5, single atom, h sweep
    neg_ok = True
    for h in [round(0.1 * k, 1) for k in range(1, 10)]:
        exp = series_from_bernoulli(1.5, np.array([1.0]), np.array([h]), 8)
        rep = verdict_from_expansion(1.5, exp)
        neg_ok &= rep.verdict == "violates-nonnegativity"
        neg_ok &= exp.negativity_flag is not None and exp.negativity_flag <= 5

    # (b) synthetic fractional power: divergence at order 2
    lim = extract_coefficients_limit(lambda s: s**1.5, 4)
    taylor_ok = lim.divergence_flag is not None and lim.divergence_flag[0] == 2

    # (c) integer alpha with mismatched half-weight atoms
    occ = occupation(dom, [(0.3, 0.6)], t=0.03, alpha=1)
    hs = occ.evaluate(np.array([0.35, 0.8]))
    expc = series_from_bernoulli(1.0, np.array([0.5, 0.5]), hs, 8)
    repc = verdict_from_expansion(1.0, expc)
    half_ok = repc.verdict != "consistent-integer"

    # (d) growing occupation set: log-log slope approaches alpha
    slope = mass_slope_probe(1.5, coverage=0.99, t=0.005)
    slope_ok = abs(slope - 1.5) <= 0.05

    ok = report(
        6,
        "non-existence witnesses",
        neg_ok and taylor_ok and half_ok and slope_ok,
        f"h-sweep 9/9 {'ok' if neg_ok else 'bad'}, divergence@2 {taylor_ok}, "
        f"half-atoms {repc.verdict}, slope {slope:.3f}",
    )
    assert ok


def test_criterion_7_breakdown_ensemble():
    """Negativity within 1e4 steps for >=95/100 seeds, robust to dt/4.

    Every member goes negative at step 1, at both dt (the frozen median
    step is 1), so this criterion tests a single SPDE step.  That fits the
    theorem: from a density (absolutely continuous initial data) no
    solution exists at any alpha, so the scheme has nothing to follow.  At
    a stable dt, of order dx**2, the first step's noise changes a cell of
    unit density by a centred normal of standard deviation
    sqrt(2 dt) * dx**-1.5: about 13 at grid 256 and the base dt, and
    growing like dx**-0.5 as the grid is refined.
    """
    frozen = json.loads(FIXTURES.read_text())["breakdown"]
    dom = TorusDomain(256)
    alpha = 1.5
    base_dt = 0.5 * stability_limit(dom, alpha)
    rep_base = negativity_ensemble(dom, alpha, base_dt, 100, 10000, seed=777)
    rep_quarter = negativity_ensemble(dom, alpha, base_dt / 4, 100, 10000, seed=777)
    match_frozen = (
        rep_base.hits == frozen["base_dt"]["hits"]
        and rep_quarter.hits == frozen["quarter_dt"]["hits"]
    )
    ok = report(
        7,
        "breakdown ensemble (artifact-calibrated)",
        rep_base.hits >= 95 and rep_quarter.hits >= 90 and match_frozen,
        f"base {rep_base.hits}/100 (median step {rep_base.median_step:.0f}), "
        f"dt/4 {rep_quarter.hits}/100",
    )
    assert ok


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    """Byte-exact tables and replays for DKLAB_THREADS in {1, 4, max}."""
    runs = {
        "duality": ["duality", "--alpha", "2", "--t", "0.02",
                     "--replicates", "20000", "--seed", "1008"],
        "pgf": ["pgf", "--alpha", "1.5", "--t", "0.05", "--seed", "1009"],
        "breakdown": ["breakdown", "--alpha", "1.5", "--grid", "64",
                       "--replicates", "20", "--max-steps", "2000", "--seed", "1010"],
    }
    thread_settings = ["1", "4", str(os.cpu_count() or 8)]
    all_ok = True
    for name, args in runs.items():
        blobs = []
        for th in thread_settings:
            monkeypatch.setenv("DKLAB_THREADS", th)
            out = tmp_path / f"{name}-{th}.csv"
            code = cli_main(args + ["--out", str(out)])
            all_ok &= code == 0
            blobs.append(out.read_bytes())
        all_ok &= blobs[0] == blobs[1] == blobs[2]
        replay_code = cli_main(
            ["replay", "--manifest", str(tmp_path / f"{name}-1.csv.manifest"),
             "--out", str(tmp_path / f"{name}-replay.csv")]
        )
        all_ok &= replay_code == 0
    ok = report(8, "reproducibility (threads and replay)", all_ok)
    assert ok

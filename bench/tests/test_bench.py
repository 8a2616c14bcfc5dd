"""Tests of the benchmark's oracles and metric code.

    python3 -m pytest bench/tests

Each oracle is checked against a second, independent route to the same
number, so a wrong oracle cannot pass dklab's outputs by agreeing with
them.  None of these tests imports dklab.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def test_duality_rhs_matches_bessel_expansion():
    # E exp(-f(x0 + sigma Z)) for f = m + a cos(2 pi x), one particle:
    # exp(-m) [I_0(a) + 2 sum_k (-1)^k I_k(a) cos(2 pi k x0) exp(-(2 pi k sigma)^2 / 2)]
    m, a, x0, t = 0.7, 0.9, 0.3, 0.05
    series = oracles.bessel_i(0, a) + 2 * sum(
        (-1) ** k * oracles.bessel_i(k, a) * math.cos(2 * math.pi * k * x0)
        * math.exp(-0.5 * (2 * math.pi * k) ** 2 * t)
        for k in range(1, 30)
    )
    got = oracles.duality_rhs([x0], m, {1: a}, {}, 1, t)
    assert got == pytest.approx(math.exp(-m) * series, rel=1e-13)


def test_duality_rhs_factorises_over_atoms():
    f = (1.2, {1: 0.4, 3: 0.1}, {2: 0.3})
    atoms = [0.1, 0.6]
    both = oracles.duality_rhs(atoms, *f, 2, 0.05)
    # each atom carries exp(-f/2) at variance 2t
    single = [oracles.duality_rhs([x], f[0] / 2, {k: v / 2 for k, v in f[1].items()},
                                  {k: v / 2 for k, v in f[2].items()}, 1, 0.1) for x in atoms]
    assert both == pytest.approx(single[0] * single[1], rel=1e-13)


def test_expected_qv_final_single_cosine():
    # phi = cos(2 pi x): (phi')^2 = 2 pi^2 (1 - cos(4 pi x)); mode 2 decays at rate (4 pi)^2 / 2
    x0, t, steps = 0.2, 0.05, 200
    s = np.linspace(0.0, t, steps + 1)
    v = 2 * math.pi**2 * (1 - math.cos(4 * math.pi * x0) * np.exp(-0.5 * (4 * math.pi) ** 2 * s))
    trapezoid = float(np.sum(0.5 * np.diff(s) * (v[1:] + v[:-1])))
    got = oracles.expected_qv_final([x0], 0.0, {1: 1.0}, {}, 1, t, steps)
    assert got == pytest.approx(trapezoid, rel=1e-13)


def test_expected_qv_final_sine_equals_shifted_cosine():
    # sin(2 pi x) = cos(2 pi (x - 1/4)), so atoms shifted by 1/4 give the same value
    sin = oracles.expected_qv_final([0.3, 0.8], 0.0, {}, {1: 0.5}, 2, 0.05, 100)
    cos = oracles.expected_qv_final([0.05, 0.55], 0.0, {1: 0.5}, {}, 2, 0.05, 100)
    assert sin == pytest.approx(cos, rel=1e-12)


def test_occupation_of_circle_and_complement():
    assert oracles.occupation_at(0.3, [(0.0, 1.0)], 0.05) == pytest.approx(1.0, abs=1e-14)
    a = oracles.occupation_at(0.3, [(0.2, 0.45)], 0.05)
    b = oracles.occupation_at(0.3, [(0.0, 0.2), (0.45, 1.0)], 0.05)
    assert a + b == pytest.approx(1.0, abs=1e-14)


def test_generalized_binomial():
    h = 0.3
    exact = [math.comb(3, k) * h**k * (1 - h) ** (3 - k) for k in range(4)]
    got = oracles.generalized_binomial(3.0, h, 6)
    np.testing.assert_allclose(got[:4], exact, rtol=1e-14)
    np.testing.assert_allclose(got[4:], 0.0, atol=1e-15)
    # fractional alpha: the coefficients of (1 - h + h s)^alpha at s = 1 sum to 1
    assert oracles.generalized_binomial(1.5, 0.2, 80).sum() == pytest.approx(1.0, abs=1e-12)
    assert oracles.generalized_binomial(1.5, 0.2, 8)[3] < 0


def test_poisson_binomial():
    got = oracles.poisson_binomial([0.25, 0.25, 0.25])
    exact = [math.comb(3, k) * 0.25**k * 0.75 ** (3 - k) for k in range(4)]
    np.testing.assert_allclose(got, exact, rtol=1e-14)
    assert oracles.poisson_binomial([0.1, 0.5, 0.9]).sum() == pytest.approx(1.0, abs=1e-15)


def test_bessel_recurrence():
    z = 1.3
    for k in range(1, 10):
        lhs = oracles.bessel_i(k - 1, z) - oracles.bessel_i(k + 1, z)
        assert lhs == pytest.approx(2 * k / z * oracles.bessel_i(k, z), rel=1e-13)
    assert oracles.bessel_i(0, 0.0) == 1.0


def test_cole_hopf_cosine_at_time_zero_is_f():
    x = np.arange(256) / 256
    got = oracles.cole_hopf_cosine(0.4, 1.1, 0.8, 0.0, 256)
    np.testing.assert_allclose(got, 0.4 + 1.1 * np.cos(2 * np.pi * x), atol=1e-12)


def test_heat_decay_matches_explicit_steps():
    grid, alpha, steps = 64, 1.5, 25
    dt = 0.5 / grid**2 / alpha
    mu = oracles.heat_decay(grid, 1.0, 0.3, 3, alpha, dt, 0)
    for _ in range(steps):
        mu = mu + dt * 0.5 * alpha * (np.roll(mu, -1) - 2 * mu + np.roll(mu, 1)) * grid**2
    np.testing.assert_allclose(
        mu, oracles.heat_decay(grid, 1.0, 0.3, 3, alpha, dt, steps), atol=1e-14)


def test_z_within_rule():
    assert oracles.z_within([0.5, -1.0, 3.5]) == (1, True)  # one miss is allowed
    assert oracles.z_within([3.5, -3.2, 0.0]) == (2, False)
    assert oracles.z_within([7.0]) == (1, False)  # beyond the gross bound
    assert oracles.z_within([3.1] * 2 + [0.0] * 52) == (2, True)  # 54 scores allow 2
    assert oracles.z_within([float("nan")]) == (1, False)  # NaN is never within


def _span(sid, name, start, end, parent=0, op=1, attrs=None):
    return (sid, name, start, end, parent, op, attrs)


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span(1, "cli.main", 0.0, 10.0),
        _span(2, "pgf.series", 1.0, 4.0, parent=1),
        _span(3, "pgf.occupation", 3.0, 5.0, parent=1),
        _span(4, "torus.evaluate", 9.0, 12.0, parent=1),  # overruns its parent
    ]
    assert layers.self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_per_round_and_paths_chunks():
    attrs_paths = {"n": 2, "steps": 10}
    rounds = []
    spans = []
    for r in range(3):
        op = r + 1
        base = 100.0 * r
        spans += [
            _span(10 * r + 1, "particles.paths", base, base + 10.0, op=op, attrs=attrs_paths),
            _span(10 * r + 2, "parallel.run_chunked", base + 1.0, base + 9.0, 10 * r + 1, op),
            _span(10 * r + 3, "parallel.worker", base + 1.0, base + 5.0, 10 * r + 2, op,
                  {"replicates": 300}),
            _span(10 * r + 4, "parallel.worker", base + 1.0, base + 9.0, 10 * r + 2, op,
                  {"replicates": 200}),
            _span(10 * r + 5, "torus.evaluate", base + 2.0, base + 4.0, 10 * r + 3, op,
                  {"points": 1000}),
        ]
        rounds.append({op})
    m = layers.layer_metrics(spans, rounds)
    assert m["parallel.chunks"] == 2
    assert m["parallel.worker_busy_s"] == pytest.approx(12.0)
    assert m["parallel.overlap"] == pytest.approx(12.0 / 8.0)
    assert m["particles.paths_self_s"] == pytest.approx(2.0 + 2.0 + 8.0)
    assert m["particles.chunk_bytes"] == 300 * 2 * 21 * 8
    assert m["torus.evaluate_points_per_s"] == pytest.approx(500.0)
    assert m["pgf.series_s"] is None and m["vhj.cole_hopf_s.g256"] is None


def test_import_seconds_credits_the_innermost_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       _stdlib_helper",
        "import time:       200 |        300 |     numpy.core",
        "import time:        50 |        350 |   numpy",
        "import time:       400 |        400 |     scipy.special",
        "import time:        30 |        430 |   scipy.stats",
        "import time:        20 |        800 | dklab",
        "import time:         7 |          7 | unrelated",
    ])
    got = run.import_seconds(log)
    assert got == {"setup.import_numpy_s": 350e-6, "setup.import_scipy_s": 430e-6,
                   "setup.import_dklab_s": 20e-6}


def test_benchmark_json_names_every_metric_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rounds = [{"wall": 2.0, "cpu": 3.0, "ops": [0.1] * 20, "replicates": 10, "sample_time": 1.0}]
    reported = {**run.end_to_end(rounds, [1.0]), "peak_rss_mb": (1.0, "MB")}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in reported.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_UNITS

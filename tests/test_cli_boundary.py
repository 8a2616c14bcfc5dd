"""The CLI boundary: one parser per process, fuzzed argv and config files,
and manifests that echo their config exactly."""

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import dklab
from dklab import (
    EmpiricalMeasure,
    TorusDomain,
    atomicity_verdict,
    build_g,
    check_extremum_principles,
    cli,
    cole_hopf,
    equally_spaced_atoms,
    occupation,
    random_fourier_suite,
    verdict_from_expansion,
)
from dklab.cli import EXPERIMENTS, RunConfig, main, parse_manifest
from dklab.pgf import VERDICT_CONSISTENT, PgfExpansion, compare_histogram


@contextlib.contextmanager
def _in_tmp_dir():
    """Run in a fresh temporary directory, so default and fuzzed outputs land there."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            yield d
        finally:
            os.chdir(old)


class TestParserBuiltOnce:
    def test_flags_spelled_from_run_config(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "experiment")
        for name in EXPERIMENTS:
            flags = [a.option_strings[0] for a in sub.choices[name]._actions[1:]]
            assert flags == [
                "--config", "--alpha", "--t", "--replicates", "--seed", "--grid", "--out",
                "--mu0", "--f", "--set-a", "--order", "--max-steps", "--dt-factor",
                "--suite", "--num-steps",
            ]
        assert [f.name for f in dataclasses.fields(RunConfig)] == ["experiment"] + [
            f[2:].replace("-", "_") for f in flags[1:]
        ]

    def test_cached_parser_is_stateless_and_shared(self):
        cli._build_parser.cache_clear()
        with _in_tmp_dir():
            base = ["duality", "--alpha", "1", "--t", "0.02", "--replicates", "200"]
            assert main(base + ["--seed", "5", "--grid", "64", "--out", "a.csv"]) == 0
            assert main(base + ["--out", "b.csv"]) == 0
            first, second = parse_manifest("a.csv.manifest"), parse_manifest("b.csv.manifest")
            assert (first["seed"], first["grid"]) == ("5", "64")
            assert (second["seed"], second["grid"]) == (str(RunConfig.seed), str(RunConfig.grid))
            assert main(["replay", "--manifest", "a.csv.manifest", "--out", "r.csv"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


# --------------------------------------------------------------------------
# fuzzed argv and config files
# --------------------------------------------------------------------------

GARBAGE = ["", " ", "abc", "1:2", "0.2:0.45;0.5:0.9", "a:b", "0,0.5", "0x10", "1_000", "--", "é"]
VALUES = st.one_of(st.sampled_from(GARBAGE), st.text(max_size=8))
FLOATS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "0", "-0",
                     "1e-320", "1e308", "-1", "0.5", "1", "2", "3.5"]),
    st.floats().map(repr),
)
INTS = st.one_of(
    st.sampled_from(["0", "-1", "-3", "1", "8", "16", "64", "100", "1e3", "2.5",
                     str(2**63), str(2**64), str(-(2**63)), str(10**30)]),
    st.integers(-(2**70), 2**70).map(str),
)
# output paths stay inside the example's temporary directory
OUTS = ["r.csv", "", ".", "missing-dir/r.csv", "nul\x00.csv"]
FLAG_VALUES = {
    "--" + name.replace("_", "-"): {float: FLOATS, int: INTS, str: VALUES}[cli._TYPES[name]]
    for name in cli._SETTINGS
}
FLAG_VALUES["--out"] = st.sampled_from(OUTS)
FLAGS = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.one_of(FLAG_VALUES[flag], FLAG_VALUES[flag], VALUES).map(lambda v: [flag, v])
)
# a request small enough to run when valid: replicates, grid and steps
CHEAP = ["--replicates", "150", "--grid", "16", "--num-steps", "8", "--max-steps", "40",
         "--suite", "2", "--out", "r.csv"]


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
CONFIGS = st.one_of(
    st.dictionaries(
        st.sampled_from(sorted(cli._CONFIG_KEYS - {"out"}) + ["bogus", ""]), JSON_VALUES, max_size=5
    ).map(json.dumps),
    st.sampled_from(["{", "[1, 2]", "5", "null", '"alpha"', "{}", '{"alpha": 2, "t": NaN}']),
)


def _cheap(cfg: RunConfig) -> bool:
    return (cfg.replicates <= 300 and cfg.grid <= 64 and cfg.alpha <= 4
            and cfg.num_steps <= 20 and cfg.max_steps <= 100 and cfg.suite <= 3
            and len(cfg.mu0) <= 40 and len(cfg.set_a) <= 40)


class _TooLarge(Exception):
    """A valid request too large to run in a test."""


def _main_outcome(argv):
    """(exit code, stdout, stderr, warnings, whether an experiment ran) of main(argv).

    A request that passes validation runs only if it is small (_cheap);
    for a large one the exit code is None.
    """
    ran = []
    real_run = cli.run

    def bounded_run(cfg):
        ran.append(cfg)
        if not _cheap(cfg):
            raise _TooLarge
        return real_run(cfg)

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(cli, "run", bounded_run), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 0 for --help (its errors raise UsageError)
            code = exc.code
        except _TooLarge:
            code = None
    return code, out.getvalue(), err.getvalue(), caught, bool(ran)


def _check_outcome(code, out, err, caught, ran):
    event(f"exit {code}, {'ran' if ran else 'refused'}")
    assert "Traceback" not in err
    if code is None:  # valid, but too large to run here
        return
    assert code in (0, 1, 2, 3), (code, err)
    if not ran:
        # exit 2 is a failed verdict, so a request that ran nothing never exits 2
        assert code != 2, err
    if code == 1:
        assert err.startswith("dklab: "), err
    if code == 1 and not ran:
        # refused before any experiment ran: one message and no warning
        assert not caught, [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(
    sub=st.sampled_from(EXPERIMENTS * 4 + ("replay", "bogus")),
    cheap=st.sampled_from([True, True, True, False]),
    alpha=st.one_of(st.sampled_from(["1", "2", "3", "1.5", "0.5", "2.5", None]), FLOATS),
    flags=st.lists(FLAGS, max_size=3),
    tail=st.sampled_from([[]] * 12 + [["--bogus", "1"], ["--help"], ["stray"]]),
    config=st.one_of(st.none(), st.none(), CONFIGS),
)
@example(sub="pgf", cheap=False, alpha="inf", flags=[], tail=[], config=None)
@example(sub="pgf", cheap=True, alpha="1e400", flags=[], tail=[], config=None)
@example(sub="duality", cheap=True, alpha="2", flags=[], tail=[], config='{"alpha": 2, "t": null}')
@example(sub="duality", cheap=True, alpha="2", flags=[], tail=[], config='{"alpha": 2, "t": [1]}')
@example(sub="duality", cheap=True, alpha=None, flags=[], tail=[], config="5")
@example(sub="martingale", cheap=True, alpha="1", flags=[["--t", "inf"]], tail=[], config=None)
def test_any_argv_exits_with_a_documented_code(sub, cheap, alpha, flags, tail, config):
    argv = [sub] + (CHEAP if cheap else [])
    if alpha is not None:
        argv += ["--alpha", alpha]
    argv += [word for pair in flags for word in pair] + tail
    with _in_tmp_dir():
        if config is not None:
            with open("c.json", "w") as fh:
                fh.write(config)
            argv += ["--config", "c.json"]
        _check_outcome(*_main_outcome(argv))


MANIFEST_KEYS = [k for k in cli._SETTINGS if k != "out"]


@settings(max_examples=60, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    edits=st.dictionaries(st.sampled_from(MANIFEST_KEYS + ["experiment"]),
                          st.one_of(FLOATS, INTS, VALUES, st.none()).filter(
                              lambda v: v is None or ("\n" not in v and "\r" not in v)),
                          max_size=3),
)
@example(experiment="pgf", edits={"alpha": "inf"})
@example(experiment="pgf", edits={"grid": None})
def test_any_manifest_replays_with_a_documented_code(experiment, edits):
    cfg = RunConfig(experiment, 1.0 if experiment != "pgf" else 1.5, replicates=150,
                    grid=16, num_steps=8, max_steps=40, suite=2, out="r.csv")
    lines = cli._manifest_text(cfg, [], [], "0" * 64, 0.0, 1).splitlines()
    kept = []
    for line in lines:
        key = line.split(" = ")[0]
        if key not in edits:
            kept.append(line)
        elif edits[key] is not None:  # None drops the key
            kept.append(f"{key} = {edits[key]}")
    with _in_tmp_dir():
        with open("m.manifest", "w") as fh:
            fh.write("\n".join(kept) + "\n")
        outcome = _main_outcome(["replay", "--manifest", "m.manifest"])
    _check_outcome(*outcome)


# --------------------------------------------------------------------------
# no verdict from a number that is not finite
# --------------------------------------------------------------------------

# t log-uniform on [1e-6, 1e308], plus inf and nan
TIMES = st.one_of(
    st.floats(math.log(1e-6), math.log(1e308)).map(math.exp),
    st.sampled_from([math.inf, math.nan]),
)
# cells that must be finite in a table that exits 0
FINITE_COLUMNS = {"mc_mean", "mc_stderr", "rhs", "z", "mean_m", "se_m", "z_mean", "mean_m2",
                  "mean_qv", "se_diff", "z_qv"}


@settings(max_examples=80, deadline=None)
@given(
    sub=st.sampled_from(["duality", "martingale", "pgf", "vhj-check"]),
    alpha=st.sampled_from(["1", "2", "3", "1.5"]),
    t=TIMES,
)
@example(sub="martingale", alpha="1", t=1e200)
@example(sub="vhj-check", alpha="1", t=1e30)
@example(sub="vhj-check", alpha="1", t=1e12)
@example(sub="pgf", alpha="1.5", t=math.inf)
@example(sub="duality", alpha="1", t=math.nan)
def test_no_verdict_from_a_non_finite_statistic(sub, alpha, t):
    if sub in ("duality", "martingale") and alpha == "1.5":
        alpha = "2"  # the particle construction needs an integer alpha
    with _in_tmp_dir():
        code, _, err, _, _ = _main_outcome([sub, "--alpha", alpha, "--t", repr(t)] + CHEAP)
        if code == 0:
            with open("r.csv") as fh:
                table = fh.read()
    event(f"{sub}: exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code != 0:
        return
    assert "nan" not in table
    header, *rows = [line.split(",") for line in table.splitlines()]
    for row in rows:
        for column, cell in zip(header, row):
            if column in FINITE_COLUMNS:
                assert math.isfinite(float(cell)), (column, row)
    residuals = [(float(row[1]), float(row[2])) for row in rows if row[0] == "residual"]
    assert all(math.isfinite(r) for _, r in residuals), rows
    if math.inf in [float(row[2]) for row in rows if row[0] == "residual-order"]:
        # every order is inf, so every refined level sits at the round-off
        # floor 16 eps max|V| / dt; max|V| <= sup f0 = 1.5 (extremum principle)
        floor_eps = 16 * sys.float_info.epsilon * 1.5 * (1 + 1e-12)
        assert all(r <= floor_eps / dt for dt, r in residuals[1:]), rows


# --------------------------------------------------------------------------
# manifests echo their config exactly
# --------------------------------------------------------------------------

# manifest values come back with surrounding whitespace stripped
SAFE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12).map(str.strip)


@st.composite
def run_configs(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    if experiment in ("duality", "martingale"):
        alpha = float(draw(st.integers(1, 2**53)))
    else:
        alpha = draw(st.floats(min_value=5e-324, allow_infinity=False))
    t_min = 5e-324 if experiment == "pgf" else 0.0
    return RunConfig(
        experiment,
        alpha,
        t=draw(st.floats(min_value=t_min, allow_nan=False)),
        replicates=draw(st.integers(1, 2**80)),
        seed=draw(st.integers(-(2**80), 2**80)),
        grid=2 ** draw(st.integers(3, 70)),
        out=draw(SAFE_TEXT.filter(bool)),
        mu0=draw(SAFE_TEXT),
        f=draw(SAFE_TEXT),
        set_a=draw(SAFE_TEXT),
        order=draw(st.integers(1, 64)),
        max_steps=draw(st.integers(1, 2**70)),
        dt_factor=draw(st.floats(min_value=5e-324, max_value=1.0)),
        suite=draw(st.integers(1, 2**70)),
        num_steps=draw(st.integers(1, 2**70)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
def test_manifest_round_trips_every_field(cfg):
    with _in_tmp_dir():
        with open("m.manifest", "w") as fh:
            fh.write(cli._manifest_text(cfg, ["pass"], [1, 2], "ab" * 32, 1.25, 2))
        back = cli.config_from_manifest(parse_manifest("m.manifest"), cfg.out)
    for f in dataclasses.fields(RunConfig):
        mine, theirs = getattr(cfg, f.name), getattr(back, f.name)
        assert type(mine) is type(theirs), f.name
        assert mine == theirs or (math.isnan(mine) and math.isnan(theirs)), f.name


def test_manifest_text_pinned(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["pgf", "--alpha", "1.5", "--t", "0.05", "--order", "8", "--out", "p.csv"]) == 0
    lines = (tmp_path / "p.csv.manifest").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[-2:]] == ["wall_seconds", "threads_observed"]
    assert lines[:-2] == [
        "manifest_version = 1",
        f"code_version = {dklab.__version__}",
        "experiment = pgf",
        "alpha = 1.5",
        "t = 0.05",
        "replicates = 20000",
        "seed = 20260809",
        "grid = 256",
        "mu0 = equally-spaced",
        "f = default",
        "set_a = 0.2:0.45",
        "order = 8",
        "max_steps = 10000",
        "dt_factor = 0.5",
        "suite = 50",
        "num_steps = 200",
        "results_file = p.csv",
        "results_sha256 = 08c0b2b5c554bcff692e50682a2f63b72de5d85f9b0537855429ab816ff397c2",
        "stream_seeds = ",
        "verdicts = violates-nonnegativity",
    ]


@pytest.mark.parametrize("config", ['{"alpha": 2, "t": [1]}', '{"alpha": 2, "seed": {"a": 1}}'])
def test_ill_typed_config_value_is_a_usage_error(config, tmp_path, capsys):
    conf = tmp_path / "c.json"
    conf.write_text(config)
    assert main(["duality", "--config", str(conf), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dklab: ") and "cannot read" in err


# --------------------------------------------------------------------------
# alpha over the whole float range, and the pgf and vhj-check refusals
# --------------------------------------------------------------------------

# alpha log-uniform on [1e-3, 1e308]
ALPHAS = st.floats(math.log(1e-3), math.log(1e308)).map(math.exp)


def _run_cheap(argv):
    """(exit code, stderr, warnings, table rows or None) of main(argv + CHEAP).

    Runs in a fresh directory with no bound on alpha: at the CHEAP sizes a
    pgf or vhj-check request of any alpha is small.
    """
    err = io.StringIO()
    with _in_tmp_dir(), warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + CHEAP)
        rows = None
        if os.path.exists("r.csv"):
            with open("r.csv") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
    return code, err.getvalue(), caught, rows


@settings(max_examples=60, deadline=None)
@given(sub=st.sampled_from([("pgf",), ("pgf", "--mu0", "0.5"), ("vhj-check",)]), alpha=ALPHAS)
@example(sub=("pgf", "--mu0", "0.5"), alpha=1e300)
@example(sub=("pgf", "--mu0", "0.5"), alpha=100.5)
@example(sub=("vhj-check",), alpha=1e20)
def test_no_verdict_from_a_non_finite_statistic_at_any_alpha(sub, alpha):
    code, err, _, rows = _run_cheap([*sub, "--alpha", repr(alpha)])
    event(f"{' '.join(sub)}: exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert rows is None, rows  # refused: no table
    if code != 0:
        return
    for row in rows[1:]:
        if row[0] in ("coefficient", "chi-square", "residual"):
            assert all(math.isfinite(float(cell)) for cell in row[2:4] if cell), row


@settings(max_examples=30, deadline=None)
@given(alpha=st.integers(1, 12), order=st.integers(1, 8))
def test_integer_alpha_on_its_atoms_is_consistent(alpha, order):
    code, err, _, rows = _run_cheap(["pgf", "--alpha", str(alpha), "--order", str(order)])
    assert code in (0, 2), err
    verdict = next(row[4] for row in rows if row[0] == "verdict")
    assert verdict.startswith("consistent-integer:"), verdict
    ks = [int(row[1]) for row in rows if row[0] == "coefficient"]
    assert ks == list(range(max(order, alpha) + 1))


@pytest.mark.parametrize("alpha", ["9", "20"])
def test_mass_link_sums_only_coefficients_it_has(alpha, tmp_path, monkeypatch):
    # the default order is 8: the mass of {0..alpha} needs p_9 and beyond
    monkeypatch.chdir(tmp_path)
    assert main(["pgf", "--alpha", alpha, "--out", "p.csv"]) == 0
    rows = [line.split(",") for line in (tmp_path / "p.csv").read_text().splitlines()]
    assert [int(row[1]) for row in rows if row[0] == "coefficient"] == list(range(int(alpha) + 1))
    assert next(row[4] for row in rows if row[0] == "verdict").startswith("consistent-integer:")
    assert next(row[4] for row in rows if row[0] == "chi-square") == "pass"


@pytest.mark.parametrize("argv", [
    ["pgf", "--alpha", "100.5", "--mu0", "0.5"],  # floor(alpha) beyond the series budget
    ["pgf", "--alpha", "1e300", "--mu0", "0.5"],  # the same, where p_2 was nan
    ["pgf", "--alpha", "2", "--replicates", "3"],  # the histogram fills one bin
])
def test_pgf_refuses_with_no_table_and_no_warning(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", "p.csv"]) == 1
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "p.csv").exists()
    assert capsys.readouterr().err.startswith("dklab: ")


@pytest.mark.parametrize("argv, cause", [
    # one antithetic pair gives no standard error
    (["duality", "--alpha", "2", "--replicates", "2"], "replicates: 2 given"),
    # a non-finite atom is refused as an input, before any work on it
    (["martingale", "--alpha", "1", "--mu0", "inf", "--replicates", "200"], "positions"),
    (["pgf", "--alpha", "2", "--mu0", "0.1,-inf", "--replicates", "100"], "positions"),
    (["duality", "--alpha", "2", "--mu0", "0.5,nan"], "positions"),
    (["pgf", "--alpha", "1.5", "--mu0", "nan"], "positions"),
    # a t with no centered difference around it, refused before any work
    (["vhj-check", "--alpha", "1", "--t", "nan", "--suite", "2"], "t = nan"),
    (["vhj-check", "--alpha", "1", "--t", "inf", "--suite", "2"], "t = inf"),
    (["vhj-check", "--alpha", "1", "--t", "1e308", "--suite", "2"], "t = 1e+308"),
    # a t that is not finite, refused before the right-hand side or any draw
    (["duality", "--alpha", "1", "--t", "nan"], "t = nan"),
    (["duality", "--alpha", "1", "--t", "inf"], "t = inf"),
])
def test_refused_up_front_with_no_numpy_warning(argv, cause, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", "r.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dklab: ") and err.count("\n") == 1, err
    assert cause in err, err
    assert not (tmp_path / "r.csv").exists()


def _vhj_rows(t, tmp_path):
    assert main(["vhj-check", "--alpha", "1", "--suite", "2", "--t", t,
                 "--out", str(tmp_path / "v.csv")]) == 0
    return [line.split(",") for line in (tmp_path / "v.csv").read_text().splitlines()]


@pytest.mark.parametrize("t", ["1", "3", "10", "30"])
def test_vhj_residual_at_the_round_off_floor_passes(t, tmp_path):
    rows = _vhj_rows(t, tmp_path)
    assert next(row[2] for row in rows if row[0] == "residual-order") == "inf"


def test_vhj_residual_above_the_floor_keeps_its_order(tmp_path):
    rows = _vhj_rows("0.7", tmp_path)
    order = float(next(row[2] for row in rows if row[0] == "residual-order"))
    assert abs(order - 2.0) < 0.05


class TestVerdictInputs:
    """The pgf verdict layer refuses what cannot decide a verdict."""

    @pytest.mark.parametrize("p, unc", [
        ([0.5, math.nan], None),
        ([0.5, math.inf, 0.0], [0.0, 0.0, 0.0]),
        ([0.5, 0.5], [0.0, math.nan]),
    ])
    def test_non_finite_expansion_refused(self, p, unc):
        exp = PgfExpansion(np.array(p), uncertainties=None if unc is None else np.array(unc))
        with pytest.raises(ArithmeticError, match="not finite"):
            verdict_from_expansion(1.0, exp)

    def test_mass_link_needs_floor_alpha_plus_one_coefficients(self):
        exp = PgfExpansion(np.array([0.25, 0.5, 0.25]))
        assert verdict_from_expansion(2.0, exp).verdict == VERDICT_CONSISTENT
        with pytest.raises(ValueError, match=r"p_0\.\.p_3"):
            verdict_from_expansion(3.5, exp)

    def test_atomicity_verdict_extracts_through_floor_alpha(self):
        dom = TorusDomain(64)
        occ = occupation(dom, [(0.2, 0.45)], 0.05, 9)
        rep = atomicity_verdict(9, equally_spaced_atoms(9), occ, order=2)
        assert rep.expansion.coefficients.size == 10
        assert rep.verdict == VERDICT_CONSISTENT

    def test_floor_alpha_beyond_the_series_budget_refused(self):
        occ = occupation(TorusDomain(64), [(0.2, 0.45)], 0.05, 65.5)
        with pytest.raises(ValueError, match="series budget"):
            atomicity_verdict(65.5, EmpiricalMeasure([0.5]), occ, order=8)

    def test_chi_square_needs_two_bins(self):
        mc = PgfExpansion(np.array([0.25, 0.5, 0.25]))
        with pytest.raises(ValueError, match="2 bins"):
            compare_histogram(mc, np.array([0.25, 0.5, 0.25]), 3)

    def test_chi_square_non_finite_refused(self):
        mc = PgfExpansion(np.array([0.5, math.nan]))
        with pytest.raises(ArithmeticError, match="not finite"):
            compare_histogram(mc, np.array([0.5, 0.5]), 100)


class TestRangesThroughExtrema:
    """The extremum check's range of V_t f is one inverse FFT, through
    FourierFunction.extrema, and must agree bit for bit with the body it
    replaced, sampling at 4x the grid and taking min and max.  occupation's
    h has no grid: its values at the 4x grid's points, through exact turns,
    agree with that inverse FFT to round-off and lie inside (0, 1), and g's
    domain bound delta is 1 - max h at the atoms."""

    @pytest.mark.parametrize("grid", [64, 256, 1024])
    def test_occupation_range(self, grid):
        rng = np.random.Generator(np.random.Philox(key=(grid, 7)))
        points = TorusDomain(4 * grid).grid()
        for _ in range(20):
            lo = float(rng.uniform(0.05, 0.5))
            interval = (lo, lo + float(rng.uniform(0.1, 0.4)))
            occ = occupation(None, [interval], float(rng.uniform(0.02, 0.2)),
                             float(rng.uniform(0.3, 2.5)))
            h = occ.evaluate(points)
            assert np.max(np.abs(h - occ.h.sample(TorusDomain(4 * grid)))) < 1e-15
            assert np.all((h > 0.0) & (h < 1.0))
            atoms = rng.uniform(0.0, 1.0, 3)
            g = build_g(occ.alpha, EmpiricalMeasure(atoms), occ)
            assert g.delta == 1.0 - float(np.max(occ.evaluate(atoms)))

    @pytest.mark.parametrize("grid", [16, 32, 256, 1024])
    def test_extremum_range(self, grid):
        rng = np.random.Generator(np.random.Philox(key=(grid, 8)))
        dom = TorusDomain(grid)
        for seed in range(10):
            for f in random_fourier_suite(seed, 3):
                field = cole_hopf(dom, f, float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.0, 0.2)))
                v = -field.alpha * np.log(field.transform.sample(TorusDomain(4 * grid)))
                rep = check_extremum_principles(field)
                assert (rep.inf_v, rep.sup_v) == (float(v.min()), float(v.max()))

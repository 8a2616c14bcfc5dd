"""Command-line orchestration: config precedence, schemas, manifests, replay."""

import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import pytest

import dklab
from dklab import cli
from dklab.cli import UsageError, main, parse_config, parse_manifest
from dklab.parallel import thread_count


# The child reads its own peak RSS from VmHWM, the high-water mark of its
# address space since exec.  RUSAGE_SELF would not do: Linux carries a
# process's ru_maxrss across fork and exec, so a child of this test process
# reports at least the test process's own peak.  RUSAGE_CHILDREN here would
# include the children of earlier tests.
_CHILD_PROBE = (
    "import sys\n"
    "from dklab.cli import main\n"
    "code = main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
    "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
    "scipy = any(name.startswith('scipy') for name in sys.modules)\n"
    "print(code, scipy, hwm.split()[1])\n"
)


def run_child(argv, out):
    """main(argv) in a fresh interpreter: (exit code, any scipy module
    loaded, peak RSS in KiB, stderr)."""
    src = str(pathlib.Path(dklab.__file__).parents[1])
    res = subprocess.run([sys.executable, "-c", _CHILD_PROBE, str(out), *argv],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    code, scipy, peak_kib = res.stdout.splitlines()[-1].split()
    return int(code), scipy == "True", int(peak_kib), res.stderr


def run_cli(argv):
    return main(argv)


class TestParseConfig:
    def test_missing_alpha_names_the_field(self):
        with pytest.raises(UsageError, match="alpha"):
            parse_config(["duality"])

    def test_defaults_filled(self, tmp_path):
        cfg = parse_config(["duality", "--alpha", "2", "--out", str(tmp_path / "r.csv")])
        assert cfg.alpha == 2
        assert cfg.t == 0.05
        assert cfg.replicates == 20000
        assert cfg.grid == 256
        assert cfg.seed == 20260809

    def test_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"alpha": 2, "replicates": 500, "t": 0.02}))
        cfg = parse_config(
            ["duality", "--config", str(conf), "--replicates", "800"]
        )
        assert cfg.replicates == 800  # flag wins
        assert cfg.t == 0.02  # file value survives

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"alpha": 2, "bogus": 1}))
        with pytest.raises(UsageError, match="bogus"):
            parse_config(["duality", "--config", str(conf)])

    def test_non_integer_alpha_rejected_for_sampling_experiments(self):
        with pytest.raises(UsageError, match="integer"):
            parse_config(["duality", "--alpha", "1.5"])
        with pytest.raises(UsageError, match="integer"):
            parse_config(["martingale", "--alpha", "2.5"])

    def test_pgf_accepts_fractional_alpha(self, tmp_path):
        cfg = parse_config(["pgf", "--alpha", "1.5", "--out", str(tmp_path / "p.csv")])
        assert cfg.alpha == 1.5

    def test_bad_grid_rejected(self):
        with pytest.raises(UsageError, match="grid"):
            parse_config(["duality", "--alpha", "2", "--grid", "100"])


class TestRuns:
    def test_duality_schema_and_exit(self, tmp_path):
        out = tmp_path / "duality.csv"
        code = run_cli(
            ["duality", "--alpha", "2", "--t", "0.02", "--replicates", "4000",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,t,f_id,replicates,mc_mean,mc_stderr,rhs,z,verdict"
        assert len(lines) == 4  # header + three test functions
        assert all(row.endswith(("pass", "fail")) for row in lines[1:])
        manifest = parse_manifest(str(out) + ".manifest")
        assert manifest["experiment"] == "duality"
        assert manifest["results_sha256"]

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        out = tmp_path / "vhj.csv"
        src = str(pathlib.Path(dklab.__file__).parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "dklab", "vhj-check", "--alpha", "1", "--t", "0.05",
             "--suite", "2", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert parse_manifest(str(out) + ".manifest")["experiment"] == "vhj-check"

    def test_pgf_fractional_writes_witness(self, tmp_path):
        out = tmp_path / "pgf.csv"
        code = run_cli(
            ["pgf", "--alpha", "1.5", "--t", "0.05", "--out", str(out), "--order", "8"]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "record,k,value,extra,detail"
        assert "violates-nonnegativity" in text

    def test_pgf_integer_includes_chi_square(self, tmp_path):
        out = tmp_path / "pgf2.csv"
        code = run_cli(
            ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "20000",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "chi-square" in text
        assert "consistent-integer" in text

    def test_pgf_ignores_grid(self, tmp_path):
        # h is built with no grid, so a coarse --grid neither refuses this
        # request nor biases its chi-square reference against the counts
        tables = []
        for grid in ("8", "16", "256"):
            out = tmp_path / f"pgf-{grid}.csv"
            assert run_cli(["pgf", "--alpha", "2", "--t", "0.005", "--grid", grid,
                            "--replicates", "200000", "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_duality_ignores_grid(self, tmp_path):
        # the rhs picks its own Cole-Hopf grid: at --grid 8 it was projected
        # there, and this request exited 2 (z = +2.80, +47.5, -5.15)
        tables = []
        for grid in ("8", "16", "256"):
            out = tmp_path / f"duality-{grid}.csv"
            assert run_cli(["duality", "--alpha", "1", "--t", "0.001", "--grid", grid,
                            "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_breakdown_summary(self, tmp_path):
        out = tmp_path / "bd.csv"
        code = run_cli(
            ["breakdown", "--alpha", "1.5", "--grid", "64", "--replicates", "10",
             "--max-steps", "2000", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "summary" in text
        assert "artifact-calibrated" in text

    def test_vhj_check(self, tmp_path):
        out = tmp_path / "vhj.csv"
        code = run_cli(
            ["vhj-check", "--alpha", "1", "--t", "0.05", "--suite", "10",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "residual-order" in text
        assert "extremum-principles" in text
        assert "gradient-estimate" in text

    def test_martingale_run(self, tmp_path):
        out = tmp_path / "mart.csv"
        code = run_cli(
            ["martingale", "--alpha", "1", "--t", "0.02", "--replicates", "2000",
             "--num-steps", "50", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("alpha,t,phi_id,replicates,mean_m")

    def test_martingale_non_finite_ensemble_exits_1(self, tmp_path, capsys):
        # t = inf gives NaN paths; they must be refused, never passed
        out = tmp_path / "nan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run_cli(
                ["martingale", "--alpha", "1", "--t", "inf", "--replicates", "200",
                 "--num-steps", "20", "--out", str(out)]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert "pass" not in captured.out + captured.err
        assert not out.exists()

    def test_usage_error_exit_code(self, tmp_path):
        assert run_cli(["duality"]) == 1
        assert run_cli(["duality", "--alpha", "-3"]) == 1


# requests that must be refused (exit 1, one message, no warning, no output)
REFUSED = {
    "breakdown-alpha-nan": ["breakdown", "--alpha", "nan", "--grid", "64",
                            "--replicates", "2", "--max-steps", "200"],
    "vhj-check-suite-0": ["vhj-check", "--alpha", "1", "--suite", "0"],
    "replay-missing-keys": ["replay", "--manifest", "{manifest}"],
    "pgf-alpha-inf": ["pgf", "--alpha", "inf"],
    "breakdown-max-steps-negative": ["breakdown", "--alpha", "1.5", "--grid", "16",
                                     "--replicates", "3", "--max-steps", "-5"],
    "breakdown-max-steps-0": ["breakdown", "--alpha", "1.5", "--grid", "16",
                              "--replicates", "3", "--max-steps", "0"],
    "martingale-num-steps-0": ["martingale", "--alpha", "1", "--replicates", "200",
                               "--num-steps", "0"],
    # alpha near the float maximum: the series budget (pgf) or the bound on
    # max|f|/alpha (vhj-check) refuses, and the heat damping must not warn
    # on the way
    "pgf-alpha-1e308": ["pgf", "--alpha", "1e308", "--mu0", "0.5"],
    "vhj-check-alpha-1e308": ["vhj-check", "--alpha", "1e308", "--suite", "2", "--grid", "64"],
    # -alpha log w has lost f to rounding: the extremum check would judge
    # the rounding
    "vhj-check-alpha-1e16": ["vhj-check", "--alpha", "1e16", "--suite", "2"],
    "vhj-check-alpha-1e20": ["vhj-check", "--alpha", "1e20", "--suite", "2"],
    # sqrt(alpha t) leaves the wrapped one-draw positions no fractional bits
    "duality-t-1e30": ["duality", "--alpha", "2", "--t", "1e30"],
    "pgf-t-1e100": ["pgf", "--alpha", "2", "--t", "1e100", "--replicates", "2000"],
    # argparse's own errors are usage errors too, not the exit 2 of a failed verdict
    "duality-unknown-flag": ["duality", "--alpha", "1", "--bogus", "1"],
    "duality-alpha-not-a-number": ["duality", "--alpha", "one"],
    "duality-stray-word": ["duality", "--alpha", "1", "stray"],
}


class TestRefusals:
    @pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
    def test_invalid_request_exits_1_cleanly(self, argv, tmp_path, capsys):
        manifest = tmp_path / "missing-keys.manifest"
        manifest.write_text("experiment = pgf\nalpha = 1.5\n")
        out = tmp_path / "refused.csv"
        argv = [a.replace("{manifest}", str(manifest)) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert not caught
        assert err.startswith("dklab: ") and err.count("\n") == 1
        assert not out.exists()

    def test_vhj_alpha_whose_square_overflows_is_named(self, tmp_path, capsys):
        code = run_cli(REFUSED["vhj-check-alpha-1e308"] + ["--out", str(tmp_path / "v.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("dklab: alpha = 1e+308: ")

    def test_pgf_past_the_series_budget_is_refused_before_its_atoms(self, tmp_path):
        # 1e8 equally spaced atoms take 0.8 GB, so the refusal must come first
        out = tmp_path / "p.csv"
        code, _, peak_kib, err = run_child(["pgf", "--alpha", "1e8", "--grid", "16"], out)
        assert code == 1
        assert err == ("dklab: alpha = 100000000.0: the mass check needs "
                       "p_0..p_floor(alpha), beyond the series budget (64)\n")
        assert peak_kib < 200 * 1024
        assert not out.exists()

    def test_pgf_chi_square_loads_no_scipy(self, tmp_path):
        # the chi-square tail is computed in closed form; scipy.special
        # alone would add about 18 MB to the run
        out = tmp_path / "p.csv"
        code, scipy, peak_kib, _ = run_child(
            ["pgf", "--alpha", "2", "--t", "0.05", "--replicates", "5000", "--seed", "42"], out)
        assert (code, scipy) == (0, False)
        assert any(row.startswith("chi-square,") for row in out.read_text().splitlines())
        assert peak_kib < 50 * 1024

    def test_out_of_memory_is_refused(self, tmp_path, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.64 TiB for an array")

        monkeypatch.setattr(cli, "run_duality_test", too_large)
        out = tmp_path / "huge.csv"
        code = run_cli(["duality", "--alpha", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("dklab: out of memory") and "Traceback" not in err
        assert not out.exists()

    def test_import_leaves_scipy_unloaded(self):
        src = str(pathlib.Path(dklab.__file__).parents[1])
        probe = "import sys, dklab, dklab.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "False"


# requests whose statistics are not finite: no verdict may be drawn from them
NON_FINITE = {
    "martingale-t-1e200": ["martingale", "--alpha", "1", "--t", "1e200", "--replicates", "2000",
                           "--num-steps", "20"],
    "vhj-check-t-1e30": ["vhj-check", "--alpha", "1", "--t", "1e30", "--suite", "2"],
    "pgf-t-inf": ["pgf", "--alpha", "1.5", "--t", "inf"],
    "duality-t-nan": ["duality", "--alpha", "1", "--t", "nan", "--replicates", "200"],
}


class TestNonFiniteStatistics:
    @pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_refused_with_exit_1_and_no_table(self, argv, tmp_path, capsys):
        # numpy may warn on the way (M_t^2 overflows, t + dt == t); the
        # verdict layer refuses the number that results
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run_cli(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("dklab: ") and "Traceback" not in captured.err
        assert "pass" not in captured.out
        assert not out.exists()

    def test_duality_nan_names_z_without_a_warning(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(NON_FINITE["duality-t-nan"] + ["--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert not caught
        assert capsys.readouterr().err.startswith("dklab: t = nan: must be finite")

    def test_martingale_at_t_zero_passes_with_z_zero(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli(["martingale", "--alpha", "1", "--t", "0", "--replicates", "200",
                        "--num-steps", "20", "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        for row in rows:
            cells = dict(zip(header, row))
            assert (cells["z_mean"], cells["z_qv"], cells["verdict"]) == ("0.0", "0.0", "pass")


class TestReproducibility:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["duality", "--alpha", "1", "--t", "0.02", "--replicates", "2000", "--seed", "9"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_invariance(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "4", str(os.cpu_count() or 8)):
            monkeypatch.setenv("DKLAB_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            assert run_cli(
                ["duality", "--alpha", "2", "--t", "0.02", "--replicates", "4000",
                 "--seed", "13", "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_records_thread_count_in_effect(self, tmp_path, monkeypatch):
        args = ["pgf", "--alpha", "1.5", "--t", "0.05", "--seed", "21"]
        digests = []
        for threads in ("3", None):
            if threads is None:
                monkeypatch.delenv("DKLAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("DKLAB_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            assert run_cli(args + ["--out", str(out)]) == 0
            m = parse_manifest(str(out) + ".manifest")
            assert m["threads_observed"] == str(thread_count())
            digests.append(m["results_sha256"])
        assert m["threads_observed"] == str(os.cpu_count() or 1)
        assert digests[0] == digests[1]

    def test_replay_byte_identical(self, tmp_path):
        out = tmp_path / "orig.csv"
        assert run_cli(
            ["pgf", "--alpha", "1.5", "--t", "0.05", "--seed", "21", "--out", str(out)]
        ) == 0
        code = run_cli(["replay", "--manifest", str(out) + ".manifest",
                        "--out", str(tmp_path / "replayed.csv")])
        assert code == 0
        assert (tmp_path / "replayed.csv").read_bytes() == out.read_bytes()

    def test_replay_detects_mismatch(self, tmp_path):
        out = tmp_path / "orig.csv"
        assert run_cli(
            ["breakdown", "--alpha", "1.5", "--grid", "64", "--replicates", "5",
             "--max-steps", "500", "--seed", "3", "--out", str(out)]
        ) == 0
        manifest_path = pathlib.Path(str(out) + ".manifest")
        tampered = manifest_path.read_text().replace("seed = 3", "seed = 4")
        bad = tmp_path / "tampered.manifest"
        bad.write_text(tampered)
        code = run_cli(["replay", "--manifest", str(bad),
                        "--out", str(tmp_path / "re.csv")])
        assert code == 2


PGF_RUN = ["pgf", "--alpha", "1.5", "--t", "0.05", "--seed", "21"]
# unrelated bytes longer and shorter than any output of PGF_RUN
STALE = {"longer": b"\xff stale bytes\n" * 1000, "shorter": b"old\n"}


def _outputs(directory):
    """The table and the manifest, less its wall_seconds line, of r.csv in directory."""
    manifest = (directory / "r.csv.manifest").read_bytes().splitlines(keepends=True)
    return ((directory / "r.csv").read_bytes(),
            b"".join(line for line in manifest if not line.startswith(b"wall_seconds = ")))


class TestOverwrite:
    """Outputs are written over in place and cut to length, not truncated first."""

    @pytest.mark.parametrize("stale", STALE)
    def test_stale_outputs_leave_no_trace(self, stale, tmp_path, monkeypatch):
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        fresh.mkdir()
        used.mkdir()
        monkeypatch.chdir(fresh)
        assert run_cli(PGF_RUN + ["--out", "r.csv"]) == 0
        for name in ("r.csv", "r.csv.manifest", "r.csv.replay", "r.csv.replay.manifest"):
            (used / name).write_bytes(STALE[stale])
        monkeypatch.chdir(used)
        assert run_cli(PGF_RUN + ["--out", "r.csv"]) == 0
        assert _outputs(used) == _outputs(fresh)
        assert run_cli(["replay", "--manifest", "r.csv.manifest"]) == 0
        assert (used / "r.csv.replay").read_bytes() == (fresh / "r.csv").read_bytes()

    def test_new_output_gets_the_mode_of_open_wb(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "wb"):
                pass
            cli._overwrite(str(tmp_path / "new"), b"x")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("reference", "new")]
        assert modes == [0o640, 0o640]

    def test_symlinked_out_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(STALE["longer"])
        link.symlink_to(target)
        assert run_cli(PGF_RUN + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes().startswith(b"record,k,value,extra,detail\n")
        assert parse_manifest(str(link) + ".manifest")["results_sha256"] == hashlib.sha256(
            target.read_bytes()).hexdigest()

    def test_device_is_written_as_it_is(self):
        cli._overwrite(os.devnull, b"bytes a device takes and keeps nothing of\n")

    def test_directory_at_out_is_an_io_failure(self, tmp_path, capsys):
        (tmp_path / "d.csv").mkdir()
        assert run_cli(PGF_RUN + ["--out", str(tmp_path / "d.csv")]) == 3
        assert capsys.readouterr().err.startswith("dklab: I/O failure: ")

    def test_non_ascii_out_name_is_written_as_utf8(self, tmp_path):
        out = tmp_path / "résumé-α.csv"
        assert run_cli(PGF_RUN + ["--out", str(out)]) == 0
        text = pathlib.Path(f"{out}.manifest").read_bytes().decode("utf-8")
        assert f"results_file = {out}\n" in text
        assert run_cli(["replay", "--manifest", f"{out}.manifest"]) == 0
        assert pathlib.Path(f"{out}.replay").read_bytes() == out.read_bytes()

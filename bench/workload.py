"""Run one benchmark workload in this interpreter and print its raw figures.

run.py starts this script in a fresh interpreter for every sample it
takes, so that each one pays dklab's import as a user's process does.
The last line of standard output is one JSON object:

    ready_at   time.monotonic() when the first op was about to start
    rounds     per round: traced?, wall, cpu, op latencies, replicates
               sampled and the seconds of the ops that sampled them
    kinds      the kind of each op of a round, in order
    attempted, failed, problems (outputs that did not check), peak_rss_mb
    layers, spans_file   per-layer metrics and the spans (traced runs only)

A workload is a fixed list of ops per round, rebuilt from (seed, round);
the script runs whole rounds until --seconds have passed.  With --trace 1
it alternates untraced and traced rounds, so the traced overhead is
measured within one process, then writes the spans to bench/out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dklab  # noqa: E402

if Path(dklab.__file__).resolve().parent != ROOT / "src" / "dklab":
    raise SystemExit(f"dklab imported from {dklab.__file__}, not from this checkout")

import dklab.cli  # noqa: E402
from dklab import EmpiricalMeasure, FourierFunction, TorusDomain  # noqa: E402
from dklab.particles import standard_increments  # noqa: E402
from dklab.rng import RngStream  # noqa: E402
from dklab.spde import make_field, stability_limit  # noqa: E402

import oracles  # noqa: E402

OUT = BENCH / "out"

# The dklab entry points the benchmark calls; a traced run wraps these.
API = SimpleNamespace(
    run_duality_test=dklab.run_duality_test,
    martingale_ensemble=dklab.martingale_ensemble,
    qv_statistic=dklab.qv_statistic,
    cli_main=dklab.cli.main,
    cole_hopf=dklab.cole_hopf,
    evolve=dklab.spde.evolve,
    occupation=dklab.occupation,
    atomicity_verdict=dklab.atomicity_verdict,
)


@dataclass
class Op:
    """One call into dklab: run() returns its output; check(output) -> problems."""

    kind: str
    run: Callable
    check: Callable | None = None
    replicates: int = 0  # Monte Carlo replicates the call samples
    refused: bool = False  # an invalid request that dklab should refuse


def _stream_seeds(seed: int, tag: int, count: int, round_index: int = 0) -> list[int]:
    ss = np.random.SeedSequence((seed, tag, round_index))
    return [int(s) for s in ss.generate_state(count, np.uint64)]


# ---------------------------------------------------------------------------
# duality-sweep
# ---------------------------------------------------------------------------

# (f_id, mean, cos, sin): the terms of dklab.default_f_suite(), restated so
# the oracle never reads the program's own representation.
F_TERMS = {
    "cos1": (1.0, {1: 0.5}, {}),
    "mix2": (0.8, {2: 0.2}, {1: 0.3}),
    "mix3": (1.2, {1: 0.4, 3: 0.1}, {2: 0.3}),
}


class DualitySweep:
    """The criterion-1 grid, 27 run_duality_test cells a round, fresh seeds each round."""

    replicates = 20000
    min_rounds = 4  # at least 100 cells in a run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dom = TorusDomain(256)
        suite = dict(dklab.default_f_suite())
        self.cells = [
            (alpha, t, f_id, suite[f_id], dklab.equally_spaced_atoms(alpha))
            for alpha in (1, 2, 5)
            for t in (0.02, 0.05, 0.1)
            for f_id in F_TERMS
        ]
        self.rhs = {}
        self.z = []

    def ops(self, round_index: int) -> list[Op]:
        seeds = _stream_seeds(self.seed, 1, len(self.cells), round_index)
        return [
            Op(
                "cell",
                lambda a=alpha, m=mu0, f=f, t=t, s=s, i=f_id: API.run_duality_test(
                    a, m, f, t, self.replicates, s, dom=self.dom, f_id=i),
                lambda rep, cell=(alpha, t, f_id): self._check(rep, *cell),
                replicates=self.replicates,
            )
            for (alpha, t, f_id, f, mu0), s in zip(self.cells, seeds)
        ]

    def _check(self, rep, alpha, t, f_id) -> list[str]:
        key = (alpha, t, f_id)
        if key not in self.rhs:
            mean, cos, sin = F_TERMS[f_id]
            atoms = (np.arange(alpha) + 0.5) / alpha
            self.rhs[key] = oracles.duality_rhs(atoms, mean, cos, sin, alpha, t)
        exact = self.rhs[key]
        problems = []
        if abs(rep.rhs - exact) > 1e-12 * exact:
            problems.append(f"cell {key}: rhs {rep.rhs!r} vs quadrature {exact!r}")
        if rep.replicates != self.replicates or not rep.mc_stderr > 0:
            problems.append(f"cell {key}: replicates {rep.replicates}, stderr {rep.mc_stderr}")
        else:
            self.z.append((rep.mc_mean - exact) / rep.mc_stderr)
        return problems

    def final_check(self) -> list[str]:
        misses, ok = oracles.z_within(self.z)
        return [] if ok else [f"{misses} of {len(self.z)} cells beyond 3 sigma "
                              f"(max |z| {max(map(abs, self.z)):.2f})"]


# ---------------------------------------------------------------------------
# martingale-paths
# ---------------------------------------------------------------------------

# criterion-3 cases: (n, (mean, cos, sin) of phi, t)
MARTINGALE_CASES = [
    (1, (0.0, {1: 1.0}, {}), 0.05),
    (2, (0.5, {2: 0.3}, {1: 0.8}), 0.05),
    (5, (0.0, {1: 0.6}, {2: 0.4}), 0.02),
]


class MartingalePaths:
    """The three criterion-3 cases, the same seeds every round of a run."""

    replicates = 10000
    steps = 200
    min_rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.seeds = _stream_seeds(seed, 2, len(MARTINGALE_CASES))
        self.cases = [
            (n, FourierFunction.from_modes(mean=m, cos=c, sin=s), t, (m, c, s))
            for n, (m, c, s), t in MARTINGALE_CASES
        ]
        self.first = {}
        self.z = []

    def ops(self, round_index: int) -> list[Op]:
        out = []
        for (n, phi, t, terms), s in zip(self.cases, self.seeds):
            def run(n=n, phi=phi, t=t, s=s):
                ens = API.martingale_ensemble(
                    dklab.equally_spaced_atoms(n), n, phi, t, self.steps, self.replicates, s)
                return ens, API.qv_statistic(ens)

            out.append(Op(f"n{n}", run, lambda o, n=n, t=t, terms=terms: self._check(
                o, n, t, terms), replicates=self.replicates))
        return out

    def _check(self, output, n, t, terms) -> list[str]:
        (m, qv, _), rep = output
        if n in self.first:
            m0, qv0 = self.first[n]
            same = np.array_equal(m, m0) and np.array_equal(qv, qv0)
            return [] if same else [f"n={n}: a repeated case drew different paths"]
        self.first[n] = (m, qv)
        r = m.size
        se = lambda x: float(np.std(x, ddof=1) / math.sqrt(r))  # noqa: E731
        diff = m**2 - qv
        z_mean = float(np.mean(m)) / se(m)
        z_qv = float(np.mean(diff)) / se(diff)
        atoms = (np.arange(n) + 0.5) / n
        expected = oracles.expected_qv_final(atoms, *terms, n, t, self.steps)
        z_expected = (float(np.mean(qv)) - expected) / se(qv)
        self.z += [z_mean, z_qv, z_expected]
        problems = []
        if r != self.replicates or rep.replicates != r:
            problems.append(f"n={n}: {r} replicates returned")
        if not (math.isclose(rep.z_mean, z_mean, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(rep.z_qv, z_qv, rel_tol=1e-9, abs_tol=1e-12)):
            problems.append(f"n={n}: qv_statistic z ({rep.z_mean}, {rep.z_qv}) "
                            f"vs recomputed ({z_mean}, {z_qv})")
        return problems

    def final_check(self) -> list[str]:
        misses, ok = oracles.z_within(self.z)
        return [] if ok else [f"{misses} of {len(self.z)} martingale z-scores beyond 3 sigma: "
                              + ", ".join(f"{z:+.2f}" for z in self.z)]


# ---------------------------------------------------------------------------
# witness-sweep
# ---------------------------------------------------------------------------

FRACTIONAL = (0.5, 1.5, 2.5)
GRID = 256


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    warned: int  # warnings raised during the run
    raised: str | None  # an exception that escaped dklab.cli.main


def cli(argv: list[str]) -> CliResult:
    """dklab.cli.main in-process, with its output, warnings and exceptions captured."""
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = API.cli_main(argv)
        except Exception as exc:  # an escaped exception is the defect measured
            raised = f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), err.getvalue(), len(caught), raised)


class WitnessSweep:
    """Non-existence witnesses and the CLI: hundreds of millisecond ops a run."""

    min_rounds = 2
    pgf_sets_per_alpha = 4
    integer_pgf = (1, 2, 3, 4)
    vhj_grids = (256, 1024, 4096)
    cole_hopf_grids = (256, 1024, 4096)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.dom = TorusDomain(GRID)
        self.bad_manifest = workdir / "missing-keys.manifest"
        self.bad_manifest.write_text("experiment = pgf\nalpha = 1.5\n")

    # -- op builders ------------------------------------------------------

    def _cli_op(self, kind, argv, check, replicates=0):
        """A CLI run writing <kind>.csv, then a replay of its manifest."""
        out = self.dir / f"{kind}.csv"
        return [
            Op(kind, lambda: cli(argv + ["--out", str(out)]),
               lambda r: self._cli_check(r, check, out), replicates),
            Op(f"replay-{kind}", lambda: cli(
                ["replay", "--manifest", f"{out}.manifest", "--out", f"{out}.replay"]),
               lambda r: self._replay_check(r, out)),
        ]

    @staticmethod
    def _cli_check(result, check, out) -> list[str]:
        if result.code != 0 or result.raised or result.warned:
            return [f"{out.name}: exit {result.code}, {result.raised or result.stderr.strip()}"]
        return check(_read_csv(out))

    @staticmethod
    def _replay_check(result, out) -> list[str]:
        replayed = Path(f"{out}.replay")
        if (result.code != 0 or "byte-identical" not in result.stdout
                or replayed.read_bytes() != out.read_bytes()):
            return [f"replay of {out.name}: exit {result.code}, {result.stderr.strip()}"]
        return []

    def ops(self, round_index: int) -> list[Op]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, 3, round_index))))
        ops: list[Op] = []
        for alpha in FRACTIONAL:
            for j in range(self.pgf_sets_per_alpha):
                t = float(rng.uniform(0.02, 0.08))
                lo = float(rng.uniform(0.05, 0.5))
                hi = lo + float(rng.uniform(0.1, 0.4))
                ops += self._cli_op(
                    f"pgf-frac-{alpha}-{j}",
                    ["pgf", "--alpha", repr(alpha), "--t", repr(t), "--set-a", f"{lo!r}:{hi!r}",
                     "--mu0", "0.5", "--order", "8", "--grid", str(GRID)],
                    lambda rows, a=alpha, t=t, iv=(lo, hi): self._fractional_check(rows, a, t, iv))
        for n in self.integer_pgf:
            # fixed inputs: the chi-square cross-check misfires on 0.1% of
            # samples, so it runs on one sample that does not change per seed
            ops += self._cli_op(
                f"pgf-int-{n}",
                ["pgf", "--alpha", str(n), "--t", "0.05", "--set-a", "0.2:0.45",
                 "--order", "8", "--replicates", "2000", "--grid", str(GRID)],
                lambda rows, n=n: self._integer_check(rows, n), replicates=2000)
        for grid in self.vhj_grids:
            ops += self._cli_op(
                f"vhj-{grid}",
                ["vhj-check", "--alpha", repr(float(rng.uniform(0.5, 2.0))),
                 "--t", repr(float(rng.uniform(0.02, 0.1))), "--grid", str(grid),
                 "--suite", "3", "--seed", str(int(rng.integers(1, 2**31)))],
                self._all_pass)
        ops += self._cli_op(
            "breakdown",
            ["breakdown", "--alpha", repr(float(rng.uniform(0.5, 2.5))), "--grid", "256",
             "--replicates", "20", "--max-steps", "10000", "--seed", str(int(rng.integers(1, 2**31)))],
            lambda rows: self._breakdown_check(rows, 20))
        ops += self._cli_op(
            "breakdown-64",
            ["breakdown", "--alpha", repr(float(rng.uniform(0.5, 2.5))), "--grid", "64",
             "--dt-factor", "0.05", "--replicates", "10", "--max-steps", "400",
             "--seed", str(int(rng.integers(1, 2**31)))],
            lambda rows: self._breakdown_check(rows, 10))
        for grid in self.cole_hopf_grids:
            for _ in range(4):
                ops.append(self._cole_hopf_op(grid, rng))
        for noise in (0.0, 0.0, 1.0, 1.0):
            ops.append(self._evolve_op(rng, noise))
        for alpha in FRACTIONAL * 2:
            ops.append(self._limit_op(alpha, rng))
        ops += self._refused_ops()
        return ops

    def _refused_ops(self) -> list[Op]:
        """Six invalid requests; each should exit 1 with a message and nothing else."""
        out = str(self.dir / "refused.csv")
        requests = [
            ["duality", "--alpha", "1", "--t", "nan", "--replicates", "200"],
            ["breakdown", "--alpha", "nan", "--grid", "64", "--replicates", "2",
             "--max-steps", "200"],
            ["vhj-check", "--alpha", "1", "--suite", "0"],
            ["martingale", "--alpha", "1", "--t", "inf", "--replicates", "200"],
            ["replay", "--manifest", str(self.bad_manifest)],
            ["pgf", "--alpha", "inf"],
        ]
        return [Op(f"refuse-{argv[0]}", lambda a=argv: cli(a + ["--out", out]), refused=True)
                for argv in requests]

    def _cole_hopf_op(self, grid, rng) -> Op:
        m, c = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.1, 1.5))
        alpha, t = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.005, 0.1))
        dom, f = TorusDomain(grid), FourierFunction.from_modes(mean=m, cos={1: c})

        def check(field):
            gap = float(np.max(np.abs(field.values - oracles.cole_hopf_cosine(m, c, alpha, t, grid))))
            return [] if gap <= 1e-12 else [f"cole_hopf g{grid}: gap {gap:.2e} to the Bessel series"]

        return Op(f"cole-hopf-{grid}", lambda: API.cole_hopf(dom, f, alpha, t), check)

    def _evolve_op(self, rng, noise) -> Op:
        alpha = float(rng.uniform(0.5, 2.5))
        mode, amp = int(rng.integers(1, 9)), float(rng.uniform(0.1, 0.5))
        steps = 200
        dt = 0.5 * stability_limit(self.dom, alpha)
        field = make_field(self.dom, oracles.heat_decay(GRID, 1.0, amp, mode, alpha, dt, 0), dt, alpha)
        stream = RngStream(int(rng.integers(1, 2**31)), 0)

        def check(new):
            v = new.cell_values
            bound = 64 * np.finfo(float).eps * steps * max(1.0, float(np.max(np.abs(v))))
            problems = []
            if new.step_count != steps or abs(new.mass() - field.mass()) > bound:
                problems.append(f"evolve: mass {field.mass()!r} -> {new.mass()!r} "
                                f"after {new.step_count} steps")
            if noise == 0.0:
                exact = oracles.heat_decay(GRID, 1.0, amp, mode, alpha, dt, steps)
                gap = float(np.max(np.abs(v - exact)))
                if gap > 1e-12:
                    problems.append(f"evolve: gap {gap:.2e} to the discrete heat decay")
            return problems

        kind = "evolve-heat" if noise == 0.0 else "evolve-noise"
        return Op(kind, lambda: API.evolve(field, alpha, steps, stream, noise), check)

    def _limit_op(self, alpha, rng) -> Op:
        t = float(rng.uniform(0.02, 0.08))
        lo = float(rng.uniform(0.05, 0.5))
        interval = (lo, lo + float(rng.uniform(0.1, 0.4)))
        mu0 = EmpiricalMeasure([0.5])

        def run():
            occ = API.occupation(self.dom, [interval], t, alpha)
            return occ, API.atomicity_verdict(alpha, mu0, occ, 3, method="limit")

        def check(output):
            occ, rep = output
            h = float(occ.evaluate(np.array([0.5]))[0])
            p, unc = rep.expansion.coefficients, rep.expansion.uncertainties
            exact = oracles.generalized_binomial(alpha, h, p.size - 1)
            problems = []
            if rep.verdict == "consistent-integer":
                problems.append(f"limit: alpha {alpha} judged consistent-integer")
            if np.any(np.abs(p - exact) > 3 * unc + 1e-12):
                problems.append(f"limit: alpha {alpha} coefficients {p} vs {exact}")
            return problems

        return Op("pgf-limit", run, check)

    # -- checks -----------------------------------------------------------

    def _coefficients(self, rows):
        p = np.array([float(r[2]) for r in rows if r[0] == "coefficient"])
        verdict = next(r[4] for r in rows if r[0] == "verdict").split(":")[0]
        return p, verdict

    def _fractional_check(self, rows, alpha, t, interval) -> list[str]:
        p, verdict = self._coefficients(rows)
        h = 1.0 - p[0] ** (1.0 / alpha)
        exact_h = oracles.occupation_at(0.5, [interval], alpha * t)
        # dklab averages the indicator over grid cells; the documented bias
        # (each edge moved by at most half a cell) bounds the error in h
        bias = float(oracles.wrapped_gaussian_pdf(0.0, alpha * t)) / GRID
        problems = []
        if verdict == "consistent-integer":
            problems.append(f"pgf alpha {alpha}: fractional alpha judged consistent-integer")
        if abs(h - exact_h) > bias:
            problems.append(f"pgf alpha {alpha}: h {h} vs exact {exact_h}")
        exact = oracles.generalized_binomial(alpha, h, p.size - 1)
        if np.any(np.abs(p - exact) > 1e-9 * np.abs(exact) + 1e-14):
            problems.append(f"pgf alpha {alpha}: coefficients {p} vs C(alpha,k)h^k(1-h)^(alpha-k) {exact}")
        return problems

    def _integer_check(self, rows, n) -> list[str]:
        p, verdict = self._coefficients(rows)
        atoms = (np.arange(n) + 0.5) / n
        hs = [oracles.occupation_at(x, [(0.2, 0.45)], n * 0.05) for x in atoms]
        exact = oracles.poisson_binomial(hs)
        bias = n * float(oracles.wrapped_gaussian_pdf(0.0, n * 0.05)) / GRID
        chi = next(r for r in rows if r[0] == "chi-square")
        problems = []
        if verdict != "consistent-integer" or chi[4] != "pass":
            problems.append(f"pgf alpha {n}: verdict {verdict}, chi-square {chi[4]}")
        if (np.max(np.abs(p[: n + 1] - exact)) > bias or np.max(np.abs(p[n + 1:])) > 1e-12
                or abs(p.sum() - 1.0) > 1e-12):
            problems.append(f"pgf alpha {n}: {p} vs Poisson-binomial {exact}")
        return problems

    @staticmethod
    def _all_pass(rows) -> list[str]:
        bad = [r for r in rows if r[4] not in ("", "pass")]
        return [f"vhj-check: {bad}"] if bad else []

    @staticmethod
    def _breakdown_check(rows, members) -> list[str]:
        hits = sum(r[2] == "pass" for r in rows if r[0] == "member")
        count = sum(r[0] == "member" for r in rows)
        summary = rows[-1][4]
        if count != members or not summary.startswith(f"{hits}/{members} "):
            return [f"breakdown: {count} members, summary {summary!r}"]
        return []

    def final_check(self) -> list[str]:
        return []


WORKLOADS = {
    "duality-sweep": DualitySweep,
    "martingale-paths": MartingalePaths,
    "witness-sweep": WitnessSweep,
}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def op_failed(op: Op, output) -> bool:
    """dklab refused or crashed where it should not, or accepted what it should refuse."""
    if isinstance(output, CliResult):
        clean = output.raised is None and not output.warned
        return not (clean and output.code == (1 if op.refused else 0))
    return isinstance(output, BaseException)


def run_round(ops, tracer, first_op_id) -> tuple[dict, list]:
    latencies, outputs = [], []
    sampled = sample_time = 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + k
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # counted as a failed op
            output = exc
        took = time.perf_counter() - start
        latencies.append(took)
        outputs.append(output)
        if op.replicates:
            sampled += op.replicates
            sample_time += took
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"traced": tracer is not None, "wall": wall, "cpu": cpu, "ops": latencies,
            "replicates": sampled, "sample_time": sample_time}, outputs


def parallel_speedups(seed: int) -> dict:
    """The same call at one thread and at the default thread count, interleaved."""
    mu0 = dklab.equally_spaced_atoms(5)
    phi = FourierFunction.from_modes(cos={1: 0.6}, sin={2: 0.4})
    calls = {
        "single_draw": lambda th: standard_increments(5, 20000, seed, 0, th),
        "paths": lambda th: dklab.martingale_ensemble(mu0, 5, phi, 0.02, 200, 2048, seed, th),
    }
    out = {}
    for name, call in calls.items():
        times = {1: [], None: []}
        for threads in (1, None, None, 1):
            start = time.perf_counter()
            call(threads)
            times[threads].append(time.perf_counter() - start)
        one, default = statistics.median(times[1]), statistics.median(times[None])
        out[f"parallel.{name}_1t_s"] = one
        out[f"parallel.{name}_default_s"] = default
        out[f"parallel.speedup_{name}"] = one / default
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are built (a set-up time sample)")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops(0)
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0
        result = run(args, workload, ops, workdir)
        result["ready_at"] = ready_at
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workload, ops, workdir) -> dict:
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    rounds, problems, traced_ops = [], [], []
    attempted = failed = 0
    op_id = 1
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.install(API)
        stats, outputs = run_round(ops, tracer if traced else None, op_id)
        if traced:
            tracer.remove()
            traced_ops.append(set(range(op_id, op_id + len(ops))))
        op_id += len(ops)
        rounds.append(stats)
        for op, output in zip(ops, outputs):
            attempted += 1
            if op_failed(op, output):
                failed += 1
            elif op.check is not None:
                problems += op.check(output)
        index += 1
        enough = index >= workload.min_rounds * (2 if args.trace else 1)
        paired = not args.trace or index % 2 == 0
        if enough and paired and time.perf_counter() - start >= args.seconds:
            break
        ops = workload.ops(index)
    problems += workload.final_check()
    result = {"rounds": rounds, "kinds": [op.kind for op in ops],
              "attempted": attempted, "failed": failed,
              "problems": problems,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from layers import layer_metrics

        layers = layer_metrics(tracer.spans, traced_ops)
        if any(v is None for v in layers.values()):
            # layers this workload never enters are measured on one round
            # of witness-sweep, which enters every layer
            probe_round = WitnessSweep(args.seed, workdir).ops(0)
            tracer.install(API)
            _, outputs = run_round(probe_round, tracer, op_id)
            tracer.remove()
            problems += [p for op, output in zip(probe_round, outputs)
                         if op.check is not None and not op_failed(op, output)
                         for p in op.check(output)]
            probe_ops = set(range(op_id, op_id + len(probe_round)))
            from_probe = layer_metrics(tracer.spans, [probe_ops])
            missing = [k for k, v in layers.items() if v is None]
            layers.update({k: from_probe[k] for k in missing})
            layers["trace.probe_metrics"] = len(missing)
        else:
            layers["trace.probe_metrics"] = 0
        layers.update(parallel_speedups(args.seed))
        untraced = [r["wall"] for r in rounds if not r["traced"]]
        traced_walls = [r["wall"] for r in rounds if r["traced"]]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
        result["layers"] = layers
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())

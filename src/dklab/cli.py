"""Command-line entry point: experiment orchestration and reproducibility.

Subcommands: duality, martingale, pgf, breakdown, vhj-check, replay.
Each run writes a comma-separated results table (one fixed column schema
per experiment, documented in docs/results_schema.md) and a structured-text
manifest sufficient to reproduce the table byte for byte.  Exit codes:
0 pass, 1 usage/config error, 2 statistical failure, 3 I/O failure.

Flags override config-file values; DKLAB_THREADS caps the worker threads
of the path and SPDE ensembles and never changes results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .duality import default_f_suite, equally_spaced_atoms, run_duality_test
from .particles import EmpiricalMeasure, martingale_ensemble, qv_statistic
from .parallel import thread_count
from .pgf import (
    atomicity_verdict,
    compare_histogram,
    extract_coefficients_series,
    monte_carlo_pgf,
    occupation,
)
from .rng import derive_seed
from .spde import negativity_ensemble, stability_limit
from .torus import FourierFunction, TorusDomain, random_fourier_suite
from .vhj import check_extremum_principles, check_gradient_estimate, cole_hopf, vhj_residual

EXPERIMENTS = ("duality", "martingale", "pgf", "breakdown", "vhj-check")

DEFAULTS = {
    "t": 0.05,
    "replicates": 20000,
    "seed": 20260809,
    "grid": 256,
    "mu0": "equally-spaced",
    "f": "default",
    "set_a": "0.2:0.45",
    "order": 8,
    "max_steps": 10000,
    "dt_factor": 0.5,
    "suite": 50,
    "num_steps": 200,
}

_CONFIG_KEYS = {
    "experiment",
    "alpha",
    "t",
    "replicates",
    "seed",
    "grid",
    "out",
    "mu0",
    "f",
    "set_a",
    "order",
    "max_steps",
    "dt_factor",
    "suite",
    "num_steps",
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    experiment: str
    alpha: float
    t: float
    replicates: int
    seed: int
    grid: int
    out: str
    mu0: str = DEFAULTS["mu0"]
    f: str = DEFAULTS["f"]
    set_a: str = DEFAULTS["set_a"]
    order: int = DEFAULTS["order"]
    max_steps: int = DEFAULTS["max_steps"]
    dt_factor: float = DEFAULTS["dt_factor"]
    suite: int = DEFAULTS["suite"]
    num_steps: int = DEFAULTS["num_steps"]
    extra: dict = field(default_factory=dict)

    def atoms(self) -> EmpiricalMeasure:
        if self.mu0 == "equally-spaced":
            if self.experiment == "pgf" and not float(self.alpha).is_integer():
                return EmpiricalMeasure([0.5])
            return equally_spaced_atoms(int(round(self.alpha)))
        try:
            pos = [float(v) for v in self.mu0.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"mu0: cannot parse atom list {self.mu0!r}") from exc
        if not pos:
            raise UsageError("mu0: empty atom list")
        return EmpiricalMeasure(pos)

    def intervals(self) -> list[tuple[float, float]]:
        out = []
        for part in self.set_a.split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                a, b = (float(v) for v in part.split(":"))
            except ValueError as exc:
                raise UsageError(f"set_a: cannot parse interval {part!r}") from exc
            out.append((a, b))
        if not out:
            raise UsageError("set_a: no intervals given")
        return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dklab",
        description="Numerical experiments on the square-root-noise conservative SPDE",
    )
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--mu0", type=str, default=None)
        p.add_argument("--f", type=str, default=None)
        p.add_argument("--set-a", dest="set_a", type=str, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
        p.add_argument("--dt-factor", dest="dt_factor", type=float, default=None)
        p.add_argument("--suite", type=int, default=None)
        p.add_argument("--num-steps", dest="num_steps", type=int, default=None)
    rp = sub.add_parser("replay")
    rp.add_argument("--manifest", type=str, required=True)
    rp.add_argument("--out", type=str, default=None)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.experiment is None:
        raise UsageError("missing experiment subcommand")
    if ns.experiment == "replay":
        raise UsageError("replay is handled separately")

    values: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"config: cannot read {ns.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: invalid JSON in {ns.config}: {exc}") from exc
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"config: unknown keys {sorted(unknown)}")
        if "experiment" in loaded and loaded["experiment"] != ns.experiment:
            raise UsageError(
                f"config: experiment {loaded['experiment']!r} does not match "
                f"subcommand {ns.experiment!r}"
            )
        values.update(loaded)
    for key in (
        "alpha",
        "t",
        "replicates",
        "seed",
        "grid",
        "out",
        "mu0",
        "f",
        "set_a",
        "order",
        "max_steps",
        "dt_factor",
        "suite",
        "num_steps",
    ):
        flag = getattr(ns, key)
        if flag is not None:
            values[key] = flag

    if "alpha" not in values or values["alpha"] is None:
        raise UsageError("alpha: required, no default")
    cfg = RunConfig(
        experiment=ns.experiment,
        alpha=float(values["alpha"]),
        t=float(values.get("t", DEFAULTS["t"])),
        replicates=int(values.get("replicates", DEFAULTS["replicates"])),
        seed=int(values.get("seed", DEFAULTS["seed"])),
        grid=int(values.get("grid", DEFAULTS["grid"])),
        out=str(values.get("out", f"dklab-{ns.experiment}.csv")),
        mu0=str(values.get("mu0", DEFAULTS["mu0"])),
        f=str(values.get("f", DEFAULTS["f"])),
        set_a=str(values.get("set_a", DEFAULTS["set_a"])),
        order=int(values.get("order", DEFAULTS["order"])),
        max_steps=int(values.get("max_steps", DEFAULTS["max_steps"])),
        dt_factor=float(values.get("dt_factor", DEFAULTS["dt_factor"])),
        suite=int(values.get("suite", DEFAULTS["suite"])),
        num_steps=int(values.get("num_steps", DEFAULTS["num_steps"])),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for name in ("alpha", "dt_factor"):
        if not math.isfinite(getattr(cfg, name)):
            raise UsageError(f"{name}: must be finite, got {getattr(cfg, name)}")
    if cfg.alpha <= 0:
        raise UsageError(f"alpha: must be positive, got {cfg.alpha}")
    if cfg.experiment in ("duality", "martingale") and not float(cfg.alpha).is_integer():
        raise UsageError(
            f"alpha: {cfg.experiment} samples the particle construction, which "
            f"exists only for integer alpha (no solution exists otherwise); got {cfg.alpha}"
        )
    if cfg.t < 0:
        raise UsageError(f"t: must be nonnegative, got {cfg.t}")
    if cfg.experiment == "pgf" and cfg.t <= 0:
        raise UsageError("t: pgf needs t > 0")
    if cfg.replicates < 1:
        raise UsageError(f"replicates: must be positive, got {cfg.replicates}")
    if cfg.grid < 8 or (cfg.grid & (cfg.grid - 1)) != 0:
        raise UsageError(f"grid: must be a power of two >= 8, got {cfg.grid}")
    if not (0 < cfg.dt_factor <= 1):
        raise UsageError(f"dt_factor: must be in (0, 1], got {cfg.dt_factor}")
    if cfg.order < 1 or cfg.order > 64:
        raise UsageError(f"order: must be in 1..64, got {cfg.order}")
    if cfg.suite < 1:
        raise UsageError(f"suite: must be positive, got {cfg.suite}")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    blob = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _f_suite_for(cfg: RunConfig):
    suite = default_f_suite()
    if cfg.f == "default":
        return suite
    chosen = [item for item in suite if item[0] == cfg.f]
    if not chosen:
        raise UsageError(f"f: unknown test function {cfg.f!r}; "
                         f"choose from default, {', '.join(n for n, _ in suite)}")
    return chosen


def _run_duality(cfg: RunConfig):
    dom = TorusDomain(cfg.grid)
    mu0 = cfg.atoms()
    header = ["alpha", "t", "f_id", "replicates", "mc_mean", "mc_stderr", "rhs", "z", "verdict"]
    rows, verdicts, seeds = [], [], []
    for idx, (f_id, f) in enumerate(_f_suite_for(cfg)):
        cell_seed = derive_seed(cfg.seed, idx)
        seeds.append(cell_seed)
        rep = run_duality_test(
            int(cfg.alpha), mu0, f, cfg.t, cfg.replicates, cell_seed, dom=dom, f_id=f_id
        )
        rows.append(
            [rep.alpha, rep.t, rep.f_id, rep.replicates, rep.mc_mean,
             rep.mc_stderr, rep.rhs, rep.z_score, rep.verdict]
        )
        verdicts.append(rep.verdict_str)
    return header, rows, verdicts, seeds


def _run_martingale(cfg: RunConfig):
    mu0 = cfg.atoms()
    n = int(cfg.alpha)
    header = ["alpha", "t", "phi_id", "replicates", "mean_m", "se_m", "z_mean",
              "mean_m2", "mean_qv", "se_diff", "z_qv", "verdict"]
    rows, verdicts, seeds = [], [], []
    for idx, (phi_id, phi) in enumerate(_f_suite_for(cfg)):
        cell_seed = derive_seed(cfg.seed, 1000 + idx)
        seeds.append(cell_seed)
        ens = martingale_ensemble(
            mu0, n, phi, cfg.t, cfg.num_steps, cfg.replicates, cell_seed
        )
        rep = qv_statistic(ens)
        rows.append(
            [n, rep.t, phi_id, rep.replicates, rep.mean_m, rep.se_m, rep.z_mean,
             rep.mean_m2, rep.mean_qv, rep.se_diff, rep.z_qv, rep.passed]
        )
        verdicts.append("pass" if rep.passed else "fail")
    return header, rows, verdicts, seeds


def _run_pgf(cfg: RunConfig):
    dom = TorusDomain(cfg.grid)
    mu0 = cfg.atoms()
    occ = occupation(dom, cfg.intervals(), cfg.t, cfg.alpha)
    report = atomicity_verdict(cfg.alpha, mu0, occ, cfg.order)
    header = ["record", "k", "value", "extra", "detail"]
    rows = []
    unc = report.expansion.uncertainties
    for k, p in enumerate(report.expansion.coefficients):
        rows.append(["coefficient", k, float(p), float(unc[k]) if unc is not None else 0.0, ""])
    rows.append(["verdict", "", "", "", f"{report.verdict}: {report.detail}"])
    verdicts = [report.verdict]
    seeds = []
    statistical_ok = True
    if float(cfg.alpha).is_integer() and mu0.n == int(cfg.alpha):
        mc_seed = derive_seed(cfg.seed, 2000)
        seeds.append(mc_seed)
        mc = monte_carlo_pgf(int(cfg.alpha), mu0, occ, cfg.replicates, mc_seed)
        ref = extract_coefficients_series(cfg.alpha, mu0, occ, int(cfg.alpha))
        stat, pvalue = compare_histogram(mc, ref.coefficients, cfg.replicates)
        ok = pvalue > 0.001
        rows.append(["chi-square", "", stat, pvalue, "pass" if ok else "fail"])
        verdicts.append("pass" if ok else "fail")
        statistical_ok = ok
    return header, rows, verdicts, seeds, statistical_ok


def _run_breakdown(cfg: RunConfig):
    dom = TorusDomain(cfg.grid)
    dt = cfg.dt_factor * stability_limit(dom, cfg.alpha)
    rep = negativity_ensemble(
        dom, cfg.alpha, dt, cfg.replicates, cfg.max_steps, cfg.seed
    )
    header = ["record", "member", "hit", "step", "cell"]
    rows = []
    for r, rec in enumerate(rep.hit_records):
        if rec is None:
            rows.append(["member", r, False, "", ""])
        else:
            rows.append(["member", r, True, rec[0], rec[1]])
    rows.append(
        ["summary", "", "", "",
         f"{rep.hits}/{rep.seeds} hit within {cfg.max_steps} steps at dt={dt!r}; "
         "artifact-calibrated statistic; no convergence claim"]
    )
    return header, rows, [f"{rep.hits}/{rep.seeds}"], []


def _run_vhj_check(cfg: RunConfig):
    dom = TorusDomain(cfg.grid)
    header = ["check", "param", "value", "threshold", "verdict"]
    rows, verdicts = [], []
    f0 = FourierFunction.from_modes(mean=1.0, cos={1: 0.5})
    res = vhj_residual(dom, f0, cfg.alpha, max(cfg.t, 1e-2))
    order_ok = all(o >= 1.9 for o in res.observed_orders)
    for lvl in res.levels:
        rows.append(["residual", lvl.dt, lvl.residual_sup, "", ""])
    rows.append(["residual-order", "", min(res.observed_orders), 1.9, order_ok])
    verdicts.append("pass" if order_ok else "fail")

    suite = random_fourier_suite(cfg.seed, cfg.suite, nonnegative=False)
    ext_ok = grad_ok = True
    for f in suite:
        field_ = cole_hopf(dom, f, cfg.alpha, cfg.t)
        ext_ok &= check_extremum_principles(field_).passed
        g = check_gradient_estimate(field_)
        grad_ok &= g.passed and g.passed_sharp
    rows.append(["extremum-principles", f"{cfg.suite} functions", "", "1e-12 slack", ext_ok])
    rows.append(["gradient-estimate", f"{cfg.suite} functions", "", "1e-8 slack", grad_ok])
    verdicts.extend(["pass" if ext_ok else "fail", "pass" if grad_ok else "fail"])
    return header, rows, verdicts, []


# ---------------------------------------------------------------------------
# manifests and replay
# ---------------------------------------------------------------------------


def _manifest_text(cfg: RunConfig, verdicts, seeds, digest, wall, threads) -> str:
    lines = [
        "manifest_version = 1",
        f"code_version = {__version__}",
        f"experiment = {cfg.experiment}",
        f"alpha = {cfg.alpha!r}",
        f"t = {cfg.t!r}",
        f"replicates = {cfg.replicates}",
        f"seed = {cfg.seed}",
        f"grid = {cfg.grid}",
        f"mu0 = {cfg.mu0}",
        f"f = {cfg.f}",
        f"set_a = {cfg.set_a}",
        f"order = {cfg.order}",
        f"max_steps = {cfg.max_steps}",
        f"dt_factor = {cfg.dt_factor!r}",
        f"suite = {cfg.suite}",
        f"num_steps = {cfg.num_steps}",
        f"results_file = {cfg.out}",
        f"results_sha256 = {digest}",
        f"stream_seeds = {','.join(str(s) for s in seeds)}",
        f"verdicts = {','.join(verdicts)}",
        f"wall_seconds = {wall:.3f}",
        f"threads_observed = {threads}",
    ]
    return "\n".join(lines) + "\n"


def parse_manifest(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def config_from_manifest(m: dict, out_path: str) -> RunConfig:
    cfg = RunConfig(
        experiment=m["experiment"],
        alpha=float(m["alpha"]),
        t=float(m["t"]),
        replicates=int(m["replicates"]),
        seed=int(m["seed"]),
        grid=int(m["grid"]),
        out=out_path,
        mu0=m["mu0"],
        f=m["f"],
        set_a=m["set_a"],
        order=int(m["order"]),
        max_steps=int(m["max_steps"]),
        dt_factor=float(m["dt_factor"]),
        suite=int(m["suite"]),
        num_steps=int(m["num_steps"]),
    )
    _validate(cfg)
    return cfg


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns the exit code."""
    start = time.perf_counter()
    threads = thread_count()
    statistical_ok = True
    if cfg.experiment == "duality":
        header, rows, verdicts, seeds = _run_duality(cfg)
        statistical_ok = all(v == "pass" for v in verdicts)
    elif cfg.experiment == "martingale":
        header, rows, verdicts, seeds = _run_martingale(cfg)
        statistical_ok = all(v == "pass" for v in verdicts)
    elif cfg.experiment == "pgf":
        header, rows, verdicts, seeds, statistical_ok = _run_pgf(cfg)
    elif cfg.experiment == "breakdown":
        header, rows, verdicts, seeds = _run_breakdown(cfg)
    elif cfg.experiment == "vhj-check":
        header, rows, verdicts, seeds = _run_vhj_check(cfg)
        statistical_ok = all(v == "pass" for v in verdicts)
    else:
        raise UsageError(f"unknown experiment {cfg.experiment!r}")

    try:
        blob = _write_csv(cfg.out, header, rows)
        digest = hashlib.sha256(blob).hexdigest()
        wall = time.perf_counter() - start
        with open(cfg.out + ".manifest", "w") as fh:
            fh.write(_manifest_text(cfg, verdicts, seeds, digest, wall, threads))
    except OSError as exc:
        print(f"dklab: I/O failure: {exc}", file=sys.stderr)
        return 3
    for v in verdicts:
        print(f"{cfg.experiment}: {v}")
    return 0 if statistical_ok else 2


def replay(manifest_path: str, out_path: str | None) -> int:
    """Re-run a manifest and diff the regenerated table byte-exactly."""
    try:
        m = parse_manifest(manifest_path)
    except OSError as exc:
        print(f"dklab: cannot read manifest: {exc}", file=sys.stderr)
        return 3
    try:
        recorded = m["results_sha256"]
        out_path = out_path or m["results_file"] + ".replay"
        cfg = config_from_manifest(m, out_path)
    except KeyError as exc:
        raise UsageError(f"manifest {manifest_path}: missing key {exc}") from exc
    code = run(cfg)
    if code not in (0, 2):
        return code
    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest == recorded:
        print(f"replay: byte-identical ({digest})")
        return 0
    print(
        f"replay: MISMATCH recorded {recorded} regenerated {digest}",
        file=sys.stderr,
    )
    return 2


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] == "replay":
            ns = _build_parser().parse_args(argv)
            return replay(ns.manifest, ns.out)
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as exc:
        print(f"dklab: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"dklab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

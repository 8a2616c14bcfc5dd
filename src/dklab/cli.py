"""Command-line entry point: experiment orchestration and reproducibility.

Subcommands: duality, martingale, pgf, breakdown, vhj-check, replay.
Each run writes a comma-separated results table (one fixed column schema
per experiment, documented in docs/results_schema.md) and a structured-text
manifest sufficient to reproduce the table byte for byte.  Exit codes:
0 pass, 1 usage/config error (a request too large for memory, or a
statistic that is not finite, is refused the same way), 2 statistical
failure (a degenerate cell, its standard error down to round-off, scores
z = 0 if it matches its target to 1e-9, else inf), 3 I/O failure.

The config schema is written once, as the fields of RunConfig: the
flags, the config-file keys, their defaults and the manifest's config
echo are all read from them, and the argument parser is built from them
once per process, on first use; grid is read by breakdown and vhj-check
only (duality picks its own grid, pgf uses none), though every manifest
echoes it.  Flags override config-file values;
DKLAB_THREADS caps the worker threads of the martingale path ensemble,
the only work that runs on threads, at most one a core, and never
changes results.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import get_args, get_type_hints

from . import __version__
from .duality import default_f_suite, equally_spaced_atoms, run_duality_test
from .particles import EmpiricalMeasure, martingale_ensemble, qv_statistic
from .parallel import thread_count
from .pgf import (
    MAX_SERIES_ORDER,
    atomicity_verdict,
    compare_histogram,
    mass_order,
    monte_carlo_pgf,
    occupation,
)
from .pgf import extract_coefficients_series  # noqa: F401  bench/spans.py:71 wraps this name
from .rng import derive_seed
from .spde import negativity_ensemble, stability_limit
from .torus import FourierFunction, TorusDomain, random_fourier_suite
from .vhj import check_extremum_principles, check_gradient_estimate, cole_hopf, vhj_residual

class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """One run's settings; its fields are the config schema.

    Every field is a config-file key, and every field but experiment is
    also a flag (underscores spelled as dashes: set_a is --set-a).  Flag,
    file and manifest values are read through the field's annotated type,
    a field's default is the value used when neither flag nor file gives
    one, and the manifest echoes the fields in this order (out as its
    results_file).  A field an experiment does not read is echoed all the
    same: grid is read by breakdown and vhj-check only.
    """

    experiment: str
    alpha: float
    t: float = 0.05
    replicates: int = 20000
    seed: int = 20260809
    grid: int = 256
    out: str | None = None  # None: dklab-<experiment>.csv
    mu0: str = "equally-spaced"
    f: str = "default"
    set_a: str = "0.2:0.45"
    order: int = 8
    max_steps: int = 10000
    dt_factor: float = 0.5
    suite: int = 50
    num_steps: int = 200

    def __post_init__(self):
        if self.out is None:
            self.out = f"dklab-{self.experiment}.csv"

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


# the schema, read once from RunConfig: each field's scalar type (str for
# "str | None"), the config-file keys, and the settings that are flags
_TYPES = {
    name: next(t for t in (*get_args(hint), hint) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
}
_CONFIG_KEYS = frozenset(_TYPES)
_SETTINGS = tuple(name for name in _TYPES if name != "experiment")


def _typed(name: str, value):
    """A config value read as its field's type; a value of the wrong kind is a usage error."""
    try:
        return _TYPES[name](value)
    except TypeError as exc:
        raise UsageError(f"{name}: cannot read {value!r} as {_TYPES[name].__name__}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    argparse keeps no state between parse_args calls, so every call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="dklab",
        description="Numerical experiments on the square-root-noise conservative SPDE",
    )
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        for key in _SETTINGS:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_TYPES[key], default=None)
    rp = sub.add_parser("replay")
    rp.add_argument("--manifest", type=str, required=True)
    rp.add_argument("--out", type=str, default=None)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig.

    A null value in the config file counts as absent.
    """
    ns = _build_parser().parse_args(argv)
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
        if not isinstance(loaded, dict):
            raise UsageError(f"config: {ns.config} must hold a JSON object")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"config: unknown keys {sorted(unknown)}")
        if "experiment" in loaded and loaded["experiment"] != ns.experiment:
            raise UsageError(
                f"config: experiment {loaded['experiment']!r} does not match "
                f"subcommand {ns.experiment!r}"
            )
        values.update((k, v) for k, v in loaded.items() if v is not None)
    for key in _SETTINGS:
        flag = getattr(ns, key)
        if flag is not None:
            values[key] = flag

    if "alpha" not in values:
        raise UsageError("alpha: required, no default")
    cfg = RunConfig(
        ns.experiment, **{k: _typed(k, values[k]) for k in _SETTINGS if k in values}
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
    if cfg.order < 1 or cfg.order > MAX_SERIES_ORDER:
        raise UsageError(f"order: must be in 1..{MAX_SERIES_ORDER}, got {cfg.order}")
    for name in ("suite", "num_steps", "max_steps"):
        if getattr(cfg, name) < 1:
            raise UsageError(f"{name}: must be positive, got {getattr(cfg, name)}")


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
# experiments: each _run_* returns (header, rows, verdicts, stream seeds);
# a run fails statistically exactly when one of its verdicts is "fail"
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
    mu0 = cfg.atoms()
    header = ["alpha", "t", "f_id", "replicates", "mc_mean", "mc_stderr", "rhs", "z", "verdict"]
    rows, verdicts, seeds = [], [], []
    for idx, (f_id, f) in enumerate(_f_suite_for(cfg)):
        cell_seed = derive_seed(cfg.seed, idx)
        seeds.append(cell_seed)
        rep = run_duality_test(int(cfg.alpha), mu0, f, cfg.t, cfg.replicates, cell_seed, f_id=f_id)
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
    mass_order(cfg.alpha)  # refuses an alpha past the series budget before its atoms exist
    mu0 = cfg.atoms()
    occ = occupation(None, cfg.intervals(), cfg.t, cfg.alpha)
    report = atomicity_verdict(cfg.alpha, mu0, occ, cfg.order)
    header = ["record", "k", "value", "extra", "detail"]
    rows = []
    unc = report.expansion.uncertainties
    for k, p in enumerate(report.expansion.coefficients):
        rows.append(["coefficient", k, float(p), float(unc[k]) if unc is not None else 0.0, ""])
    rows.append(["verdict", "", "", "", f"{report.verdict}: {report.detail}"])
    verdicts = [report.verdict]
    seeds = []
    if float(cfg.alpha).is_integer() and mu0.n == int(cfg.alpha):
        mc_seed = derive_seed(cfg.seed, 2000)
        seeds.append(mc_seed)
        mc = monte_carlo_pgf(int(cfg.alpha), mu0, occ, cfg.replicates, mc_seed)
        # p_0..p_alpha of the verdict's expansion: each p_k depends only on
        # the orders up to k, so this is the extraction at order alpha
        ref = report.expansion.coefficients[: int(cfg.alpha) + 1]
        stat, pvalue = compare_histogram(mc, ref, cfg.replicates)
        ok = pvalue > 0.001
        rows.append(["chi-square", "", stat, pvalue, "pass" if ok else "fail"])
        verdicts.append("pass" if ok else "fail")
    return header, rows, verdicts, seeds


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

    suite = random_fourier_suite(cfg.seed, cfg.suite)
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


_RUNNERS = {"duality": _run_duality, "martingale": _run_martingale, "pgf": _run_pgf,
            "breakdown": _run_breakdown, "vhj-check": _run_vhj_check}
EXPERIMENTS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# manifests and replay
# ---------------------------------------------------------------------------


def _manifest_text(cfg: RunConfig, verdicts, seeds, digest, wall, threads) -> str:
    lines = [
        "manifest_version = 1",
        f"code_version = {__version__}",
        f"experiment = {cfg.experiment}",
    ]
    for key in _SETTINGS:
        if key != "out":
            v = getattr(cfg, key)
            lines.append(f"{key} = {v!r}" if _TYPES[key] is float else f"{key} = {v}")
    lines += [
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
        m["experiment"],
        out=out_path,
        **{k: _TYPES[k](m[k]) for k in _SETTINGS if k != "out"},
    )
    _validate(cfg)
    return cfg


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns the exit code."""
    start = time.perf_counter()
    threads = thread_count()
    if cfg.experiment not in _RUNNERS:
        raise UsageError(f"unknown experiment {cfg.experiment!r}")
    header, rows, verdicts, seeds = _RUNNERS[cfg.experiment](cfg)

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
    return 2 if "fail" in verdicts else 0


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
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"dklab: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"dklab: out of memory: {str(exc) or 'request too large'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

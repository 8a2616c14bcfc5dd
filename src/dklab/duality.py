"""Monte Carlo verification of the Laplace duality.

For integer alpha and matching atomic initial data the particle
construction and the Cole-Hopf flow must agree through

    E exp(-<mu_t, f>) = exp(-<mu_0, V_t f>).

The left side is estimated over independent replicates of the terminal
empirical measure, the right side evaluated exactly (up to the reported
projection error) through the solver, and the gap is scored in standard
errors.  Verdicts use the 3-sigma convention; a sweep therefore carries a
small expected false-failure budget, and callers should judge pass rates
at the sweep level rather than flinch at single cells.

Antithetic increments are always used: replicate pairs share one set of
Gaussian draws with opposite signs, the estimator averaging first within
pairs.  This touches only the estimator variance, never the particle law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .particles import (
    EmpiricalMeasure,
    _check_spread,
    require_integer_alpha,
    standard_increments,
    z_score,
)
from .rng import derive_seed
from .torus import FourierFunction, TorusDomain, wrap
from .vhj import cole_hopf


@dataclass(frozen=True)
class DualityReport:
    """One duality cell: Monte Carlo mean vs Cole-Hopf right-hand side."""

    alpha: int
    t: float
    f_id: str
    replicates: int
    seed: int
    mc_mean: float
    mc_stderr: float
    rhs: float
    z_score: float
    verdict: bool

    @property
    def verdict_str(self) -> str:
        return "pass" if self.verdict else "fail"


def laplace_rhs(
    dom: TorusDomain, mu0: EmpiricalMeasure, f: FourierFunction, alpha: float, t: float
) -> float:
    """exp(-<mu_0, V_t f>) with V_t f evaluated exactly at the atoms."""
    field = cole_hopf(dom, f, alpha, t)
    return float(np.exp(-np.mean(field.evaluate(mu0.positions))))


def run_duality_test(
    alpha: int,
    mu0: EmpiricalMeasure,
    f: FourierFunction,
    t: float,
    replicates: int,
    seed: int,
    dom: TorusDomain | None = None,
    f_id: str = "f",
) -> DualityReport:
    """Score one (alpha, t, f) cell of the duality identity.

    Parameters
    ----------
    alpha : int
        Positive integer parameter; mu0 must carry alpha atoms.
    mu0 : EmpiricalMeasure
        Initial atoms of weight 1/alpha.
    f : FourierFunction
        Test function (any bounded Fourier sum; the headline suites use
        nonnegative ones so both sides live in (0, 1]).
    t : float
        Nonnegative time.
    replicates : int
        Number of sampled replicates: an even count of at least 4, so
        that the replicate pairs give a standard error.
    seed : int
        Stream seed; replicate r, particle i uses stream r * 2**32 + i.

    Scored by particles.z_score: a non-finite cell raises ValueError, as
    does alpha t past 2**38, where the wrapped positions would keep fewer
    than 30 fractional bits.
    """
    n = require_integer_alpha(alpha, mu0.n)
    _check_spread(n, t)
    if replicates % 2 or replicates < 4:
        raise ValueError(
            f"replicates: {replicates} given; the antithetic estimator needs an "
            "even count of at least 4 (2 pairs) for a standard error"
        )
    dom = dom or TorusDomain(256)
    rhs = laplace_rhs(dom, mu0, f, n, t)

    step = np.sqrt(n * t) * standard_increments(n, replicates // 2, seed)
    vplus = np.exp(-f.evaluate(wrap(mu0.positions + step)).mean(axis=1))
    vminus = np.exp(-f.evaluate(wrap(mu0.positions - step)).mean(axis=1))
    values = 0.5 * (vplus + vminus)
    mc_mean = float(np.mean(values))
    mc_stderr = float(np.std(values, ddof=1) / np.sqrt(values.size))
    z = z_score("z", mc_mean, rhs, mc_stderr)
    return DualityReport(
        alpha=n,
        t=float(t),
        f_id=f_id,
        replicates=replicates,
        seed=seed,
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        rhs=rhs,
        z_score=float(z),
        verdict=bool(abs(z) <= 3.0),
    )


def default_f_suite() -> list[tuple[str, FourierFunction]]:
    """Three nonnegative Fourier test functions used by the headline sweep."""
    return [
        ("cos1", FourierFunction.from_modes(mean=1.0, cos={1: 0.5})),
        ("mix2", FourierFunction.from_modes(mean=0.8, sin={1: 0.3}, cos={2: 0.2})),
        ("mix3", FourierFunction.from_modes(mean=1.2, cos={1: 0.4, 3: 0.1}, sin={2: 0.3})),
    ]


def equally_spaced_atoms(n: int) -> EmpiricalMeasure:
    """Default initial condition: n atoms at (i + 1/2)/n."""
    return EmpiricalMeasure((np.arange(n) + 0.5) / n)


def sweep(
    alphas: list[int],
    times: list[float],
    f_suite: list[tuple[str, FourierFunction]],
    replicates: int,
    seed: int,
    dom: TorusDomain | None = None,
) -> list[DualityReport]:
    """Run the duality test over the full (alpha, t, f) grid.

    Each cell draws from an independent sub-seed derived from (seed, cell
    index), so the sweep is reproducible cell by cell and in total.
    Each alpha starts from alpha equally spaced atoms.
    """
    reports = []
    cell = 0
    for alpha in alphas:
        mu0 = equally_spaced_atoms(alpha)
        for t in times:
            for f_id, f in f_suite:
                reports.append(
                    run_duality_test(
                        alpha,
                        mu0,
                        f,
                        t,
                        replicates,
                        derive_seed(seed, cell),
                        dom=dom,
                        f_id=f_id,
                    )
                )
                cell += 1
    return reports


def pass_rate(reports: list[DualityReport]) -> tuple[int, int]:
    return sum(r.verdict for r in reports), len(reports)

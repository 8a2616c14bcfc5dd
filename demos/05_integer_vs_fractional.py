#!/usr/bin/env python3
"""Generating-function witnesses: triviality vs non-existence.

The duality fixes the generating function of X = alpha * mu_t(A).  For a
genuine process its small-s coefficients must be probabilities summing to
one over {0, ..., floor(alpha)}.  Integer alpha with matching atoms gives
exactly a Poisson-binomial law; every other configuration breaks one of
the consequences, and the extraction machinery names which.
"""

import numpy as np

from dklab import (
    EmpiricalMeasure,
    TorusDomain,
    atomicity_verdict,
    extract_coefficients_limit,
    extract_coefficients_series,
    mass_slope_probe,
    monte_carlo_pgf,
    occupation,
)
from dklab.pgf import compare_histogram

dom = TorusDomain(256)
A = [(0.2, 0.45)]

print("Integer case: alpha = 2, atoms at 0.3 and 0.7, A = [0.2, 0.45), t = 0.05")
occ2 = occupation(dom, A, t=0.05, alpha=2)
mu2 = EmpiricalMeasure([0.3, 0.7])
ser = extract_coefficients_series(2, mu2, occ2, 2)
print(f"  series coefficients: {np.round(ser.coefficients, 6)} (sum {ser.total_mass():.12f})")
mc = monte_carlo_pgf(2, mu2, occ2, replicates=50000, seed=11)
stat, pv = compare_histogram(mc, ser.coefficients, 50000)
print(f"  Monte Carlo frequencies: {mc.coefficients}  (chi-square p = {pv:.3f})")
print(f"  verdict: {atomicity_verdict(2, mu2, occ2).verdict}")

print("\nFractional case: alpha = 1.5, single atom at 0.5")
occ15 = occupation(dom, A, t=0.05, alpha=1.5)
mu1 = EmpiricalMeasure([0.5])
rep = atomicity_verdict(1.5, mu1, occ15, order=8)
print(f"  coefficients: {np.round(rep.expansion.coefficients[:6], 6)} ...")
print(f"  verdict: {rep.verdict}  ({rep.detail})")

print("\nMismatched weights: alpha = 1 but two atoms of weight 1/2")
occ1 = occupation(dom, [(0.3, 0.6)], t=0.03, alpha=1)
rep = atomicity_verdict(1, EmpiricalMeasure([0.35, 0.8]), occ1, order=8)
print(f"  verdict: {rep.verdict}  ({rep.detail})")

print("\nSynthetic non-Taylor input g(s) = s^1.5 through the black-box route:")
lim = extract_coefficients_limit(lambda s: s**1.5, 4)
print(f"  p_0, p_1 = {lim.coefficients}, divergence: order {lim.divergence_flag[0]}")
print(f"  evidence: {lim.divergence_flag[1]}")

print("\nMass probe: as A fills the torus, the log-log slope of g tends to alpha:")
for cov in (0.5, 0.9, 0.99):
    slope = mass_slope_probe(1.5, coverage=cov, t=0.005)
    print(f"  coverage {cov:4.2f}: slope {slope:.3f}   (alpha = 1.5)")

#!/usr/bin/env python3
"""The explicit solutions: empirical measures of independent diffusions.

For integer parameter n and n atoms of weight 1/n, the process is n
independent Brownian particles run at internal time n*t.  This script
simulates paths, evaluates the martingale functional M_t(phi), and checks
its two defining statistics over an ensemble: mean zero, and mean square
equal to the mean of the quadratic-variation integral.
"""

import numpy as np

from dklab import (
    FourierFunction,
    equally_spaced_atoms,
    martingale_ensemble,
    martingale_functional,
    qv_statistic,
    simulate_path,
)

n = 3
t = 0.05
phi = FourierFunction.from_modes(cos={1: 0.8}, sin={2: 0.4})
mu0 = equally_spaced_atoms(n)

print(f"One path: n = {n} particles, t = {t}, 200 steps")
path = simulate_path(mu0, n, t, 200, seed=7)
ms = martingale_functional(path, phi)
print(f"  M_0 = {ms.m_values[0]}, M_t = {ms.m_values[-1]:+.5f}")
print(f"  quadratic-variation integral at t: {ms.qv_integral[-1]:.5f} (nondecreasing)")
print(f"  total mass along the path: exactly 1 at every time")

reps = 20000
print(f"\nEnsemble of {reps} paths:")
rep = qv_statistic(martingale_ensemble(mu0, n, phi, t, 200, reps, seed=7))
print(f"  mean M_t      = {rep.mean_m:+.2e}  (SE {rep.se_m:.2e}, z = {rep.z_mean:+.2f})")
print(f"  mean M_t^2    = {rep.mean_m2:.6f}")
print(f"  mean QV       = {rep.mean_qv:.6f}")
print(f"  paired z for the QV identity: {rep.z_qv:+.2f}  "
      f"({'consistent' if rep.passed else 'inconsistent'} at 3 sigma)")

print("\nDoubling time roughly doubles the QV integral (nonnegative integrand):")
for tt in (0.02, 0.04, 0.08):
    r = qv_statistic(martingale_ensemble(mu0, n, phi, tt, 200, 2000, seed=8))
    print(f"  t = {tt:4.2f}: mean QV = {r.mean_qv:.6f}")

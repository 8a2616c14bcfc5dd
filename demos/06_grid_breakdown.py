#!/usr/bin/env python3
"""What a naive discretization does where no solution exists.

The conservative square-root-noise scheme keeps total mass to round-off by
construction, but nothing protects cell positivity, and for fractional
parameters with a flat initial density the theory says nothing could:
density goes negative, faster at stronger noise and finer grids.  The
statistics below describe this artifact; they are not convergence claims.
"""

import numpy as np

from dklab import (
    RngStream,
    TorusDomain,
    first_negativity,
    make_field,
    negativity_ensemble,
    stability_limit,
    step,
)

alpha = 1.5
dom = TorusDomain(64)
dt = 0.5 * stability_limit(dom, alpha)
print(f"grid {dom.grid_size}, alpha = {alpha}, dt = {dt:.2e} (half the stability bound)")

print("\nMass is conserved exactly even while cells go negative:")
fld = make_field(dom, 1.0, dt, alpha)
stream = RngStream(3, 0)
for k in range(5):
    fld = step(fld, alpha, stream)
    print(f"  step {k + 1}: mass = {fld.mass():.15f}, min cell = {fld.cell_values.min():+.3f}")

print("\nZero-noise mode is just the heat equation (no negativity, ever):")
res = first_negativity(make_field(dom, 1.0, dt, alpha), alpha, 5000,
                       RngStream(3, 1), noise_scale=0.0)
print(f"  first negativity: {res}")

print("\nTime-to-negativity vs noise amplitude (30 members each):")
for lam in (0.04, 0.05, 0.1, 1.0):
    rep = negativity_ensemble(dom, alpha, dt, seeds=30, max_steps=5000,
                              seed=9, noise_scale=lam)
    print(f"  scale {lam:4.2f}: {rep.hits}/30 hit, median step {rep.median_step:.0f}")

print("\nAt the full amplitude and a 256-cell grid the breakdown is immediate,")
print("which is the practical face of non-existence for fractional parameters.")
rep = negativity_ensemble(TorusDomain(256), alpha, 0.5 * stability_limit(TorusDomain(256), alpha),
                          seeds=20, max_steps=1000, seed=5)
print(f"  grid 256: {rep.hits}/20 hit, median step {rep.median_step:.0f}")

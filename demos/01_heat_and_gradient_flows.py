#!/usr/bin/env python3
"""Tour of the exact spectral calculus on the unit torus.

Everything in the laboratory is built from trigonometric polynomials, so
the generator, the squared-gradient form and the heat flow are exact and
the classic functional inequalities can be checked to round-off.
"""

import numpy as np

from dklab import (
    FourierFunction,
    TorusDomain,
    carre_du_champ,
    generator_L,
    heat_semigroup,
    product,
)

dom = TorusDomain(256)
x = dom.grid()

print("A test function f = 1 + 0.5 cos(2 pi x) + 0.3 sin(4 pi x)")
f = FourierFunction.from_modes(mean=1.0, cos={1: 0.5}, sin={2: 0.3})

print("\nThe generator acts diagonally: Lf has mode-k multiplier -(2 pi k)^2")
lf = generator_L(f)
print(f"  mode-1 cosine: {f.cos_coeffs[0]} -> {lf.cos_coeffs[0]:.6f}"
      f"  (exact: {-4 * np.pi**2 * 0.5:.6f})")

print("\nHeat flow for time t multiplies mode k by exp(-(d/2)(2 pi k)^2 t):")
for t in (0.01, 0.05, 0.1):
    pt = heat_semigroup(f, diffusivity=1.0, t=t)
    print(f"  t={t:5.2f}: mode-1 {pt.cos_coeffs[0]:.6f}, mode-2 {pt.sin_coeffs[1]:.8f},"
          f" mean {pt.mean} (mass conserved)")

print("\nThe squared-gradient form Gamma f = (f')^2 is itself a trig polynomial:")
gf = carre_du_champ(f)
print(f"  sup Gamma f = {gf.extrema()[1]:.6f}, inf = {gf.extrema()[0]:.2e} (>= 0)")

print("\nDiffusion-property identity L(f^2) = 2 f Lf + 2 Gamma f, spectrally:")
lhs = generator_L(product(f, f)).evaluate(x)
rhs = 2 * product(f, generator_L(f)).evaluate(x) + 2 * gf.evaluate(x)
print(f"  max |lhs - rhs| = {np.max(np.abs(lhs - rhs)):.2e}")

print("\nGradient bound on flat space: Gamma(P_t f) <= P_t(Gamma f) pointwise:")
t = 0.03
lhs = carre_du_champ(heat_semigroup(f, 1.0, t)).evaluate(x)
rhs = heat_semigroup(gf, 1.0, t).evaluate(x)
print(f"  max violation = {np.max(lhs - rhs):.2e} (negative means strict)")

#!/usr/bin/env python3
"""Eigenvalue sequences of u'''' = mu m(t) u, simply supported.

Walks through the constant weight (where everything is analytic), then a
sign-changing weight, and cross-checks the finite-difference pencil
against the independent Runge-Kutta shooting oracle.
"""

import numpy as np

from beamspec import (eigen_pencil, eigen_pencil_extrapolated, make_grid,
                      sample, shoot_eigenvalue)

grid = make_grid(2000)

print("=" * 72)
print("constant weight m = 1: eigenvalues are (k pi)^4, eigenfunctions sines")
print("=" * 72)
one = sample(lambda t: np.ones_like(t), grid)
res = eigen_pencil(one, 6, 0)
for p in res.positive:
    exact = (p.k * np.pi) ** 4
    print(f"  k={p.k}: mu = {p.mu:14.6f}   (k pi)^4 = {exact:14.6f}   "
          f"rel err = {abs(p.mu / exact - 1):.2e}")
print(f"  negative sequence: {len(res.negative)} entries "
      f"(weight is nowhere negative), flags = {res.flags}")

print()
print("=" * 72)
print("sign-changing weight m = sin(3 pi t): two sequences, and the")
print("magnitude order no longer matches the zero-count order")
print("=" * 72)
m3 = sample(lambda t: np.sin(3 * np.pi * t), grid)
res3 = eigen_pencil(m3, 4, 4)
for side, pairs in (("positive", res3.positive), ("negative", res3.negative)):
    print(f"  {side}:")
    for p in pairs:
        print(f"    rank {p.rank}: mu = {p.mu:14.2f}   zeros = {p.k - 1}  "
              f"(nodal index k = {p.k})")
print(f"  flags: {res3.flags}")
print()
print("  The positive part of this weight has two lobes; symmetric and")
print("  antisymmetric lobe combinations interleave in magnitude, so the")
print("  eigenfunction with one zero comes before the one with none.")

print()
print("=" * 72)
print("independent oracle: RK4 shooting on the boundary determinant")
print("=" * 72)
fn = lambda t: np.sin(3 * np.pi * np.asarray(t, dtype=float))
fine, pos_x, neg_x = eigen_pencil_extrapolated(fn, grid, 3, 3, fine=res3)
print("  two-grid extrapolated pencil vs shooting (Brent root of d):")
for mu_x in pos_x[:3]:
    others = [m for m in pos_x if m != mu_x]
    width = min([0.05 * abs(mu_x)] + [0.45 * abs(mu_x - o) for o in others])
    mu_shoot = shoot_eigenvalue(fn, (mu_x - width, mu_x + width))
    print(f"    pencil {mu_x:16.8f}   shoot {mu_shoot:16.8f}   "
          f"rel gap {abs(mu_x / mu_shoot - 1):.2e}")

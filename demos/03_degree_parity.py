#!/usr/bin/env python3
"""Degree parity: the sign of det(I - mu K^-1 M) flips at every pencil
eigenvalue, so away from the spectrum it equals (-1)^count where count is
the number of eigenvalues strictly between 0 and mu.  This is the
computable surrogate for the topological degree of the compact
fixed-point map, and it is what makes the eigenvalues bifurcation points.
"""

import numpy as np

from beamspec import (degree_parity_sweep, det_sign_psi, make_grid, sample,
                      widest_resolvable_window)

grid = make_grid(1000)
one = sample(lambda t: np.ones_like(t), grid)

print("constant weight, walking mu across the first eigenvalues:")
print("  (pi^4 = 97.41, (2 pi)^4 = 1558.55, (3 pi)^4 = 7890.14)")
for mu in (0.0, 50.0, 500.0, 3000.0, 9000.0):
    sign = det_sign_psi(mu, one)
    print(f"  mu = {mu:8.1f}   det sign = {sign:+d}")

print()
print("sign-changing weight sin(3 pi t), seeded sweep on both sides:")
m3 = sample(lambda t: np.sin(3 * np.pi * t), grid)
rng = np.random.default_rng(1)
samples = np.concatenate([rng.uniform(1.0, 1e5, 8), rng.uniform(-5e5, -1.0, 8)])
report = degree_parity_sweep(m3, samples, widest_resolvable_window(m3))
for row in report["rows"]:
    print(f"  mu = {row['mu']:12.1f}   det = {row['det_sign']:+d}   "
          f"eigenvalues passed = {row['count']}   match = {row['match']}")
print("all match:", report["all_match"])

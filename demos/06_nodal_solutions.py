#!/usr/bin/env python3
"""Nodal solutions of u'''' = gamma m(t) f(u) via hyperplane crossing.

For asymptotically linear f (slope f0 at zero, finf at infinity) and
gamma strictly between mu_k/f0 and mu_k/finf, the auxiliary problem
u'''' = mu gamma m f(u) has a branch from mu = mu_k/(gamma f0) that must
cross mu = 1, and the crossing point solves the original problem with
exactly k - 1 interior zeros of the prescribed leading sign.
"""

import numpy as np

from beamspec import (AutonomousProblem, derivative, eigen_pencil, e_norm,
                      fp_residual, make_grid, sample, solve_nodal)
from beamspec.errors import GammaNotAdmissible
from beamspec.presets import saturating_f
from beamspec.shooting import shoot_nodal_solution

grid = make_grid(1000)
one = sample(lambda t: np.ones_like(t), grid)
res = eigen_pencil(one, 2, 0)
f = saturating_f()          # f(s) = s (2 - 1/(1+s^2)): slopes 1 and 2

print(f"f: slope at zero {f.f0}, slope at infinity {f.finf}")
for k in (1, 2):
    mu_k = res.pair(k, +1).mu
    gamma = 0.75 * mu_k
    lo, hi = sorted((mu_k / f.f0, mu_k / f.finf))
    print(f"\nk={k}: admissible gamma in ({lo:.3f}, {hi:.3f}); "
          f"using gamma = {gamma:.3f}")
    for sigma in (+1, -1):
        u = solve_nodal(gamma, f, one, k, +1, sigma, spectrum_result=res)
        spec = AutonomousProblem(m=one, gamma=gamma, f=f)
        rmax, _ = fp_residual(u, 1.0, spec)
        print(f"  sigma={sigma:+d}: max|u| = {np.max(np.abs(u.values)):.6f}, "
              f"e_norm = {e_norm(u):.4f}, residual = {rmax:.2e}")
    # cross-check the sigma=+ solution against pure IVP shooting
    u = solve_nodal(gamma, f, one, k, +1, +1, spectrum_result=res)
    u_shoot = shoot_nodal_solution(
        gamma, lambda t: np.ones_like(np.asarray(t, dtype=float)), f.f,
        derivative(u, 1).values[0], derivative(u, 3).values[0], grid)
    print(f"  shooting cross-check: max gap = "
          f"{np.max(np.abs(u.values - u_shoot.values)):.2e}")

print("\nan inadmissible coupling is rejected up front:")
try:
    solve_nodal(0.25 * res.pair(1, +1).mu, f, one, 1, +1, +1,
                spectrum_result=res)
except GammaNotAdmissible as exc:
    print(f"  GammaNotAdmissible: {exc}")

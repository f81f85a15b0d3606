#!/usr/bin/env python3
"""Tracing the unilateral solution branches of u'''' = mu m u + u^3.

From each eigenvalue mu_k a branch of nontrivial solutions emanates; its
two halves are distinguished by the sign near t = 0 and never leave
their nodal class.  This script traces four halves for the constant
weight, prints their journey, and writes an SVG bifurcation diagram plus
per-branch CSV tables next to this file.
"""

import os

import numpy as np

from beamspec import (ContinuationConfig, PerturbedProblem, bifurcation_start,
                      eigen_pencil, interior_dot, make_grid, render_diagram,
                      sample, save_branch, trace_branch)
from beamspec.presets import cubic_perturbation

grid = make_grid(800)
one = sample(lambda t: np.ones_like(t), grid)
res = eigen_pencil(one, 2, 0)
spec = PerturbedProblem(m=one, g=cubic_perturbation())

branches = []
for k in (1, 2):
    phi = res.pair(k, +1).phi
    ds_max = 200.0 * np.sqrt(interior_dot(phi, phi)) / 60.0
    config = ContinuationConfig(ds=ds_max / 8, ds_max=ds_max,
                                norm_budget=200.0, max_steps=500)
    for sigma in (+1, -1):
        start = bifurcation_start(k, +1, sigma, spec, res)
        branch = trace_branch(start, spec, config)
        branches.append(branch)
        last = branch.points[-1]
        print(f"k={k} sigma={sigma:+d}: {len(branch.points)} points, "
              f"mu {branch.points[0].mu:9.4f} -> {last.mu:9.4f}, "
              f"e_norm -> {last.norm:8.2f}, "
              f"zeros held at {last.profile.count}, "
              f"termination {branch.termination}")

outdir = os.path.join(os.path.dirname(__file__), "out_branches")
os.makedirs(outdir, exist_ok=True)
for b in branches:
    save_branch(b, outdir,
                basename=f"branch_k{b.k}_sigma{'p' if b.sigma > 0 else 'n'}")
with open(os.path.join(outdir, "diagram.svg"), "w") as fh:
    fh.write(render_diagram(branches))
print(f"\nwrote branch tables and diagram.svg under {outdir}")
print("the cubic term tilts every branch toward smaller mu (subcritical),")
print("and the sigma = +/- halves are exact mirror images.")

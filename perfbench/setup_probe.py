"""Set-up of one benchmark process: import beamspec, sample the workload grid
and weights, and make one tiny call into every layer, so that lazy
initialisation (a numba JIT where numba is installed) is paid here and not
inside a timed pass.

    python3 perfbench/setup_probe.py N

does the set-up once, for an n = N grid, and exits; run.py times such
fresh processes from outside to measure setup_s.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up(n):
    from beamspec import (analysis, continuation, grid, linops, nonlinear,
                          presets, shooting, spectrum)

    g = grid.make_grid(n)
    for name in ("one", "sin3pi"):
        grid.sample(presets.WEIGHTS[name], g)

    tiny = grid.make_grid(16)
    one = grid.sample(presets.WEIGHTS["one"], tiny)
    res = spectrum.eigen_pencil(one, 1, 0)                        # spectrum, nodal
    mu = res.positive[0].mu
    linops.det_sign_psi(0.5 * mu, one)                            # linops
    analysis.degree_parity_sweep(one, [0.5 * mu], spectrum_result=res)
    shooting.boundary_determinant(mu, presets.WEIGHTS["one"], n_steps=16)
    spec = nonlinear.PerturbedProblem(m=one, g=presets.cubic_perturbation())
    nonlinear.newton(0.1 * res.positive[0].phi, 0.5 * mu, spec)  # nonlinear
    continuation.bifurcation_start(1, +1, +1, spec, spectrum_result=res)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    warm_up(int(sys.argv[1]))

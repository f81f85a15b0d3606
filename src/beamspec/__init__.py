"""beamspec: eigenvalues, nodal classes, and bifurcation branches of the
simply supported beam operator u'''' with a sign-changing weight.

The library computes both sign-indexed eigenvalue sequences of
u'''' = mu m(t) u, classifies the zeros of eigenfunctions and solutions
(generalized simple vs generalized double), verifies degree-parity and
comparison-theorem statements at the discrete level, and traces the
unilateral bifurcation branches of the perturbed problem to produce
nodal solutions of u'''' = gamma m(t) f(u).
"""

__version__ = "0.1.0"

from .analysis import degree_parity_sweep, sturm_check
from .continuation import (Branch, BranchPoint, ContinuationConfig,
                           bifurcation_start, cross_hyperplane, save_branch,
                           solve_nodal, trace_branch)
from .errors import *  # noqa: F401,F403 - the exception vocabulary
from .grid import (Grid, SampledFn, derivative, e_norm, from_csv,
                   from_interior, interior_dot, make_grid, sample, to_csv)
from .linops import SecondDiffOperator, det_sign_psi, lambda2, lambda_solve
from .nodal import (NodalProfile, ZeroRecord, classify_zero, find_zeros,
                    nodal_profile)
from .nonlinear import (AsymptoticF, AutonomousProblem, PerturbationG,
                        PerturbedProblem, check_asymptotics, fp_residual,
                        newton)
from .render import render_diagram
from .shooting import (boundary_determinant, shoot_eigenvalue,
                       shoot_nodal_solution)
from .spectrum import (EigenPair, SpectrumResult, eigen_pencil,
                       eigen_pencil_extrapolated, widest_resolvable_window)

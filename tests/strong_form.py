"""Strong-form residual and a manufactured problem, for discretization tests.

The library corrects on the fixed-point residual u - Lam2(F(u, mu)).  The
strong (collocation) form K u - F(u, mu) has the same zero set, but
evaluating the fourth difference of float64 samples amplifies their
representation noise by about 16/h^4, so at n = 2000 it has an absolute
floor near 1e-2 per unit amplitude.  It is the right object for
O(h^2)-level checks at moderate n, which is all these tests ask of it.
"""

import numpy as np

from beamspec.grid import from_interior
from beamspec.linops import SecondDiffOperator
from beamspec.nonlinear import PerturbationG, check_boundary


def residual(u, mu, spec):
    """Strong-form residual (K u - F)(u, mu) at interior nodes.

    Returns (max_norm, residual SampledFn).
    """
    check_boundary(u)
    a = SecondDiffOperator(spec.grid)
    vec = a.apply(a.apply(u.interior)) - spec.source(u.interior, mu)
    r = from_interior(spec.grid, vec)
    return float(np.max(np.abs(vec))), r


def manufactured_perturbation(weight_fn):
    """g chosen so that u*(t) = sin(pi t) solves the perturbed problem
    for every mu: g(t, s, mu) = pi^4 sin(pi t) - mu m(t) s.

    Violates g(t, 0, mu) = 0 by design; it exists to exercise residual
    and Newton machinery, not branch tracing.
    """
    def ev(t, s, mu):
        t = np.asarray(t, dtype=float)
        return np.pi**4 * np.sin(np.pi * t) - mu * weight_fn(t) * np.asarray(s, dtype=float)

    def pd(t, s, mu):
        t = np.asarray(t, dtype=float)
        s = np.broadcast_arrays(t, np.asarray(s, dtype=float))[1]
        return -mu * weight_fn(t) * np.ones_like(s)

    return PerturbationG(evaluate=ev, partial=pd)

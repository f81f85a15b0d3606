"""Initial-value shooting oracles, independent of the grid discretization.

Everything here integrates the beam ODE as a first-order 4-system with
classical fourth-order Runge-Kutta at a fixed step (<= 1e-4) and never
touches the finite-difference operators, so it can serve as an
independent cross-check for them.  Both oracles share one RK4 step,
written in plain arithmetic so that the state components may be Python
floats (the nonlinear shoot) or numpy arrays (the linear pencil).

For the linear pencil u'''' = mu m(t) u the two IVP columns with
u(0) = u''(0) = 0 and (u', u''')(0) in {(1,0), (0,1)} span all admissible
solutions; mu is an eigenvalue exactly when the boundary determinant

    d(mu) = u_a(1) u_b''(1) - u_b(1) u_a''(1)

vanishes.  The system is linear, so one RK4 step is a 4x4 transfer matrix;
all steps are built at once, and their second compounds (the 6x6 matrices
of 2x2 minors) are multiplied by a pairwise tree.  Roots of d are found by
bisection on a sign-changing bracket.
"""

import numpy as np

from .errors import NoConvergence, NoSignChange
from .grid import SampledFn

DEFAULT_STEPS = 10000  # step 1e-4 over [0, 1]


def _weight_on_half_grid(m, n_steps):
    """Weight values at t_j = j/(2 n_steps), j = 0..2n (nodes and midpoints)."""
    tt = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    if callable(m):
        return np.asarray(m(tt), dtype=float)
    if isinstance(m, SampledFn):
        from scipy.interpolate import CubicSpline
        return CubicSpline(m.grid.nodes, m.values)(tt)
    raise TypeError("weight must be a callable or a SampledFn")


def _rk4_step(rhs, y, h, m0, mh, m1):
    """One classical RK4 step of y' = rhs(y, m) for a 4-component state y.

    m0, mh and m1 are the weight at the start, midpoint and end of the
    step; rhs(y, m) returns the 4 components of the derivative.
    """
    half = 0.5 * h
    y1, y2, y3, y4 = y
    a1, a2, a3, a4 = rhs(y, m0)
    b1, b2, b3, b4 = rhs((y1 + half * a1, y2 + half * a2,
                          y3 + half * a3, y4 + half * a4), mh)
    c1, c2, c3, c4 = rhs((y1 + half * b1, y2 + half * b2,
                          y3 + half * b3, y4 + half * b4), mh)
    d1, d2, d3, d4 = rhs((y1 + h * c1, y2 + h * c2,
                          y3 + h * c3, y4 + h * c4), m1)
    return (y1 + h * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0,
            y2 + h * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0,
            y3 + h * (a3 + 2.0 * b3 + 2.0 * c3 + d3) / 6.0,
            y4 + h * (a4 + 2.0 * b4 + 2.0 * c4 + d4) / 6.0)


# the 2x2 minors of a 4x4 matrix, indexed by a pair of rows and a pair of
# columns in this order, are the entries of its 6x6 second compound
_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_I, _J = _PAIRS[:, :1], _PAIRS[:, 1:]
_K, _L = _PAIRS[:, 0], _PAIRS[:, 1]


def _boundary_determinant(mu, m_half):
    n = (len(m_half) - 1) // 2

    def rhs(y, m):
        return y[1], y[2], y[3], mu * m * y[0]

    # stepping the identity with the weight of every step as an array gives
    # all n transfer matrices at once: p[:, :, j] maps y(t_j) to y(t_j+1)
    p = np.array(_rk4_step(rhs, tuple(np.eye(4)[:, :, None]), 1.0 / n,
                           m_half[0:-1:2], m_half[1::2], m_half[2::2]))
    # d is a 2x2 minor of the product of all steps.  Taken from the 4x4
    # product it cancels to about exp(-mu^1/4) of the terms it is formed
    # from; the product of the second compounds (Cauchy-Binet) holds the
    # minor itself as an entry
    c = np.moveaxis(p[_I, _K] * p[_J, _L] - p[_I, _L] * p[_J, _K], -1, 0)
    while len(c) > 1:
        if len(c) % 2:
            c = np.concatenate([c, np.eye(6)[None]])
        c = c[1::2] @ c[0::2]  # the later step on the left
        # positive factors guard against overflow without touching the
        # sign of the determinant
        c /= np.max(np.abs(c), axis=(1, 2), keepdims=True)
    # rows (0, 2) and columns (1, 3): u and u'' at t = 1 of the solutions
    # started from u'(0) = 1 and from u'''(0) = 1
    return c[0, 1, 4]


def boundary_determinant(mu, m, n_steps=DEFAULT_STEPS):
    """d(mu) for the weight m (callable or SampledFn), up to a positive factor."""
    return float(_boundary_determinant(float(mu), _weight_on_half_grid(m, n_steps)))


def shoot_eigenvalue(m, mu_bracket, n_steps=DEFAULT_STEPS, rtol=1e-10):
    """Eigenvalue of u'''' = mu m u inside the bracket, by RK4 shooting.

    The bracket endpoints must give opposite signs of the boundary
    determinant; bisection shrinks it to a relative width of rtol.
    """
    lo, hi = float(mu_bracket[0]), float(mu_bracket[1])
    if lo > hi:
        lo, hi = hi, lo
    m_half = _weight_on_half_grid(m, n_steps)
    dlo = _boundary_determinant(lo, m_half)
    dhi = _boundary_determinant(hi, m_half)
    if dlo == 0.0:
        return lo
    if dhi == 0.0:
        return hi
    if dlo * dhi > 0.0:
        raise NoSignChange(
            f"d({lo}) = {dlo:.3e} and d({hi}) = {dhi:.3e} have the same sign")
    while hi - lo > rtol * (1.0 + 0.5 * (abs(lo) + abs(hi))):
        mid = 0.5 * (lo + hi)
        dm = _boundary_determinant(mid, m_half)
        if dm == 0.0:
            return mid
        if dlo * dm < 0.0:
            hi = mid
        else:
            lo, dlo = mid, dm
    return 0.5 * (lo + hi)


def _integrate_nonlinear(a, b, gamma, m_half, f):
    """RK4 for u'''' = gamma m(t) f(u) from u(0)=u''(0)=0, (u',u''')(0)=(a,b).

    Returns (trajectory of u at the integration nodes, u(1), u''(1)).
    """
    n = (len(m_half) - 1) // 2
    h = 1.0 / n
    # Python floats throughout: arithmetic on numpy scalars is slower
    w = m_half.tolist()

    def rhs(y, m):
        return y[1], y[2], y[3], gamma * m * float(f(y[0]))

    y = (0.0, a, 0.0, b)
    traj = [0.0]
    for j in range(n):
        y = _rk4_step(rhs, y, h, w[2 * j], w[2 * j + 1], w[2 * j + 2])
        traj.append(y[0])
    return np.array(traj, dtype=float), y[0], y[2]


def shoot_nodal_solution(gamma, m, f, slope0, jerk0, grid, max_iter=30,
                         tol=1e-10):
    """Solve u'''' = gamma m(t) f(u) with the four boundary conditions.

    2-by-2 Newton on the terminal map (u'(0), u'''(0)) -> (u(1), u''(1)),
    seeded with the supplied initial slopes, with a finite-difference
    Jacobian.  The integration step divides the grid spacing so the
    trajectory can be read off exactly at the grid nodes.  Returns the
    solution as a SampledFn.
    """
    per_cell = int(np.ceil(1.0 / (1e-4 * (grid.n_interior + 1))))
    n_steps = per_cell * (grid.n_interior + 1)
    m_half = _weight_on_half_grid(m, n_steps)
    a, b = float(slope0), float(jerk0)
    scale = max(1.0, abs(a), abs(b))
    for _ in range(max_iter):
        traj, r1, r2 = _integrate_nonlinear(a, b, gamma, m_half, f)
        if max(abs(r1), abs(r2)) <= tol * scale:
            return SampledFn(grid, traj[::per_cell].copy())
        da = 1e-7 * (1.0 + abs(a))
        db = 1e-7 * (1.0 + abs(b))
        _, r1a, r2a = _integrate_nonlinear(a + da, b, gamma, m_half, f)
        _, r1b, r2b = _integrate_nonlinear(a, b + db, gamma, m_half, f)
        j11, j21 = (r1a - r1) / da, (r2a - r2) / da
        j12, j22 = (r1b - r1) / db, (r2b - r2) / db
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            raise NoConvergence("singular shooting Jacobian")
        a -= (j22 * r1 - j12 * r2) / det
        b -= (-j21 * r1 + j11 * r2) / det
    raise NoConvergence(f"shooting Newton did not meet {tol} in {max_iter} iterations")

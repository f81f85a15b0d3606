"""Initial-value shooting oracles, independent of the grid discretization.

Everything here integrates the beam ODE as a first-order 4-system with
classical fourth-order Runge-Kutta at a fixed step (<= 1e-4) and never
touches the finite-difference operators, so it can serve as an
independent cross-check for them.  The nonlinear shoot steps a state of
Python floats through _rk4_step.  The linear oracle takes the same RK4
scheme in closed matrix form, and the tests check that form entry by
entry against _rk4_step stepped on the identity.

For the linear pencil u'''' = mu m(t) u the two IVP columns with
u(0) = u''(0) = 0 and (u', u''')(0) in {(1,0), (0,1)} span all admissible
solutions; mu is an eigenvalue exactly when the boundary determinant

    d(mu) = u_a(1) u_b''(1) - u_b(1) u_a''(1)

vanishes.  The system is linear, so one RK4 step is a 4x4 transfer matrix.
Its companion matrix is A(q) = S + q E, with S the shift e_i -> e_(i-1),
E = e4 e1^T and q = mu m(t).  A step of length h is I plus a sum of
products of at most four factors A(q), taken at the start, midpoint and
end of the step.  Two factors E in one product are separated by at most
two factors S, and E S^k E = 0 for k <= 2, so every product is affine in
mu.  The step matrix is therefore exactly T0 + mu W_j, where
T0 = sum_(k<=3) (hS)^k / k! and W_j has ten entries, linear in the weight
at the three nodes of step j.

d is a 2x2 minor of the product of all steps; taken from that 4x4 product
it would cancel to about exp(-|mu|^1/4) of the terms it is formed from.
The second compound (the 6x6 matrix of 2x2 minors) of a product is the
product of the second compounds (Cauchy-Binet), and holds the minor itself
as an entry.

The steps are first multiplied as 4x4 matrices in blocks of BLOCK
consecutive steps, the last block padded with identities; only the block
products become compounds, which a normalized pairwise tree multiplies.
By Cauchy-Binet this is exact in exact arithmetic.  In floats, a minor of
a block product cancels by at most the growth of the block, about
exp(b h |mu m|^1/4) for a block of b steps.  Each block is halved, down
to one step, until b h |mu m|^1/4 <= 1, so a block's minors cancel by at
most e.  So the blocks cost no accuracy, and the compound tree is BLOCK
times shorter: 79 blocks instead of 10 000 steps at the default step and
|mu m| <= 3.7e7.

The first levels of every block product are kept folded.  A product of
steps is a polynomial in mu with 4x4 coefficients, and one fold
multiplies consecutive pairs of them by convolving the coefficients, the
later factor on the left:

    (B0 + mu B1 + ...)(A0 + mu A1 + ...) = sum_k mu^k sum_(i+j=k) Bi Aj.

An identity step closes an odd count, and a coefficient that every pair
shares, a power of T0, stays one matrix.  Two folds of the steps
T0 + mu W_j give, once per weight, the quartic in mu of each group of
FOLD steps, so a determinant forms its n/4 group products by Horner's
rule in four multiply-adds over the groups instead of forming n steps and
multiplying them.  A fold sums the same products of T0 and the W as the
direct product of the steps, in another order, so it adds no
cancellation beyond the block growth above.  Where blocks hold 2 or 1
steps, the groups hold as many: one fold or none.

The steps are built from the weight scaled by 2^-e, with e the binary
exponent of max |m|, and mu is scaled by 2^e.  Rounding commutes with a
power of two, so no coefficient can overflow or underflow, the bits are
those of the unscaled steps wherever these are finite and normal, and
d(2^-k mu; 2^k m) = d(mu; m) exactly.  functools.lru_cache keeps the
folded steps of the last CACHE_SIZE (samples, fold) pairs between shoots,
the samples being the weight's at the RK4 nodes and midpoints.  Every
call samples the weight afresh, and an entry serves only samples equal
to its own bit for bit, so a changed weight misses and a hit returns
exactly what a rebuild would.  An entry holds the key's samples and the
polynomial's coefficients (T0^4 as one matrix): about 1.4 MB at the
default step.  Groups of fewer than FOLD steps take |mu| max |m| >
(n/4)^4, 3.9e13 at the default step; below that a weight keeps one entry.

Roots of d are found by Brent's method (Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4; Dekker 1969) on a sign-changing bracket.
The first step is a bisection: callers centre the bracket on an estimate
of the root, so that step evaluates the estimate; interpolation follows.
Once the sign-change bracket is within the stopping width, the oracle
returns the secant root of its two ends rather than an end, so the result
is its own and never the bracket's centre handed back.  A determinant that
overflows to a non-finite value stops the search.
"""

import functools
import math

import numpy as np

from .errors import NoConvergence, NoSignChange, ValidationError
from .grid import SampledFn

DEFAULT_STEPS = 10000  # step 1e-4 over [0, 1]
BLOCK = 128            # most RK4 steps per 4x4 block product; a power of two
FOLD = 4               # RK4 steps per folded group, a quartic in mu
CACHE_SIZE = 4         # (weight, fold) pairs whose folded steps are kept
EIGEN_RTOL = 1e-10     # eigenvalue shoot's stopping width, relative to |mu|
NODAL_MAX_ITER = 30    # Newton iterations of the nonlinear shoot
NODAL_TOL = 1e-10      # terminal residual, relative to the initial slopes
_EPS = np.finfo(float).eps


def _weight_on_half_grid(m, n_steps):
    """Weight values at t_j = j/(2 n_steps), j = 0..2n (nodes and midpoints)."""
    if not callable(m):
        raise TypeError("weight must be a callable t -> m(t)")
    if n_steps < 1:
        raise ValidationError(f"n_steps must be at least 1, got {n_steps}")
    m_half = np.asarray(m(np.linspace(0.0, 1.0, 2 * n_steps + 1)), dtype=float)
    if m_half.shape != (2 * n_steps + 1,):
        raise ValidationError(
            f"weight returned shape {m_half.shape} on the {2 * n_steps + 1} RK4 "
            f"nodes and midpoints, not ({2 * n_steps + 1},)")
    if not np.all(np.isfinite(m_half)):
        raise ValidationError("weight is not finite at every RK4 node and midpoint")
    return m_half


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


def _linear_steps(m_half):
    """(T0, W), where T0 + mu W[j] is RK4 step j of u'''' = mu m u.

    Each entry of W collects the products with one factor E in the RK4
    step, named on its right; m0, mh and m1 are the weight at the start,
    midpoint and end of each step.
    """
    h = 1.0 / ((len(m_half) - 1) // 2)
    m0, mh, m1 = m_half[0:-1:2], m_half[1::2], m_half[2::2]
    w = np.zeros((len(m0), 4, 4))
    w[:, 3, 0] = h / 6.0 * (m0 + 4.0 * mh + m1)       # E
    w[:, 3, 1] = h ** 2 / 6.0 * (2.0 * mh + m1)       # E S
    w[:, 2, 0] = h ** 2 / 6.0 * (m0 + 2.0 * mh)       # S E
    w[:, 3, 2] = h ** 3 / 12.0 * (mh + m1)            # E S^2
    w[:, 2, 1] = h ** 3 / 6.0 * mh                    # S E S
    w[:, 1, 0] = h ** 3 / 12.0 * (m0 + mh)            # S^2 E
    w[:, 3, 3] = h ** 4 / 24.0 * m1                   # E S^3
    w[:, 2, 2] = w[:, 1, 1] = h ** 4 / 24.0 * mh      # S E S^2, S^2 E S
    w[:, 0, 0] = h ** 4 / 24.0 * m0                   # S^3 E
    hs = np.eye(4, k=1) * h
    t0 = np.eye(4) + hs + hs @ hs / 2.0 + hs @ hs @ hs / 6.0
    return t0, w


def _fold(poly):
    """The products of consecutive pairs of steps, the later one on the left.

    poly lists the coefficients of mu^0, mu^1, ... of the steps: each an
    array of shape (n, 4, 4) over the n steps, or one 4x4 matrix that
    every step shares.  An identity step closes an odd count.
    """
    n, deg = len(poly[-1]), len(poly) - 1
    if n % 2:
        poly = [np.concatenate([np.broadcast_to(c, (n, 4, 4)), [np.eye(4) * (k == 0)]])
                for k, c in enumerate(poly)]
    a = [c if c.ndim == 2 else c[0::2] for c in poly]
    b = [c if c.ndim == 2 else c[1::2] for c in poly]
    folded = []
    for k in range(2 * deg + 1):
        # the coefficient of mu^k: sum over i of b[i] a[k - i]
        i = range(min(k, deg), max(0, k - deg) - 1, -1)
        total = b[i[0]] @ a[k - i[0]]
        for j in i[1:]:
            total += b[j] @ a[k - j]
        folded.append(total)
    return folded


@functools.lru_cache(maxsize=CACHE_SIZE)
def _folded_steps(samples, fold):
    """C, where sum_k (2^e mu)^k C[k][i] is the product of RK4 steps
    fold i + fold - 1, ..., fold i of the weight sampled in samples, and
    e is the binary exponent of its max |m|.

    samples are the bytes of the weight at the RK4 nodes and midpoints:
    their length fixes n_steps, and a change in any bit misses the cache.
    """
    m_half = np.frombuffer(samples)
    poly = _linear_steps(np.ldexp(m_half, -math.frexp(np.max(np.abs(m_half)))[1]))
    for _ in range(fold.bit_length() - 1):
        poly = _fold(poly)
    return poly


def _weight(m, n_steps):
    """(sample bytes, max |m|) of the callable weight; see _folded_steps."""
    m_half = _weight_on_half_grid(m, n_steps)
    return m_half.tobytes(), float(np.max(np.abs(m_half)))


def _boundary_determinant(mu, weight):
    samples, m_max = weight
    n = len(samples) // 16  # 2 n + 1 samples of 8 bytes
    # blocks of size steps, halved until one spans at most 1 / |mu m|^1/4
    # of [0, 1]
    reach = (abs(mu) * m_max) ** 0.25
    size = BLOCK
    while size > 1 and size * reach > n:
        size //= 2
    # the steps folded in groups of FOLD, or of a smaller block's size
    fold = min(size, FOLD)
    poly = _folded_steps(samples, fold)
    mu = np.ldexp(mu, math.frexp(m_max)[1])  # the steps' weight is scaled by 2^-e
    size //= fold
    # the group products by Horner's rule, then identities, so that every
    # block spans size groups
    groups = len(poly[-1])
    t = np.empty((groups + -groups % size, 4, 4))
    head = np.multiply(mu, poly[-1], out=t[:groups])
    for coefficient in poly[-2:0:-1]:
        head += coefficient
        head *= mu
    head += poly[0]
    t[groups:] = np.eye(4)
    for _ in range(size.bit_length() - 1):
        t = t[1::2] @ t[0::2]  # the later step on the left
    # the second compounds of the block products, multiplied the same way
    c = t[:, _I, _K] * t[:, _J, _L] - t[:, _I, _L] * t[:, _J, _K]
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


def _finite_determinant(mu, weight):
    """d(mu); NoConvergence if mu m overflows the RK4 step products."""
    with np.errstate(all="ignore"):
        d = float(_boundary_determinant(mu, weight))
    if not math.isfinite(d):
        raise NoConvergence(f"boundary determinant at mu = {mu!r} is {d}, not finite")
    return d


def boundary_determinant(mu, m, n_steps=DEFAULT_STEPS):
    """d(mu) for the callable weight m, up to a positive factor."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValidationError(f"mu={mu} is not finite")
    return _finite_determinant(mu, _weight(m, n_steps))


def shoot_eigenvalue(m, mu_bracket, n_steps=DEFAULT_STEPS):
    """Eigenvalue of u'''' = mu m u inside the bracket, by RK4 shooting.

    The bracket endpoints must give opposite signs of the boundary
    determinant.  Brent's method shrinks the sign-change bracket [b, c]
    until it is no wider than EIGEN_RTOL * (|b| + |c|) / 2, or than
    4 eps |b| near the float spacing, and returns its secant root
    b - d(b) (c - b) / (d(c) - d(b)).  The width is relative, so scaling
    the weight by a constant scales the root and the width alike.  The
    first step after the endpoints is a bisection, so a bracket centred on an
    estimate of the root evaluates that estimate third.  When the estimate
    lies within half the stopping width of the root, the interpolation
    step from it is normally shorter than that half-width, so the step
    taken is the half-width itself: it crosses the root, closes the
    bracket, and the shoot ends after 4 determinants.  A determinant that
    is not finite, at an endpoint or inside, raises NoConvergence.
    """
    lo, hi = float(mu_bracket[0]), float(mu_bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"bracket ({lo}, {hi}) is not finite")
    weight = _weight(m, n_steps)
    dlo = _finite_determinant(lo, weight)
    dhi = _finite_determinant(hi, weight)
    if dlo == 0.0:
        return lo
    if dhi == 0.0:
        return hi
    if dlo * dhi > 0.0:
        raise NoSignChange(
            f"d({lo}) = {dlo:.3e} and d({hi}) = {dhi:.3e} have the same sign")
    # b is the latest iterate, c the last point where d has the other sign
    # and a the previous b; an interpolation step must be shorter than half
    # the step before last, e; e = 0 makes the first step a bisection
    a, da, b, db = lo, dlo, hi, dhi
    c, dc = a, da
    e = step = 0.0
    while True:
        if abs(dc) < abs(db):
            a, da, b, db, c, dc = b, db, c, dc, b, db
        # half the stopping width, and never below the spacing of floats at b
        tol = max(0.25 * EIGEN_RTOL * (abs(b) + abs(c)), 2.0 * _EPS * abs(b))
        half = 0.5 * (c - b)
        if abs(half) <= tol or db == 0.0:
            return float(b - db * (c - b) / (dc - db))
        if abs(e) >= tol and abs(da) > abs(db):
            s = db / da
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:       # inverse quadratic interpolation
                q, r = da / dc, db / dc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, step = step, p / q
            else:  # the interpolant steps too far or too slowly: bisect
                e = step = half
        else:
            e = step = half
        a, da = b, db
        b += step if abs(step) > tol else math.copysign(tol, half)
        db = _finite_determinant(b, weight)
        if (db > 0.0) == (dc > 0.0):
            c, dc = a, da
            e = step = b - a


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


def shoot_nodal_solution(gamma, m, f, slope0, jerk0, grid):
    """Solve u'''' = gamma m(t) f(u) with the four boundary conditions.

    2-by-2 Newton on the terminal map (u'(0), u'''(0)) -> (u(1), u''(1)),
    seeded with the supplied initial slopes, with a finite-difference
    Jacobian.  The integration step divides the grid spacing, with at
    least DEFAULT_STEPS steps over [0, 1], so the trajectory can be read
    off exactly at the grid nodes.  Returns the solution as a SampledFn.
    """
    per_cell = -(-DEFAULT_STEPS // (grid.n_interior + 1))
    n_steps = per_cell * (grid.n_interior + 1)
    m_half = _weight_on_half_grid(m, n_steps)
    # Python floats throughout: arithmetic on numpy scalars is slower
    gamma, a, b = float(gamma), float(slope0), float(jerk0)
    scale = max(1.0, abs(a), abs(b))
    for _ in range(NODAL_MAX_ITER):
        traj, r1, r2 = _integrate_nonlinear(a, b, gamma, m_half, f)
        if max(abs(r1), abs(r2)) <= NODAL_TOL * scale:
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
    raise NoConvergence(f"shooting Newton did not meet {NODAL_TOL} "
                        f"in {NODAL_MAX_ITER} iterations")

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

The first level of every block product is kept folded: steps 4i..4i+3
multiply to the quartic

    (T0 + mu W_4i+3) ... (T0 + mu W_4i)
        = T0^4 + mu C1_i + mu^2 C2_i + mu^3 C3_i + mu^4 C4_i,

so a determinant forms its n/4 group products by Horner's rule in four
multiply-adds over the groups instead of forming n steps and multiplying them.  The
coefficients are built once per weight from the pairs of steps,

    (T0 + mu W_2i+1)(T0 + mu W_2i) = T0^2 + mu Q1_i + mu^2 Q2_i,

with Q1_i = W_2i+1 T0 + T0 W_2i and Q2_i = W_2i+1 W_2i: with a = pair 2i
and b = pair 2i+1 of a group,

    C1 = Q1b T0^2 + T0^2 Q1a,  C2 = Q2b T0^2 + Q1b Q1a + T0^2 Q2a,
    C3 = Q2b Q1a + Q1b Q2a,    C4 = Q2b Q2a.

The fold sums the same products of T0 and the W as the direct product of
the four steps, in another order, so it adds no cancellation beyond the
block growth above.  The last n mod 4 steps are formed one by one as
T0 + mu W_j from the samples.  So are all steps where a block holds fewer
than FOLD steps, and those of a weight near the float limit, whose
coefficients overflow.  The folded data of the last CACHE_SIZE weights
are kept between shoots, keyed by n_steps and the weight's samples at the
RK4 nodes and midpoints.  Every call samples the weight afresh, and an
entry serves only samples equal to its own bit for bit, so a changed
weight misses and a hit returns exactly what a rebuild would.  An entry holds the samples, T0^4, C1..C4 and max |m|: about
1.4 MB at the default step.

Roots of d are found by Brent's method (Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4; Dekker 1969) on a sign-changing bracket.
The first step is a bisection: callers centre the bracket on an estimate
of the root, so that step evaluates the estimate; interpolation follows.
Once the sign-change bracket is within the stopping width, the oracle
returns the secant root of its two ends rather than an end, so the result
is its own and never the bracket's centre handed back.  A determinant that
overflows to a non-finite value stops the search.
"""

import math

import numpy as np

from .errors import NoConvergence, NoSignChange, ValidationError
from .grid import SampledFn

DEFAULT_STEPS = 10000  # step 1e-4 over [0, 1]
BLOCK = 128            # most RK4 steps per 4x4 block product; a power of two
FOLD = 4               # RK4 steps per folded group, a quartic in mu
CACHE_SIZE = 4         # weights whose folded steps are kept between shoots
EIGEN_RTOL = 1e-10     # eigenvalue shoot's stopping width, relative to 1 + |mu|
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


def _linear_steps(m_half, n=None):
    """(T0, W, max |m|), where T0 + mu W[j] is RK4 step j of u'''' = mu m u.

    Each entry of W collects the products with one factor E in the RK4
    step, named on its right; m0, mh and m1 are the weight at the start,
    midpoint and end of each step.  n is the number of steps across
    [0, 1], by default the number that the samples span.
    """
    h = 1.0 / (n or (len(m_half) - 1) // 2)
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
    return t0, w, float(np.max(np.abs(m_half)))


def _folded_steps(m_half):
    """(samples, T0^4, C, max |m|), where T0^4 + sum_k mu^k C[k-1, i] is the
    product of RK4 steps 4i + 3, ..., 4i.  C is None where a weight near
    the float limit overflows it.
    """
    n = (len(m_half) - 1) // 2
    t0, w, m_max = _linear_steps(m_half)
    t0_sq = t0 @ t0
    w = w[:n - n % FOLD]
    with np.errstate(over="ignore", invalid="ignore"):
        # the pairs of steps 2i + 1 and 2i, then the pairs of pairs
        q1 = w[1::2] @ t0 + t0 @ w[0::2]
        q2 = w[1::2] @ w[0::2]
        q1a, q1b, q2a, q2b = q1[0::2], q1[1::2], q2[0::2], q2[1::2]
        c = np.empty((4, len(q1a), 4, 4))
        c[0] = q1b @ t0_sq + t0_sq @ q1a
        c[1] = q2b @ t0_sq + q1b @ q1a + t0_sq @ q2a
        c[2] = q2b @ q1a + q1b @ q2a
        c[3] = q2b @ q2a
    return m_half, t0_sq @ t0_sq, c if np.all(np.isfinite(c)) else None, m_max


_cache = {}  # sample bytes -> folded steps, the least recently used first


def _steps(m_half):
    """The folded steps of the sampled weight, built on a miss and kept.

    The key is the samples' bytes: their length fixes n_steps, and a
    change in any bit misses.  An entry reads its samples from the key, so
    a hit and a miss compute from the same array.
    """
    key = m_half.tobytes()
    steps = _cache.pop(key, None)
    if steps is None:
        steps = _folded_steps(np.frombuffer(key))
        if len(_cache) >= CACHE_SIZE:
            del _cache[next(iter(_cache))]
    _cache[key] = steps
    return steps


def _boundary_determinant(mu, steps):
    m_half, t0_4, coeffs, m_max = steps
    n = (len(m_half) - 1) // 2
    # blocks of size steps, halved until one spans at most 1 / |mu m|^1/4
    # of [0, 1]; identities pad the steps to whole blocks
    reach = (abs(mu) * m_max) ** 0.25
    size = BLOCK
    while size > 1 and size * reach > n:
        size //= 2
    if size < FOLD or coeffs is None:
        # t[j] = T0 + mu W[j] maps y(t_j) to y(t_j+1)
        t0, w, _ = _linear_steps(m_half)
        t = np.multiply(mu, w)
        t += t0
        size = 1
    else:
        # the folded groups, then the last n mod 4 steps one by one, then
        # identities, so that every block spans size // FOLD entries
        groups, tail = divmod(n, FOLD)
        used = groups + tail
        t = np.empty((used + -used % (size // FOLD), 4, 4))
        head = np.multiply(mu, coeffs[3], out=t[:groups])
        for coefficient in coeffs[2::-1]:
            head += coefficient
            head *= mu
        head += t0_4
        if tail:
            t0, w, _ = _linear_steps(m_half[-2 * tail - 1:], n)
            np.multiply(mu, w, out=t[groups:used])
            t[groups:used] += t0
        t[used:] = np.eye(4)
        size //= FOLD
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


def _finite_determinant(mu, steps):
    """d(mu); NoConvergence if mu m overflows the RK4 step products."""
    with np.errstate(all="ignore"):
        d = float(_boundary_determinant(mu, steps))
    if not math.isfinite(d):
        raise NoConvergence(f"boundary determinant at mu = {mu!r} is {d}, not finite")
    return d


def boundary_determinant(mu, m, n_steps=DEFAULT_STEPS):
    """d(mu) for the callable weight m, up to a positive factor."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValidationError(f"mu={mu} is not finite")
    return _finite_determinant(mu, _steps(_weight_on_half_grid(m, n_steps)))


def shoot_eigenvalue(m, mu_bracket, n_steps=DEFAULT_STEPS):
    """Eigenvalue of u'''' = mu m u inside the bracket, by RK4 shooting.

    The bracket endpoints must give opposite signs of the boundary
    determinant.  Brent's method shrinks the sign-change bracket [b, c]
    until it is no wider than EIGEN_RTOL * (1 + (|b| + |c|) / 2) and
    returns its secant root b - d(b) (c - b) / (d(c) - d(b)).  The first
    step after the endpoints is a bisection, so a bracket centred on an
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
    steps = _steps(_weight_on_half_grid(m, n_steps))
    dlo = _finite_determinant(lo, steps)
    dhi = _finite_determinant(hi, steps)
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
        tol = max(0.25 * EIGEN_RTOL * (2.0 + abs(b) + abs(c)), 2.0 * _EPS * abs(b))
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
        db = _finite_determinant(b, steps)
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
    Jacobian.  The integration step divides the grid spacing so the
    trajectory can be read off exactly at the grid nodes.  Returns the
    solution as a SampledFn.
    """
    per_cell = int(np.ceil(1.0 / (1e-4 * (grid.n_interior + 1))))
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

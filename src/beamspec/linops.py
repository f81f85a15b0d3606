"""Discrete operators for the simply supported beam problem.

The second-difference operator A encodes -u'' with u(0) = u(1) = 0 on
interior nodes.  The fourth-order stiffness operator is its square
K = A o A, which imposes u''(0) = u''(1) = 0 exactly: the intermediate
field w = -u'' is itself a Dirichlet solution, so its endpoint values
vanish by construction and no ghost points are needed.

Solving -u'' = e is written Lam(e); Lam2 = Lam o Lam inverts the
fourth-order operator.  A is symmetric positive definite and fixed per
grid, so it has one LDL^T factor per grid (LAPACK dpttrf, no pivoting),
computed once and cached; every solve is one O(n) dpttrs on it.  All
operators are immutable and every operation is pure.

Every linearization K - diag(F_u) is factored as the mixed matrix
[[A, -I], [-diag(F_u), A]] in (u, w = A u) by one banded LU, _MixedLU,
so no fourth difference is ever formed.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs

from .errors import OnEigenvalue, ValidationError
from .grid import Grid, from_interior

EPS = np.finfo(float).eps
RCOND_ITMAX = 5  # estimator rounds; each costs one solve with B and one with B^T


@lru_cache(maxsize=4)
def _ldl(n, h):
    """Read-only LDL^T factor (d, e) of (1/h^2) tridiag(-1, 2, -1), n x n."""
    d, e, _ = dpttrf(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
    d.flags.writeable = False
    e.flags.writeable = False
    return d, e


@dataclass(frozen=True, eq=False)
class SecondDiffOperator:
    """(1/h^2) tridiag(-1, 2, -1) on interior values: -u'' with Dirichlet ends.

    Solves run on one LDL^T factor per grid (dpttrf/dpttrs), computed
    once and cached, so building an operator costs nothing.
    """

    grid: Grid

    def apply(self, x):
        """Second difference of an interior vector, Dirichlet zeros outside."""
        h = self.grid.h
        out = np.empty_like(x)
        out[0] = (2.0 * x[0] - x[1]) / h**2
        out[-1] = (2.0 * x[-1] - x[-2]) / h**2
        out[1:-1] = (2.0 * x[1:-1] - x[:-2] - x[2:]) / h**2
        return out

    def solve(self, rhs):
        """A x = rhs by one dpttrs on the grid's dpttrf factor (rhs may be a
        matrix of columns)."""
        d, e = _ldl(self.grid.n_interior, self.grid.h)
        return dpttrs(d, e, rhs)[0]


def lambda_solve(e):
    """Unique solution u of -u'' = e with u(0) = u(1) = 0.

    Endpoint values are exactly zero; the interior values come from one
    tridiagonal solve.
    """
    a = SecondDiffOperator(e.grid)
    return from_interior(e.grid, a.solve(e.interior))


def lambda2(e):
    """Lam applied twice: solves u'''' = e with all four boundary conditions."""
    return lambda_solve(lambda_solve(e))


def _swap_fields(b):
    """Exchange u_i and w_i at every node of an interleaved vector."""
    out = np.empty_like(b)
    out[0::2], out[1::2] = b[1::2], b[0::2]
    return out


class _MixedLU:
    """Band LU of [[A, -I], [-diag(fu), A]] with the unknowns interleaved.

    Row 2i is the u-equation and row 2i+1 the w-equation at node i, so the
    interleaved matrix has kl = ku = 2.  It is a symmetric permutation of
    the block matrix, whose determinant is det(A^2 - diag(fu)) = det(K - F_u).
    """

    def __init__(self, grid, fu):
        n, h2 = grid.n_interior, grid.h**2
        # LAPACK band storage: entry (i, j) at row 4 + i - j; rows 0-1 are
        # left free for the fill-in of partial pivoting
        ab = np.zeros((7, 2 * n))
        ab[2, 2:] = -1.0 / h2          # (i, i + 2): next node, same field
        ab[3, 1::2] = -1.0             # (2i, 2i + 1): -w_i in the u-equation
        ab[4, :] = 2.0 / h2
        ab[5, 0::2] = -fu              # (2i + 1, 2i): -F_u u_i in the w-equation
        ab[6, :-2] = -1.0 / h2         # (i, i - 2): previous node, same field
        self.anorm = float(np.max(np.sum(np.abs(ab), axis=0)))
        self.lu, self.piv, self.info = dgbtrf(ab, 2, 2)

    def solve(self, ru, rw):
        """(u, w) parts of the solution; ru, rw may be matrices of columns."""
        b = np.empty((2 * len(ru),) + np.shape(ru)[1:])
        b[0::2], b[1::2] = ru, rw
        x, _ = dgbtrs(self.lu, 2, 2, b, self.piv)
        return x[0::2], x[1::2]

    def rcond(self):
        """1 / (||B||_1 est ||B^-1||_1) for the interleaved matrix B; 0 when
        a pivot is exactly zero.

        est ||B^-1||_1 is Hager's 1-norm estimator (SIAM J. Sci. Stat.
        Comput. 5, 1984) in the one-column form of Higham and Tisseur's
        Algorithm 2.4 (SIAM J. Matrix Anal. Appl. 21, 2000): start from
        x = 1/n, take y = B^-1 x, est = ||y||_1, z = B^-T sign(y) and move x
        to the unit vector at the largest |z|, for at most five rounds.  It
        draws no random start, so the value is deterministic, and never
        exceeds ||B^-1||_1, so rcond never falls below the true value.

        B is a symmetric permutation of [[A, -I], [-diag(fu), A]], whose
        transpose is the same block matrix with u and w swapped: B^T = Q B Q,
        Q swapping u_i and w_i at every node.  So B^-T s = Q B^-1 Q s, and
        every product is one plain dgbtrs solve on the factors held here.
        """
        if self.info > 0:
            return 0.0
        n = self.lu.shape[1]
        x, s, est_old, j = np.full(n, 1.0 / n), np.zeros(n), 0.0, 0
        for k in range(RCOND_ITMAX + 1):
            y = dgbtrs(self.lu, 2, 2, x, self.piv)[0]
            est = np.abs(y).sum()
            if k and est <= est_old:    # the new unit vector gained nothing
                est = est_old
                break
            est_old = est
            if k == RCOND_ITMAX:
                break
            s_old, s = s, np.where(y < 0.0, -1.0, 1.0)
            if np.array_equal(s, s_old):    # sign(y) repeats, so z would too
                break
            z = dgbtrs(self.lu, 2, 2, _swap_fields(s), self.piv)[0]
            h = np.abs(_swap_fields(z))
            if k and h.max() == h[j]:       # the current unit vector is the best
                break
            j = int(np.argmax(h))
            x = np.zeros(n)
            x[j] = 1.0
        return 1.0 / (self.anorm * est)

    def det_sign(self):
        """Sign of the determinant: pivot parity times the signs of U's diagonal."""
        flips = (np.count_nonzero(self.piv != np.arange(len(self.piv)))
                 + np.count_nonzero(self.lu[4] < 0))
        return -1 if flips % 2 else 1


def det_sign_psi(mu, m):
    """Sign of det(I - mu K^-1 M), the discrete degree surrogate for I - T_mu.

    det(I - mu K^-1 M) = det(K - mu M) / det K with det K > 0, so the sign
    is that of the banded _MixedLU at F_u = mu m.  A non-finite mu raises
    ValidationError.  A reciprocal condition estimate that is not at least
    machine epsilon (NaN included) raises OnEigenvalue rather than
    returning a garbage sign; it is the one near-eigenvalue rule.  The
    estimate (_MixedLU.rcond) takes at most eleven plain band solves on
    the factors the sign is read from: at n = 2000 one sign costs about
    1.4 ms on one BLAS thread (2 vCPUs), against about 3 ms when the
    estimate went through a generic operator interface with transposed
    band solves.
    """
    if not np.isfinite(mu):
        raise ValidationError(f"shift mu={mu} is not finite")
    lu = _MixedLU(m.grid, mu * m.interior)
    rcond = lu.rcond()
    if not rcond >= EPS:
        raise OnEigenvalue(f"reciprocal condition {rcond:.1e} at mu={mu}: "
                           "shift is numerically singular")
    return lu.det_sign()

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
from scipy.sparse.linalg import LinearOperator, onenormest

from .errors import OnEigenvalue
from .grid import Grid, from_interior

EPS = np.finfo(float).eps


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

        The estimate is the Hager-Higham 1-norm estimator (onenormest with
        one column, which draws no random start, so the value is
        deterministic).  Each of its products with B^-1 or B^-T is one
        dgbtrs solve on the factors held here.
        """
        if self.info > 0:
            return 0.0
        n = self.lu.shape[1]
        inverse = LinearOperator(
            (n, n), dtype=float,
            matvec=lambda b: dgbtrs(self.lu, 2, 2, b, self.piv)[0],
            rmatvec=lambda b: dgbtrs(self.lu, 2, 2, b, self.piv, trans=1)[0])
        return 1.0 / (self.anorm * onenormest(inverse, t=1))

    def det_sign(self):
        """Sign of the determinant: pivot parity times the signs of U's diagonal."""
        flips = (np.count_nonzero(self.piv != np.arange(len(self.piv)))
                 + np.count_nonzero(self.lu[4] < 0))
        return -1 if flips % 2 else 1


def det_sign_psi(mu, m):
    """Sign of det(I - mu K^-1 M), the discrete degree surrogate for I - T_mu.

    det(I - mu K^-1 M) = det(K - mu M) / det K with det K > 0, so the sign
    is that of the banded _MixedLU at F_u = mu m.  A reciprocal condition
    estimate below machine epsilon raises OnEigenvalue rather than
    returning a garbage sign; it is the one near-eigenvalue rule.  The
    estimate (_MixedLU.rcond) costs a few band solves on the factors the
    sign is read from.
    """
    lu = _MixedLU(m.grid, mu * m.interior)
    rcond = lu.rcond()
    if rcond < EPS:
        raise OnEigenvalue(f"reciprocal condition {rcond:.1e} at mu={mu}: "
                           "shift is numerically singular")
    return lu.det_sign()

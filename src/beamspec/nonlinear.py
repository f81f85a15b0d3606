"""Problem specifications, hypothesis checks, the residual, and the corrector.

Two problem kinds share one interface:

  * PerturbedProblem:   u'''' = mu m(t) u + g(t, u, mu)
  * AutonomousProblem:  u'''' = mu gamma m(t) f(u)

Both expose the right-hand side F(u, mu) and its u-slope at interior
nodes; every solver below is written against that interface.

The residual is the fixed-point form u - Lam2(F(u, mu)): two
backward-stable tridiagonal solves on the grid's cached factor of A.  Its
float floor is a small multiple of machine epsilon times the amplitude at
any n, so tolerances of 1e-8 and below are meaningful on fine grids.  The
corrector evaluates it on interior arrays (_fp); fp_residual wraps it as a
SampledFn for callers outside this module.

The Newton corrector iterates on the equivalent mixed second-order
system in (u, w), w = -u'':

    A u - w = 0,      A w - F(u, mu) = 0,

whose Jacobian [[A, -I], [-diag(F_u), A]] gets one banded LU per iteration
(linops._MixedLU, O(n)); in exact arithmetic its u-iterates coincide with
Newton on K u = F, but no fourth difference is ever formed.  The same
corrector frees mu on a hyperplane through its start (continuation's
border) and solves the bordered system by block elimination.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AsymptoticMismatch, BoundaryViolation, NoConvergence,
                     SingularJacobian)
from .grid import SampledFn, e_norm, from_interior
from .linops import EPS, SecondDiffOperator, _MixedLU

SLOPE_RTOL = 1e-3   # relative tolerance of check_asymptotics on f0 and finf
CORRECTOR_TOL = 1e-10  # newton's residual bound, times (1 + e_norm) by default


@dataclass(frozen=True)
class PerturbationG:
    """Perturbation g(t, s, mu), assumed o(|s|) near s = 0 for branch work.

    evaluate and its s-derivative partial must broadcast over numpy arrays
    in t and s; the mu-derivative is taken by central differences.
    """

    evaluate: callable
    partial: callable

    def mu_slope(self, t, s, mu):
        step = 1e-6 * (1.0 + abs(mu))
        return (self.evaluate(t, s, mu + step) - self.evaluate(t, s, mu - step)) / (2.0 * step)


@dataclass(frozen=True)
class AsymptoticF:
    """Asymptotically linear f with declared slopes f0 at 0 and finf at infinity."""

    f: callable
    f0: float
    finf: float
    derivative: callable = None

    def slope(self, s):
        if self.derivative is not None:
            return self.derivative(s)
        step = 1e-6 * (1.0 + np.abs(s))
        return (self.f(s + step) - self.f(s - step)) / (2.0 * step)


@dataclass(frozen=True)
class PerturbedProblem:
    m: SampledFn
    g: PerturbationG

    @property
    def grid(self):
        return self.m.grid

    def source(self, u_int, mu):
        t = self.grid.interior_nodes
        return mu * self.m.interior * u_int + self.g.evaluate(t, u_int, mu)

    def source_slope(self, u_int, mu):
        t = self.grid.interior_nodes
        return mu * self.m.interior + self.g.partial(t, u_int, mu)

    def source_mu_slope(self, u_int, mu):
        t = self.grid.interior_nodes
        return self.m.interior * u_int + self.g.mu_slope(t, u_int, mu)


@dataclass(frozen=True)
class AutonomousProblem:
    """mu-parameterized form of u'''' = gamma m f(u); the target plane is mu = 1."""

    m: SampledFn
    gamma: float
    f: AsymptoticF

    @property
    def grid(self):
        return self.m.grid

    def source(self, u_int, mu):
        return mu * self.gamma * self.m.interior * self.f.f(u_int)

    def source_slope(self, u_int, mu):
        return mu * self.gamma * self.m.interior * self.f.slope(u_int)

    def source_mu_slope(self, u_int, mu):
        return self.gamma * self.m.interior * self.f.f(u_int)


def check_boundary(u):
    """Endpoint values must vanish to within 1e-10 of the function's E-norm.

    The moment conditions u''(0) = u''(1) = 0 are imposed by the discrete
    operator itself, so only the stored endpoint values are checkable.
    Exact zeros, as from_interior writes them, pass under any tolerance,
    so the E-norm is derived only when an endpoint is nonzero.
    """
    if u.values[0] == 0.0 and u.values[-1] == 0.0:
        return
    tol = 1e-10 * e_norm(u)
    if abs(u.values[0]) > tol or abs(u.values[-1]) > tol:
        raise BoundaryViolation(
            f"endpoint values ({u.values[0]:.3e}, {u.values[-1]:.3e}) "
            f"exceed 1e-10 * e_norm = {tol:.3e}")


def _fp(u_int, mu, spec):
    """Fixed-point residual u - Lam2(F(u, mu)) on interior arrays."""
    a = SecondDiffOperator(spec.grid)
    return u_int - a.solve(a.solve(spec.source(u_int, mu)))


def fp_residual(u, mu, spec):
    """Fixed-point residual u - Lam2(F(u, mu)); (max_norm, SampledFn).

    The endpoint values of the residual are those of u.
    """
    vals = u.values.copy()
    vals[1:-1] = _fp(u.interior, mu, spec)
    return float(np.max(np.abs(vals))), SampledFn(u.grid, vals)


def _bordered_solve(lu, a, fu, fmu, r1, r2, row_u, row_mu, rc):
    """Newton step of the mixed system bordered by one scalar equation.

    Solves J (du, dw) - (0, fmu) dmu = -(r1, r2), row_u . du + row_mu dmu
    = -rc by block elimination on the factored J, then one step of
    iterative refinement on the bordered residual, which restores the
    accuracy that plain elimination loses when J is nearly singular (as
    at every branch start).
    """
    vu, vw = lu.solve(np.column_stack([-r1, np.zeros_like(r1)]),
                      np.column_stack([-r2, fmu]))
    schur = row_mu + row_u @ vu[:, 1]
    if abs(schur) <= EPS * (abs(row_mu) + np.abs(row_u) @ np.abs(vu[:, 1])):
        raise SingularJacobian("bordered Schur complement vanishes; "
                               "the constraint does not fix the branch")
    dmu = (-rc - row_u @ vu[:, 0]) / schur
    du, dw = vu[:, 0] + dmu * vu[:, 1], vw[:, 0] + dmu * vw[:, 1]
    eu, ew = lu.solve(-r1 - (a.apply(du) - dw),
                      -r2 - (a.apply(dw) - fu * du - fmu * dmu))
    emu = (-rc - row_u @ du - row_mu * dmu - row_u @ eu) / schur
    return du + eu + emu * vu[:, 1], dw + ew + emu * vw[:, 1], dmu + emu


def newton(u0, mu, spec, tol=None, max_iter=50, return_info=False, border=None):
    """Damped Newton for the beam equation, at fixed mu or along a border.

    Iterates on the mixed (u, w) system with one banded LU per iteration;
    a step is accepted when it reduces the merit, the fixed-point residual
    plus the border residual (Armijo halving with floor 2^-16).  Converges
    when both residuals drop below tol, default CORRECTOR_TOL * (1 +
    e_norm(u0)); a caller that already holds the start's E-norm passes its
    own.  A start whose w = A u0 or residual is not finite, and an iterate
    whose residual is not finite, raise NoConvergence.
    Without a border, a reciprocal condition estimate below machine
    epsilon raises SingularJacobian: mu sits at a bifurcation point.

    border = (row_u, row_mu) frees mu on the hyperplane through the start
    (u0, mu0) with that normal in (interior u, mu): the border residual is
    row_u . (u - u0) + row_mu (mu - mu0), and the result is (u, mu).  The
    bordered matrix is regular at simple bifurcation points, so it raises
    SingularJacobian only on an exactly zero pivot or a vanishing Schur
    complement.  With return_info, the result is followed by
    {"iterations", "history"}.
    """
    check_boundary(u0)
    if tol is None:
        tol = CORRECTOR_TOL * (1.0 + e_norm(u0))
    a = SecondDiffOperator(spec.grid)
    u = u0.interior.copy()
    mu0 = mu

    def residuals(u, mu, start=False):
        # a huge start or iterate may overflow to inf or nan; refusing it
        # is the outcome, so numpy need not warn.  The start also derives
        # its w = A u here
        with np.errstate(over="ignore", invalid="ignore"):
            w = a.apply(u) if start else 0.0
            merit = float(np.max(np.abs(_fp(u, mu, spec))))
            rc = (0.0 if border is None
                  else border[0] @ (u - u0.interior) + border[1] * (mu - mu0))
        if not (np.isfinite(merit) and np.isfinite(rc) and np.all(np.isfinite(w))):
            raise NoConvergence("non-finite start, iterate or residual")
        return merit, rc, w

    history = []
    merit_eq, rc, w = residuals(u, mu, start=True)
    for iteration in range(max_iter + 1):
        history.append(merit_eq + abs(rc))
        if merit_eq <= tol and abs(rc) <= tol:
            result = from_interior(spec.grid, u)
            if border is not None:
                result = (result, mu)
            if return_info:
                return result, {"iterations": iteration, "history": history}
            return result
        if iteration == max_iter:
            break
        r1 = a.apply(u) - w
        r2 = a.apply(w) - spec.source(u, mu)
        fu = spec.source_slope(u, mu)
        lu = _MixedLU(spec.grid, fu)
        if border is None:
            rcond = lu.rcond()
            if not rcond >= EPS:
                raise SingularJacobian(f"reciprocal condition {rcond:.1e}; "
                                       "parameter sits at a bifurcation point")
            du, dw = lu.solve(-r1, -r2)
            dmu = 0.0
        else:
            if lu.info > 0:
                raise SingularJacobian("zero pivot in the mixed Jacobian")
            du, dw, dmu = _bordered_solve(lu, a, fu, spec.source_mu_slope(u, mu),
                                          r1, r2, border[0], border[1], rc)
        # the accepted trial's residuals are those of the next iterate
        step = 1.0
        while step >= 2.0**-16:
            merit_eq, rc, _ = residuals(u + step * du, mu + step * dmu)
            if merit_eq + abs(rc) <= (1.0 - 1e-4 * step) * history[-1]:
                break
            step *= 0.5
        u = u + step * du
        w = w + step * dw
        mu = mu + step * dmu
        if step < 2.0**-16:  # the search fell through to a step it never tried
            merit_eq, rc, _ = residuals(u, mu)
    raise NoConvergence(
        f"newton stalled at residual {history[-1]:.3e} "
        f"(tol {tol:.3e}) after {max_iter} iterations")


def check_asymptotics(f):
    """Decide the hypotheses on f from samples; return (f0_hat, finf_hat).

    f0_hat averages f(s)/s over s = +-1e-9, where 1 + s^2 rounds to 1,
    and finf_hat over s = +-1e6.  Raises AsymptoticMismatch when a
    declared slope is not positive and finite, before f is sampled; when
    a declared slope is off by more than SLOPE_RTOL relative or its
    estimate is not a number; on a non-finite sample of f; and when the
    sign condition f(s) s > 0 fails on log-spaced s of both signs.
    """
    for declared, label in ((f.f0, "f0"), (f.finf, "finf")):
        # a relative tolerance on an infinite slope would pass any estimate
        if not 0.0 < declared < np.inf:
            raise AsymptoticMismatch(
                f"{label}: declared {declared}, need a positive finite slope")

    def ratio(s):
        return f.f(s) / s
    # a huge slope overflows the samples: refused by name, not warned about
    s_grid = np.concatenate([np.logspace(-7, 6, 40), -np.logspace(-7, 6, 40)])
    with np.errstate(all="ignore"):
        f0_hat = 0.5 * (ratio(1e-9) + ratio(-1e-9))
        finf_hat = 0.5 * (ratio(1e6) + ratio(-1e6))
        f_grid = f.f(s_grid)
        signs_ok = np.min(f_grid * s_grid) > 0.0
    for declared, measured, label in ((f.f0, f0_hat, "f0"), (f.finf, finf_hat, "finf")):
        if not abs(measured - declared) <= SLOPE_RTOL * declared:
            raise AsymptoticMismatch(
                f"{label}: declared {declared}, sampled {measured:.6g}")
    if not np.all(np.isfinite(f_grid)):
        raise AsymptoticMismatch(
            f"sample f({s_grid[~np.isfinite(f_grid)][0]:g}) is not finite")
    if not signs_ok:
        raise AsymptoticMismatch("sign condition f(s) s > 0 fails on samples")
    return f0_hat, finf_hat

"""Pseudo-arclength tracing of the solution branches bifurcating from
(mu_k^nu, 0), hyperplane crossing, and the nodal-solution driver.

From every eigenpair (mu_k^nu, phi) two half-branches of nontrivial
solutions emanate, distinguished by the sign sigma of u near t = 0.  A
branch is traced by a secant-tangent predictor and a bordered Newton
corrector on the mixed (u, w, mu) system; after every accepted step the
nodal profile is recomputed, and a step that would change the zero count
or the leading sign is rejected with a halved step (a genuine change
would require a generalized double zero, which nontrivial solutions
cannot have; persistent failure at the minimum step aborts).

Branch points keep the fixed-point residual below
corrector_tol * (1 + e_norm(u)); the amplitude factor reflects the float
noise floor of the residual evaluation, which is proportional to the
solution amplitude.

The nodal-solution driver reformulates u'''' = gamma m f(u) with an
auxiliary factor mu on the right-hand side, starts the (k, nu, sigma)
branch at mu = mu_k^nu / (gamma f0), traces until the branch crosses the
hyperplane mu = 1, and polishes the crossing point, which solves the
original problem, to corrector_tol with no amplitude factor.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (AsymptoticMismatch, GammaNotAdmissible, NoConvergence,
                     NoCrossing, SingularJacobian, StartFailure,
                     StepFailure, ValidationError)
from .grid import SampledFn, e_norm, from_interior, interior_dot
from .linops import SecondDiffOperator
from .nodal import nodal_profile
from .nonlinear import (AutonomousProblem, _checked_splu, _mixed_jacobian,
                        check_asymptotics, fp_residual, newton)
from .spectrum import MAX_PAIRS, eigen_pencil

TERM_NORM_BUDGET = "NormBudget"
TERM_STEP_FAILURE = "StepFailure"
TERM_HYPERPLANE = "HyperplaneGoal"
TERM_MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class ContinuationConfig:
    ds: float = 0.05
    ds_min: float = 1e-5
    ds_max: float = 0.5
    eps_start: float = 1e-3
    corrector_tol: float = 1e-10
    max_steps: int = 2000
    norm_budget: float = 1e3
    max_corrector_iter: int = 12
    grow_factor: float = 1.2
    hyperplane_tol: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.ds_min <= self.ds <= self.ds_max):
            raise ValidationError("need 0 < ds_min <= ds <= ds_max")


@dataclass(frozen=True)
class BranchPoint:
    mu: float
    u: SampledFn
    norm: object          # ENorm
    profile: object       # NodalProfile
    arclength: float
    k: int = 0
    nu: int = 0
    sigma: int = 0
    origin_mu: float = 0.0


@dataclass(frozen=True)
class Branch:
    k: int
    nu: int
    sigma: int
    origin_mu: float
    points: tuple
    termination: str
    flags: tuple = field(default=())

    def mus(self):
        return [p.mu for p in self.points]

    def enorms(self):
        return [p.norm.value for p in self.points]


def _point_tol(config, enorm_value):
    return config.corrector_tol * (1.0 + enorm_value)


def _validate_trivial_line(spec, mu):
    """The zero function must solve the problem; branch logic relies on it."""
    zero = np.zeros(spec.grid.n_interior)
    src = spec.source(zero, mu)
    if np.max(np.abs(src)) > 1e-12 * (1.0 + abs(mu)):
        raise ValidationError(
            "source term does not vanish on the trivial line u = 0")


def _bordered_newton(spec, u, mu, row_u, row_mu, rhs_of, config,
                     scale_hint=1.0):
    """Newton on the mixed system plus one scalar constraint.

    row_u (interior vector), row_mu: the constraint gradient; rhs_of(u, mu)
    returns the constraint residual.  Returns (u, mu) with the fixed-point
    residual below the amplitude-relative tolerance and the constraint
    satisfied to the same precision.
    """
    a = SecondDiffOperator(spec.grid)
    n = spec.grid.n_interior
    ui = u.interior.copy()
    w = a.apply(ui)
    for _ in range(config.max_corrector_iter):
        ufn = from_interior(spec.grid, ui)
        merit_eq, _ = fp_residual(ufn, mu, spec)
        rc = rhs_of(ufn, mu)
        tol = _point_tol(config, max(e_norm(ufn).value, scale_hint))
        if merit_eq <= tol and abs(rc) <= tol:
            return ufn, mu
        r1 = a.apply(ui) - w
        r2 = a.apply(w) - spec.source(ui, mu)
        jac = _mixed_jacobian(spec, ui, mu)
        mu_col = sp.csc_matrix(
            np.concatenate([np.zeros(n), -spec.source_mu_slope(ui, mu)])[:, None])
        row = sp.csc_matrix(np.concatenate([row_u, np.zeros(n)])[None, :])
        corner = sp.csc_matrix([[row_mu]])
        big = sp.bmat([[jac, mu_col], [row, corner]], format="csc")
        lu = _checked_splu(big, condition_check=False)
        delta = lu.solve(-np.concatenate([r1, r2, [rc]]))
        base = merit_eq + abs(rc)
        step = 1.0
        while step >= 2.0**-16:
            ut = ui + step * delta[:n]
            mt = mu + step * delta[2 * n]
            trial_fn = from_interior(spec.grid, ut)
            trial = fp_residual(trial_fn, mt, spec)[0] + abs(rhs_of(trial_fn, mt))
            if trial <= (1.0 - 1e-4 * step) * base:
                break
            step *= 0.5
        ui = ui + step * delta[:n]
        w = w + step * delta[n:2 * n]
        mu = mu + step * delta[2 * n]
    raise NoConvergence("bordered corrector exhausted its iteration budget")


def _spectrum_for(m, k, nu, spectrum_result):
    if spectrum_result is None:
        window = min(k + 4, MAX_PAIRS)
        spectrum_result = eigen_pencil(m,
                                       window if nu > 0 else 0,
                                       window if nu < 0 else 0)
    return spectrum_result


def bifurcation_start(k, nu, sigma, spec, config=None, spectrum_result=None):
    """First nontrivial point of the (k, nu, sigma) half-branch.

    Predictor (origin_mu, eps * sigma * phi_k^nu), polished by one
    amplitude-pinned bordered correction: mu is freed and the phi-component
    of u is held at eps * sigma, which keeps the corrector away from the
    trivial solution where the plain Jacobian is singular.  The amplitude
    is halved up to 8 times before giving up.
    """
    if config is None:
        config = ContinuationConfig()
    if sigma not in (+1, -1):
        raise ValidationError("sigma must be +1 or -1")
    spectrum_result = _spectrum_for(spec.m, k, nu, spectrum_result)
    pair = spectrum_result.pair(k, nu)
    if spec.kind == "autonomous":
        origin_mu = pair.mu / (spec.gamma * spec.f.f0)
    else:
        origin_mu = pair.mu
    _validate_trivial_line(spec, origin_mu)

    phi = pair.phi
    phi_norm2 = interior_dot(phi, phi)
    eps = config.eps_start
    last_exc = None
    for _ in range(9):
        target = eps * sigma * phi_norm2

        def constraint(ufn, mu):
            return interior_dot(ufn, phi) - target

        u0 = eps * sigma * phi
        try:
            u, mu = _bordered_newton(spec, u0, origin_mu,
                                     row_u=phi.grid.h * phi.interior, row_mu=0.0,
                                     rhs_of=constraint, config=config,
                                     scale_hint=eps)
            profile = nodal_profile(u)
            norm = e_norm(u)
            if (profile.count == k - 1 and profile.sigma == sigma
                    and profile.is_nodal and norm.value <= 1.05 * eps):
                return BranchPoint(mu=mu, u=u, norm=norm, profile=profile,
                                   arclength=0.0, k=k, nu=nu, sigma=sigma,
                                   origin_mu=origin_mu)
            last_exc = StartFailure(
                f"polished point has profile ({profile.count}, {profile.sigma:+d}), "
                f"e_norm {norm.value:.3e} at eps={eps:.2e}")
        except (NoConvergence, SingularJacobian) as exc:
            last_exc = exc
        eps *= 0.5
    raise StartFailure(f"start polish failed after 8 halvings: {last_exc}")


def trace_branch(start, spec, config=None, stop_at_mu=None):
    """Pseudo-arclength continuation from a polished start point.

    Secant tangent predictor, bordered Newton corrector; after each
    accepted step the nodal profile is recomputed and a profile change
    rejects the step and halves ds.  Terminates at the norm budget, the
    step budget, persistent step failure, or when mu crosses stop_at_mu.
    """
    if config is None:
        config = ContinuationConfig()
    h = spec.grid.h
    k, nu, sigma = start.k, start.nu, start.sigma
    points = [start]
    flags = []
    termination = TERM_MAX_STEPS

    # previous point for the secant; the branch emanates from (origin_mu, 0).
    # mu enters the arclength metric scaled by its origin magnitude so that
    # parameter motion and solution motion contribute comparably.
    prev_u = np.zeros(spec.grid.n_interior)
    prev_mu = start.origin_mu
    mu_scale = max(1.0, abs(start.origin_mu))
    ds = config.ds

    def tangent(cur_u, cur_mu, ref_u, ref_mu):
        du = cur_u - ref_u
        dmu = (cur_mu - ref_mu) / mu_scale
        norm = np.sqrt(h * np.dot(du, du) + dmu * dmu)
        if norm == 0.0:
            raise StepFailure("degenerate tangent: consecutive points coincide")
        return du / norm, dmu / norm

    while len(points) - 1 < config.max_steps:
        cur = points[-1]
        t_u, t_mu = tangent(cur.u.interior, cur.mu, prev_u, prev_mu)
        accepted = None
        while accepted is None:
            pred_u = from_interior(spec.grid, cur.u.interior + ds * t_u)
            pred_mu = cur.mu + ds * t_mu * mu_scale

            def arc_constraint(ufn, mu, _cu=cur.u.interior, _cmu=cur.mu, _ds=ds):
                return (h * np.dot(t_u, ufn.interior - _cu)
                        + t_mu * (mu - _cmu) / mu_scale - _ds)

            try:
                u, mu = _bordered_newton(spec, pred_u, pred_mu,
                                         row_u=h * t_u, row_mu=t_mu / mu_scale,
                                         rhs_of=arc_constraint, config=config,
                                         scale_hint=cur.norm.value)
                profile = nodal_profile(u)
                if (profile.count, profile.sigma) != (k - 1, sigma) or not profile.is_nodal:
                    raise StepFailure(
                        f"profile changed to ({profile.count}, {profile.sigma:+d}) "
                        f"at ds={ds:.3e}")
                accepted = (u, mu, profile)
            except (NoConvergence, SingularJacobian, StepFailure) as exc:
                if ds <= config.ds_min:
                    return Branch(k=k, nu=nu, sigma=sigma,
                                  origin_mu=start.origin_mu,
                                  points=tuple(points),
                                  termination=TERM_STEP_FAILURE,
                                  flags=tuple(flags + [f"step failure: {exc}"]))
                ds = max(0.5 * ds, config.ds_min)

        u, mu, profile = accepted
        du = u.interior - cur.u.interior
        step_len = float(np.sqrt(h * np.dot(du, du)
                                 + ((mu - cur.mu) / mu_scale) ** 2))
        norm = e_norm(u)
        point = BranchPoint(mu=mu, u=u, norm=norm, profile=profile,
                            arclength=cur.arclength + step_len,
                            k=k, nu=nu, sigma=sigma, origin_mu=start.origin_mu)
        prev_u, prev_mu = cur.u.interior, cur.mu
        points.append(point)

        if norm.value < 0.1 * config.eps_start and len(points) > 2:
            # amplitude collapsed back to the trivial line: would mean the
            # branch met another bifurcation point, which containment forbids
            flags.append(f"falsification: amplitude collapse at mu={mu:.6g}")
            termination = TERM_STEP_FAILURE
            break
        if stop_at_mu is not None and (cur.mu - stop_at_mu) * (mu - stop_at_mu) <= 0.0:
            termination = TERM_HYPERPLANE
            break
        if norm.value >= config.norm_budget:
            termination = TERM_NORM_BUDGET
            break
        if len(points) - 1 >= config.max_steps:
            termination = TERM_MAX_STEPS
            break
        if ds < config.ds_max:
            ds = min(ds * config.grow_factor, config.ds_max)

    return Branch(k=k, nu=nu, sigma=sigma, origin_mu=start.origin_mu,
                  points=tuple(points), termination=termination,
                  flags=tuple(flags))


def cross_hyperplane(branch, spec, config=None):
    """Solution of the branch's problem at mu = 1.

    A branch point already lying on the hyperplane (within hyperplane_tol,
    with its residual at mu = 1 inside tolerance) is returned unchanged;
    otherwise consecutive points bracketing mu = 1 are interpolated and
    the interpolant is polished by Newton with mu frozen at 1.  The
    on-plane check and the polish both use corrector_tol without the
    amplitude factor of branch points, so the returned solution meets an
    absolute residual bound at any amplitude.
    """
    if config is None:
        config = ContinuationConfig()
    for p in branch.points:
        if abs(p.mu - 1.0) <= config.hyperplane_tol:
            merit, _ = fp_residual(p.u, 1.0, spec)
            if merit <= config.corrector_tol:
                return p.u
    for a, b in zip(branch.points, branch.points[1:]):
        if (a.mu - 1.0) * (b.mu - 1.0) <= 0.0:
            theta = (1.0 - a.mu) / (b.mu - a.mu)
            guess = from_interior(
                spec.grid,
                (1.0 - theta) * a.u.interior + theta * b.u.interior)
            u = newton(guess, 1.0, spec, tol=config.corrector_tol)
            profile = nodal_profile(u)
            if (profile.count, profile.sigma) != (branch.k - 1, branch.sigma):
                raise NoCrossing(
                    f"polished crossing left the nodal class: profile "
                    f"({profile.count}, {profile.sigma:+d})")
            return u
    last = branch.points[-1]
    raise NoCrossing(
        f"branch never bracketed mu = 1: reached mu={last.mu:.6g}, "
        f"e_norm={last.norm.value:.3e}, termination={branch.termination}")


def admissible_interval(mu_k, f):
    """Open interval of couplings gamma that force a crossing for this pair."""
    lo, hi = sorted((mu_k / f.f0, mu_k / f.finf))
    return lo, hi


def solve_nodal(gamma, f, m, k, nu, sigma, config=None, spectrum_result=None):
    """Nodal solution of u'''' = gamma m(t) f(u) with k - 1 interior zeros.

    Requires the asymptotic-slope hypotheses on f and gamma strictly
    between mu_k^nu / f0 and mu_k^nu / finf (either orientation).  Builds
    the mu-parameterized auxiliary problem u'''' = mu gamma m f(u), starts
    the (k, nu, sigma) branch at mu = mu_k^nu / (gamma f0), traces toward
    the hyperplane mu = 1 and returns the crossing solution.
    """
    if config is None:
        config = ContinuationConfig()
    _, _, h1_ok = check_asymptotics(f)
    if not h1_ok:
        raise AsymptoticMismatch("sign condition f(s) s > 0 fails on samples")
    spectrum_result = _spectrum_for(m, k, nu, spectrum_result)
    pair = spectrum_result.pair(k, nu)
    lo, hi = admissible_interval(pair.mu, f)
    if not (lo < gamma < hi):
        raise GammaNotAdmissible(
            f"gamma={gamma:.6g} outside ({lo:.6g}, {hi:.6g}) for k={k}, nu={nu:+d}")
    spec = AutonomousProblem(m=m, gamma=gamma, f=f)
    start = bifurcation_start(k, nu, sigma, spec, config, spectrum_result)
    branch = trace_branch(start, spec, config, stop_at_mu=1.0)
    return cross_hyperplane(branch, spec, config)


def solve_nodal_range(gamma, f, m, k_lo, k_hi, nu=+1, config=None):
    """Pairs (u_j^+, u_j^-) for every nodal index j in k_lo..k_hi.

    gamma must be admissible for every index in the range; the per-index
    check raises GammaNotAdmissible on the first violation.
    """
    window = min(k_hi + 4, MAX_PAIRS)
    spectrum_result = eigen_pencil(m, window if nu > 0 else 0,
                                   window if nu < 0 else 0)
    out = []
    for j in range(k_lo, k_hi + 1):
        plus = solve_nodal(gamma, f, m, j, nu, +1, config, spectrum_result)
        minus = solve_nodal(gamma, f, m, j, nu, -1, config, spectrum_result)
        out.append((plus, minus))
    return out


def save_branch(branch, outdir, basename="branch"):
    """Write branch.csv, per-point solution CSVs, and a JSON manifest."""
    import json
    import os

    from .grid import to_csv

    os.makedirs(outdir, exist_ok=True)
    rows_path = os.path.join(outdir, f"{basename}.csv")
    side_dir = os.path.join(outdir, f"{basename}_points")
    os.makedirs(side_dir, exist_ok=True)
    point_files = []
    with open(rows_path, "w") as fh:
        fh.write("step,arclength,mu,enorm,count,sigma\n")
        for i, p in enumerate(branch.points):
            fh.write(f"{i},{p.arclength:.17g},{p.mu:.17g},"
                     f"{p.norm.value:.17g},{p.profile.count},"
                     f"{p.profile.sigma:+d}\n")
            pf = os.path.join(side_dir, f"point_{i:04d}.csv")
            to_csv(p.u, pf)
            point_files.append(os.path.relpath(pf, outdir))
    manifest = {
        "k": branch.k, "nu": branch.nu, "sigma": branch.sigma,
        "origin_mu": branch.origin_mu, "termination": branch.termination,
        "flags": list(branch.flags),
        "table": os.path.basename(rows_path), "points": point_files,
    }
    man_path = os.path.join(outdir, f"{basename}.json")
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return man_path

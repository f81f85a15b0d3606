"""Pseudo-arclength tracing of the solution branches bifurcating from
(mu_k^nu, 0), hyperplane crossing, and the nodal-solution driver.

From every eigenpair (mu_k^nu, phi) two half-branches of nontrivial
solutions emanate, distinguished by the sign sigma of u near t = 0.  A
branch is traced by a secant-tangent predictor and a bordered Newton
corrector on the mixed (u, w, mu) system; after every accepted step the
nodal profile is recomputed, and a step whose profile leaves the nodal
class S_k^sigma is rejected with a halved step (a genuine change
would require a generalized double zero, which nontrivial solutions
cannot have; persistent failure at the minimum step aborts).  A branch
point's E-norm is its profile's.

Both the start polish and every branch step call nonlinear.newton on
the hyperplane through the predictor: normal (h phi, 0) at the start,
which pins the amplitude, and the unit tangent on a step, which is the
pseudo-arclength equation.  Branch points keep the fixed-point residual
below nonlinear.CORRECTOR_TOL * (1 + e_norm), with e_norm the start
amplitude eps for the start polish and the previous point's for a step;
the amplitude factor reflects the float noise floor of the residual
evaluation, which is proportional to the solution amplitude.

The nodal-solution driver reformulates u'''' = gamma m f(u) with an
auxiliary factor mu on the right-hand side, starts the (k, nu, sigma)
branch at mu = mu_k^nu / (gamma f0), traces until the branch crosses the
hyperplane mu = 1, and polishes the crossing point, which solves the
original problem, to CORRECTOR_TOL with no amplitude factor.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (GammaNotAdmissible, NoConvergence, NoCrossing,
                     SingularJacobian, StartFailure, StepFailure,
                     TrivialFunction, ValidationError)
from .grid import SampledFn, from_interior
from .nodal import nodal_profile
from .nonlinear import (CORRECTOR_TOL, AutonomousProblem, check_asymptotics,
                        fp_residual, newton)
from .spectrum import widest_resolvable_window

TERM_NORM_BUDGET = "NormBudget"
TERM_STEP_FAILURE = "StepFailure"
TERM_HYPERPLANE = "HyperplaneGoal"
TERM_MAX_STEPS = "MaxSteps"

MAX_CORRECTOR_ITER = 12    # Newton iterations per corrector call
GROW_FACTOR = 1.2          # ds growth after each accepted step, up to ds_max
HYPERPLANE_TOL = 1e-6      # |mu - 1| under which a branch point is on the plane
EPS_START = 1e-3           # amplitude of the first branch point
DS_MIN = 1e-5              # smallest step; a step failing at it ends the branch


@dataclass(frozen=True)
class ContinuationConfig:
    """The four branch settings: the first step ds, finite, halved toward
    DS_MIN on a rejected step and grown by GROW_FACTOR toward ds_max on an
    accepted one; the stops max_steps and norm_budget.  The start amplitude
    EPS_START, DS_MIN, MAX_CORRECTOR_ITER and HYPERPLANE_TOL are module
    constants, and CORRECTOR_TOL is nonlinear's."""

    ds: float = 0.05
    ds_max: float = 0.5
    max_steps: int = 2000
    norm_budget: float = 1e3

    def __post_init__(self):
        # an infinite ds stays infinite when halved: every predictor would
        # be non-finite and the step would never end
        if not (DS_MIN <= self.ds < np.inf and self.ds <= self.ds_max):
            raise ValidationError(f"need a finite ds with {DS_MIN:g} <= ds <= ds_max")
        if not self.norm_budget > 0.0:
            raise ValidationError("need norm_budget > 0")
        if self.max_steps < 1:
            raise ValidationError("need max_steps >= 1")


@dataclass(frozen=True)
class BranchPoint:
    mu: float
    u: SampledFn
    profile: object       # NodalProfile; its norm is e_norm(u)
    arclength: float


@dataclass(frozen=True)
class Branch:
    k: int
    nu: int
    sigma: int
    origin_mu: float
    points: tuple
    termination: str     # None until trace_branch has traced the branch
    flags: tuple


def _validate_trivial_line(spec, mu):
    """The zero function must solve the problem; branch logic relies on it."""
    zero = np.zeros(spec.grid.n_interior)
    src = spec.source(zero, mu)
    if np.max(np.abs(src)) > 1e-12 * (1.0 + abs(mu)):
        raise ValidationError(
            "source term does not vanish on the trivial line u = 0")


def bifurcation_start(k, nu, sigma, spec, spectrum_result):
    """The (k, nu, sigma) half-branch as its first nontrivial point: a
    one-point Branch, untraced (termination None).

    Predictor (origin_mu, eps * sigma * phi_k^nu), polished by one
    amplitude-pinned bordered correction: mu is freed on the hyperplane
    through the predictor with normal (h phi, 0), which keeps the
    corrector away from the trivial solution where the plain Jacobian is
    singular.  The amplitude starts at EPS_START and is halved up to 8
    times before giving up.
    """
    if sigma not in (+1, -1):
        raise ValidationError("sigma must be +1 or -1")
    pair = spectrum_result.pair(k, nu)
    if isinstance(spec, AutonomousProblem):
        origin_mu = pair.mu / (spec.gamma * spec.f.f0)
    else:
        origin_mu = pair.mu
    _validate_trivial_line(spec, origin_mu)

    phi = pair.phi
    eps = EPS_START
    last_exc = None
    for _ in range(9):
        u0 = eps * sigma * phi
        try:
            u, mu = newton(u0, origin_mu, spec, tol=CORRECTOR_TOL * (1.0 + eps),
                           max_iter=MAX_CORRECTOR_ITER,
                           border=(phi.grid.h * phi.interior, 0.0))
            profile = nodal_profile(u)
            defect = profile.class_defect(k, sigma)
            if defect is None and profile.norm <= 1.05 * eps:
                point = BranchPoint(mu=mu, u=u, profile=profile, arclength=0.0)
                return Branch(k=k, nu=nu, sigma=sigma, origin_mu=origin_mu,
                              points=(point,), termination=None, flags=())
            last_exc = StartFailure(
                f"polished point {defect or 'exceeds 1.05 eps'}, "
                f"e_norm {profile.norm:.3e} at eps={eps:.2e}")
        except (NoConvergence, SingularJacobian) as exc:
            last_exc = exc
        eps *= 0.5
    raise StartFailure(f"start polish failed after 8 halvings: {last_exc}")


def trace_branch(start, spec, config=None, stop_at_mu=None):
    """Extend the one-point start of bifurcation_start by pseudo-arclength
    continuation: the same Branch, with its points, termination and flags.

    Secant tangent predictor, bordered Newton corrector on the hyperplane
    through the predictor normal to the tangent; after each accepted step
    the nodal profile is recomputed and a profile outside S_k^sigma
    rejects the step and halves ds; ds never exceeds the norm budget, which
    one step that long already leaves.  Terminates at the norm budget, the
    step budget, persistent step failure, or when mu crosses stop_at_mu.
    A step whose E-norm falls below a tenth of the start's, the first step
    included, or onto u = 0 (no profile exists there), keeps no point and
    ends the branch as a step failure flagged as falsification.  A step
    whose secant length is 0 or overflows keeps no point and ends the
    branch as a step failure flagged with that length.
    """
    if config is None:
        config = ContinuationConfig()
    h = spec.grid.h
    k, sigma = start.k, start.sigma
    (first,) = start.points
    points = [first]
    flags = []
    termination = TERM_MAX_STEPS

    # secant (du, dmu) of the last step, from (origin_mu, 0) at first, and
    # its length in the arclength metric, where mu is scaled by its origin
    # magnitude so that parameter and solution motion weigh comparably
    mu_scale = max(1.0, abs(start.origin_mu))
    du = first.u.interior
    dmu = (first.mu - start.origin_mu) / mu_scale
    step_len = float(np.sqrt(h * np.dot(du, du) + dmu * dmu))
    ds_max = min(config.ds_max, config.norm_budget)
    ds = min(config.ds, ds_max)

    while len(points) - 1 < config.max_steps:
        cur = points[-1]
        t_u, t_mu = du / step_len, dmu / step_len
        accepted = None
        while accepted is None:
            pred = cur.u.interior + ds * t_u
            pred_mu = cur.mu + ds * t_mu * mu_scale
            try:
                if not (np.all(np.isfinite(pred)) and np.isfinite(pred_mu)):
                    raise NoConvergence(f"non-finite predictor at ds={ds:.3e}")
                pred_u = from_interior(spec.grid, pred)
                u, mu = newton(pred_u, pred_mu, spec,
                               tol=CORRECTOR_TOL * (1.0 + cur.profile.norm),
                               max_iter=MAX_CORRECTOR_ITER,
                               border=(h * t_u, t_mu / mu_scale))
                try:
                    profile = nodal_profile(u)
                except TrivialFunction:
                    profile = None  # the corrector fell onto u = 0
                defect = None if profile is None else profile.class_defect(k, sigma)
                if defect is not None:
                    raise StepFailure(f"profile {defect} at ds={ds:.3e}")
                accepted = (u, mu, profile)
            except (NoConvergence, SingularJacobian, StepFailure) as exc:
                if ds <= DS_MIN:
                    return replace(start, points=tuple(points),
                                   termination=TERM_STEP_FAILURE,
                                   flags=tuple(flags + [f"step failure: {exc}"]))
                ds = max(0.5 * ds, DS_MIN)

        u, mu, profile = accepted
        if profile is None or profile.norm < 0.1 * first.profile.norm:
            # amplitude collapsed back to the trivial line.  Containment in
            # S_k^sigma forbids meeting (mu_j, 0) with j != k, not (mu_k^-nu,
            # 0), whose eigenfunction lies in S_k too (linear_ramp, k = 1)
            flags.append(f"falsification: amplitude collapse at mu={mu:.6g}")
            termination = TERM_STEP_FAILURE
            break
        du = u.interior - cur.u.interior
        dmu = (mu - cur.mu) / mu_scale
        with np.errstate(over="ignore"):
            step_len = float(np.sqrt(h * np.dot(du, du) + dmu * dmu))
        if not 0.0 < step_len < np.inf:  # no tangent: keep no point of this step
            flags.append(f"step failure: secant length {step_len:g} at ds={ds:.3e}")
            termination = TERM_STEP_FAILURE
            break
        points.append(BranchPoint(mu=mu, u=u, profile=profile,
                                  arclength=cur.arclength + step_len))
        if stop_at_mu is not None and (cur.mu - stop_at_mu) * (mu - stop_at_mu) <= 0.0:
            termination = TERM_HYPERPLANE
            break
        if profile.norm >= config.norm_budget:
            termination = TERM_NORM_BUDGET
            break
        if ds < ds_max:
            ds = min(ds * GROW_FACTOR, ds_max)

    return replace(start, points=tuple(points), termination=termination,
                   flags=tuple(flags))


def cross_hyperplane(branch, spec):
    """Solution of the branch's problem at mu = 1.

    A branch point already lying on the hyperplane (within HYPERPLANE_TOL,
    with its residual at mu = 1 inside tolerance) is returned unchanged;
    otherwise consecutive points bracketing mu = 1 are interpolated and
    the interpolant is polished by Newton with mu frozen at 1.  The
    on-plane check and the polish both use CORRECTOR_TOL without the
    amplitude factor of branch points, so the returned solution meets an
    absolute residual bound at any amplitude.  A polished crossing outside
    the branch's nodal class S_k^sigma raises NoCrossing.
    """
    for p in branch.points:
        if abs(p.mu - 1.0) <= HYPERPLANE_TOL:
            merit, _ = fp_residual(p.u, 1.0, spec)
            if merit <= CORRECTOR_TOL:
                return p.u
    for a, b in zip(branch.points, branch.points[1:]):
        if (a.mu - 1.0) * (b.mu - 1.0) <= 0.0:
            theta = (1.0 - a.mu) / (b.mu - a.mu)
            guess = from_interior(
                spec.grid,
                (1.0 - theta) * a.u.interior + theta * b.u.interior)
            u = newton(guess, 1.0, spec, tol=CORRECTOR_TOL)
            defect = nodal_profile(u).class_defect(branch.k, branch.sigma)
            if defect is not None:
                raise NoCrossing(
                    f"polished crossing left the nodal class: profile {defect}")
            return u
    last = branch.points[-1]
    raise NoCrossing(
        f"branch never bracketed mu = 1: reached mu={last.mu:.6g}, "
        f"e_norm={last.profile.norm:.3e}, termination={branch.termination}")


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
    the hyperplane mu = 1 and returns the crossing solution.  Without a
    spectrum_result, k is looked up in widest_resolvable_window(m).
    """
    check_asymptotics(f)
    if spectrum_result is None:
        spectrum_result = widest_resolvable_window(m)
    pair = spectrum_result.pair(k, nu)
    lo, hi = admissible_interval(pair.mu, f)
    if not (lo < gamma < hi):
        raise GammaNotAdmissible(
            f"gamma={gamma:.6g} outside ({lo:.6g}, {hi:.6g}) for k={k}, nu={nu:+d}")
    spec = AutonomousProblem(m=m, gamma=gamma, f=f)
    start = bifurcation_start(k, nu, sigma, spec, spectrum_result)
    branch = trace_branch(start, spec, config, stop_at_mu=1.0)
    return cross_hyperplane(branch, spec)


def save_branch(branch, outdir, basename):
    """Write <basename>.csv, per-point solution CSVs, and a <basename>.json
    manifest; return the paths written."""
    import json
    import os

    from .grid import to_csv

    os.makedirs(outdir, exist_ok=True)
    rows_path = os.path.join(outdir, f"{basename}.csv")
    side_dir = os.path.join(outdir, f"{basename}_points")
    os.makedirs(side_dir, exist_ok=True)
    point_paths = []
    with open(rows_path, "w") as fh:
        fh.write("step,arclength,mu,enorm,count,sigma\n")
        for i, p in enumerate(branch.points):
            fh.write(f"{i},{p.arclength:.17g},{p.mu:.17g},"
                     f"{p.profile.norm:.17g},{p.profile.count},"
                     f"{p.profile.sigma:+d}\n")
            point_paths.append(os.path.join(side_dir, f"point_{i:04d}.csv"))
            to_csv(p.u, point_paths[-1])
    manifest = {
        "k": branch.k, "nu": branch.nu, "sigma": branch.sigma,
        "origin_mu": branch.origin_mu, "termination": branch.termination,
        "flags": list(branch.flags),
        "table": os.path.basename(rows_path),
        "points": [os.path.relpath(pf, outdir) for pf in point_paths],
    }
    man_path = os.path.join(outdir, f"{basename}.json")
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return [rows_path, man_path] + point_paths

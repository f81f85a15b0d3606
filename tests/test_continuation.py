import dataclasses
import math
import re

import numpy as np
import pytest

from beamspec import continuation, grid
from beamspec.continuation import (GROW_FACTOR, BranchPoint, ContinuationConfig,
                                   admissible_interval, bifurcation_start,
                                   cross_hyperplane, solve_nodal, trace_branch)
from beamspec.errors import (GammaNotAdmissible, NoConvergence, NoCrossing,
                             NotInWeightClass, StartFailure, ValidationError)
from beamspec.grid import e_norm, interior_dot, make_grid, sample
from beamspec.linops import SecondDiffOperator, _MixedLU
from beamspec.nodal import TRIVIAL_TOL, nodal_profile
from beamspec.nonlinear import (AutonomousProblem, PerturbedProblem,
                                _bordered_solve, fp_residual, newton)
from beamspec.presets import (WEIGHTS, cubic_perturbation, linear_f,
                              saturating_f, zero_perturbation)
from beamspec.shooting import shoot_nodal_solution
from beamspec.spectrum import eigen_pencil, widest_resolvable_window

N = 400


@pytest.fixture(scope="module")
def setup():
    g = make_grid(N)
    one = sample(lambda t: np.ones_like(t), g)
    res = eigen_pencil(one, 3, 0)
    return g, one, res


def test_start_linear_problem(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    start = bifurcation_start(1, +1, +1, spec, spectrum_result=res).points[0]
    # the linear branch is vertical: the polished mu equals the pencil value
    assert abs(start.mu - res.positive[0].mu) <= 1e-8
    assert start.profile.count == 0 and start.profile.sigma == +1
    assert start.norm <= 1.05e-3


def test_start_sign_convention(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    start = bifurcation_start(2, +1, -1, spec, spectrum_result=res).points[0]
    assert start.profile.count == 1
    assert start.profile.sigma == -1
    vmax = np.max(np.abs(start.u.values))
    lead = start.u.interior[np.abs(start.u.interior) > 1e-6 * vmax][0]
    assert lead < 0


def test_start_gives_up_after_eight_halvings(setup, monkeypatch):
    # a corrector that never converges: the polish is tried at eps and at
    # eight halvings of it, then the last failure is reported
    g, one, res = setup
    calls = []

    def failing(u0, mu0, *args, **kwargs):
        calls.append(e_norm(u0))
        raise NoConvergence("forced")

    monkeypatch.setattr(continuation, "newton", failing)
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    with pytest.raises(StartFailure, match=r"after 8 halvings: forced$"):
        bifurcation_start(1, +1, +1, spec, res)
    assert len(calls) == 9
    assert calls[-1] == pytest.approx(calls[0] / 2**8, rel=1e-12)


def test_start_cubic_tilt_rayleigh_oracle(setup, monkeypatch):
    # oracle: first-order bifurcation expansion
    #   mu(eps) = mu_1 - <u^3, phi>_h / <m u, phi>_h + higher order.
    # At the tiny amplitudes where the corrector tolerance would swamp the
    # shift, the law is unresolvable in float64, so it is checked at
    # moderate amplitudes where delta/eps^2 must be stable.
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    phi = res.positive[0].phi
    ratios = []
    for eps in (0.4, 0.2):
        monkeypatch.setattr(continuation, "EPS_START", eps)
        start = bifurcation_start(1, +1, +1, spec, res).points[0]
        delta = res.positive[0].mu - start.mu
        assert delta > 0  # the cubic term tilts the branch subcritically
        u3 = start.u.values ** 3
        num = g.h * np.dot(u3[1:-1], phi.interior)
        den = g.h * np.dot(one.interior * start.u.interior, phi.interior)
        assert delta == pytest.approx(num / den, rel=0.05)
        ratios.append(delta / eps**2)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.10)


def test_trace_linear_branch_is_vertical(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    phi = res.positive[0].phi
    # arclength lives in the h-weighted L2 metric; size the step so the
    # E-norm budget takes at least 100 steps to reach
    ds = 0.5 * np.sqrt(interior_dot(phi, phi)) / 120.0
    cfg = ContinuationConfig(ds=ds, ds_max=ds, norm_budget=0.5, max_steps=400)
    start = bifurcation_start(1, +1, +1, spec, res)
    branch = trace_branch(start, spec, cfg)
    assert branch.termination == "NormBudget"
    assert len(branch.points) >= 100
    drift = max(abs(p.mu - start.points[0].mu) for p in branch.points)
    assert drift <= 1e-6
    # norm grows monotonically along the vertical branch
    norms = [p.norm for p in branch.points]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_step_grows_to_ds_max_without_rejection(setup, monkeypatch):
    # on the vertical linear branch every corrected step lies on the line,
    # so each arclength increment equals the ds it was taken with; a
    # rejected step would halve ds and break the geometric sequence
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    phi = res.positive[0].phi
    ds_max = 0.5 * np.sqrt(interior_dot(phi, phi)) / 120.0
    ds = ds_max / 8.0
    # ds is about 8e-6 here, below the library's DS_MIN
    monkeypatch.setattr(continuation, "DS_MIN", ds / 4.0)
    cfg = ContinuationConfig(ds=ds, ds_max=ds_max, norm_budget=0.5, max_steps=400)
    branch = trace_branch(bifurcation_start(1, +1, +1, spec, res), spec, cfg)
    assert branch.termination == "NormBudget" and branch.flags == ()
    arc = np.array([p.arclength for p in branch.points])
    steps = np.diff(arc)
    expected = np.minimum(ds * GROW_FACTOR ** np.arange(len(steps)), ds_max)
    assert np.allclose(steps, expected, rtol=1e-8, atol=0.0)
    # both phases are covered: 12 growing steps, then many at ds_max
    assert np.count_nonzero(expected < ds_max) == 12
    assert np.count_nonzero(expected == ds_max) >= 50


def test_persistent_step_failure_ends_the_branch_at_ds_min(setup, monkeypatch):
    # every corrector call after the start fails: ds is halved from its
    # first value down to DS_MIN, tried once more there, and the branch
    # ends with its start point alone
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    cfg = ContinuationConfig()
    start = bifurcation_start(1, +1, +1, spec, res)
    calls = []

    def forced(*args, **kwargs):
        calls.append(args)
        raise NoConvergence("forced")

    monkeypatch.setattr(continuation, "newton", forced)
    branch = trace_branch(start, spec, cfg)
    assert len(calls) == 1 + math.ceil(math.log2(cfg.ds / continuation.DS_MIN))
    assert branch.termination == continuation.TERM_STEP_FAILURE
    assert branch.points == start.points
    assert branch.flags == ("step failure: forced",)


def test_trace_cubic_halves_mirror(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    cfg = ContinuationConfig(norm_budget=50.0, max_steps=500)
    bp = trace_branch(bifurcation_start(1, +1, +1, spec, res), spec, cfg)
    bm = trace_branch(bifurcation_start(1, +1, -1, spec, res), spec, cfg)
    assert bp.termination == bm.termination == "NormBudget"
    npts = min(len(bp.points), len(bm.points))
    for i in range(npts):
        assert bp.points[i].mu == pytest.approx(bm.points[i].mu, abs=1e-8)
        gap = np.max(np.abs(bp.points[i].u.values + bm.points[i].u.values))
        assert gap <= 1e-8 * max(1.0, bp.points[i].norm)


def test_trace_profile_constant(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    cfg = ContinuationConfig(norm_budget=50.0, max_steps=500)
    branch = trace_branch(bifurcation_start(2, +1, +1, spec, res), spec, cfg)
    for p in branch.points:
        assert p.profile.count == 1
        assert p.profile.sigma == +1
        assert p.profile.is_nodal


@pytest.fixture(scope="module")
def one300():
    return sample(lambda t: np.ones_like(t), make_grid(300))


def test_an_accepted_step_runs_the_stencils_six_times(one300, count_calls):
    # three derivatives of the predictor for the corrector tolerance and
    # three of the corrected point for its profile, which also gives the
    # point its E-norm; a rejected step would add its own
    spec = PerturbedProblem(m=one300, g=cubic_perturbation())
    start = bifurcation_start(1, +1, +1, spec, eigen_pencil(one300, 1, 0))
    stencils = count_calls(grid, "derivative")
    branch = trace_branch(start, spec, ContinuationConfig(max_steps=20))
    assert branch.termination == continuation.TERM_MAX_STEPS
    assert stencils.total() == 6 * 20


def test_a_step_onto_the_trivial_line_ends_the_branch_as_a_collapse(one300):
    # gain 1e12 drives the corrected steps back to u = 0, where no nodal
    # profile exists: the amplitude-collapse rule ends the branch
    spec = AutonomousProblem(m=one300, gamma=70, f=saturating_f(gain=1e12))
    start = bifurcation_start(1, +1, +1, spec, widest_resolvable_window(one300))
    branch = trace_branch(start, spec, stop_at_mu=1.0)
    assert branch.termination == continuation.TERM_STEP_FAILURE
    assert len(branch.flags) == 1
    assert branch.flags[0].startswith("falsification: amplitude collapse at mu=")
    # the step on the trivial line keeps no point
    assert all(p.norm > TRIVIAL_TOL for p in branch.points)


def test_a_collapsed_first_step_keeps_no_point(one300):
    # at gain 1e12 the first corrected step already lies near u = 0 (E-norm
    # about 7e-10 against the start's 9.3e-4): the collapse rule judges it
    # like every later step, so no kept point falls below a tenth of the start
    spec = AutonomousProblem(m=one300, gamma=70, f=saturating_f(gain=1e12))
    start = bifurcation_start(1, +1, +1, spec, widest_resolvable_window(one300))
    branch = trace_branch(start, spec, stop_at_mu=1.0)
    assert branch.termination == continuation.TERM_STEP_FAILURE
    assert branch.flags[0].startswith("falsification: amplitude collapse at mu=")
    assert all(p.norm >= 0.1 * start.points[0].norm for p in branch.points)


def test_a_branch_point_carries_no_label_of_its_branch(setup):
    # (k, nu, sigma, origin_mu) live on the Branch: the start is a one-point
    # branch, untraced, and the trace extends it
    assert [f.name for f in dataclasses.fields(BranchPoint)] == [
        "mu", "u", "norm", "profile", "arclength"]
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    start = bifurcation_start(2, +1, -1, spec, res)
    assert (start.k, start.nu, start.sigma) == (2, +1, -1)
    assert start.origin_mu == res.pair(2, +1).mu
    assert len(start.points) == 1 and start.termination is None and start.flags == ()
    branch = trace_branch(start, spec, ContinuationConfig(max_steps=3))
    assert branch.termination == continuation.TERM_MAX_STEPS
    assert (branch.k, branch.nu, branch.sigma, branch.origin_mu) == (
        start.k, start.nu, start.sigma, start.origin_mu)
    assert branch.points[0] is start.points[0] and len(branch.points) == 4


@pytest.mark.parametrize("sigma", [+1, -1])
@pytest.mark.parametrize("nu", [+1, -1])
def test_the_ramp_k1_continuum_returns_at_the_other_signs_eigenvalue(nu, sigma):
    # on m = 1 - 2t the k = 1 continuum from (mu_1^nu, 0) rises past E-norm
    # 100, crosses mu = 0 and comes back to the trivial line at
    # (mu_1^-nu, 0), whose eigenfunction lies in S_1 too.  The tracer ends
    # there as a step failure; this pins the mathematics, not that label
    m = sample(WEIGHTS["linear_ramp"], make_grid(300))
    res = widest_resolvable_window(m)
    spec = PerturbedProblem(m=m, g=cubic_perturbation())
    branch = trace_branch(bifurcation_start(1, nu, sigma, spec, res), spec)
    last = branch.points[-1]
    assert last.mu == pytest.approx(res.pair(1, -nu).mu, rel=1e-6, abs=0.0)
    assert last.norm < continuation.EPS_START
    assert max(p.norm for p in branch.points) > 100.0


@pytest.mark.parametrize("ds, ds_max", [(math.inf, math.inf), (math.nan, 1.0)],
                         ids=["infinite", "nan"])
def test_config_refuses_a_non_finite_first_step(ds, ds_max):
    # halving keeps an infinite ds infinite, so its step would never end
    with pytest.raises(ValidationError, match="finite ds"):
        ContinuationConfig(ds=ds, ds_max=ds_max)


def test_arclength_increment_is_the_secant_length(setup):
    # each arclength increment is the length of its step's secant in the
    # metric h |du|^2 + (dmu / mu_scale)^2, on a branch that bends in mu
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    cfg = ContinuationConfig(ds=0.5, max_steps=20)
    branch = trace_branch(bifurcation_start(1, +1, +1, spec, res), spec, cfg)
    assert branch.points[-1].mu < 0.5 * branch.points[0].mu
    mu_scale = max(1.0, abs(branch.origin_mu))
    for a, b in zip(branch.points, branch.points[1:]):
        du = b.u.interior - a.u.interior
        secant = np.sqrt(g.h * du @ du + ((b.mu - a.mu) / mu_scale) ** 2)
        assert b.arclength - a.arclength == pytest.approx(secant, rel=1e-12)


@pytest.mark.parametrize("row_mu", [0.0, 1e-3])
def test_newton_border_is_a_hyperplane_through_the_start(setup, row_mu):
    # at a branch start the border frees mu; every iterate, the result
    # included, stays on the hyperplane through (u0, mu0) with that normal.
    # At e_norm 100 the cubic term moves mu by several units.
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    pair = res.pair(1, +1)
    u0, mu0 = 100.0 * pair.phi, pair.mu
    row_u = g.h * pair.phi.interior
    tol = 1e-10
    u, mu = newton(u0, mu0, spec, tol=tol, border=(row_u, row_mu))
    assert abs(row_u @ (u.interior - u0.interior) + row_mu * (mu - mu0)) <= tol
    assert mu != mu0
    assert fp_residual(u, mu, spec)[0] <= tol


def test_step_halving_reproduces_curve(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    base = ContinuationConfig(ds=0.02, ds_max=0.02, norm_budget=20.0,
                              max_steps=2000)
    halved = ContinuationConfig(ds=0.01, ds_max=0.01, norm_budget=20.0,
                                max_steps=2000)
    b1 = trace_branch(bifurcation_start(1, +1, +1, spec, res), spec, base)
    b2 = trace_branch(bifurcation_start(1, +1, +1, spec, res), spec, halved)
    s1 = np.array([p.arclength for p in b1.points]) / b1.points[-1].arclength
    s2 = np.array([p.arclength for p in b2.points]) / b2.points[-1].arclength
    mu2 = np.interp(s1, s2, [p.mu for p in b2.points])
    en2 = np.interp(s1, s2, [p.norm for p in b2.points])
    for i in range(1, len(s1)):
        assert b1.points[i].mu == pytest.approx(mu2[i], rel=1e-6)
        assert b1.points[i].norm == pytest.approx(en2[i], rel=1e-6)


def test_cross_hyperplane_vertical_linear_f(setup):
    # with gamma equal to the computed eigenvalue and f = identity the
    # auxiliary branch sits on the hyperplane identically
    g, one, res = setup
    f = linear_f()
    gamma = res.positive[0].mu
    spec = AutonomousProblem(m=one, gamma=gamma, f=f)
    cfg = ContinuationConfig(ds=0.01, ds_max=0.01, norm_budget=1.0,
                             max_steps=50)
    start = bifurcation_start(1, +1, +1, spec, res)
    assert abs(start.points[0].mu - 1.0) <= 1e-8
    branch = trace_branch(start, spec, cfg)
    assert all(abs(p.mu - 1.0) <= 1e-6 for p in branch.points)
    u = cross_hyperplane(branch, spec)
    # an on-plane point is returned unchanged
    assert any(np.array_equal(u.values, p.u.values) for p in branch.points)


def test_cross_hyperplane_refuses_a_non_nodal_crossing(setup, monkeypatch):
    # the polished crossing keeps its (count, sigma) but is reported with a
    # generalized double zero: it is outside S_1^+, so there is no crossing
    g, one, res = setup
    f = saturating_f()
    gamma = 0.75 * res.positive[0].mu
    spec = AutonomousProblem(m=one, gamma=gamma, f=f)
    cfg = ContinuationConfig()
    start = bifurcation_start(1, +1, +1, spec, res)
    branch = trace_branch(start, spec, cfg, stop_at_mu=1.0)
    assert all(abs(p.mu - 1.0) > continuation.HYPERPLANE_TOL
               for p in branch.points)
    profile = nodal_profile(cross_hyperplane(branch, spec))
    assert (profile.count, profile.sigma) == (0, +1)

    def double_zero(v):
        return dataclasses.replace(nodal_profile(v), is_nodal=False)

    monkeypatch.setattr(continuation, "nodal_profile", double_zero)
    with pytest.raises(NoCrossing, match="left the nodal class.*generalized double zero"):
        cross_hyperplane(branch, spec)


def test_solve_nodal_matches_shooting_oracle(setup):
    g, one, res = setup
    f = saturating_f()
    gamma = 0.75 * res.positive[0].mu
    u = solve_nodal(gamma, f, one, 1, +1, +1, spectrum_result=res)
    spec = AutonomousProblem(m=one, gamma=gamma, f=f)
    rmax, _ = fp_residual(u, 1.0, spec)
    assert rmax <= 1e-8
    from beamspec.grid import derivative
    slope0 = derivative(u, 1).values[0]
    jerk0 = derivative(u, 3).values[0]
    u_shoot = shoot_nodal_solution(gamma, lambda t: np.ones_like(np.asarray(t, float)),
                                   f.f, slope0, jerk0, g)
    assert np.max(np.abs(u.values - u_shoot.values)) <= 1e-4


def test_solve_nodal_residual_is_absolute_at_large_amplitude(setup):
    # k = 2 crosses mu = 1 near e_norm 500, where a polish tolerance scaled
    # by the amplitude would let the residual exceed criterion 8's 1e-8
    g, one, res = setup
    f = saturating_f()
    gamma = 0.6001 * (2.0 * np.pi) ** 4
    u = solve_nodal(gamma, f, one, 2, +1, +1, spectrum_result=res)
    assert e_norm(u) > 99.0
    rmax, _ = fp_residual(u, 1.0, AutonomousProblem(m=one, gamma=gamma, f=f))
    assert rmax <= 1e-8


def test_solve_nodal_odd_symmetry(setup):
    g, one, res = setup
    f = saturating_f()
    gamma = 0.75 * res.positive[0].mu
    up = solve_nodal(gamma, f, one, 1, +1, +1, spectrum_result=res)
    um = solve_nodal(gamma, f, one, 1, +1, -1, spectrum_result=res)
    assert np.max(np.abs(up.values + um.values)) <= 1e-8


def test_solve_nodal_gamma_rejected(setup):
    g, one, res = setup
    f = saturating_f()
    with pytest.raises(GammaNotAdmissible):
        solve_nodal(0.25 * res.positive[0].mu, f, one, 1, +1, +1,
                    spectrum_result=res)


def test_solve_nodal_mu_stays_positive(setup):
    # the auxiliary problem has only the trivial solution at mu = 0, so a
    # branch bifurcating from a positive eigenvalue stays at mu > 0
    g, one, res = setup
    f = saturating_f()
    gamma = 0.75 * res.positive[0].mu
    spec = AutonomousProblem(m=one, gamma=gamma, f=f)
    cfg = ContinuationConfig()
    start = bifurcation_start(1, +1, +1, spec, res)
    branch = trace_branch(start, spec, cfg, stop_at_mu=1.0)
    assert all(p.mu > 0 for p in branch.points)
    assert branch.termination == "HyperplaneGoal"


def test_solve_nodal_negative_coupling():
    # branches from the negative sequence pair with gamma < 0; the
    # auxiliary parameter still starts positive and crosses 1
    g = make_grid(N)
    m = sample(lambda t: np.sin(3 * np.pi * t), g)
    res = eigen_pencil(m, 2, 2)
    f = saturating_f()
    gamma = 0.75 * res.pair(1, -1).mu
    assert gamma < 0
    u = solve_nodal(gamma, f, m, 1, -1, +1, spectrum_result=res)
    spec = AutonomousProblem(m=m, gamma=gamma, f=f)
    from beamspec.nodal import nodal_profile
    profile = nodal_profile(u)
    assert profile.count == 0 and profile.sigma == +1
    assert fp_residual(u, 1.0, spec)[0] <= 1e-8


def test_solve_nodal_budget_exhaustion_reports_progress():
    # a crossing amplitude beyond the norm budget must surface as
    # NoCrossing with the branch's last state, not as a wrong solution
    from beamspec.errors import NoCrossing
    g = make_grid(N)
    m = sample(lambda t: np.sin(3 * np.pi * t), g)
    res = eigen_pencil(m, 4, 4)
    f = saturating_f()
    gamma = 0.75 * res.pair(4, -1).mu
    tight = ContinuationConfig(norm_budget=500.0, max_steps=2000)
    with pytest.raises(NoCrossing, match="reached"):
        solve_nodal(gamma, f, m, 4, -1, -1, tight, spectrum_result=res)


def test_unpopulated_class_is_reported():
    # the ramp weight has no leading positive eigenfunction with exactly
    # one interior zero, so k = 2 work must refuse loudly
    g = make_grid(N)
    ramp = sample(lambda t: 1.0 - 2.0 * t, g)
    f = saturating_f()
    with pytest.raises(NotInWeightClass):
        solve_nodal(100.0, f, ramp, 2, +1, +1)


@pytest.mark.parametrize("nu", [+1, -1])
def test_solve_nodal_looks_k_up_in_the_window(nu):
    # k = 5 is the third pair of the ramp on either side; the gamma check
    # after the lookup is the first refusal
    g = make_grid(N)
    ramp = sample(lambda t: 1.0 - 2.0 * t, g)
    f = saturating_f()
    mu = widest_resolvable_window(ramp).pair(5, nu).mu
    with pytest.raises(GammaNotAdmissible, match=re.escape(f"for k=5, nu={nu:+d}")):
        solve_nodal(0.25 * mu, f, ramp, 5, nu, +1)


def test_admissible_interval_orientation():
    f = saturating_f()          # f0 = 1, finf = 2
    lo, hi = admissible_interval(100.0, f)
    assert (lo, hi) == (50.0, 100.0)
    damped = saturating_f(gain=0.5)  # finf < f0 flips the orientation
    lo2, hi2 = admissible_interval(100.0, damped)
    assert lo2 == pytest.approx(100.0)
    assert hi2 == pytest.approx(200.0)


def _start_system(res, k):
    """Bordered Newton system of the start polish at (mu_k, 1e-3 phi_k) of
    the positive pair k in the window res."""
    g, m = res.grid, res.weight
    pair = res.pair(k, +1)
    spec = PerturbedProblem(m=m, g=cubic_perturbation())
    a = SecondDiffOperator(g)
    u = 1e-3 * pair.phi.interior
    w = a.apply(u)
    fu = spec.source_slope(u, pair.mu)
    fmu = spec.source_mu_slope(u, pair.mu)
    r1 = a.apply(u) - w
    r2 = a.apply(w) - spec.source(u, pair.mu)
    row_u = g.h * pair.phi.interior
    step = _bordered_solve(_MixedLU(g, fu), a, fu, fmu, r1, r2, row_u, 0.0, 0.0)
    return a, fu, fmu, r1, r2, row_u, step


@pytest.mark.parametrize("weight", ["one", "sin3pi"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_bordered_step_matches_dense_solve(weight, k):
    # J is singular to rounding at mu_k; the bordered matrix is not, and
    # block elimination with one refinement must match a dense solve of it
    res = eigen_pencil(sample(WEIGHTS[weight], make_grid(N)), 6, 0)
    a, fu, fmu, r1, r2, row_u, (du, dw, dmu) = _start_system(res, k)
    n = N
    lap = np.diag(np.full(n, 2.0)) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap /= make_grid(n).h ** 2
    big = np.zeros((2 * n + 1, 2 * n + 1))
    big[:n, :n] = lap
    big[:n, n:2 * n] = -np.eye(n)
    big[n:2 * n, :n] = -np.diag(fu)
    big[n:2 * n, n:2 * n] = lap
    big[n:2 * n, 2 * n] = -fmu
    big[2 * n, :n] = row_u
    ref = np.linalg.solve(big, -np.concatenate([r1, r2, [0.0]]))
    for got, want in ((du, ref[:n]), (dw, ref[n:2 * n]), (dmu, ref[2 * n])):
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_bordered_step_regular_where_pivot_test_fired(spectra):
    # sin3pi, k = 4 at n = 2000: a pivot-size test on the assembled bordered
    # matrix called this start singular; block elimination solves it
    res = spectra["sin3pi"]
    a, fu, fmu, r1, r2, row_u, (du, dw, dmu) = _start_system(res, 4)
    e1 = -r1 - (a.apply(du) - dw)
    e2 = -r2 - (a.apply(dw) - fu * du - fmu * dmu)
    worst = max(np.max(np.abs(e1)), np.max(np.abs(e2)), abs(row_u @ du))
    assert worst <= 1e-12 * np.max(np.abs(r2))

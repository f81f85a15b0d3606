import numpy as np
import pytest

from beamspec.continuation import (ContinuationConfig, admissible_interval,
                                   bifurcation_start, cross_hyperplane,
                                   solve_nodal, trace_branch)
from beamspec.errors import GammaNotAdmissible, NotInWeightClass
from beamspec.grid import e_norm, interior_dot, make_grid, sample
from beamspec.nonlinear import AutonomousProblem, PerturbedProblem, fp_residual
from beamspec.presets import (cubic_perturbation, linear_f, saturating_f,
                              zero_perturbation)
from beamspec.shooting import shoot_nodal_solution
from beamspec.spectrum import eigen_pencil

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
    start = bifurcation_start(1, +1, +1, spec, spectrum_result=res)
    # the linear branch is vertical: the polished mu equals the pencil value
    assert abs(start.mu - res.positive[0].mu) <= 1e-8
    assert start.profile.count == 0 and start.profile.sigma == +1
    assert start.norm.value <= 1.05e-3


def test_start_sign_convention(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    start = bifurcation_start(2, +1, -1, spec, spectrum_result=res)
    assert start.profile.count == 1
    assert start.profile.sigma == -1
    vmax = np.max(np.abs(start.u.values))
    lead = start.u.interior[np.abs(start.u.interior) > 1e-6 * vmax][0]
    assert lead < 0


def test_start_cubic_tilt_rayleigh_oracle(setup):
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
        cfg = ContinuationConfig(eps_start=eps)
        start = bifurcation_start(1, +1, +1, spec, cfg, res)
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
    cfg = ContinuationConfig(ds=ds, ds_max=ds, ds_min=ds / 4.0,
                             norm_budget=0.5, max_steps=400)
    start = bifurcation_start(1, +1, +1, spec, cfg, res)
    branch = trace_branch(start, spec, cfg)
    assert branch.termination == "NormBudget"
    assert len(branch.points) >= 100
    drift = max(abs(p.mu - start.mu) for p in branch.points)
    assert drift <= 1e-6
    # norm grows monotonically along the vertical branch
    norms = branch.enorms()
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_trace_cubic_halves_mirror(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    cfg = ContinuationConfig(norm_budget=50.0, max_steps=500)
    bp = trace_branch(bifurcation_start(1, +1, +1, spec, cfg, res), spec, cfg)
    bm = trace_branch(bifurcation_start(1, +1, -1, spec, cfg, res), spec, cfg)
    assert bp.termination == bm.termination == "NormBudget"
    npts = min(len(bp.points), len(bm.points))
    for i in range(npts):
        assert bp.points[i].mu == pytest.approx(bm.points[i].mu, abs=1e-8)
        gap = np.max(np.abs(bp.points[i].u.values + bm.points[i].u.values))
        assert gap <= 1e-8 * max(1.0, bp.points[i].norm.value)


def test_trace_profile_constant(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    cfg = ContinuationConfig(norm_budget=50.0, max_steps=500)
    branch = trace_branch(bifurcation_start(2, +1, +1, spec, cfg, res), spec, cfg)
    for p in branch.points:
        assert p.profile.count == 1
        assert p.profile.sigma == +1
        assert p.profile.is_nodal


def test_step_halving_reproduces_curve(setup):
    g, one, res = setup
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    base = ContinuationConfig(ds=0.02, ds_max=0.02, norm_budget=20.0,
                              max_steps=2000)
    halved = ContinuationConfig(ds=0.01, ds_max=0.01, norm_budget=20.0,
                                max_steps=2000)
    b1 = trace_branch(bifurcation_start(1, +1, +1, spec, base, res), spec, base)
    b2 = trace_branch(bifurcation_start(1, +1, +1, spec, halved, res), spec, halved)
    s1 = np.array([p.arclength for p in b1.points]) / b1.points[-1].arclength
    s2 = np.array([p.arclength for p in b2.points]) / b2.points[-1].arclength
    mu2 = np.interp(s1, s2, [p.mu for p in b2.points])
    en2 = np.interp(s1, s2, [p.norm.value for p in b2.points])
    for i in range(1, len(s1)):
        assert b1.points[i].mu == pytest.approx(mu2[i], rel=1e-6)
        assert b1.points[i].norm.value == pytest.approx(en2[i], rel=1e-6)


def test_cross_hyperplane_vertical_linear_f(setup):
    # with gamma equal to the computed eigenvalue and f = identity the
    # auxiliary branch sits on the hyperplane identically
    g, one, res = setup
    f = linear_f()
    gamma = res.positive[0].mu
    spec = AutonomousProblem(m=one, gamma=gamma, f=f)
    cfg = ContinuationConfig(ds=0.01, ds_max=0.01, norm_budget=1.0,
                             max_steps=50)
    start = bifurcation_start(1, +1, +1, spec, cfg, res)
    assert abs(start.mu - 1.0) <= 1e-8
    branch = trace_branch(start, spec, cfg)
    assert all(abs(p.mu - 1.0) <= 1e-6 for p in branch.points)
    u = cross_hyperplane(branch, spec, cfg)
    # an on-plane point is returned unchanged
    assert any(np.array_equal(u.values, p.u.values) for p in branch.points)


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
    assert e_norm(u).value > 99.0
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
    start = bifurcation_start(1, +1, +1, spec, cfg, res)
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


def test_admissible_interval_orientation():
    f = saturating_f()          # f0 = 1, finf = 2
    lo, hi = admissible_interval(100.0, f)
    assert (lo, hi) == (50.0, 100.0)
    damped = saturating_f(gain=0.5)  # finf < f0 flips the orientation
    lo2, hi2 = admissible_interval(100.0, damped)
    assert lo2 == pytest.approx(100.0)
    assert hi2 == pytest.approx(200.0)

import numpy as np
import pytest

from beamspec import nonlinear
from beamspec.errors import (AsymptoticMismatch, BoundaryViolation,
                             SingularJacobian, ValidationError)
from beamspec.grid import SampledFn, make_grid, sample
from beamspec.nonlinear import (AsymptoticF, AutonomousProblem,
                                PerturbedProblem, check_asymptotics,
                                fp_residual, newton)
from beamspec.presets import (atan_shift_f, cubic_perturbation, linear_f,
                              saturating_f, zero_perturbation)
from strong_form import manufactured_perturbation, residual


def _one(n):
    g = make_grid(n)
    return g, sample(lambda t: np.ones_like(t), g)


def test_residual_trivial_solution():
    g, one = _one(128)
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    u = SampledFn(g, np.zeros(len(g)))
    max_norm, vec = residual(u, 3.0, spec)
    assert max_norm == 0.0


def test_residual_eigenrelation():
    g, one = _one(400)
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    u = sample(lambda t: np.sin(np.pi * t), g)
    max_norm, _ = residual(u, np.pi**4, spec)
    # the bias is (a_1^2 - pi^4) sin = (pi^6/6) h^2 sin to leading order
    assert max_norm <= 400.0 * g.h**2


def test_residual_manufactured_oracle():
    # u* = sin(pi t) solves the manufactured problem for every mu
    g, one = _one(400)
    spec = PerturbedProblem(
        m=one, g=manufactured_perturbation(lambda t: np.ones_like(t)))
    u = sample(lambda t: np.sin(np.pi * t), g)
    max_norm, _ = residual(u, 7.0, spec)
    assert max_norm <= 400.0 * g.h**2


def test_residual_boundary_violation():
    g, one = _one(128)
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    vals = np.sin(np.pi * g.nodes)
    vals[0] = 0.01
    with pytest.raises(BoundaryViolation):
        residual(SampledFn(g, vals), 1.0, spec)


def test_residual_affine_in_mu():
    g, one = _one(128)
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    rng = np.random.default_rng(4)
    vals = np.zeros(len(g))
    vals[1:-1] = rng.standard_normal(g.n_interior)
    u = SampledFn(g, vals)
    mu1, mu2 = 3.0, 11.0
    _, r1 = residual(u, mu1, spec)
    _, r2 = residual(u, mu2, spec)
    _, rm = residual(u, 0.5 * (mu1 + mu2), spec)
    scale = np.max(np.abs(r1.values)) + np.max(np.abs(r2.values))
    gap = np.max(np.abs(rm.values - 0.5 * (r1.values + r2.values)))
    assert gap <= 1e-12 * scale


def test_strong_vs_fixed_point_zero_set():
    # both residual forms vanish together on a solved problem
    g, one = _one(400)
    spec = PerturbedProblem(
        m=one, g=manufactured_perturbation(lambda t: np.ones_like(t)))
    u0 = sample(lambda t: np.sin(np.pi * t) + 0.1 * np.sin(2 * np.pi * t), g)
    u = newton(u0, 7.0, spec)
    strong, _ = residual(u, 7.0, spec)
    fp, _ = fp_residual(u, 7.0, spec)
    assert fp <= 1e-11
    assert strong <= 1e-4  # float floor of the fourth-difference evaluation


def test_check_asymptotics_linear():
    f0, finf = check_asymptotics(
        AsymptoticF(f=lambda s: np.asarray(s, float), f0=1.0, finf=1.0))
    assert f0 == pytest.approx(1.0, rel=1e-9)
    assert finf == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("fn", [saturating_f().f, saturating_f().derivative,
                                saturating_f(gain=17).f, linear_f().f,
                                atan_shift_f().derivative],
                         ids=["saturating-f", "saturating-df", "saturating-int-gain-f",
                              "linear-f", "atan-shift-df"])
def test_builtin_nonlinearity_keeps_a_float_a_float(fn):
    # the nonlinear shoot calls f once per RK4 stage on Python floats, where
    # a numpy scalar costs several times more
    out = fn(0.7)
    assert type(out) is float
    assert out == fn(np.array([0.7]))[0]


def test_atan_shift_f_rounds_floats_as_arrays():
    # np.arctan returns a numpy scalar on a float; math.atan, which would
    # not, rounds some arguments differently from np.arctan on an array
    s = np.random.default_rng(3).standard_normal(16000) * 10.0 ** np.arange(-8, 8).repeat(1000)
    f = atan_shift_f().f
    assert np.array([f(x) for x in s.tolist()]).tobytes() == f(s).tobytes()


def test_linear_f_returns_a_new_array():
    s = np.array([1.0, -0.0, 2.5])
    out = linear_f().f(s)
    assert out is not s
    assert out.tobytes() == s.tobytes()


def test_check_asymptotics_saturating():
    f0, finf = check_asymptotics(saturating_f())
    assert f0 == pytest.approx(1.0, rel=1e-6)
    assert finf == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("f, f0", [(saturating_f(gain=1e12), 1.0), (atan_shift_f(), 2.0),
                                   (linear_f(), 1.0)],
                         ids=["saturating-gain-1e12", "atan-shift", "linear"])
def test_check_asymptotics_reads_f0_exactly(f, f0):
    # at s = +-1e-9, 1 + s^2 rounds to 1: the saturating f's (gain - 1) s^2
    # term vanishes, so a huge gain is no f0 mismatch
    assert check_asymptotics(f)[0] == f0


def test_check_asymptotics_decides_the_sign_condition():
    # both slopes are 1, but f(s) s < 0 on 0.2 < s < 0.5
    def f(s):
        s = np.asarray(s, dtype=float)
        return np.where((s > 0.2) & (s < 0.5), -s, s)

    with pytest.raises(AsymptoticMismatch, match=r"^sign condition f\(s\) s > 0 fails"):
        check_asymptotics(AsymptoticF(f=f, f0=1.0, finf=1.0))


def test_check_asymptotics_mismatch():
    bad = AsymptoticF(
        f=lambda s: np.asarray(s, float) * np.exp(-np.minimum(np.asarray(s, float) ** 2, 700.0)),
        f0=1.0, finf=1.0)
    with pytest.raises(AsymptoticMismatch):
        check_asymptotics(bad)


@pytest.mark.parametrize("label, undefined", [
    ("f0", lambda s: np.abs(s) < 1e-3),
    ("finf", lambda s: np.abs(s) > 1e3),
], ids=["f0", "finf"])
def test_check_asymptotics_refuses_a_nan_slope(label, undefined):
    # f(s) = s except NaN near 0 or near infinity: the slope estimate there
    # is NaN, which no comparison with the declared slope can pass
    def f(s):
        s = np.asarray(s, dtype=float)
        return np.where(undefined(s), np.nan, s)

    with pytest.raises(AsymptoticMismatch, match=f"^{label}: declared 1.0, sampled nan"):
        check_asymptotics(AsymptoticF(f=f, f0=1.0, finf=1.0))


def test_check_asymptotics_refuses_an_overflowing_sample_by_name():
    # both slope estimates hold, but f overflows on 10 < s < 1e3; numpy
    # would warn of it (an error in this suite), and h1 alone would pass
    def f(s):
        s = np.asarray(s, dtype=float)
        return s * np.exp(np.where((s > 10.0) & (s < 1e3), 1e3, 0.0))

    with pytest.raises(AsymptoticMismatch, match=r"^sample f\(21\.5443\) is not finite$"):
        check_asymptotics(AsymptoticF(f=f, f0=1.0, finf=1.0))


@pytest.mark.parametrize("f0, finf, label", [
    (np.inf, 1.0, "f0"), (1.0, np.inf, "finf"), (np.nan, 1.0, "f0"), (1.0, -np.inf, "finf"),
], ids=["f0-inf", "finf-inf", "f0-nan", "finf-minus-inf"])
def test_check_asymptotics_refuses_a_non_finite_declared_slope(f0, finf, label):
    # |f0_hat - inf| <= 1e-3 * inf holds for any finite estimate, so the
    # declared slopes are checked before f is sampled at all
    def f(s):
        raise AssertionError("f sampled")

    with pytest.raises(AsymptoticMismatch, match=f"^{label}: declared .*positive finite"):
        check_asymptotics(AsymptoticF(f=f, f0=f0, finf=finf))


def test_saturating_f_refuses_a_non_finite_gain():
    for gain in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError, match="gain must be finite"):
            saturating_f(gain=gain)


def test_newton_fixed_point():
    g, one = _one(300)
    spec = PerturbedProblem(
        m=one, g=manufactured_perturbation(lambda t: np.ones_like(t)))
    u_exact = sample(lambda t: np.sin(np.pi * t), g)
    u_exact = newton(u_exact, 7.0, spec)  # land exactly on the discrete solution
    u, info = newton(u_exact, 7.0, spec, return_info=True)
    assert info["iterations"] <= 1
    assert np.max(np.abs(u.values - u_exact.values)) <= 1e-12


def test_newton_manufactured_convergence():
    g, one = _one(400)
    spec = PerturbedProblem(
        m=one, g=manufactured_perturbation(lambda t: np.ones_like(t)))
    u0 = sample(lambda t: np.sin(np.pi * t) + 0.1 * np.sin(2 * np.pi * t), g)
    u, info = newton(u0, 7.0, spec, return_info=True)
    assert info["iterations"] <= 8
    assert np.max(np.abs(u.values - np.sin(np.pi * g.nodes))) <= 100.0 * g.h**2
    # quadratic tail on the recorded residual history
    hist = info["history"]
    for r_prev, r_next in zip(hist[-3:-1], hist[-2:]):
        assert r_next <= 1e4 * r_prev**2 + 1e-14


def test_newton_evaluates_each_accepted_iterate_once(count_calls):
    # every full step is accepted here; the accepted trial's residual is
    # the next iterate's, carried over rather than evaluated again
    g, one = _one(400)
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    evaluated = count_calls(nonlinear, "_fp")
    _, info = newton(sample(lambda t: 2.0 * np.sin(np.pi * t), g), 80.0, spec,
                     return_info=True)
    assert info["iterations"] >= 3
    assert evaluated.total() == info["iterations"] + 1


def test_newton_builds_no_sampled_fn_per_residual(monkeypatch):
    # the corrector evaluates its residual on interior arrays; SampledFns
    # are built only at the boundary (the start's E-norm and the result)
    g, one = _one(400)
    spec = PerturbedProblem(m=one, g=cubic_perturbation())
    built, evaluated = [], []
    post_init, fp = SampledFn.__post_init__, nonlinear._fp

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_fp(*args):
        evaluated.append(1)
        return fp(*args)

    runs = []
    for amp in (2.0, 5.0):
        u0 = sample(lambda t: amp * np.sin(np.pi * t), g)
        with monkeypatch.context() as mp:
            mp.setattr(SampledFn, "__post_init__", counting_post_init)
            mp.setattr(nonlinear, "_fp", counting_fp)
            built.clear()
            evaluated.clear()
            _, info = newton(u0, 50.0, spec, return_info=True)
        runs.append((info["iterations"], len(evaluated), len(built)))
    (it_a, ev_a, built_a), (it_b, ev_b, built_b) = runs
    assert min(it_a, it_b) >= 3
    assert ev_a != ev_b
    assert built_a == built_b


def test_newton_singular_at_eigenvalue():
    # at the discrete bifurcation parameter the linear system has no
    # solution for a generic start, and the factorization guard fires
    from beamspec.spectrum import eigen_pencil
    g, one = _one(500)
    res = eigen_pencil(one, 1, 0)
    spec = PerturbedProblem(m=one, g=zero_perturbation())
    u0 = SampledFn(g, 1e-3 * (np.sin(np.pi * g.nodes)
                              + 0.3 * np.sin(2 * np.pi * g.nodes)))
    with pytest.raises(SingularJacobian):
        newton(u0, res.positive[0].mu, spec)


def test_jacobian_slope_matches_finite_differences():
    # analytic dg/ds against central differences, column-wise on the
    # diagonal part of the strong-form linearization
    g, one = _one(100)
    cub = cubic_perturbation()
    rng = np.random.default_rng(17)
    t = g.interior_nodes
    s = rng.standard_normal(g.n_interior)
    analytic = cub.partial(t, s, 2.0)
    step = 1e-6 * (1.0 + np.abs(s))
    fd = (cub.evaluate(t, s + step, 2.0) - cub.evaluate(t, s - step, 2.0)) / (2 * step)
    assert np.max(np.abs(analytic - fd)) <= 1e-6 * (1.0 + np.max(np.abs(analytic)))


def test_cubic_evaluate_is_the_cube():
    # s * s * s rounds twice where a correctly rounded pow rounds once:
    # at most a few ulp apart, so 4 eps relative is fixed by float64 alone
    cub = cubic_perturbation()
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 2002)
    s = rng.choice((-1.0, 1.0), t.size) * 10.0 ** rng.uniform(-3.0, 3.0, t.size)
    cube = cub.evaluate(t, s, 2.0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(cube - s ** 3) <= 4.0 * eps * np.abs(s ** 3))
    # a scalar s broadcasts over an array t
    spread = cub.evaluate(t, 1.5, 2.0)
    assert spread.shape == t.shape
    assert np.all(spread == 1.5 * 1.5 * 1.5)


def test_autonomous_source_terms():
    g, one = _one(128)
    f = saturating_f()
    spec = AutonomousProblem(m=one, gamma=3.0, f=f)
    u = np.linspace(-1, 1, g.n_interior)
    src = spec.source(u, 2.0)
    assert np.allclose(src, 2.0 * 3.0 * f.f(u))
    slope = spec.source_slope(u, 2.0)
    assert np.allclose(slope, 6.0 * f.slope(u))

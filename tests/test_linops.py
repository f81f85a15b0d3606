import numpy as np
import pytest
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgbcon, dgbtrs

from beamspec import linops
from beamspec.analysis import degree_parity_sweep, parity_samples
from beamspec.errors import OnEigenvalue, SingularJacobian, ValidationError
from beamspec.grid import SampledFn, from_interior, make_grid, sample
from beamspec.linops import (EPS, SecondDiffOperator, _MixedLU, _swap_fields,
                             det_sign_psi, lambda2, lambda_solve)
from beamspec.nonlinear import PerturbedProblem, fp_residual, newton
from beamspec.presets import WEIGHTS
from beamspec.spectrum import widest_resolvable_window
from strong_form import manufactured_perturbation


def test_lambda_solve_constant_load():
    # second differences of a quadratic are exact, so t(1-t) is hit at nodes
    g = make_grid(200)
    e = sample(lambda t: 2.0 * np.ones_like(t), g)
    u = lambda_solve(e)
    target = g.nodes * (1.0 - g.nodes)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.max(np.abs(u.values - target)) <= 1e-13


def test_lambda_solve_sine():
    g = make_grid(300)
    e = sample(lambda t: np.pi**2 * np.sin(np.pi * t), g)
    u = lambda_solve(e)
    assert np.max(np.abs(u.values - np.sin(np.pi * g.nodes))) <= 2.0 * g.h**2


def test_lambda_solve_residual_floor():
    # the stated residual bound is only expressible where the float floor
    # of the second-difference evaluation sits below it, i.e. moderate n
    g = make_grid(64)
    rng = np.random.default_rng(0)
    e = from_interior(g, rng.uniform(0.5, 2.0, g.n_interior))
    u = lambda_solve(e)
    a = SecondDiffOperator(g)
    res = a.apply(u.interior) - e.interior
    assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(e.values))


def test_lambda_solve_dense_oracle():
    # oracle: dense Gaussian elimination on the same tridiagonal system
    g = make_grid(128)
    rng = np.random.default_rng(42)
    e = from_interior(g, rng.standard_normal(g.n_interior))
    u = lambda_solve(e)
    n, h = g.n_interior, g.h
    dense = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1)) / h**2
    u_dense = np.linalg.solve(dense, e.interior)
    scale = np.max(np.abs(u_dense))
    assert np.max(np.abs(u.interior - u_dense)) <= 1e-12 * scale


def test_lambda2_sine():
    g = make_grid(300)
    e = sample(lambda t: np.pi**4 * np.sin(np.pi * t), g)
    u = lambda2(e)
    assert np.max(np.abs(u.values - np.sin(np.pi * g.nodes))) <= 20.0 * g.h**2


def test_lambda2_zero_and_definition():
    g = make_grid(100)
    zero = from_interior(g, np.zeros(g.n_interior))
    assert np.all(lambda2(zero).values == 0.0)
    rng = np.random.default_rng(1)
    e = from_interior(g, rng.standard_normal(g.n_interior))
    assert np.array_equal(lambda2(e).values, lambda_solve(lambda_solve(e)).values)


def test_lambda2_dense_composition_oracle():
    # oracle: dense solve of the composed pentadiagonal system
    g = make_grid(128)
    rng = np.random.default_rng(5)
    e = from_interior(g, rng.standard_normal(g.n_interior))
    n, h = g.n_interior, g.h
    a = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
         + np.diag(np.full(n - 1, -1.0), -1)) / h**2
    k = a @ a
    u_dense = np.linalg.solve(k, e.interior)
    u = lambda2(e)
    assert np.max(np.abs(u.interior - u_dense)) <= 1e-10 * np.max(np.abs(u_dense))


def test_lambda2_boundary_encoding():
    g = make_grid(200)
    rng = np.random.default_rng(9)
    e = from_interior(g, rng.standard_normal(g.n_interior))
    u = lambda2(e)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    # the intermediate field -u'' is itself a Dirichlet solution
    w = lambda_solve(e)
    assert w.values[0] == 0.0 and w.values[-1] == 0.0


def test_lambda_solve_positivity():
    # discrete maximum principle of the M-matrix
    g = make_grid(150)
    rng = np.random.default_rng(2)
    vals = np.zeros(len(g))
    vals[1:-1] = np.maximum(rng.standard_normal(g.n_interior), 0.0)
    assert np.any(vals > 0)
    u = lambda_solve(SampledFn(g, vals))
    assert np.all(u.interior > 0.0)


def test_stiffness_symmetry():
    # K = A o A, applied in two stages as the strong-form residual does
    g = make_grid(90)
    a = SecondDiffOperator(g)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(g.n_interior)
        y = rng.standard_normal(g.n_interior)
        lhs = np.dot(a.apply(a.apply(x)), y)
        rhs = np.dot(x, a.apply(a.apply(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_stiffness_eigen_relation():
    # the sine modes are exact discrete eigenvectors; the residual is the
    # float noise of the two-stage fourth-difference evaluation
    g = make_grid(128)
    a = SecondDiffOperator(g)
    for j in (1, 2, 3):
        x = np.sin(j * np.pi * g.interior_nodes)
        lam = (2.0 * (1.0 - np.cos(j * np.pi * g.h)) / g.h**2) ** 2
        assert np.max(np.abs(a.apply(a.apply(x)) - lam * x)) <= 2e-8 * lam


def test_lambda2_fixed_point_at_first_eigenvalue():
    # sin(pi t) is the first eigenfunction of u'''' = mu u, so pi^4 Lam2
    # reproduces it up to the O(h^2) discretization error
    g = make_grid(400)
    u = sample(lambda t: np.sin(np.pi * t), g)
    got = np.pi**4 * lambda2(u)
    assert np.max(np.abs(got.values - u.values)) <= 50.0 * g.h**2


def test_second_diff_factor_once_per_grid(monkeypatch):
    # every residual and Newton iterate on a grid reuses one cached
    # LDL^T factor of A
    calls = []
    dpttrf = linops.dpttrf

    def counting_dpttrf(d, e):
        calls.append(len(d))
        return dpttrf(d, e)

    monkeypatch.setattr(linops, "dpttrf", counting_dpttrf)
    linops._ldl.cache_clear()
    for n in (150, 170):
        g = make_grid(n)
        spec = PerturbedProblem(m=sample(WEIGHTS["one"], g),
                                g=manufactured_perturbation(np.ones_like))
        u0 = sample(lambda t: np.sin(np.pi * t), g)
        for _ in range(3):
            fp_residual(u0, 7.0, spec)
            newton(u0, 7.0, spec)
    assert calls == [150, 170]
    d, e = linops._ldl(g.n_interior, g.h)
    assert not d.flags.writeable and not e.flags.writeable


def test_det_sign_identity():
    g = make_grid(100)
    one = sample(lambda t: np.ones_like(t), g)
    assert det_sign_psi(0.0, one) == 1


def test_det_sign_parity_constant_weight():
    # mu in (0, pi^4) leaves the determinant positive; crossing the first
    # eigenvalue flips it
    g = make_grid(400)
    one = sample(lambda t: np.ones_like(t), g)
    assert det_sign_psi(50.0, one) == 1
    assert det_sign_psi(500.0, one) == -1
    assert det_sign_psi(3000.0, one) == 1


def test_det_sign_flips_across_eigenvalue(spectrum_one800, one800):
    # the sign changes exactly when mu sweeps across a pencil eigenvalue
    mu1 = spectrum_one800.positive[0].mu
    below = det_sign_psi(mu1 * 0.99, one800)
    above = det_sign_psi(mu1 * 1.01, one800)
    assert below == 1 and above == -1


def _inverse_mass_matrix(grid, m):
    """Dense matrix of K^-1 M on interior nodes, via two banded solve passes."""
    a = SecondDiffOperator(grid)
    return a.solve(a.solve(np.diag(m.interior)))


def _det_sign_dense(mu, m):
    """Reference sign of det(I - mu K^-1 M): dense LU with partial pivoting."""
    n = m.grid.n_interior
    c = np.eye(n) - mu * _inverse_mass_matrix(m.grid, m)
    lu, piv = lu_factor(c)
    diag = np.diag(lu)
    sign = 1 if np.count_nonzero(piv != np.arange(n)) % 2 == 0 else -1
    sign *= int(np.prod(np.sign(diag)))
    return sign


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_det_sign_matches_dense_lu(name):
    # the banded mixed factorization against the dense n x n LU, next to
    # every certified eigenvalue and at seeded samples of both signs
    g = make_grid(300)
    m = sample(WEIGHTS[name], g)
    res = widest_resolvable_window(m)
    evs = [p.mu for p in res.positive] + [p.mu for p in res.negative]
    mus = [ev * f for ev in evs for f in (1.0 - 1e-6, 1.0 + 1e-6)]
    mus += list(parity_samples(res, np.random.default_rng(8), 20, 20))
    for mu in mus:
        sign = det_sign_psi(mu, m)
        assert type(sign) is int
        assert sign == _det_sign_dense(mu, m), mu
    # on a computed eigenvalue, without the eigenvalue list, the condition
    # estimate alone refuses to return a sign
    for ev in evs:
        with pytest.raises(OnEigenvalue):
            det_sign_psi(ev, m)


def _rcond_lapack(lu):
    """Reference condition estimate: LAPACK dgbcon on the same band LU."""
    if lu.info > 0:
        return 0.0
    return dgbcon(2, 2, lu.lu, lu.piv, lu.anorm)[0]


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_rcond_matches_lapack_estimate(name):
    # the solve-driven estimate against dgbcon on every computed eigenvalue
    # (where the guard must fire), next to each, and at seeded samples
    g = make_grid(300)
    m = sample(WEIGHTS[name], g)
    res = widest_resolvable_window(m)
    evs = [p.mu for p in res.positive] + [p.mu for p in res.negative]
    mus = evs + [ev * f for ev in evs for f in (1.0 - 1e-6, 1.0 + 1e-6)]
    mus += list(parity_samples(res, np.random.default_rng(8), 20, 20))
    for mu in mus:
        lu = _MixedLU(g, mu * m.interior)
        got, ref = lu.rcond(), _rcond_lapack(lu)
        assert (got < EPS) == (ref < EPS), mu
        assert 0.5 * ref <= got <= 2.0 * ref, mu
        assert lu.rcond() == got


def test_det_sign_refuses_non_finite_shift():
    # nan < EPS is False, so a non-finite shift once slipped past the guard
    # and came back with a sign
    m = sample(WEIGHTS["sin3pi"], make_grid(48))
    for mu in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            det_sign_psi(mu, m)
    with pytest.raises(ValidationError):
        degree_parity_sweep(m, [np.nan, 10.0], widest_resolvable_window(m))


def test_nan_condition_estimate_is_refused(monkeypatch):
    # both guards read "not rcond >= EPS", so a NaN estimate is singular
    monkeypatch.setattr(_MixedLU, "rcond", lambda self: np.nan)
    g = make_grid(48)
    one = sample(lambda t: np.ones_like(t), g)
    with pytest.raises(OnEigenvalue):
        det_sign_psi(10.0, one)
    spec = PerturbedProblem(m=one, g=manufactured_perturbation(np.ones_like))
    with pytest.raises(SingularJacobian):
        newton(sample(lambda t: np.sin(np.pi * t), g), 7.0, spec)


def _dense_mixed(g, fu):
    """The interleaved matrix B of _MixedLU, built densely from its blocks."""
    n = g.n_interior
    a = SecondDiffOperator(g).apply(np.eye(n))
    b = np.zeros((2 * n, 2 * n))
    b[0::2, 0::2] = b[1::2, 1::2] = a
    b[0::2, 1::2] = -np.eye(n)
    b[1::2, 0::2] = -np.diag(fu)
    return b


def _seeded_shifts(rng, count):
    """count shifts of each sign, log-uniform in magnitude over [10, 1e5]."""
    x = 10.0 ** rng.uniform(1.0, 5.0, count)
    return np.concatenate([-x, x])


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_swapped_solve_is_a_transposed_solve(name):
    # B^T = Q B Q with Q exchanging u_i and w_i, so Q B^-1 Q b solves
    # B^T x = b as backward-stably as LAPACK's own transposed solve
    g = make_grid(300)
    m = sample(WEIGHTS[name], g)
    rng = np.random.default_rng(19)
    for mu in _seeded_shifts(rng, 5):
        lu = _MixedLU(g, mu * m.interior)
        bt = _dense_mixed(g, mu * m.interior).T
        rhs = rng.standard_normal(bt.shape[0])
        swapped = _swap_fields(dgbtrs(lu.lu, 2, 2, _swap_fields(rhs), lu.piv)[0])
        lapack = dgbtrs(lu.lu, 2, 2, rhs, lu.piv, trans=1)[0]
        for x in (swapped, lapack):
            eta = (np.linalg.norm(rhs - bt @ x, np.inf)
                   / (np.linalg.norm(bt, np.inf) * np.linalg.norm(x, np.inf)
                      + np.linalg.norm(rhs, np.inf)))
            assert eta <= 16 * EPS, mu


@pytest.mark.parametrize("n", [30, 60])
def test_rcond_never_below_exact(n):
    # the estimate of ||B^-1||_1 is a lower bound, so rcond is an upper
    # bound on the exact reciprocal condition 1 / (||B||_1 ||B^-1||_1)
    g = make_grid(n)
    rng = np.random.default_rng(23)
    for name in sorted(WEIGHTS):
        m = sample(WEIGHTS[name], g)
        for mu in _seeded_shifts(rng, 10):
            b = _dense_mixed(g, mu * m.interior)
            lu = _MixedLU(g, mu * m.interior)
            assert lu.anorm == pytest.approx(np.linalg.norm(b, 1), rel=1e-14)
            exact = 1.0 / (lu.anorm * np.linalg.norm(np.linalg.inv(b), 1))
            assert lu.rcond() >= exact * (1.0 - 1e-9), (name, mu)

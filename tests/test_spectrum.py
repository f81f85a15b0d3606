import ast
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import beamspec
import beamspec.grid
from beamspec import shooting, spectrum
from beamspec.errors import (NoConvergence, NodalMismatch, NoSignChange, NotInWeightClass,
                             ValidationError)
from beamspec.grid import SampledFn, make_grid, sample
from beamspec.linops import det_sign_psi
from beamspec.presets import WEIGHTS, weight
from beamspec.shooting import boundary_determinant, shoot_eigenvalue, shoot_nodal_solution
from beamspec.spectrum import (MAX_PAIRS, SpectrumResult, eigen_pencil,
                               eigen_pencil_extrapolated, widest_resolvable_window)


def test_constant_weight_analytic(spectrum_one800):
    for pair in spectrum_one800.positive:
        target = (pair.k * np.pi) ** 4
        assert pair.mu == pytest.approx(target, rel=1e-3)
    assert spectrum_one800.negative == ()
    assert spectrum_one800.positive[0].phi.interior[5] > 0


def test_constant_weight_eigenfunctions(spectrum_one800, grid800):
    # eigenfunctions are sine modes up to normalization
    for pair in spectrum_one800.positive[:3]:
        phi = pair.phi.values
        model = np.sin(pair.k * np.pi * grid800.nodes)
        model = model * (np.max(np.abs(phi)) / np.max(np.abs(model)))
        err = min(np.max(np.abs(phi - model)), np.max(np.abs(phi + model)))
        assert err <= 1e-4 * np.max(np.abs(phi))


def test_no_negative_spectrum_flag(one800):
    res = eigen_pencil(one800, 2, 2)
    assert res.negative == ()
    assert "NoNegativeSpectrum" in res.flags


def test_not_in_weight_class():
    g = make_grid(100)
    m = sample(lambda t: -1.0 - t, g)
    with pytest.raises(NotInWeightClass):
        eigen_pencil(m, 1, 0)


def _label_groups(res, seq):
    """The nodal indices of one side in rank order, each NearDegenerate
    chain merged into one set: rounding decides the labels inside it."""
    groups = []
    for p in seq:
        if groups and f"NearDegenerate:rank={p.rank - 1},nu={p.nu:+d}" in res.flags:
            groups[-1].add(p.k)
        else:
            groups.append({p.k})
    return groups


def _assert_same_spectrum(seq, other_seq, sign):
    """Equal ranks and side lengths, and sign * mu within 1e-10."""
    assert [q.rank for q in other_seq] == [p.rank for p in seq]
    for p, q in zip(seq, other_seq):
        assert q.mu == pytest.approx(sign * p.mu, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_sign_flip_duality(name):
    # m -> -m swaps the two sides and negates every eigenvalue
    m = sample(WEIGHTS[name], make_grid(300))
    res, flip = widest_resolvable_window(m), widest_resolvable_window(-1.0 * m)
    for seq, flip_seq in ((res.positive, flip.negative), (res.negative, flip.positive)):
        _assert_same_spectrum(seq, flip_seq, -1.0)
        assert _label_groups(flip, flip_seq) == _label_groups(res, seq)


def _reflected_windows(name):
    m = sample(WEIGHTS[name], make_grid(300))
    return (widest_resolvable_window(m),
            widest_resolvable_window(SampledFn(m.grid, m.values[::-1])))


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_reflection_keeps_every_eigenvalue(name):
    # t -> 1 - t leaves the pencil's spectrum and its ranks unchanged
    res, ref = _reflected_windows(name)
    for seq, ref_seq in ((res.positive, ref.positive), (res.negative, ref.negative)):
        _assert_same_spectrum(seq, ref_seq, 1.0)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_reflection_keeps_every_label(name):
    res, ref = _reflected_windows(name)
    for seq, ref_seq in ((res.positive, ref.positive), (res.negative, ref.negative)):
        assert _label_groups(ref, ref_seq) == _label_groups(res, seq)


def _mirror_defect(phi, other):
    """max |phi -+ other reflected| / max |phi|, the smaller sign."""
    v, w = phi.values, other.values[::-1]
    return min(np.max(np.abs(v - w)), np.max(np.abs(v + w))) / np.max(np.abs(v))


@pytest.mark.parametrize("name, n", [
    ("one", 300), ("sin3pi", 300), ("cos2pi", 300), ("cos2pi", 2000)])
def test_symmetric_weights_have_even_or_odd_window_vectors(name, n):
    # cos2pi's NearDegenerate pairs at ranks 7-8, 9-10 and 11-12 had defects
    # up to 0.27 (n = 300) and 0.58 (n = 2000) before the Rayleigh-Ritz step;
    # one and sin3pi have no such group, so their windows do not depend on n
    res = widest_resolvable_window(sample(WEIGHTS[name], make_grid(n)))
    assert max(_mirror_defect(p.phi, p.phi) for p in res.positive + res.negative) <= 1e-3


def test_the_ramps_negative_eigenfunctions_mirror_its_positive_ones():
    # m(1 - t) = -m(t), so phi-_k is phi+_k reflected
    res = widest_resolvable_window(sample(WEIGHTS["linear_ramp"], make_grid(300)))
    assert [p.k for p in res.negative] == [p.k for p in res.positive]
    for p, q in zip(res.positive, res.negative):
        assert _mirror_defect(p.phi, q.phi) <= 1e-3


@pytest.mark.parametrize("name, stencils", [
    ("one", 36), ("sin3pi", 66), ("cos2pi", 72), ("linear_ramp", 54)])
def test_a_window_derives_each_profiled_pair_once(name, stencils, count_calls):
    # three stencils per profiled eigenvector: its profile also gives the
    # E-norm that normalizes phi.  The window profiles its certified pairs
    # and, on a cut side, the first pair it cannot certify
    m = sample(WEIGHTS[name], make_grid(300))
    calls = count_calls(beamspec.grid, "derivative")
    widest_resolvable_window(m)
    assert calls.total() == stencils


def test_scale_covariance(grid800):
    m = sample(lambda t: np.sin(3 * np.pi * t), grid800)
    res = eigen_pencil(m, 2, 2)
    res_scaled = eigen_pencil(2.5 * m, 2, 2)
    for p, q in zip(res.positive + res.negative,
                    res_scaled.positive + res_scaled.negative):
        assert q.mu == pytest.approx(p.mu / 2.5, rel=1e-10)
        agree = min(np.max(np.abs(q.phi.values - p.phi.values)),
                    np.max(np.abs(q.phi.values + p.phi.values)))
        assert agree <= 1e-7


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_power_of_two_scaling_is_exact(name):
    # m -> 4m multiplies G by 4 without rounding: every eigenvalue is
    # exactly a quarter, and labels, eigenvector bits and flags stay;
    # mu (4m) and (4 mu) m are the same products, so the determinant
    # signs agree at every shift
    m = sample(WEIGHTS[name], make_grid(300))
    res, res4 = widest_resolvable_window(m), widest_resolvable_window(4.0 * m)
    assert res4.flags == res.flags
    pairs, pairs4 = res.positive + res.negative, res4.positive + res4.negative
    assert [(q.k, q.rank, q.nu) for q in pairs4] == [(p.k, p.rank, p.nu) for p in pairs]
    for p, q in zip(pairs, pairs4):
        assert q.mu == p.mu / 4.0
        assert q.phi.values.tobytes() == p.phi.values.tobytes()
    reach = 1.2 * max(abs(p.mu) for p in pairs) / 4.0
    shifts = np.random.default_rng(sorted(WEIGHTS).index(name)).uniform(-reach, reach, 40)
    for mu in shifts:
        assert det_sign_psi(mu, 4.0 * m) == det_sign_psi(4.0 * mu, m)


def test_grid_convergence_second_order():
    results = []
    for n in (250, 500, 1000):
        g = make_grid(n)
        one = sample(lambda t: np.ones_like(t), g)
        results.append(eigen_pencil(one, 4, 0))
    for k in (1, 2, 3, 4):
        errs = [abs(res.pair(k, +1).mu - (k * np.pi) ** 4) for res in results]
        for a, b in zip(errs, errs[1:]):
            assert 3.7 <= a / b <= 4.3


def test_nodal_indexing_on_multi_lobe_weights(grid800):
    # two positive lobes make the magnitude order differ from the nodal
    # order, and some nodal classes are simply not populated; this
    # structure is deterministic and shooting-verified
    m = sample(lambda t: np.sin(3 * np.pi * t), grid800)
    res = eigen_pencil(m, 4, 4)
    assert [p.k for p in res.positive] == [2, 1, 4, 3]
    assert [p.k for p in res.negative] == [1, 4, 5, 8]
    assert "NodalOrderPermuted:positive" in res.flags
    ramp = sample(lambda t: 1.0 - 2.0 * t, grid800)
    res_r = eigen_pencil(ramp, 4, 4)
    assert [p.k for p in res_r.positive] == [1, 3, 5, 6]
    with pytest.raises(NotInWeightClass):
        res_r.pair(2, +1)


def _window_by_retry(m, cap=MAX_PAIRS):
    """The retry loop that widest_resolvable_window replaced, kept verbatim
    as the reference it must reproduce (its flag order is hash-seeded)."""
    mv = m.interior
    want_pos = bool(np.any(mv > 0.0))
    want_neg = bool(np.any(mv < 0.0))

    def shrink(count_pos, count_neg):
        for w in range(max(count_pos, count_neg), 0, -1):
            try:
                return eigen_pencil(m, min(w, count_pos) if count_pos else 0,
                                    min(w, count_neg) if count_neg else 0)
            except NodalMismatch:
                continue
        return eigen_pencil(m, 0, 0)

    pos = shrink(cap if want_pos else 0, 0)
    neg = shrink(0, cap if want_neg else 0)
    return SpectrumResult(positive=pos.positive, negative=neg.negative,
                          weight=m, flags=tuple(set(pos.flags + neg.flags)),
                          positive_mus=pos.positive_mus, negative_mus=neg.negative_mus)


def _rows(pairs):
    return [(p.k, p.rank, p.mu, p.phi.values.tolist()) for p in pairs]


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_window_matches_retry_reference(name, count_calls):
    m = sample(weight(name), make_grid(300))
    ref = _window_by_retry(m)
    decompositions = count_calls(spectrum, "_decompose")
    res = widest_resolvable_window(m)
    assert decompositions.total() == 1
    assert _rows(res.positive) == _rows(ref.positive)
    assert _rows(res.negative) == _rows(ref.negative)
    assert set(res.flags) == set(ref.flags)


def test_unresolvable_window_raises_and_fallback_shrinks():
    # deep ranks of localized classes push zero amplitudes below the float
    # floor: the pencil must refuse rather than certify a wrong count
    g = make_grid(300)
    m = sample(lambda t: np.sin(3 * np.pi * t), g)
    with pytest.raises(NodalMismatch):
        eigen_pencil(m, 12, 12)
    res = widest_resolvable_window(m)
    assert len(res.positive) >= 6
    assert 1 <= len(res.negative) < 12
    # the negative side is cut right before its first uncertifiable pair
    assert _rows(eigen_pencil(m, 0, len(res.negative)).negative) == _rows(res.negative)
    with pytest.raises(NodalMismatch):
        eigen_pencil(m, 0, len(res.negative) + 1)
    assert res.flags == ("NodalOrderPermuted:positive", "NodalIndexGaps:positive",
                         "NodalOrderPermuted:negative", "NodalIndexGaps:negative")


def test_repeated_nodal_index_raises_and_cuts_the_window(monkeypatch):
    # every profile is made to read zero interior zeros, so ranks 1 and 2
    # both claim k = 1: the pencil refuses and the window keeps rank 1
    import dataclasses
    real = spectrum.nodal_profile
    monkeypatch.setattr(spectrum, "nodal_profile", lambda u: dataclasses.replace(
        real(u), count=0, zeros=()))
    m = sample(lambda t: np.ones_like(t), make_grid(100))
    with pytest.raises(NodalMismatch, match=r"both show 0 zeros; grid n=100 too coarse"):
        eigen_pencil(m, 3, 0)
    res = widest_resolvable_window(m)
    assert [(p.k, p.rank) for p in res.positive] == [(1, 1)]
    # a cut before an uncertifiable pair is a window, not a truncation
    assert res.negative == () and res.flags == ()


def test_eigen_shoot_analytic():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    mu1 = shoot_eigenvalue(one, (90.0, 110.0))
    assert mu1 == pytest.approx(np.pi**4, rel=1e-6)
    mu2 = shoot_eigenvalue(one, (1500.0, 1600.0))
    assert mu2 == pytest.approx((2 * np.pi) ** 4, rel=1e-6)


def test_eigen_shoot_bad_bracket():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    with pytest.raises(NoSignChange):
        shoot_eigenvalue(one, (10.0, 50.0))


def test_boundary_determinant_sign_matches_closed_form():
    # for m = 1, d(mu) = sin(l) sinh(l) / l^2 with l = mu^(1/4); sinh(l)
    # reaches 1e16 at the top of the range, which the rescaling must absorb,
    # and d is smallest next to the roots (k pi)^4, where it is also sampled
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    mus = np.random.default_rng(7).uniform(0.0, 12 * np.pi, 80) ** 4
    roots = (np.arange(1, 13) * np.pi) ** 4
    far = np.all(np.abs(mus[:, None] / roots - 1.0) > 1e-3, axis=1)
    mus = mus[far][:50]
    assert len(mus) == 50
    for mu in np.concatenate([mus, roots * (1 - 1.1e-3), roots * (1 + 1.1e-3)]):
        d = boundary_determinant(mu, one)
        assert np.isfinite(d)
        assert np.sign(d) == np.sign(np.sin(mu ** 0.25))


def test_shooting_weight_must_be_callable():
    # the oracle samples m at the RK4 half-steps; a grid sample would need
    # an interpolant the oracle does not build
    sampled = sample(WEIGHTS["one"], make_grid(48))
    with pytest.raises(TypeError, match="callable"):
        boundary_determinant(100.0, sampled)


def test_the_oracle_imports_nothing_of_the_finite_difference_side():
    # criterion 3 cross-checks the pencil only while the oracle shares no
    # code with linops, spectrum, nonlinear or _lapack
    with open(shooting.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {(module, None if module == ".errors" else alias.name)
                         for alias in node.names}
    assert imported <= {("functools", None), ("math", None), ("numpy", None),
                        (".errors", None), (".grid", "SampledFn")}


def _count_determinants(monkeypatch):
    """Record every (mu, d(mu)) the shooting oracle evaluates."""
    evaluated = []
    inner = shooting._boundary_determinant

    def counting(mu, weight):
        d = inner(mu, weight)
        evaluated.append((mu, d))
        return d

    monkeypatch.setattr(shooting, "_boundary_determinant", counting)
    return evaluated


@pytest.mark.parametrize("bracket", [(90.0, 110.0), (1500.0, 1600.0)])
def test_eigen_shoot_root_needs_few_determinants(monkeypatch, bracket):
    one = WEIGHTS["one"]
    evaluated = _count_determinants(monkeypatch)
    root = shoot_eigenvalue(one, bracket)
    # bisection needs 31 midpoints here, plus the two endpoints
    assert len(evaluated) <= 12
    # the root lies within one stopping width of a sign change of d
    width = 1e-10 * abs(root)
    assert boundary_determinant(root - width, one) * boundary_determinant(root + width, one) <= 0.0


def test_eigen_shoot_bisects_a_badly_scaled_bracket(monkeypatch):
    # d falls from 1 at mu = 1 to about -2e-6 at mu = 1500, so the first
    # interpolation steps land far from the root pi^4 and Brent bisects
    evaluated = _count_determinants(monkeypatch)
    root = shoot_eigenvalue(WEIGHTS["one"], (1.0, 1500.0))
    assert root == pytest.approx(np.pi ** 4, rel=1e-6)
    bisection = 2 + int(np.ceil(np.log2(1499.0 / (1e-10 * np.pi ** 4))))
    assert len(evaluated) <= 2 * bisection

    def bisects(i):
        # every iterate lies inside the tightest sign-change bracket of the
        # evaluations before it; a bisection step lands on its midpoint
        done = sorted(evaluated[:i])
        lo, hi = next((x, y) for (x, dx), (y, dy) in zip(done, done[1:]) if dx * dy < 0.0)
        return evaluated[i][0] == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    assert any(bisects(i) for i in range(2, len(evaluated)))


@pytest.mark.parametrize("call", [
    lambda m: shoot_eigenvalue(m, (np.nan, 110.0)),
    lambda m: shoot_eigenvalue(m, (90.0, np.inf)),
    lambda m: shoot_eigenvalue(m, (90.0, 110.0), n_steps=0),
    lambda m: shoot_eigenvalue(m, (90.0, 110.0), n_steps=-3),
    lambda m: boundary_determinant(100.0, m, n_steps=0),
    lambda m: shoot_eigenvalue(lambda t: np.where(t > 0.5, np.nan, m(t)), (90.0, 110.0)),
    lambda m: boundary_determinant(np.nan, m),
    lambda m: boundary_determinant(np.inf, m),
    lambda m: boundary_determinant(-np.inf, m),
], ids=["nan-bracket", "inf-bracket", "steps-zero", "steps-negative",
        "determinant-steps-zero", "nan-weight", "determinant-mu-nan",
        "determinant-mu-inf", "determinant-mu-minus-inf"])
def test_shooting_rejects_bad_input_before_any_determinant(monkeypatch, call):
    evaluated = _count_determinants(monkeypatch)
    with pytest.raises(ValidationError):
        call(WEIGHTS["one"])
    assert evaluated == []


@pytest.mark.parametrize("weight", [
    lambda t: 1.0,
    lambda t: np.ones((len(t), 2)),
    lambda t: np.ones(len(t) + 2),
], ids=["scalar", "two-columns", "two-samples-more"])
@pytest.mark.parametrize("call", [
    lambda m: boundary_determinant(97.0, m, n_steps=10),
    lambda m: shoot_eigenvalue(m, (90.0, 110.0), n_steps=100),
    lambda m: shoot_nodal_solution(70.0, m, np.tanh, 1.0, 1.0, make_grid(48)),
], ids=["determinant", "eigen-shoot", "nodal-shoot"])
def test_the_oracle_refuses_a_weight_of_the_wrong_shape(monkeypatch, call, weight):
    # a scalar once divided by zero, two columns failed to broadcast, and
    # two samples more answered for one step more than asked
    evaluated = _count_determinants(monkeypatch)
    with pytest.raises(ValidationError, match=r"weight returned shape \("):
        call(weight)
    assert evaluated == []


@pytest.mark.parametrize("call, mu", [
    (lambda: shoot_eigenvalue(WEIGHTS["one"], (1e299, 1e300)), 1e299),
    (lambda: shoot_eigenvalue(WEIGHTS["one"], (1e250, 1e251)), 1e250),
    (lambda: shoot_eigenvalue(lambda t: np.full_like(t, 1e305), (90.0, 110.0)), 90.0),
    (lambda: boundary_determinant(1e300, WEIGHTS["one"]), 1e300),
], ids=["bracket-1e300", "bracket-1e251", "weight-1e305", "determinant-1e300"])
def test_an_overflowing_determinant_is_no_root(monkeypatch, call, mu):
    # mu m overflows the step products and d comes out nan, which fails
    # every sign test, so a search that went on would bisect to a fake root
    evaluated = _count_determinants(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=re.escape(f"mu = {mu!r} ")):
            call()
    assert len(evaluated) == 1


def test_a_non_finite_determinant_inside_the_bracket_stops_the_shoot(monkeypatch):
    inner = shooting._boundary_determinant
    evaluated = []

    def nan_third(mu, weight):
        evaluated.append(mu)
        return np.nan if len(evaluated) == 3 else inner(mu, weight)

    monkeypatch.setattr(shooting, "_boundary_determinant", nan_third)
    # the third determinant is the opening bisection's midpoint
    with pytest.raises(NoConvergence, match="mu = 100.0 "):
        shoot_eigenvalue(WEIGHTS["one"], (90.0, 110.0))
    assert evaluated == [90.0, 110.0, 100.0]


@pytest.mark.parametrize("k", range(1, 7))
def test_a_centred_bracket_costs_four_determinants(monkeypatch, k):
    # the opening bisection evaluates the centre, the root (k pi)^4 up to the
    # RK4 error; one more step crosses it and closes the bracket
    root = (k * np.pi) ** 4
    evaluated = _count_determinants(monkeypatch)
    mu = shoot_eigenvalue(WEIGHTS["one"], (root * 0.95, root * 1.05))
    assert len(evaluated) == 4
    assert evaluated[2][0] == pytest.approx(root, rel=1e-15)
    assert abs(mu / root - 1.0) <= 1e-12


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1.0, 1e8, 1e10, 1e12, 1e60, 1e100, 1e301])
def test_the_eigen_shoot_scales_with_the_weight(c):
    # m = c has mu_1 = pi^4 / c.  A stopping width that is absolute below
    # |mu| = 1 leaves a relative error of 5.6e-6 at c = 1e10, and from
    # c = 1e12 on returns the secant of the bracket's ends; unscaled, the
    # quartic overflows at c = 1e100 and its mu^4 coefficient underflows
    # from c = 1e-200 on, which costs a relative error of 2e-14
    m = lambda t: np.full_like(t, c)
    root = np.pi ** 4 / c
    assert abs(shoot_eigenvalue(m, (0.9 * root, 1.3 * root)) / root - 1.0) <= 1e-14


@pytest.mark.parametrize("k", [-990, -300, 3, 300, 990])
def test_the_determinant_is_exactly_covariant_under_a_power_of_two(k):
    # d(2^-k mu; 2^k m) = d(mu; m) bit for bit: the steps are built from
    # the weight scaled to max |m| in [1/2, 1), so the unscaled quartic
    # can no longer overflow (k = 990) or underflow (k = -990)
    mus = np.geomspace(10.0, 5e7, 12)
    for name, fn in sorted(WEIGHTS.items()):
        scaled = lambda t: np.ldexp(fn(t), k)
        for mu in np.concatenate([mus, -mus]):
            assert boundary_determinant(np.ldexp(mu, -k), scaled) == boundary_determinant(mu, fn)


@pytest.mark.parametrize("k", [-990, -300, 3, 300])
@pytest.mark.parametrize("name, bracket", [("one", (90.0, 110.0)),
                                           ("sin3pi", (114215.5, 114714.3))])
def test_the_eigen_shoot_is_exactly_covariant_under_a_power_of_two(name, bracket, k):
    # Brent's method and its stopping width scale with the bracket, so the
    # shoot on 2^k m from 2^-k the bracket returns 2^-k the root exactly;
    # at k = 990 its iterates near 1e-296 go subnormal, so that is left out
    fn = WEIGHTS[name]
    scaled = shoot_eigenvalue(lambda t: np.ldexp(fn(t), k), np.ldexp(bracket, -k))
    assert scaled == np.ldexp(shoot_eigenvalue(fn, bracket), -k)


def test_the_oracle_never_echoes_its_centre():
    # the centre lies 2e-11 off the root, inside the stopping width, so the
    # bracket closes on it; the secant root of the last bracket is the
    # oracle's own value, not the centre
    centre = np.pi ** 4 * (1.0 + 2e-11)
    root = shoot_eigenvalue(WEIGHTS["one"], (0.95 * centre, 1.05 * centre))
    assert root != centre
    assert abs(root / np.pi ** 4 - 1.0) <= 1e-14


def _rk4_on_the_identity(mu, m_half):
    """The RK4 step matrices of the linear pencil, shape (4, 4, n), from
    stepping the identity through _rk4_step with every step's weight as an array."""
    n = (len(m_half) - 1) // 2

    def rhs(y, m):
        return y[1], y[2], y[3], mu * m * y[0]

    return np.array(shooting._rk4_step(rhs, tuple(np.eye(4)[:, :, None]), 1.0 / n,
                                       m_half[0:-1:2], m_half[1::2], m_half[2::2]))


@pytest.mark.parametrize("n_steps", [1, 3, 10000])
@pytest.mark.parametrize("name", ["one", "sin3pi", "random"])
def test_linear_steps_match_rk4_on_the_identity(name, n_steps):
    if name == "random":  # a rough weight: independent samples at every node and midpoint
        m_half = np.random.default_rng(n_steps).uniform(-1.0, 1.0, 2 * n_steps + 1)
    else:
        m_half = shooting._weight_on_half_grid(WEIGHTS[name], n_steps)
    t0, w = shooting._linear_steps(m_half)
    assert w.shape == (n_steps, 4, 4)
    for mu in [sign * scale for scale in (1.0, 1e3, 1e5, 4.6e7) for sign in (1, -1)]:
        p = np.moveaxis(_rk4_on_the_identity(mu, m_half), -1, 0)
        # both sides round sums of terms up to the largest entry, which a
        # rough weight can make cancel within one step
        assert np.max(np.abs(t0 + mu * w - p)) <= 8 * np.finfo(float).eps * np.max(np.abs(p))


def test_a_shoot_builds_its_step_matrices_once(monkeypatch, count_calls):
    # every build of the folded steps starts from the steps of one weight
    shooting._folded_steps.cache_clear()
    builds = count_calls(shooting, "_linear_steps", key=len)
    evaluated = _count_determinants(monkeypatch)
    shoot_eigenvalue(WEIGHTS["sin3pi"], (114215.5, 114714.3))
    assert builds == {2 * shooting.DEFAULT_STEPS + 1: 1}
    assert shooting._folded_steps.cache_info().misses == 1
    assert len(evaluated) > 2


def _determinant_per_step(mu, m_half):
    """The per-step compound product that the block product replaced, kept
    verbatim as the reference it must reproduce."""
    p = _rk4_on_the_identity(mu, m_half)
    i, j, k, l = shooting._I, shooting._J, shooting._K, shooting._L
    c = np.moveaxis(p[i, k] * p[j, l] - p[i, l] * p[j, k], -1, 0)
    while len(c) > 1:
        if len(c) % 2:
            c = np.concatenate([c, np.eye(6)[None]])
        c = c[1::2] @ c[0::2]
        c /= np.max(np.abs(c), axis=(1, 2), keepdims=True)
    return c[0, 1, 4]


@pytest.mark.parametrize("n_steps", [1, 3, 127, 129, 10000])
def test_block_product_keeps_the_per_step_sign(n_steps):
    # 1 and 3 steps fit in one padded block, 127 and 129 sit on either side
    # of its edge; on so few steps the blocks shrink as |mu| grows, down to
    # single steps, where a whole block product would cancel past float
    # precision (for m = 1 at 129 steps, d(4.6e7) = -2.7e-13 against 4.2e-12)
    mus = [-4.6e7, -1e6, -6.8e4, -500.0, 97.0, 500.0, 1e4, 1.15e5, 1e6, 4.6e7]
    for name in ("one", "sin3pi"):
        m_half = shooting._weight_on_half_grid(WEIGHTS[name], n_steps)
        weight = shooting._weight(WEIGHTS[name], n_steps)
        for mu in mus:
            d = shooting._boundary_determinant(mu, weight)
            assert np.isfinite(d)
            assert np.sign(d) == np.sign(_determinant_per_step(mu, m_half))


@pytest.mark.parametrize("name, bracket", [
    ("one", (90.0, 110.0)),
    ("one", (0.97 * (5 * np.pi) ** 4, 1.03 * (5 * np.pi) ** 4)),
    ("one", (0.97 * (26 * np.pi) ** 4, 1.03 * (26 * np.pi) ** 4)),
    # isolated by scanning d on a uniform mu grid
    ("sin3pi", (114215.5, 114714.3)),
    ("sin3pi", (-68330.8, -67832.1)),
    ("sin3pi", (-4.57e7, -4.565e7)),
], ids=["one-k1", "one-k5", "one-k26", "sin3pi-plus", "sin3pi-minus", "sin3pi-minus-4.6e7"])
def test_block_product_roots_match_the_per_step_roots(monkeypatch, name, bracket):
    root = shoot_eigenvalue(WEIGHTS[name], bracket)
    monkeypatch.setattr(shooting, "_boundary_determinant",
                        lambda mu, weight: _determinant_per_step(mu, np.frombuffer(weight[0])))
    assert root == pytest.approx(shoot_eigenvalue(WEIGHTS[name], bracket), rel=1e-12)


def _determinant_unfolded(mu, m_half):
    """The block product that forms every step T0 + mu W[j], which the
    folded pairs replaced, kept verbatim as the reference they must
    reproduce."""
    t0, w = shooting._linear_steps(m_half)
    m_max = np.max(np.abs(m_half))
    n = len(w)
    reach = (abs(mu) * m_max) ** 0.25
    size = shooting.BLOCK
    while size > 1 and size * reach > n:
        size //= 2
    t = np.empty((n + -n % size, 4, 4))
    t[n:] = np.eye(4)
    np.multiply(mu, w, out=t[:n])
    t[:n] += t0
    for _ in range(size.bit_length() - 1):
        t = t[1::2] @ t[0::2]
    i, j, k, l = shooting._I, shooting._J, shooting._K, shooting._L
    c = t[:, i, k] * t[:, j, l] - t[:, i, l] * t[:, j, k]
    while len(c) > 1:
        if len(c) % 2:
            c = np.concatenate([c, np.eye(6)[None]])
        c = c[1::2] @ c[0::2]
        c /= np.max(np.abs(c), axis=(1, 2), keepdims=True)
    return c[0, 1, 4]


@pytest.mark.parametrize("n_steps", [10000, 625, 16, 17, 18, 19])
def test_folded_pairs_match_the_unfolded_block_product(n_steps):
    # 625 (like 17), 18 and 19 steps leave 1, 2 and 3 steps after the last
    # group of four, which identity steps close; on 16 steps blocks fall
    # below four steps from |mu m| = 256 on.  The last two shifts put
    # blocks of two steps, then of one, under every step count.  sin3pi
    # scaled by 1e100 would overflow an unscaled quartic; scaled, it
    # takes the quartic like every other weight
    for name in sorted(WEIGHTS) + ["random", "scaled"]:
        scale = 1e100 if name == "scaled" else 1.0
        if name == "random":  # a rough weight, drawn as in the per-step test
            m_half = np.random.default_rng(n_steps).uniform(-1.0, 1.0, 2 * n_steps + 1)
        else:
            fn = WEIGHTS["sin3pi" if name == "scaled" else name]
            m_half = scale * shooting._weight_on_half_grid(fn, n_steps)
        weight = (m_half.tobytes(), np.max(np.abs(m_half)))
        assert all(np.all(np.isfinite(c))
                   for c in shooting._folded_steps(weight[0], shooting.FOLD))
        mus = np.concatenate([np.geomspace(10.0, 5e7, 13) / scale,
                              (n_steps / np.array([3.0, 1.5])) ** 4 / weight[1]])
        for mu in np.concatenate([mus, -mus]):
            d = shooting._boundary_determinant(mu, weight)
            reference = _determinant_unfolded(mu, m_half)
            assert np.sign(d) == np.sign(reference) != 0.0
            assert abs(d / reference - 1.0) <= 1e-10


def _array_bytes(x):
    if isinstance(x, np.ndarray):
        return x.nbytes
    return sum(map(_array_bytes, x)) if isinstance(x, (tuple, list)) else 0


def test_a_cache_entry_keeps_one_copy_of_the_shared_coefficient():
    # the key's samples, four (2500, 4, 4) coefficients and one T0^4; T0^4
    # broadcast to every group would add 320 000 bytes and slow the build
    samples, _ = shooting._weight(WEIGHTS["sin3pi"], shooting.DEFAULT_STEPS)
    poly = shooting._folded_steps(samples, shooting.FOLD)
    assert len(samples) + _array_bytes(poly) <= 1_440_136


def test_a_warm_cache_gives_the_bits_of_a_cold_one():
    shooting._folded_steps.cache_clear()
    fn, bracket = WEIGHTS["sin3pi"], (-68330.8, -67832.1)
    cold = (boundary_determinant(-68000.0, fn), shoot_eigenvalue(fn, bracket))
    assert shooting._folded_steps.cache_info().currsize == 1
    warm = (boundary_determinant(-68000.0, fn), shoot_eigenvalue(fn, bracket))
    assert warm == cold
    shooting._folded_steps.cache_clear()
    assert (shoot_eigenvalue(fn, bracket), boundary_determinant(-68000.0, fn)) == cold[::-1]


def test_the_cache_misses_a_changed_weight_and_keeps_its_capacity():
    shooting._folded_steps.cache_clear()
    cache = shooting._folded_steps.cache_info
    one = WEIGHTS["one"]
    # the same weight again, then one sample one ulp away, then fewer steps
    nudged = lambda t: np.where(np.arange(len(t)) == len(t) // 2, np.nextafter(1.0, 2.0), 1.0)
    for m in (one, one, nudged):
        boundary_determinant(100.0, m)
    boundary_determinant(100.0, one, n_steps=5000)
    assert cache().misses == 3
    for c in np.linspace(0.5, 2.0, 2 * shooting.CACHE_SIZE):
        boundary_determinant(100.0, lambda t: np.full_like(t, c))
        assert cache().currsize <= shooting.CACHE_SIZE
    assert cache().misses == 3 + 2 * shooting.CACHE_SIZE
    # the weight last used is kept and hits; the one used first was dropped
    boundary_determinant(100.0, lambda t: np.full_like(t, 2.0))
    boundary_determinant(100.0, one)
    assert cache().misses == 4 + 2 * shooting.CACHE_SIZE


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.linalg"])
def test_import_leaves_scipy_unloaded(module):
    # importing scipy.optimize takes about 0.15 s and scipy.linalg about
    # 0.3 s and 22 MB, which every command and every benchmark set-up would
    # pay; a silent fall back to scipy.linalg's package init fails here
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamspec.__file__)))
    code = f"import sys, beamspec; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_freed_dense_arrays_leave_the_process():
    # under glibc's adaptive mmap threshold the second of two 32 MB arrays,
    # each freed before the next, lands on the heap and stays resident
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamspec.__file__)))
    code = ("import os, beamspec, numpy as np\n"
            "def rss(): return int(open('/proc/self/statm').read().split()[1])\n"
            "for _ in range(2):\n"
            "    before = rss(); a = np.ones((2000, 2000)); del a\n"
            "print((rss() - before) * os.sysconf('SC_PAGE_SIZE') / 2**20)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert float(out.stdout) < 4.0


def test_pencil_shoot_cross_validation(grid800):
    # mutual oracle check on a sign-changing weight; richardson removes
    # the second-order pencil bias first
    fn = lambda t: np.sin(3 * np.pi * np.asarray(t, dtype=float))
    fine, pos_x, neg_x = eigen_pencil_extrapolated(fn, grid800, 2, 2)
    for mu_x in pos_x + neg_x:
        others = [m for m in pos_x + neg_x if m != mu_x]
        width = min([0.05 * abs(mu_x)] + [0.45 * abs(mu_x - o) for o in others])
        mu_shoot = shoot_eigenvalue(fn, (mu_x - width, mu_x + width))
        assert mu_x == pytest.approx(mu_shoot, rel=1e-6)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_extrapolation_takes_only_eigenvalues_from_the_coarse_grid(name, monkeypatch):
    # Richardson needs the coarse eigenvalues alone: no eigenvectors and no
    # nodal classes, with the values of a full coarse pencil
    fn, grid = WEIGHTS[name], make_grid(600)
    fine = widest_resolvable_window(sample(fn, grid))
    coarse_grid = make_grid(300)
    coarse = eigen_pencil(sample(fn, coarse_grid), len(fine.positive), len(fine.negative))
    h1, h2 = coarse_grid.h, grid.h
    expected = [(h1**2 * f.mu - h2**2 * c.mu) / (h1**2 - h2**2)
                for side, coarse_side in ((fine.positive, coarse.positive),
                                          (fine.negative, coarse.negative))
                for f, c in zip(side, coarse_side)]

    def no_profile(phi):
        raise AssertionError("nodal_profile called")

    decompose, calls = spectrum._decompose, []

    def values_only(m, count_pos, count_neg, vectors):
        assert not vectors
        calls.append(m.grid.n_interior)
        return decompose(m, count_pos, count_neg, vectors)

    monkeypatch.setattr(spectrum, "nodal_profile", no_profile)
    monkeypatch.setattr(spectrum, "_decompose", values_only)
    _, pos_x, neg_x = eigen_pencil_extrapolated(
        fn, grid, len(fine.positive), len(fine.negative), fine=fine)
    assert calls == [300]
    assert len(pos_x + neg_x) == len(expected) == len(fine.positive) + len(fine.negative)
    np.testing.assert_allclose(pos_x + neg_x, expected, rtol=1e-11, atol=0.0)

import numpy as np
import pytest

from beamspec.errors import NoSignChange, NotInWeightClass
from beamspec.grid import make_grid, sample
from beamspec.shooting import boundary_determinant
from beamspec.spectrum import (EigenPair, SpectrumResult, eigen_pencil,
                               eigen_pencil_extrapolated, eigen_shoot,
                               order_by_nodal)


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


def test_sign_flip_duality(grid800):
    m = sample(lambda t: np.sin(3 * np.pi * t), grid800)
    res = eigen_pencil(m, 3, 3)
    res_flip = eigen_pencil(-1.0 * m, 3, 3)
    for p, q in zip(res.positive, res_flip.negative):
        assert q.mu == pytest.approx(-p.mu, rel=1e-10)
        assert q.k == p.k
    for p, q in zip(res.negative, res_flip.positive):
        assert q.mu == pytest.approx(-p.mu, rel=1e-10)


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


def test_unresolvable_window_raises_and_fallback_shrinks():
    # deep ranks of localized classes push zero amplitudes below the float
    # floor: the pencil must refuse rather than certify a wrong count
    from beamspec.errors import NodalMismatch
    from beamspec.spectrum import widest_resolvable_window
    g = make_grid(300)
    m = sample(lambda t: np.sin(3 * np.pi * t), g)
    with pytest.raises(NodalMismatch):
        eigen_pencil(m, 12, 12)
    res = widest_resolvable_window(m)
    assert len(res.positive) >= 6
    assert 1 <= len(res.negative) < 12


def test_eigen_shoot_analytic():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    mu1 = eigen_shoot(one, (90.0, 110.0))
    assert mu1 == pytest.approx(np.pi**4, rel=1e-6)
    mu2 = eigen_shoot(one, (1500.0, 1600.0))
    assert mu2 == pytest.approx((2 * np.pi) ** 4, rel=1e-6)


def test_eigen_shoot_bad_bracket():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    with pytest.raises(NoSignChange):
        eigen_shoot(one, (10.0, 50.0))


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


def test_pencil_shoot_cross_validation(grid800):
    # mutual oracle check on a sign-changing weight; richardson removes
    # the second-order pencil bias first
    fn = lambda t: np.sin(3 * np.pi * np.asarray(t, dtype=float))
    fine, pos_x, neg_x = eigen_pencil_extrapolated(fn, grid800, 2, 2)
    for mu_x in pos_x + neg_x:
        others = [m for m in pos_x + neg_x if m != mu_x]
        width = min([0.05 * abs(mu_x)] + [0.45 * abs(mu_x - o) for o in others])
        mu_shoot = eigen_shoot(fn, (mu_x - width, mu_x + width))
        assert mu_x == pytest.approx(mu_shoot, rel=1e-6)


def test_order_by_nodal_accepts_good(spectrum_one800):
    assert order_by_nodal(spectrum_one800)["ok"]


def test_order_by_nodal_flags_swap(spectrum_one800):
    # negative control: relabel the k=2 pair as k=1
    bad_pair = EigenPair(k=1, nu=+1, mu=spectrum_one800.positive[1].mu,
                         phi=spectrum_one800.positive[1].phi, rank=1)
    doctored = SpectrumResult(positive=(bad_pair,), negative=(),
                              weight=spectrum_one800.weight)
    report = order_by_nodal(doctored)
    assert not report["ok"]
    assert report["violations"]

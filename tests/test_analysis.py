import numpy as np
import pytest

from beamspec.analysis import degree_parity_sweep, sturm_check
from beamspec.errors import HypothesisViolated
from beamspec.grid import make_grid, sample


def test_parity_constant_weight_table(one800, spectrum_one800):
    rep = degree_parity_sweep(one800, [50.0, 500.0, 3000.0],
                              spectrum_result=spectrum_one800)
    signs = [r["det_sign"] for r in rep["rows"]]
    counts = [r["count"] for r in rep["rows"]]
    assert signs == [1, -1, 1]
    assert counts == [0, 1, 2]
    assert rep["all_match"]


def test_parity_at_zero(one800, spectrum_one800):
    rep = degree_parity_sweep(one800, [0.0], spectrum_result=spectrum_one800)
    assert rep["rows"][0]["det_sign"] == 1
    assert rep["all_match"]


def test_parity_sign_changing_weight(sin3pi800, spectrum_sin3pi800):
    pos = [p.mu for p in spectrum_sin3pi800.positive]
    neg = [p.mu for p in spectrum_sin3pi800.negative]
    rng = np.random.default_rng(0)
    samples = np.concatenate([rng.uniform(1.0, 0.9 * max(pos), 20),
                              rng.uniform(0.9 * min(neg), -1.0, 20)])
    rep = degree_parity_sweep(sin3pi800, samples,
                              spectrum_result=spectrum_sin3pi800)
    assert rep["n_samples"] >= 30
    assert rep["all_match"]


def test_parity_filters_near_eigenvalue(one800, spectrum_one800):
    mu1 = spectrum_one800.positive[0].mu
    rep = degree_parity_sweep(one800, [mu1 * (1 + 1e-9)],
                              spectrum_result=spectrum_one800)
    assert rep["n_samples"] == 0


def test_sturm_analytic_pairs():
    g = make_grid(800)
    b1 = sample(lambda t: np.pi**4 * np.ones_like(t), g)
    b2 = sample(lambda t: 16 * np.pi**4 * np.ones_like(t), g)
    b3 = sample(lambda t: 81 * np.pi**4 * np.ones_like(t), g)
    u1 = sample(lambda t: np.sin(np.pi * t), g)
    u2 = sample(lambda t: np.sin(2 * np.pi * t), g)
    u3 = sample(lambda t: np.sin(3 * np.pi * t), g)
    # analytic eigenfunctions carry O(h^2) residual against the discrete
    # operator, so the hypothesis check runs at a matching tolerance
    v12 = sturm_check(b1, b2, u1, u2, residual_tol=1e-2)
    assert v12["pass"] and (v12["count1"], v12["count2"]) == (0, 1)
    v23 = sturm_check(b2, b3, u2, u3, residual_tol=1e-2)
    assert v23["pass"] and (v23["count1"], v23["count2"]) == (1, 2)


def test_sturm_discrete_pairs_tight_tolerance(spectrum_one800, one800):
    # pencil eigenfunctions satisfy the discrete equation to near float
    # precision, so the default 1e-6 hypothesis tolerance applies
    p1 = spectrum_one800.pair(1, +1)
    p2 = spectrum_one800.pair(2, +1)
    v = sturm_check(p1.mu * one800, p2.mu * one800, p1.phi, p2.phi)
    assert v["pass"]


def test_sturm_hypothesis_ordering():
    g = make_grid(400)
    b1 = sample(lambda t: 2.0 + t, g)
    b2 = sample(lambda t: 2.0 + np.sin(8 * np.pi * t), g)  # not above b1
    u = sample(lambda t: np.sin(np.pi * t), g)
    with pytest.raises(HypothesisViolated):
        sturm_check(b1, b2, u, u)


def test_sturm_rejects_non_solution(spectrum_one800, one800):
    p1 = spectrum_one800.pair(1, +1)
    p2 = spectrum_one800.pair(2, +1)
    # corrupted pair: u2 replaced by u1, which does not solve equation 2
    with pytest.raises(HypothesisViolated):
        sturm_check(p1.mu * one800, p2.mu * one800, p1.phi, p1.phi)

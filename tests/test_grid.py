import math

import numpy as np
import pytest

from beamspec.errors import GridMismatch, TooCoarse
from beamspec.grid import (SampledFn, derivative, e_norm, from_csv, make_grid,
                           sample, to_csv)


def test_make_grid_basic():
    g = make_grid(9)
    assert g.h == pytest.approx(0.1)
    assert len(g.nodes) == 11
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_make_grid_fine():
    g = make_grid(1999)
    assert g.h == pytest.approx(5e-4)


def test_make_grid_too_coarse():
    with pytest.raises(TooCoarse):
        make_grid(3)


def test_grid_invariants():
    for n in (8, 100, 777):
        g = make_grid(n)
        assert abs(g.h * (n + 1) - 1.0) <= 2**-52
        assert np.all(np.diff(g.nodes) > 0)


def test_values_length_checked():
    g = make_grid(10)
    with pytest.raises(GridMismatch):
        SampledFn(g, np.zeros(5))


def test_values_must_be_finite():
    g = make_grid(10)
    vals = np.zeros(12)
    vals[3] = np.inf
    with pytest.raises(ValueError):
        SampledFn(g, vals)


def test_derivative_linear_exact():
    g = make_grid(100)
    u = sample(lambda t: t, g)
    d = derivative(u, 1)
    assert np.max(np.abs(d.values - 1.0)) <= 1e-10


def test_derivative_second_of_sine():
    g = make_grid(200)
    u = sample(lambda t: np.sin(np.pi * t), g)
    d2 = derivative(u, 2)
    target = -np.pi**2 * np.sin(np.pi * g.nodes)
    assert np.max(np.abs(d2.values - target)) <= 10.0 * g.h**2 * np.pi**4


def test_derivative_polynomial_oracle():
    # oracle: exact differentiation of a random degree-5 polynomial
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-2, 2, 6)
    p = np.polynomial.Polynomial(coeffs)
    g = make_grid(400)
    u = sample(p, g)
    for order in (1, 2, 3):
        exact = p.deriv(order)(g.nodes)
        got = derivative(u, order).values
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(got - exact)) <= 50.0 * g.h**2 * scale


def test_derivative_is_linear():
    rng = np.random.default_rng(3)
    g = make_grid(60)
    u = SampledFn(g, rng.standard_normal(len(g)))
    v = SampledFn(g, rng.standard_normal(len(g)))
    a, b = 1.7, -0.4
    for order in (1, 2, 3):
        lhs = derivative(SampledFn(g, a * u.values + b * v.values), order).values
        rhs = a * derivative(u, order).values + b * derivative(v, order).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_derivative_rejects_bad_order():
    g = make_grid(20)
    u = sample(lambda t: t, g)
    with pytest.raises(ValueError):
        derivative(u, 4)


def test_e_norm_zero():
    g = make_grid(50)
    assert e_norm(SampledFn(g, np.zeros(len(g)))) == 0.0


def test_e_norm_sine():
    g = make_grid(2000)
    u = sample(lambda t: np.sin(np.pi * t), g)
    target = 1.0 + math.pi + math.pi**2 + math.pi**3
    assert e_norm(u) == pytest.approx(target, abs=1e-3)


def test_e_norm_parabola_parts():
    g = make_grid(500)
    u = sample(lambda t: t * (1.0 - t), g)
    parts = [float(np.max(np.abs(v.values)))
             for v in (u, derivative(u, 1), derivative(u, 2), derivative(u, 3))]
    assert parts[0] == pytest.approx(0.25, abs=1e-6)
    assert parts[1] == pytest.approx(1.0, abs=1e-9)
    assert parts[2] == pytest.approx(2.0, abs=1e-8)
    assert parts[3] == pytest.approx(0.0, abs=1e-6)
    # e_norm sums the parts in this order, so the float is the same
    assert e_norm(u) == sum(parts)
    assert e_norm(u) == pytest.approx(3.25, abs=1e-5)


def test_e_norm_homogeneous_and_triangle():
    rng = np.random.default_rng(11)
    g = make_grid(80)
    for _ in range(20):
        u = SampledFn(g, rng.standard_normal(len(g)))
        v = SampledFn(g, rng.standard_normal(len(g)))
        c = rng.uniform(-5, 5)
        assert e_norm(c * u) == pytest.approx(abs(c) * e_norm(u), rel=1e-12)
        assert e_norm(u + v) <= e_norm(u) + e_norm(v) + 1e-12


def test_csv_round_trip(tmp_path):
    g = make_grid(64)
    u = sample(lambda t: np.sin(2.3 * t) - t**2, g)
    path = tmp_path / "u.csv"
    to_csv(u, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,value"
    back = from_csv(path)
    assert back.grid.n_interior == 64
    assert np.array_equal(back.values, u.values)

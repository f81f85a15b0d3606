import numpy as np
import pytest

from beamspec.errors import OutOfDomain, TrivialFunction
from beamspec.grid import SampledFn, derivative, e_norm, make_grid, sample
from beamspec.nodal import (GENERALIZED_DOUBLE, GENERALIZED_SIMPLE, NOISE_TOL,
                            TOUCH_TOL, TRIVIAL_TOL, _quadratic_root,
                            classify_zero, find_zeros, nodal_profile)


def test_find_zeros_sin2pi():
    g = make_grid(800)
    u = sample(lambda t: np.sin(2 * np.pi * t), g)
    zeros = find_zeros(u)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(0.5, abs=1e-6)


def test_find_zeros_sin3pi():
    g = make_grid(800)
    u = sample(lambda t: np.sin(3 * np.pi * t), g)
    zeros = find_zeros(u)
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert zeros[1] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_find_zeros_eigenfunction_oracle(spectrum_one800):
    # oracle: zeros of sin(4 pi t)
    phi4 = spectrum_one800.pair(4, +1).phi
    zeros = find_zeros(phi4)
    assert len(zeros) == 3
    for z, target in zip(zeros, (0.25, 0.5, 0.75)):
        assert z == pytest.approx(target, abs=1e-4)


def test_find_zeros_excludes_endpoints():
    g = make_grid(400)
    u = sample(lambda t: np.sin(np.pi * t), g)
    assert find_zeros(u) == []


def test_find_zeros_trivial():
    g = make_grid(100)
    with pytest.raises(TrivialFunction):
        find_zeros(SampledFn(g, np.zeros(len(g))))


def test_classify_simple_crossing():
    g = make_grid(800)
    u = sample(lambda t: np.sin(2 * np.pi * t), g)
    rec = classify_zero(u, 0.5)
    assert rec.kind == GENERALIZED_SIMPLE
    assert rec.derivs[0] == pytest.approx(-2 * np.pi, rel=1e-4)


def test_classify_quartic_touch_is_double():
    g = make_grid(800)
    u = sample(lambda t: (t * (1 - t)) ** 2 * (t - 0.5) ** 4, g)
    assert classify_zero(u, 0.5).kind == GENERALIZED_DOUBLE


def test_classify_cubic_crossing_is_simple():
    # u'''(0.5) = 6 (0.5 * 0.5)^2 = 0.375 survives
    g = make_grid(800)
    u = sample(lambda t: (t * (1 - t)) ** 2 * (t - 0.5) ** 3, g)
    rec = classify_zero(u, 0.5)
    assert rec.kind == GENERALIZED_SIMPLE
    assert rec.derivs[2] == pytest.approx(0.375, rel=1e-3)


def test_classify_out_of_domain():
    g = make_grid(100)
    u = sample(lambda t: np.sin(2 * np.pi * t), g)
    with pytest.raises(OutOfDomain):
        classify_zero(u, 1.5)


def test_profile_first_eigenfunction(spectrum_one800):
    profile = nodal_profile(spectrum_one800.pair(1, +1).phi)
    assert profile.count == 0
    assert profile.sigma == +1
    assert profile.is_nodal


def test_profile_negated_sign():
    g = make_grid(400)
    u = sample(lambda t: -np.sin(2 * np.pi * t), g)
    profile = nodal_profile(u)
    assert profile.count == 1
    assert profile.sigma == -1


def test_profile_sign_changing_weight(spectrum_sin3pi800):
    # cross-check the classifier against raw sign-change counting
    for pair in spectrum_sin3pi800.positive:
        profile = nodal_profile(pair.phi)
        sgn = np.sign(pair.phi.interior)
        raw = int(np.count_nonzero(sgn[:-1] * sgn[1:] < 0))
        assert profile.count == raw == pair.k - 1


def test_profile_scaling_invariance(spectrum_sin3pi800):
    phi = spectrum_sin3pi800.pair(4, +1).phi
    base = nodal_profile(phi)
    up = nodal_profile(3.7 * phi)
    down = nodal_profile(-0.2 * phi)
    assert (up.count, up.sigma) == (base.count, base.sigma)
    assert (down.count, down.sigma) == (base.count, -base.sigma)
    assert [z.kind for z in up.zeros] == [z.kind for z in base.zeros]


def test_profile_counts_touch_double_with_crossing():
    # an off-node quartic contact plus an ordinary crossing: the contact
    # is located via the root of the third-derivative field and counted
    # as a generalized double
    g = make_grid(1000)
    u = sample(lambda t: (t * (1 - t)) ** 2 * (t - 0.3) ** 4 * (t - 0.7), g)
    profile = nodal_profile(u)
    assert profile.count == 2
    kinds = {round(z.t_star, 3): z.kind for z in profile.zeros}
    assert kinds[0.3] == GENERALIZED_DOUBLE
    assert kinds[0.7] == GENERALIZED_SIMPLE
    assert not profile.is_nodal
    assert not profile.anomalies


def test_profile_json():
    g = make_grid(400)
    u = sample(lambda t: np.sin(2 * np.pi * t), g)
    blob = nodal_profile(u).to_json()
    assert blob["count"] == 1
    assert blob["sigma"] == "+"
    assert blob["zeros"][0]["kind"] == GENERALIZED_SIMPLE


def _find_zeros_loop(u):
    # reference implementation, one scalar test per node; the library's
    # whole-grid masks must return the same list, bit for bit
    if e_norm(u).value <= TRIVIAL_TOL:
        raise TrivialFunction("zero search needs a nontrivial function")
    v = u.values
    t = u.grid.nodes
    vmax = np.max(np.abs(v))
    zeros = []

    # sign changes between interior node pairs
    for j in range(1, len(v) - 2):
        if max(abs(v[j]), abs(v[j + 1])) < NOISE_TOL * vmax:
            continue
        if v[j] * v[j + 1] < 0.0:
            root = None
            if abs(v[j]) <= abs(v[j + 1]):
                root = _quadratic_root(t[j - 1:j + 2], v[j - 1:j + 2], t[j], t[j + 1])
            elif j + 2 < len(v):
                root = _quadratic_root(t[j:j + 3], v[j:j + 3], t[j], t[j + 1])
            if root is None:
                root = t[j] - v[j] * (t[j + 1] - t[j]) / (v[j + 1] - v[j])
            zeros.append(root)

    # near-zero nodes: crossings that hit a node, and touch candidates;
    # both need flanking samples above the float-noise floor, otherwise
    # the "zero" is structure the data cannot support
    crossings_at_nodes = []
    touch_nodes = []
    for j in range(1, len(v) - 1):
        if (abs(v[j]) < TOUCH_TOL * vmax
                and max(abs(v[j - 1]), abs(v[j + 1])) >= NOISE_TOL * vmax):
            if v[j - 1] * v[j + 1] < 0.0:
                crossings_at_nodes.append(t[j])
            elif v[j - 1] * v[j + 1] > 0.0:
                touch_nodes.append(j)
    zeros.extend(crossings_at_nodes)

    # a flat contact can put several consecutive nodes under the touch
    # threshold: one zero per cluster.  At a genuine double contact the
    # third derivative crosses zero there and locates the contact far
    # more sharply than the flat |u| samples do; otherwise fall back to
    # the vertex of the parabola through the smallest sample.
    d3 = None
    cluster = []
    for j in touch_nodes + [None]:
        if cluster and (j is None or j - cluster[-1] > 2):
            jm = min(cluster, key=lambda i: abs(v[i]))
            if d3 is None:
                d3 = derivative(u, 3).values
            root = None
            for i in range(max(1, jm - 2), min(len(v) - 2, jm + 2) + 1):
                if d3[i] * d3[i + 1] < 0.0:
                    root = t[i] - d3[i] * u.grid.h / (d3[i + 1] - d3[i])
                    break
            if root is None:
                denom = v[jm - 1] - 2.0 * v[jm] + v[jm + 1]
                shift = (0.5 * (v[jm - 1] - v[jm + 1]) / denom * u.grid.h
                         if denom != 0.0 else 0.0)
                root = t[jm] + float(np.clip(shift, -u.grid.h, u.grid.h))
            zeros.append(root)
            cluster = []
        if j is not None:
            cluster.append(j)

    zeros.sort()
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 0.5 * u.grid.h:
            merged.append(z)
    return merged


def test_find_zeros_matches_loop_on_eigenfunctions(spectrum_one800, spectrum_sin3pi800):
    for res in (spectrum_one800, spectrum_sin3pi800):
        for pair in res.positive + res.negative:
            assert find_zeros(pair.phi) == _find_zeros_loop(pair.phi)


def test_shared_fields_give_e_norm_bit_for_bit(spectrum_sin3pi800):
    # a profile takes u', u'' and u''' once; the scale summed from them
    # must equal the e_norm value exactly, or the thresholds would move
    from beamspec.nodal import _derivative_fields, _scale
    for pair in spectrum_sin3pi800.positive + spectrum_sin3pi800.negative:
        assert _scale(pair.phi, _derivative_fields(pair.phi)) == e_norm(pair.phi).value


def test_find_zeros_matches_loop_on_node_crossing():
    # t = 1/2 is node 400 of n = 799: the crossing lands on a node and the
    # node candidate is deduplicated against the refined root
    g = make_grid(799)
    u = sample(lambda t: np.sin(2 * np.pi * t), g)
    assert abs(u.values[400]) < TOUCH_TOL
    zeros = find_zeros(u)
    assert zeros == _find_zeros_loop(u)
    assert len(zeros) == 1


def test_find_zeros_matches_loop_refined_from_either_side():
    # on n = 799 the root 1/3 sits nearer its right sample and 2/3 nearer
    # its left one, so both quadratic stencils are used
    g = make_grid(799)
    u = sample(lambda t: np.sin(3 * np.pi * t), g)
    zeros = find_zeros(u)
    assert zeros == _find_zeros_loop(u)
    nearer_left = []
    for z in zeros:
        j = int(z / g.h)
        nearer_left.append(abs(u.values[j]) <= abs(u.values[j + 1]))
    assert nearer_left == [False, True]


def test_find_zeros_matches_loop_on_touch_and_crossing():
    g = make_grid(1000)
    u = sample(lambda t: (t * (1 - t)) ** 2 * (t - 0.3) ** 4 * (t - 0.7), g)
    zeros = find_zeros(u)
    assert zeros == _find_zeros_loop(u)
    assert len(zeros) == 2


def test_find_zeros_ignores_sign_flips_below_noise():
    # a hump ending at t = 0.6, then a tail that flips sign at every node
    # a hundred times below the NOISE_TOL floor
    g = make_grid(399)
    t = g.nodes
    v = np.where(t <= 0.6, np.sin(np.pi * t / 0.6), 0.0)
    v[t > 0.6] = 1e-14 * (-1.0) ** np.arange(np.count_nonzero(t > 0.6))
    v[-1] = 0.0
    u = SampledFn(g, v)
    tail = v[t > 0.6]
    assert np.count_nonzero(tail[:-1] * tail[1:] < 0.0) > 100
    assert np.max(np.abs(tail)) < NOISE_TOL * np.max(np.abs(u.values))
    zeros = find_zeros(u)
    assert zeros == _find_zeros_loop(u)
    assert all(z <= 0.6 + g.h for z in zeros)

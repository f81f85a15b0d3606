"""Zero detection and classification for sampled functions.

An interior zero t* of a nontrivial solution is a generalized double zero
when u, u', u'' and u''' all vanish there (for solutions of the beam
equation this forces u = 0 identically, so a nontrivial solution never
carries one); any other zero is generalized simple.  A function whose
zeros are all simple is a nodal function; together with the sign just
right of t = 0 this decides membership in the sign classes used by the
branch tracer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomain, TrivialFunction
from .grid import derivative

GENERALIZED_SIMPLE = "generalized_simple"
GENERALIZED_DOUBLE = "generalized_double"

# e_norm-relative threshold under which all three derivatives count as zero.
# Well above the O(h^2) discretization noise at n = 2000 (about 2.5e-7),
# well below genuine nonzero derivatives of resolved solutions.
DOUBLE_TOL = 1e-6

# |u| below this fraction of max|u| marks a grid node as a zero candidate.
TOUCH_TOL = 1e-9

# sign changes whose flanking samples both sit below this fraction of
# max|u| are float noise, not zeros
NOISE_TOL = 1e-12

# local veto for the double classification: at a genuine high-order contact
# the derivative estimates over a small window are truncation-limited to
# about (h/window)^2 <= 1/16 of the window maximum, while a zero of a
# locally full-sized function keeps them at order one
LOCAL_VETO = 0.25

# a touch candidate whose whole neighbourhood sits below this fraction of
# max|u| is structure the sampling cannot classify at all
RESOLVED_TOL = 1e-8

TRIVIAL_TOL = 1e-12


@dataclass(frozen=True)
class ZeroRecord:
    t_star: float
    kind: str
    derivs: tuple  # (u', u'', u''') estimates at t_star


@dataclass(frozen=True)
class NodalProfile:
    count: int
    sigma: int  # sign of u just right of t = 0
    zeros: tuple
    is_nodal: bool
    anomalies: tuple = field(default=())

    def to_json(self):
        return {
            "count": self.count,
            "sigma": "+" if self.sigma > 0 else "-",
            "zeros": [{"t": z.t_star, "kind": z.kind} for z in self.zeros],
        }


def _interp_linear(grid, values, t):
    h = grid.h
    j = min(int(t / h), grid.n_interior)
    frac = (t - grid.nodes[j]) / h
    return (1.0 - frac) * values[j] + frac * values[j + 1]


def _quadratic_root(ts, vs, lo, hi):
    """Root of the interpolating parabola through three points, inside [lo, hi]."""
    c = np.polyfit(ts - ts[1], vs, 2)
    roots = np.roots(c) + ts[1]
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and lo <= r.real <= hi]
    if real:
        return min(real, key=lambda r: abs(r - 0.5 * (lo + hi)))
    return None


def _derivative_fields(u):
    return tuple(derivative(u, k) for k in (1, 2, 3))


def _scale(u, fields):
    """e_norm(u).value from precomputed derivative fields, summed in e_norm's order."""
    return sum(float(np.max(np.abs(f.values))) for f in (u,) + fields)


def find_zeros(u, _fields=None):
    """Locations of interior zeros of u.

    Whole-grid masks pick the candidates, and only candidates get scalar
    work: each sign change of consecutive interior samples is refined by
    local quadratic interpolation, and each near-zero node (|u| below
    TOUCH_TOL * max|u|, a flank above NOISE_TOL * max|u|) is a crossing
    that hit the node or, between same-sign neighbours, a touch-zero.
    Endpoint zeros are excluded (zeros are counted in the open interval).
    Returns sorted locations, deduplicated to half a grid spacing.
    """
    if _fields is None:
        _fields = _derivative_fields(u)
    if _scale(u, _fields) <= TRIVIAL_TOL:
        raise TrivialFunction("zero search needs a nontrivial function")
    v = u.values
    t = u.grid.nodes
    h = u.grid.h
    av = np.abs(v)
    vmax = np.max(av)
    zeros = []

    # sign changes between interior node pairs (j, j + 1), j = 1 .. n - 1
    pairs = ((np.maximum(av[1:-2], av[2:-1]) >= NOISE_TOL * vmax)
             & (v[1:-2] * v[2:-1] < 0.0))
    for j in (np.flatnonzero(pairs) + 1).tolist():
        if abs(v[j]) <= abs(v[j + 1]):
            root = _quadratic_root(t[j - 1:j + 2], v[j - 1:j + 2], t[j], t[j + 1])
        else:
            root = _quadratic_root(t[j:j + 3], v[j:j + 3], t[j], t[j + 1])
        if root is None:
            root = t[j] - v[j] * (t[j + 1] - t[j]) / (v[j + 1] - v[j])
        zeros.append(root)

    # near-zero nodes: crossings that hit a node, and touch candidates;
    # both need flanking samples above the float-noise floor, otherwise
    # the "zero" is structure the data cannot support
    near = ((av[1:-1] < TOUCH_TOL * vmax)
            & (np.maximum(av[:-2], av[2:]) >= NOISE_TOL * vmax))
    flanks = v[:-2] * v[2:]
    zeros.extend(t[np.flatnonzero(near & (flanks < 0.0)) + 1])
    touch_nodes = (np.flatnonzero(near & (flanks > 0.0)) + 1).tolist()

    # a flat contact can put several consecutive nodes under the touch
    # threshold: one zero per cluster.  At a genuine double contact the
    # third derivative crosses zero there and locates the contact far
    # more sharply than the flat |u| samples do; otherwise fall back to
    # the vertex of the parabola through the smallest sample.
    d3 = _fields[2].values
    cluster = []
    for j in touch_nodes + [None]:
        if cluster and (j is None or j - cluster[-1] > 2):
            jm = min(cluster, key=lambda i: abs(v[i]))
            root = None
            for i in range(max(1, jm - 2), min(len(v) - 2, jm + 2) + 1):
                if d3[i] * d3[i + 1] < 0.0:
                    root = t[i] - d3[i] * h / (d3[i + 1] - d3[i])
                    break
            if root is None:
                denom = v[jm - 1] - 2.0 * v[jm] + v[jm + 1]
                shift = 0.5 * (v[jm - 1] - v[jm + 1]) / denom * h if denom != 0.0 else 0.0
                root = t[jm] + float(np.clip(shift, -h, h))
            zeros.append(root)
            cluster = []
        if j is not None:
            cluster.append(j)

    zeros.sort()
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 0.5 * h:
            merged.append(z)
    return merged


def classify_zero(u, t_star, _fields=None):
    """ZeroRecord for the zero of u at t_star.

    Derivative estimates come from the second-order stencils interpolated
    to t_star.  The zero is generalized double when the estimates vanish
    on two scales at once: below DOUBLE_TOL times the full norm of u
    (interval length 1, so the length scalings drop out), and below
    LOCAL_VETO times the same derivative's own magnitude on a small
    window around t_star.  The local veto keeps zeros inside
    exponentially small tails of localized eigenfunctions classified as
    simple: their derivatives are tiny against the global norm but of
    full size against the local one, while at a true double zero every
    derivative estimate is truncation-limited on both scales.
    """
    if not (0.0 < t_star < 1.0):
        raise OutOfDomain(f"t_star={t_star} is not in (0, 1)")
    if _fields is None:
        _fields = _derivative_fields(u)
    d1, d2, d3 = (_interp_linear(u.grid, f.values, t_star) for f in _fields)
    globally_small = max(abs(d1), abs(d2), abs(d3)) < DOUBLE_TOL * _scale(u, _fields)

    half = max(4 * u.grid.h, 0.01)
    lo = max(0, int(np.floor((t_star - half) / u.grid.h)))
    hi = min(len(u.values), int(np.ceil((t_star + half) / u.grid.h)) + 1)
    locally_small = all(
        abs(d) < LOCAL_VETO * max(np.max(np.abs(f.values[lo:hi])), 1e-300)
        for d, f in zip((d1, d2, d3), _fields))

    kind = (GENERALIZED_DOUBLE if globally_small and locally_small
            else GENERALIZED_SIMPLE)
    return ZeroRecord(t_star=float(t_star), kind=kind, derivs=(d1, d2, d3))


def nodal_profile(u):
    """Zero count, per-zero classification, and sign near t = 0.

    Touch-zeros (no sign change) count as zeros only when classified
    double; a simple touch-zero is recorded as an anomaly instead, since a
    nontrivial solution of the beam equation cannot have one.
    """
    fields = _derivative_fields(u)
    if _scale(u, fields) <= TRIVIAL_TOL:
        raise TrivialFunction("nodal profile needs a nontrivial function")
    v = u.values
    vmax = np.max(np.abs(v))

    records = []
    anomalies = []
    h = u.grid.h
    for z in find_zeros(u, _fields=fields):
        j = int(round(z / h))
        is_touch = (0 < j < len(v) - 1
                    and abs(v[j]) < TOUCH_TOL * vmax
                    and v[j - 1] * v[j + 1] > 0.0)
        if is_touch:
            lo = max(0, int(np.floor((z - max(4 * h, 0.01)) / h)))
            hi = min(len(v), int(np.ceil((z + max(4 * h, 0.01)) / h)) + 1)
            if np.max(np.abs(v[lo:hi])) < RESOLVED_TOL * vmax:
                anomalies.append(f"unresolved near-zero region at t={z:.6g}")
                continue
        rec = classify_zero(u, z, _fields=fields)
        if is_touch and rec.kind == GENERALIZED_SIMPLE:
            anomalies.append(f"simple touch-zero at t={z:.6g}")
            continue
        records.append(rec)

    signed = v[1:-1][np.abs(v[1:-1]) > 1e-13 * vmax]
    sigma = 0 if signed.size == 0 else (1 if signed[0] > 0 else -1)
    return NodalProfile(
        count=len(records),
        sigma=sigma,
        zeros=tuple(records),
        is_nodal=all(r.kind == GENERALIZED_SIMPLE for r in records),
        anomalies=tuple(anomalies),
    )

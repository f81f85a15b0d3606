"""Zero detection and classification for sampled functions.

An interior zero t* of a nontrivial solution is a generalized double zero
when u, u', u'' and u''' all vanish there (for solutions of the beam
equation this forces u = 0 identically, so a nontrivial solution never
carries one); any other zero is generalized simple.  A function whose
zeros are all simple is a nodal function.  The nodal class S_k^sigma
holds the functions with exactly k - 1 interior zeros, all simple, and
sign sigma just right of t = 0; NodalProfile.class_defect is the one test
of membership and names the condition a non-member fails, for the pencil,
the branch tracer and the battery alike (in_class is its yes/no form).

Each zero's kind, crossing or touch, is decided once: by the zero scan
behind find_zeros, where it finds the candidate.  Candidates within half
a grid spacing merge into one zero at the first location, a touch when
any of them is one; nodal_profile reads the kinds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, TrivialFunction
from .grid import derivative_fields, e_norm_of_fields

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
    anomalies: tuple
    norm: float  # e_norm of the profiled function, from the profile's fields

    def class_defect(self, k, sigma=None):
        """The first condition of S_k^sigma the profile fails, as a
        predicate for a message ("has ..."), or None for a member."""
        if not self.is_nodal:
            return "carries a generalized double zero"
        if self.anomalies:
            return f"has {self.anomalies[0]}"
        if self.count != k - 1:
            return f"has {self.count} interior zeros instead of {k - 1}"
        if sigma is not None and self.sigma != sigma:
            return f"has sign {self.sigma:+d} right of t = 0 instead of {sigma:+d}"

    def in_class(self, k, sigma=None):
        """Membership in S_k^sigma: k - 1 zeros, all simple, no anomaly,
        and, when sigma is given, that sign just right of t = 0."""
        return self.class_defect(k, sigma) is None


def _interp_linear(grid, values, t):
    h = grid.h
    j = min(int(t / h), grid.n_interior)
    frac = (t - grid.nodes[j]) / h
    return (1.0 - frac) * values[j] + frac * values[j + 1]


def _local_window(grid, t):
    """Node slice about t of half-width max(4 h, 0.01), clipped to the grid."""
    half = max(4 * grid.h, 0.01)
    return slice(max(0, int(np.floor((t - half) / grid.h))),
                 min(len(grid), int(np.ceil((t + half) / grid.h)) + 1))


def _scan(u, fields, norm):
    """Interior zeros of u as sorted (t, touch) pairs; see find_zeros.
    fields are u's derivative_fields and norm its E-norm."""
    if norm <= TRIVIAL_TOL:
        raise TrivialFunction("zero search needs a nontrivial function")
    v = u.values
    t = u.grid.nodes
    h = u.grid.h
    av = np.abs(v)
    vmax = np.max(av)

    # sign changes between interior node pairs (j, j + 1), j = 1 .. n - 1,
    # each located by the secant of its two samples
    pairs = ((np.maximum(av[1:-2], av[2:-1]) >= NOISE_TOL * vmax)
             & (v[1:-2] * v[2:-1] < 0.0))
    j = np.flatnonzero(pairs) + 1
    roots = t[j] - v[j] * (t[j + 1] - t[j]) / (v[j + 1] - v[j])
    zeros = [(z, False) for z in roots.tolist()]

    # near-zero nodes: crossings that hit a node, and touch candidates;
    # both need flanking samples above the float-noise floor, otherwise
    # the "zero" is structure the data cannot support
    near = ((av[1:-1] < TOUCH_TOL * vmax)
            & (np.maximum(av[:-2], av[2:]) >= NOISE_TOL * vmax))
    flanks = v[:-2] * v[2:]
    zeros.extend((z, False) for z in t[np.flatnonzero(near & (flanks < 0.0)) + 1])
    touch_nodes = (np.flatnonzero(near & (flanks > 0.0)) + 1).tolist()

    # a flat contact can put several consecutive nodes under the touch
    # threshold: one zero per cluster.  At a genuine double contact the
    # third derivative crosses zero there and locates the contact far
    # more sharply than the flat |u| samples do; otherwise fall back to
    # the vertex of the parabola through the smallest sample.
    d3 = fields[2].values
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
            zeros.append((root, True))
            cluster = []
        if j is not None:
            cluster.append(j)

    merged = []
    for z, touch in sorted(zeros, key=lambda zero: zero[0]):
        if merged and z - merged[-1][0] <= 0.5 * h:
            merged[-1] = (merged[-1][0], merged[-1][1] or touch)
        else:
            merged.append((z, touch))
    return merged


def find_zeros(u):
    """Locations of interior zeros of u.

    Whole-grid masks pick the candidates, and only candidates get scalar
    work: each sign change of consecutive interior samples is located by
    the secant of its two samples, and each near-zero node (|u| below
    TOUCH_TOL * max|u|, a flank above NOISE_TOL * max|u|) is a crossing
    that hit the node or, between same-sign neighbours, a touch-zero;
    that is where each zero's kind is decided.  Endpoint zeros are
    excluded (zeros are counted in the open interval).  Returns sorted
    locations, deduplicated to half a grid spacing: merged candidates keep
    the first location and make a touch when any of them is one.
    """
    fields = derivative_fields(u)
    return [z for z, _ in _scan(u, fields, e_norm_of_fields(u, fields))]


def classify_zero(u, t_star):
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
    fields = derivative_fields(u)
    return _classify(u, t_star, fields, e_norm_of_fields(u, fields))


def _classify(u, t_star, fields, norm):
    """classify_zero on the derivative fields and the E-norm of u."""
    if not (0.0 < t_star < 1.0):
        raise OutOfDomain(f"t_star={t_star} is not in (0, 1)")
    d1, d2, d3 = (_interp_linear(u.grid, f.values, t_star) for f in fields)
    globally_small = max(abs(d1), abs(d2), abs(d3)) < DOUBLE_TOL * norm

    window = _local_window(u.grid, t_star)
    locally_small = all(
        abs(d) < LOCAL_VETO * max(np.max(np.abs(f.values[window])), 1e-300)
        for d, f in zip((d1, d2, d3), fields))

    kind = (GENERALIZED_DOUBLE if globally_small and locally_small
            else GENERALIZED_SIMPLE)
    return ZeroRecord(t_star=float(t_star), kind=kind, derivs=(d1, d2, d3))


def nodal_profile(u):
    """Zero count, per-zero classification, and sign near t = 0.

    Zeros and their kinds, crossing or touch, come from the zero scan.
    A touch counts as a zero only when classified double; a simple
    touch-zero is recorded as an anomaly instead, since a nontrivial
    solution of the beam equation cannot have one.  u is derived once,
    for the triviality check, the scan, every classification and the
    recorded norm.
    """
    fields = derivative_fields(u)
    norm = e_norm_of_fields(u, fields)
    v = u.values
    vmax = np.max(np.abs(v))

    records = []
    anomalies = []
    for z, touch in _scan(u, fields, norm):
        if touch and np.max(np.abs(v[_local_window(u.grid, z)])) < RESOLVED_TOL * vmax:
            anomalies.append(f"unresolved near-zero region at t={z:.6g}")
            continue
        rec = _classify(u, z, fields, norm)
        if touch and rec.kind == GENERALIZED_SIMPLE:
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
        norm=norm,
    )

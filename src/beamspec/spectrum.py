"""Eigenvalue sequences of u'''' = mu m(t) u with sign-changing weight.

With the simply supported boundary conditions the problem has a positive
sequence of eigenvalues whenever m is positive somewhere and a negative
sequence whenever it is negative somewhere.  Each computed eigenpair
carries two indices:

  * rank - position in magnitude order within its sign class;
  * k    - nodal index: its eigenfunction has exactly k - 1 interior
           zeros, all generalized simple.

For single-signed or single-lobe weights the two orders coincide.  For
weights whose positive (or negative) part splits into several lobes they
need not: the two lobes support near-independent modes whose symmetric
and antisymmetric combinations interleave in magnitude (for
m = sin(3 pi t) the two smallest positive eigenvalues have 1 and 0 zeros
in that order), and some nodal classes contain no eigenfunction at all
(for m = 1 - 2t no leading positive eigenfunction has exactly one zero).
Both facts are confirmed by the independent shooting oracle; the result
flags record any permutation or gaps.  Nodal indices within one sign
class must be distinct; a duplicate means the grid cannot resolve the
zeros and raises NodalMismatch.

The discrete pencil K u = mu M u is reduced through the tridiagonal
square-root factor A of K = A o A:

    G = A^-1 M A^-1,   G y = nu y,   mu = 1/nu,   u = A^-1 y.

G is symmetric, formed by two banded solve passes, and diagonalized with
a dense symmetric eigensolver.  Reducing through A rather than through a
triangular Cholesky factor of K keeps the backward error at eps*cond(A)
instead of eps*cond(K) = eps*cond(A)^2, which at n = 2000 is the
difference between 1e-10 and 1e-4 of relative eigenvalue noise.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import NodalMismatch, NotInWeightClass, ValidationError
from .grid import SampledFn, e_norm, from_interior, make_grid, sample
from .linops import SecondDiffOperator
from .nodal import nodal_profile
from .shooting import shoot_eigenvalue as _shoot

MAX_PAIRS = 12

# |nu| below this fraction of max|nu| is a null direction of G caused by
# nodes where m = 0, not a pencil eigenvalue ("mu = infinity" artifact).
NULL_TOL = 1e-10

# adjacent eigenvalues closer than this relative gap get a near-degeneracy flag
SEPARATION_TOL = 1e-6


@dataclass(frozen=True)
class EigenPair:
    k: int        # nodal index: phi has k - 1 interior zeros
    nu: int       # sign class, +1 or -1
    mu: float
    phi: SampledFn
    rank: int = 0  # magnitude order within the sign class, 1-based


@dataclass(frozen=True)
class SpectrumResult:
    positive: tuple   # EigenPairs, ascending mu
    negative: tuple   # EigenPairs, descending mu (ascending |mu|)
    weight: SampledFn
    flags: tuple = field(default=())

    @property
    def grid(self):
        return self.weight.grid

    def eigenvalues(self):
        """All computed eigenvalues, useful for magnitude counting."""
        return [p.mu for p in self.positive] + [p.mu for p in self.negative]

    def pair(self, k, nu):
        """Look up the eigenpair of nodal index k in the sign class nu."""
        seq = self.positive if nu > 0 else self.negative
        for p in seq:
            if p.k == k:
                return p
        raise NotInWeightClass(
            f"no computed eigenfunction with {k - 1} zeros in the "
            f"{'positive' if nu > 0 else 'negative'} class "
            f"(present nodal indices: {[p.k for p in seq]})")

    def to_json(self, weight_id="custom", phi_refs=None):
        def side(pairs):
            out = []
            for p in pairs:
                row = {"k": p.k, "rank": p.rank, "mu": p.mu}
                if phi_refs is not None:
                    row["phi_csv_ref"] = phi_refs[(p.k, p.nu)]
                out.append(row)
            return out
        return {
            "weight_id": weight_id,
            "n": self.grid.n_interior,
            "positive": side(self.positive),
            "negative": side(self.negative),
            "flags": list(self.flags),
        }


def _normalize(u_int, grid):
    """E-norm 1 and positive immediately right of t = 0."""
    phi = from_interior(grid, u_int)
    phi = SampledFn(grid, phi.values / e_norm(phi).value)
    vmax = np.max(np.abs(phi.values))
    for v in phi.interior:
        if abs(v) > 1e-13 * vmax:
            if v < 0:
                phi = -phi
            break
    return phi


def eigen_pencil(m, count_pos, count_neg):
    """Leading eigenpairs of both signs for the weight m, by magnitude.

    Each eigenfunction is normalized (E-norm 1, positive near t = 0) and
    classified; its nodal index k = zero count + 1 is recorded on the
    pair.  Distinct pairs of one sign claiming the same nodal index raise
    NodalMismatch (the grid cannot separate their zeros).
    """
    if not (0 <= count_pos <= MAX_PAIRS and 0 <= count_neg <= MAX_PAIRS):
        raise ValidationError(f"pair counts must lie in 0..{MAX_PAIRS}")
    mv = m.interior
    if count_pos > 0 and not np.any(mv > 0.0):
        raise NotInWeightClass("positive spectrum requested but the weight is nowhere positive")
    flags = []
    if count_neg > 0 and not np.any(mv < 0.0):
        flags.append("NoNegativeSpectrum")
        count_neg = 0

    grid = m.grid
    a = SecondDiffOperator(grid)
    g = a.solve(a.solve(np.diag(mv)).T)
    g = 0.5 * (g + g.T)
    vals, vecs = eigh(g)

    tau = NULL_TOL * np.max(np.abs(vals))
    pos_idx = np.argsort(-vals)[: np.count_nonzero(vals > tau)]
    neg_idx = np.argsort(vals)[: np.count_nonzero(vals < -tau)]

    def build(indices, count, sign):
        pairs = []
        seen = {}
        for rank in range(min(count, len(indices))):
            i = indices[rank]
            mu = 1.0 / vals[i]
            phi = _normalize(a.solve(vecs[:, i]), grid)
            profile = nodal_profile(phi)
            if not profile.is_nodal or profile.anomalies:
                reason = ("carries a generalized double zero"
                          if not profile.is_nodal
                          else f"has {profile.anomalies[0]}")
                raise NodalMismatch(
                    f"eigenfunction at mu={mu:.6g} {reason}; "
                    f"grid n={grid.n_interior} too coarse")
            k = profile.count + 1
            if k in seen:
                raise NodalMismatch(
                    f"eigenfunctions at mu={seen[k]:.6g} and mu={mu:.6g} both "
                    f"show {k - 1} zeros; grid n={grid.n_interior} too coarse")
            seen[k] = mu
            pairs.append(EigenPair(k=k, nu=sign, mu=mu, phi=phi, rank=rank + 1))
        return tuple(pairs)

    positive = build(pos_idx, count_pos, +1)
    negative = build(neg_idx, count_neg, -1)

    for side_name, seq in (("positive", positive), ("negative", negative)):
        ks = [p.k for p in seq]
        if any(p.k != p.rank for p in seq):
            flags.append(f"NodalOrderPermuted:{side_name}")
        if ks and sorted(ks) != list(range(1, len(ks) + 1)):
            flags.append(f"NodalIndexGaps:{side_name}")
        for p, q in zip(seq, seq[1:]):
            if abs(p.mu - q.mu) <= SEPARATION_TOL * abs(p.mu):
                flags.append(f"NearDegenerate:rank={p.rank},nu={p.nu:+d}")
    if count_pos > 0 and len(positive) < count_pos:
        flags.append("PositiveSequenceTruncated")
    if count_neg > 0 and len(negative) < count_neg:
        flags.append("NegativeSequenceTruncated")
    return SpectrumResult(positive=positive, negative=negative, weight=m,
                          flags=tuple(flags))


def eigen_shoot(m, mu_bracket):
    """Eigenvalue inside the bracket by the independent RK4 shooting oracle."""
    return _shoot(m, mu_bracket)


def widest_resolvable_window(m, cap=MAX_PAIRS):
    """Largest per-side windows whose zero structure the grid can certify.

    High-rank eigenfunctions of strongly localized classes push their
    zero amplitudes below the float floor; this walks each side down from
    cap until eigen_pencil accepts, and merges the two sides.
    """
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
                          weight=m, flags=tuple(set(pos.flags + neg.flags)))


def eigen_pencil_extrapolated(weight_fn, grid, count_pos, count_neg, fine=None):
    """Pencil eigenvalues with the leading O(h^2) error removed.

    Runs the pencil on the given grid (or reuses a supplied fine result)
    and on a grid of roughly half the resolution, then combines matching
    eigenvalues (paired by sign and magnitude rank) with the two-grid
    Richardson formula.  The weight must be a callable so it can be
    sampled on both grids.  Returns (fine SpectrumResult, extrapolated
    positive mus, extrapolated negative mus), the mu lists in magnitude
    order.
    """
    if fine is None:
        fine = eigen_pencil(sample(weight_fn, grid), count_pos, count_neg)
    coarse_grid = make_grid(grid.n_interior // 2)
    coarse = eigen_pencil(sample(weight_fn, coarse_grid),
                          len(fine.positive), len(fine.negative))
    h1, h2 = coarse_grid.h, grid.h
    wt = 1.0 / (h1**2 - h2**2)

    def combine(fine_pairs, coarse_pairs):
        return [wt * (h1**2 * f.mu - h2**2 * c.mu)
                for f, c in zip(fine_pairs, coarse_pairs)]

    return fine, combine(fine.positive, coarse.positive), \
        combine(fine.negative, coarse.negative)


def order_by_nodal(result):
    """Recheck the zero-count law on every pair of a SpectrumResult.

    The eigenfunction of the pair labelled k must have exactly k - 1
    interior zeros, all generalized simple.  Returns a report dict
    listing any violations instead of raising.
    """
    rows = []
    violations = []
    for pairs in (result.positive, result.negative):
        for p in pairs:
            profile = nodal_profile(p.phi)
            ok = profile.count == p.k - 1 and profile.is_nodal
            rows.append({"k": p.k, "rank": p.rank, "nu": "+" if p.nu > 0 else "-",
                         "mu": p.mu, "zeros": profile.count,
                         "all_simple": profile.is_nodal, "ok": ok})
            if not ok:
                violations.append(rows[-1])
    return {"rows": rows, "violations": violations, "ok": not violations}

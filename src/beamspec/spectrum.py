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
class must be distinct; a duplicate, like a non-nodal profile, means the
grid cannot resolve the zeros.  eigen_pencil then raises NodalMismatch;
widest_resolvable_window cuts that side before the pair, from the same
single decomposition, and lists the positive side's flags first.

The discrete pencil K u = mu M u is reduced through the tridiagonal
square-root factor A of K = A o A:

    G = A^-1 M A^-1,   G y = nu y,   mu = 1/nu,   u = A^-1 y.

G is symmetric, formed by two solve passes on the grid's one LDL^T
factor of A (dpttrf/dpttrs), and diagonalized with a dense symmetric
eigensolver.  Reducing through A rather than through a triangular
Cholesky factor of K keeps the backward error at eps*cond(A) instead of
eps*cond(K) = eps*cond(A)^2, which at n = 2000 is the difference
between 1e-10 and 1e-4 of relative eigenvalue noise.

Only _decompose sees G.  Per side it hands over at most the requested
count of eigenvalues mu, in ascending |mu|, and on request their
eigenvectors u as interior columns; a banded or iterative replacement
of the dense G need honour only that contract, not find all n pairs.
Before classification, each group of eigenvalues closer than
SEPARATION_TOL gets a Rayleigh-Ritz step in the K inner product
(Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 11), so rounding
does not pick the vectors, and so the labels, inside the group.
"""

import ctypes
from dataclasses import dataclass

import numpy as np

from ._lapack import eigh
from .errors import NodalMismatch, NotInWeightClass, ValidationError
from .grid import SampledFn, from_interior, make_grid, sample
from .linops import SecondDiffOperator
from .nodal import RESOLVED_TOL, UNRESOLVED, nodal_profile

MAX_PAIRS = 12

# |nu| below this fraction of max|nu| is a null direction of G caused by
# nodes where m = 0, not a pencil eigenvalue ("mu = infinity" artifact).
NULL_TOL = 1e-10

# adjacent eigenvalues closer than this relative gap get a near-degeneracy flag
SEPARATION_TOL = 1e-6

# numpy asks for transparent huge pages on arrays of this size and more
_HUGE_ARRAY_BYTES = 1 << 22
# free heap kept for reuse; a shoot of the oracle at 10 000 steps peaks at
# 2.6 MB of traced arrays cold (1.4 MB of them the cached steps), 0.7 MB warm
_HEAP_KEEP_BYTES = 1 << 25
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _glibc_heap():
    """Fix glibc's allocation thresholds; return its malloc_trim.

    The dense n x n arrays of the pencil are 32 MB each at n = 2000.
    glibc's adaptive threshold moves such arrays onto the heap after the
    first one is freed, and freed heap memory stays mapped; the kernel's
    background huge-page collapse then refills it at times of its own, so
    the peak memory of one process differed by 30 MB from the next.  A
    fixed threshold at numpy's huge-page size keeps those arrays out of
    the heap, each returned to the system when it is freed.  The heap
    keeps up to _HEAP_KEEP_BYTES of freed smaller arrays for reuse (at 8
    MB a shoot took about 1.6 times as long); _decompose hands that back
    through malloc_trim before it allocates.  Off glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: None
    mallopt(_M_MMAP_THRESHOLD, _HUGE_ARRAY_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES)
    return malloc_trim


_malloc_trim = _glibc_heap()


@dataclass(frozen=True)
class EigenPair:
    k: int        # nodal index: phi has k - 1 interior zeros
    nu: int       # sign class, +1 or -1
    mu: float
    phi: SampledFn
    rank: int     # magnitude order within the sign class, 1-based


@dataclass(frozen=True)
class SpectrumResult:
    positive: tuple   # EigenPairs, ascending mu
    negative: tuple   # EigenPairs, descending mu (ascending |mu|)
    weight: SampledFn
    flags: tuple
    # every eigenvalue the decomposition returned, certified or not, in
    # ascending |mu|; each side's pairs hold a prefix of them
    positive_mus: tuple
    negative_mus: tuple

    @property
    def grid(self):
        return self.weight.grid

    def pair(self, k, nu):
        """Look up the eigenpair of nodal index k in the sign class nu."""
        seq, mus = ((self.positive, self.positive_mus) if nu > 0
                    else (self.negative, self.negative_mus))
        for p in seq:
            if p.k == k:
                return p
        name = "positive" if nu > 0 else "negative"
        if mus and not seq:
            raise NotInWeightClass(
                f"no certified eigenfunction in the {name} class: the decomposition "
                f"found {len(mus)} eigenvalues there, from mu={mus[0]:.6g}, but the "
                f"window was cut before the first of them")
        raise NotInWeightClass(
            f"no computed eigenfunction with {k - 1} zeros in the {name} class "
            f"(present nodal indices: {[p.k for p in seq]})")

    def to_json(self, weight_id, phi_refs):
        def side(pairs):
            return [{"k": p.k, "rank": p.rank, "mu": p.mu,
                     "phi_csv_ref": phi_refs[(p.k, p.nu)]} for p in pairs]
        return {
            "weight_id": weight_id,
            "n": self.grid.n_interior,
            "positive": side(self.positive),
            "negative": side(self.negative),
            "flags": list(self.flags),
        }


def _decompose(m, count_pos, count_neg, vectors):
    """The leading pencil eigenpairs of each sign for the weight m.

    Returns (mus, us) for the positive side, then for the negative side:
    mus holds at most count of the side's eigenvalues in ascending |mu|,
    and us their eigenvectors u = A^-1 y as interior columns, or None
    unless vectors.  An eigenvalue nu of G within NULL_TOL * max|nu| of
    zero belongs to neither side.  One dense eigh of G computes them
    here; a replacement need only honour this contract.
    """
    a = SecondDiffOperator(m.grid)
    # the free heap the smaller arrays keep would add to the peak below
    _malloc_trim(0)
    # symmetrized and decomposed in place: each dense n x n temporary
    # dropped here is 32 MB of peak memory at n = 2000
    g = a.solve(a.solve(np.diag(m.interior)).T)
    g += g.T
    g *= 0.5
    if vectors:
        vals, vecs = eigh(g, overwrite_a=True)
    else:
        vals = eigh(g, overwrite_a=True, eigvals_only=True)
    tau = NULL_TOL * np.max(np.abs(vals))

    def side(sign, count):
        count = min(count, np.count_nonzero(sign * vals > tau))
        order = np.argsort(-sign * vals)[:count]
        return 1.0 / vals[order], a.solve(vecs[:, order]) if vectors else None

    return side(+1, count_pos), side(-1, count_neg)


def _ritz_clusters(m, mus, us):
    """Rayleigh-Ritz in the K inner product on each near-degenerate group.

    A group is a run of eigenvalues of one side whose adjacent relative
    gaps are at most SEPARATION_TOL.  The dense eigensolver resolves its
    vectors only to about eps (mu_j / mu_1) / gap, so within a group they
    are mixtures that rounding picks.  The group's span V is resolved by
    the small pencil (AV)^T (AV) c = mu V^T diag(m) V c, through the
    Cholesky factor of (AV)^T (AV); its vectors V C and Ritz values
    replace the group's in place, in ascending |mu|.
    """
    start = 0
    for end in range(1, len(mus) + 1):
        if end < len(mus) and abs(mus[end] - mus[end - 1]) <= SEPARATION_TOL * abs(mus[end - 1]):
            continue
        if end - start > 1:
            v = us[:, start:end]
            av = SecondDiffOperator(m.grid).apply(v)
            l_inv = np.linalg.inv(np.linalg.cholesky(av.T @ av))
            nu, y = np.linalg.eigh(l_inv @ (v.T @ (m.interior[:, None] * v)) @ l_inv.T)
            order = np.argsort(-np.abs(nu))
            mus[start:end] = 1.0 / nu[order]
            us[:, start:end] = v @ (l_inv.T @ y[:, order])
        start = end


def _pencil(m, count_pos, count_neg):
    """One decomposition; each side classified in magnitude order up to its count.

    A side stops before its first pair the grid cannot certify (not nodal,
    an anomaly, or a repeated k).  Returns the SpectrumResult of the
    certified pairs and the first NodalMismatch, or None.
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

    def build(mus, us, sign):
        pairs, seen = [], {}
        for rank, mu in enumerate(mus):
            u = from_interior(grid, us[:, rank])
            profile = nodal_profile(u)
            # E-norm 1, positive just right of t = 0
            phi = SampledFn(grid, u.values / (profile.sigma * profile.norm))
            k = profile.count + 1
            defect = profile.class_defect(k)
            if defect is not None:
                cause = (f"its amplitude there lies below the float floor, "
                         f"{RESOLVED_TOL:g} of max|u|, which a finer grid does not lift"
                         if defect.startswith(f"has {UNRESOLVED}")
                         else f"grid n={grid.n_interior} too coarse")
                return tuple(pairs), NodalMismatch(
                    f"eigenfunction at mu={mu:.6g} {defect}; {cause}")
            if k in seen:
                return tuple(pairs), NodalMismatch(
                    f"eigenfunctions at mu={seen[k]:.6g} and mu={mu:.6g} both "
                    f"show {k - 1} zeros; grid n={grid.n_interior} too coarse")
            seen[k] = mu
            pairs.append(EigenPair(k=k, nu=sign, mu=mu, phi=phi, rank=rank + 1))
        return tuple(pairs), None

    (pos_mus, pos_us), (neg_mus, neg_us) = _decompose(m, count_pos, count_neg, vectors=True)
    _ritz_clusters(m, pos_mus, pos_us)
    _ritz_clusters(m, neg_mus, neg_us)
    positive, pos_error = build(pos_mus, pos_us, +1)
    negative, neg_error = build(neg_mus, neg_us, -1)

    for side_name, seq in (("positive", positive), ("negative", negative)):
        ks = [p.k for p in seq]
        if any(p.k != p.rank for p in seq):
            flags.append(f"NodalOrderPermuted:{side_name}")
        if ks and sorted(ks) != list(range(1, len(ks) + 1)):
            flags.append(f"NodalIndexGaps:{side_name}")
        for p, q in zip(seq, seq[1:]):
            if abs(p.mu - q.mu) <= SEPARATION_TOL * abs(p.mu):
                flags.append(f"NearDegenerate:rank={p.rank},nu={p.nu:+d}")
    # a side cut before an uncertifiable pair is a window, not a short sequence
    if pos_error is None and len(positive) < count_pos:
        flags.append("PositiveSequenceTruncated")
    if neg_error is None and len(negative) < count_neg:
        flags.append("NegativeSequenceTruncated")
    return (SpectrumResult(positive=positive, negative=negative, weight=m,
                           flags=tuple(flags), positive_mus=tuple(pos_mus.tolist()),
                           negative_mus=tuple(neg_mus.tolist())),
            pos_error or neg_error)


def eigen_pencil(m, count_pos, count_neg):
    """Leading eigenpairs of both signs for the weight m, by magnitude.

    Each eigenfunction is normalized (E-norm 1, positive near t = 0) and
    classified; its nodal index k = zero count + 1 is recorded on the
    pair.  Distinct pairs of one sign claiming the same nodal index raise
    NodalMismatch (the grid cannot separate their zeros).
    """
    result, error = _pencil(m, count_pos, count_neg)
    if error is not None:
        raise error
    return result


def widest_resolvable_window(m):
    """Largest per-side windows whose zero structure the grid can certify.

    High-rank eigenfunctions of strongly localized classes push their
    zero amplitudes below the float floor.  One decomposition asks each
    populated side for MAX_PAIRS pairs, cut before its first such pair.
    """
    mv = m.interior
    return _pencil(m, MAX_PAIRS if np.any(mv > 0.0) else 0,
                   MAX_PAIRS if np.any(mv < 0.0) else 0)[0]


def eigen_pencil_extrapolated(weight_fn, grid, count_pos, count_neg, fine=None):
    """Pencil eigenvalues with the leading O(h^2) error removed.

    Runs the pencil on the given grid (or reuses a supplied fine result)
    and takes the eigenvalues alone of G on a grid of roughly half the
    resolution, then combines matching eigenvalues (paired by sign and
    magnitude rank) with the two-grid Richardson formula.  Only the fine
    grid has eigenfunctions and nodal classes: the coarse grid classifies
    nothing, so it raises no NodalMismatch, and a side with fewer coarse
    eigenvalues than fine pairs gives a shorter list.  The weight must be
    a callable so it can be sampled on both grids.  Returns (fine
    SpectrumResult, extrapolated positive mus, extrapolated negative
    mus), the mu lists in magnitude order.
    """
    if fine is None:
        fine = eigen_pencil(sample(weight_fn, grid), count_pos, count_neg)
    coarse = sample(weight_fn, make_grid(grid.n_interior // 2))
    (pos_mus, _), (neg_mus, _) = _decompose(coarse, len(fine.positive),
                                            len(fine.negative), vectors=False)
    h1, h2 = coarse.grid.h, grid.h
    wt = 1.0 / (h1**2 - h2**2)

    def combine(fine_pairs, coarse_mus):
        return [wt * (h1**2 * f.mu - h2**2 * mu) for f, mu in zip(fine_pairs, coarse_mus)]

    return fine, combine(fine.positive, pos_mus), combine(fine.negative, neg_mus)

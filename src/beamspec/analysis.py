"""Verification harnesses: degree parity, Sturm comparison, zero divergence,
and the constant-coefficient zero-spacing fact.

Degree parity: the Leray-Schauder degree surrogate det_sign_psi must equal
(-1)^c where c counts pencil eigenvalues strictly between 0 and mu.  The
count is by magnitude (that is what the determinant sees), regardless of
how nodal indices are ordered.

Sturm comparison: if 0 < b1 < b2 pointwise and u1, u2 solve u'''' = b_i u
with the simply supported conditions, then u2 has at least one more
interior zero than u1.  Solution pairs are supplied from eigen data,
because nontrivial solutions satisfying all four boundary conditions exist
only at pencil eigenvalues.
"""

import numpy as np

from .errors import HypothesisViolated, NotInWeightClass
from .grid import SampledFn, e_norm
from .linops import det_sign_psi, lambda2
from .nodal import find_zeros
from .spectrum import eigen_pencil


def parity_samples(spectrum_result, rng, n_pos, n_neg):
    """mu samples for degree_parity_sweep, drawn inside the computed spectrum.

    Draws n_pos positive samples, then n_neg negative ones, uniformly up to
    0.97 times the outermost computed eigenvalue of each sign.  A sign with
    no computed eigenvalue (the weight has no part of that sign, so every
    sample there expects parity +1) reaches 1.5 times as far as the other.
    """
    pos = [p.mu for p in spectrum_result.positive]
    neg = [p.mu for p in spectrum_result.negative]
    if not pos and not neg:
        raise NotInWeightClass("no computed eigenvalue of either sign to sample against")
    hi = 0.97 * max(pos) if pos else -1.5 * min(neg)
    lo = 0.97 * min(neg) if neg else -1.5 * max(pos)
    return np.concatenate([rng.uniform(1e-3, hi, n_pos),
                           rng.uniform(lo, -1e-3, n_neg)])


def degree_parity_sweep(m, mu_samples, spectrum_result=None):
    """Compare det_sign_psi with eigenvalue-count parity at each sample.

    Samples within 1e-6 relative distance of a computed eigenvalue, or
    beyond the computed part of the spectrum, are dropped.  Returns a
    report dict with one row per retained sample and an all-match flag.
    """
    if spectrum_result is None:
        from .spectrum import widest_resolvable_window
        spectrum_result = widest_resolvable_window(m)
    pos = [p.mu for p in spectrum_result.positive]
    neg = [p.mu for p in spectrum_result.negative]
    # beyond these the count below mu would miss uncomputed eigenvalues
    pos_limit = 0.98 * max(pos) if pos else np.inf
    neg_limit = 0.98 * min(neg) if neg else -np.inf

    rows = []
    for mu in sorted(mu_samples):
        if mu == 0.0:
            rows.append({"mu": 0.0, "det_sign": 1, "count": 0,
                         "expected_sign": 1, "match": True})
            continue
        if mu > pos_limit or mu < neg_limit:
            continue
        everything = pos + neg
        if any(abs(mu - ev) <= 1e-6 * abs(mu) for ev in everything):
            continue
        count = (sum(1 for ev in pos if 0 < ev < mu) if mu > 0
                 else sum(1 for ev in neg if mu < ev < 0))
        expected = 1 if count % 2 == 0 else -1
        sign = det_sign_psi(mu, m, eigenvalues=everything)
        rows.append({"mu": mu, "det_sign": sign, "count": count,
                     "expected_sign": expected, "match": sign == expected})
    return {"rows": rows, "all_match": all(r["match"] for r in rows),
            "n_samples": len(rows)}


def sturm_check(b1, b2, u1, u2, residual_tol=1e-6):
    """Verdict of the fourth-order comparison statement on one pair.

    Hypotheses checked: b2 > b1 > 0 at interior nodes, and each u_i is a
    numerically verified nontrivial solution of u'''' = b_i u, meaning its
    fixed-point residual u - Lam2(b_i u) stays below residual_tol times
    its norm.  Passes when u2 has at least one more interior zero than u1.
    """
    i1, i2 = b1.interior, b2.interior
    if not np.all(i1 > 0.0):
        raise HypothesisViolated("b1 must be strictly positive on interior nodes")
    if not np.all(i2 > i1):
        raise HypothesisViolated("b2 must exceed b1 at every interior node")
    for label, b, u in (("u1", b1, u1), ("u2", b2, u2)):
        norm = e_norm(u).value
        if norm <= 1e-12:
            raise HypothesisViolated(f"{label} is numerically trivial")
        r = u - lambda2(SampledFn(u.grid, b.values * u.values))
        if np.max(np.abs(r.values)) > residual_tol * norm:
            raise HypothesisViolated(
                f"{label} does not solve its equation: residual "
                f"{np.max(np.abs(r.values)):.3e} > {residual_tol:.0e} * e_norm")
    c1 = len(find_zeros(u1))
    c2 = len(find_zeros(u2))
    return {"count1": c1, "count2": c2, "pass": c2 >= c1 + 1}


def divergence_check(m, side, j_max):
    """Zero counts of the eigenfunctions with growing eigenvalue magnitude.

    Realizes the divergence statement with constant factors: the pair of
    index j solves u'''' = (mu_j m) u, and the zero counts along the
    magnitude-ordered sequence must grow without bound over the computed
    range.  Returns the counts and a strictly-increasing overall verdict.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    mv = m.interior
    if side == "+" and not np.any(mv > 0):
        raise NotInWeightClass("positive side requested but weight has no positive part")
    if side == "-" and not np.any(mv < 0):
        raise NotInWeightClass("negative side requested but weight has no negative part")
    result = eigen_pencil(m, j_max if side == "+" else 0,
                          j_max if side == "-" else 0)
    pairs = result.positive if side == "+" else result.negative
    counts = [len(find_zeros(p.phi)) for p in pairs]
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    return {"counts": counts, "increasing": increasing,
            "mus": [p.mu for p in pairs]}


def spacing_check(j_max=8, n=2000, tol=1e-3):
    """Zero gaps of the constant-coefficient eigenfunctions.

    For u'''' = lambda u the eigenfunction of nodal index j is sin(j pi t),
    so consecutive zeros (endpoints included) are 1/j apart.  Checks every
    gap for j = 1..j_max against 1/j within tol.
    """
    from .grid import make_grid, sample
    if j_max > 8:
        raise ValueError("spacing check supports j_max <= 8")
    grid = make_grid(n)
    one = sample(lambda t: np.ones_like(t), grid)
    result = eigen_pencil(one, j_max, 0)
    rows = []
    for p in result.positive:
        zeros = [0.0] + find_zeros(p.phi) + [1.0]
        gaps = np.diff(zeros)
        target = 1.0 / p.k
        worst = float(np.max(np.abs(gaps - target)))
        rows.append({"j": p.k, "gaps": [float(g) for g in gaps],
                     "target": target, "worst_abs_err": worst,
                     "pass": worst <= tol})
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows)}

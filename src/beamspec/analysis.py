"""Verification harnesses: degree parity and Sturm comparison.

Degree parity: the Leray-Schauder degree surrogate det_sign_psi must equal
(-1)^c where c counts pencil eigenvalues strictly between 0 and mu.  The
count is by magnitude over every eigenvalue the decomposition returned
(that is what the determinant sees), regardless of how nodal indices are
ordered and of which eigenfunctions the grid certified.

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
from .nodal import TRIVIAL_TOL, find_zeros


def parity_samples(spectrum_result, rng, n_pos, n_neg):
    """mu samples for degree_parity_sweep, drawn inside the computed spectrum.

    Draws n_pos positive samples, then n_neg negative ones, uniformly up to
    0.97 times the outermost decomposed eigenvalue of each sign, certified
    or not, starting 1e-3 from mu = 0, or a thousandth of the reach when it
    is below 1.  A sign with no decomposed eigenvalue (the weight has no
    part of that sign, so every sample there expects parity +1) reaches
    1.5 times as far as the other.
    """
    pos, neg = spectrum_result.positive_mus, spectrum_result.negative_mus
    if not pos and not neg:
        raise NotInWeightClass("no computed eigenvalue of either sign to sample against")
    hi = 0.97 * max(pos) if pos else -1.5 * min(neg)
    lo = 0.97 * min(neg) if neg else -1.5 * max(pos)
    return np.concatenate([rng.uniform(min(1e-3, 1e-3 * hi), hi, n_pos),
                           rng.uniform(lo, max(-1e-3, 1e-3 * lo), n_neg)])


def degree_parity_sweep(m, mu_samples, spectrum_result):
    """Compare det_sign_psi with eigenvalue-count parity at each sample.

    The count runs over every eigenvalue the decomposition of
    spectrum_result returned, certified or not: the determinant sees them
    all.  Samples within 1e-6 relative distance of one of them, or beyond
    the deepest of them on their side, are dropped.  Returns a report dict
    with one row per retained sample and an all-match flag.
    """
    pos, neg = spectrum_result.positive_mus, spectrum_result.negative_mus
    # beyond these the count below mu would miss uncomputed eigenvalues
    pos_limit = 0.98 * max(pos) if pos else np.inf
    neg_limit = 0.98 * min(neg) if neg else -np.inf

    rows = []
    for mu in sorted(mu_samples):
        if mu > pos_limit or mu < neg_limit:
            continue
        if any(abs(mu - ev) <= 1e-6 * abs(mu) for ev in pos + neg):
            continue
        count = (sum(1 for ev in pos if 0 < ev < mu) if mu > 0
                 else sum(1 for ev in neg if mu < ev < 0))
        expected = 1 if count % 2 == 0 else -1
        sign = det_sign_psi(mu, m)
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
        norm = e_norm(u)
        if norm <= TRIVIAL_TOL:
            raise HypothesisViolated(f"{label} is numerically trivial")
        r = u - lambda2(SampledFn(u.grid, b.values * u.values))
        if np.max(np.abs(r.values)) > residual_tol * norm:
            raise HypothesisViolated(
                f"{label} does not solve its equation: residual "
                f"{np.max(np.abs(r.values)):.3e} > {residual_tol:.0e} * e_norm")
    c1 = len(find_zeros(u1))
    c2 = len(find_zeros(u2))
    return {"count1": c1, "count2": c2, "pass": c2 >= c1 + 1}


"""The full verification battery.

Each check_* function runs one numbered criterion at its pinned tolerance
on the windows it is given and returns a dict with a "passed" flag plus
supporting detail; verify_all runs the lot, prints one PASS/FAIL line
per criterion, and returns the reports.  Deterministic given (n, seed).
"""

import numpy as np

from .analysis import degree_parity_sweep, parity_samples, sturm_check
from .continuation import (EPS_START, TERM_HYPERPLANE, TERM_NORM_BUDGET,
                           ContinuationConfig, admissible_interval,
                           bifurcation_start, solve_nodal, trace_branch)
from .errors import (GammaNotAdmissible, HypothesisViolated, NoConvergence,
                     NoSignChange, TooCoarse, ValidationError)
from .grid import (MIN_INTERIOR, derivative, e_norm, interior_dot, make_grid,
                   sample)
from .nodal import find_zeros, nodal_profile
from .nonlinear import AutonomousProblem, PerturbedProblem, fp_residual
from .presets import (WEIGHTS, cubic_perturbation, saturating_f,
                      zero_perturbation)
from .shooting import shoot_eigenvalue, shoot_nodal_solution
from .spectrum import eigen_pencil, eigen_pencil_extrapolated

# magnitude-ranked pairs computed per sign class and weight; high ranks of
# strongly localized classes push zero amplitudes toward the float noise
# floor, so the battery stays at 6 (which covers every nodal index <= 6
# the weights populate); criteria 1-3 check the nodal indices <= WINDOW
WINDOW = 6
# criterion 9 checks the zero gaps of the first 8 eigenfunctions of `one`
SPACING_PAIRS = 8
PARITY_SAMPLES = 25  # criterion 4: samples per sign and weight
# criterion 5: random positive weights in the pool, eigenpairs of each
STURM_POOL = 24
STURM_K_MAX = 6
# E-norm budget and least step count of every battery branch
BATTERY_NORM_BUDGET = 1e3
BATTERY_MIN_POINTS = 110
# criterion 10's coarsest rung has n // 4 interior nodes
MIN_BATTERY_N = 4 * MIN_INTERIOR
# a pair takes up to 50 draws and, once accepted, two zero searches
# (0.5 ms at n = 2000): 10 000 pairs stay within seconds, where an
# unbounded count could run for hours
MAX_STURM_PAIRS = 10_000


def compute_spectra(n=2000):
    """Pencil windows for every built-in weight on a shared grid, one
    decomposition each; `one` holds SPACING_PAIRS pairs for criterion 9."""
    grid = make_grid(n)
    out = {}
    for name, fn in WEIGHTS.items():
        m = sample(fn, grid)
        has_neg = bool(np.any(m.interior < 0.0))
        out[name] = eigen_pencil(m, SPACING_PAIRS if name == "one" else WINDOW,
                                 WINDOW if has_neg else 0)
    return out


def check_analytic_spectrum(spectra, tol=1e-3):
    """Criterion 1: constant weight reproduces (k pi)^4 for k = 1..WINDOW."""
    res = spectra["one"]
    errs = [abs(p.mu / (p.k * np.pi) ** 4 - 1.0)
            for p in res.positive if p.k <= WINDOW]
    passed = bool(len(errs) == WINDOW and max(errs) <= tol and not res.negative)
    return {"criterion": 1, "passed": passed,
            "rel_errors": errs, "negative_empty": not res.negative}


def check_nodal_counts(spectra):
    """Criterion 2: every computed eigenfunction of nodal index k <= WINDOW
    lies in S_k (k - 1 interior zeros, all simple, no anomaly) by a fresh
    profile, in every sign class of every weight where that class is
    populated; the constant weight populates k = 1..WINDOW completely."""
    details = {}
    ok = True
    for name, res in spectra.items():
        sides = (("+", res.positive), ("-", res.negative))
        for side, pairs in sides:
            for p in pairs:
                profile = nodal_profile(p.phi)
                good = profile.in_class(p.k)
                ok = ok and (good or p.k > WINDOW)
                details[f"{name}{side}k{p.k}"] = {
                    "mu": p.mu, "zeros": profile.count,
                    "all_simple": profile.is_nodal, "ok": good}
        details.update((f"{name}{side}", sorted(p.k for p in pairs))
                       for side, pairs in sides)
    one_ks = [p.k for p in spectra["one"].positive]
    if sorted(one_ks)[:WINDOW] != list(range(1, WINDOW + 1)):
        ok = False
    return {"criterion": 2, "passed": ok, "details": details}


def _shoot_brackets(extrapolated):
    """Isolation bracket for each extrapolated eigenvalue of one sign.

    Each bracket is centred on its extrapolated value, so the oracle's
    opening bisection evaluates that value first after the endpoints."""
    out = []
    for i, mu in enumerate(extrapolated):
        width = 0.05 * abs(mu)
        for j, other in enumerate(extrapolated):
            if j != i:
                width = min(width, 0.45 * abs(mu - other))
        out.append((mu - width, mu + width))
    return out


def check_oracle_agreement(spectra, tol=1e-6):
    """Criterion 3: Richardson-extrapolated pencil eigenvalues agree with
    the shooting oracle to 1e-6 relative for every pair of nodal index
    <= WINDOW from criterion 2.  A shoot that finds no root in the bracket
    around the extrapolation fails its row with the error and rel = inf."""
    rows = []
    for name, fn in WEIGHTS.items():
        fine = spectra[name]
        _, pos_x, neg_x = eigen_pencil_extrapolated(
            fn, fine.grid, len(fine.positive), len(fine.negative), fine=fine)
        for pairs, extr in ((fine.positive, pos_x), (fine.negative, neg_x)):
            brackets = _shoot_brackets(extr)
            for p, mu_x, bracket in zip(pairs, extr, brackets):
                if p.k > WINDOW:
                    continue
                row = {"weight": name, "k": p.k, "nu": p.nu, "pencil_x": mu_x}
                try:
                    row["shoot"] = shoot_eigenvalue(fn, bracket)
                    row["rel"] = abs(mu_x / row["shoot"] - 1.0)
                except (NoSignChange, NoConvergence) as exc:
                    row.update(shoot=None, rel=np.inf,
                               error=f"{type(exc).__name__}: {exc}")
                rows.append(row)
    worst = max(r["rel"] for r in rows)
    return {"criterion": 3, "passed": bool(worst <= tol), "worst_rel": float(worst),
            "n_eigenvalues": len(rows), "rows": rows}


def check_degree_parity(spectra, seed=0):
    """Criterion 4: det sign equals (-1)^count for 2 * PARITY_SAMPLES
    eigenvalue-avoiding samples (both signs) per weight; zero mismatches."""
    rng = np.random.default_rng(seed)
    reports = {}
    ok = True
    total = 0
    for name, res in spectra.items():
        samples = parity_samples(res, rng, PARITY_SAMPLES, PARITY_SAMPLES)
        rep = degree_parity_sweep(res.weight, samples, spectrum_result=res)
        reports[name] = {"all_match": rep["all_match"], "n": rep["n_samples"]}
        ok = ok and rep["all_match"]
        total += rep["n_samples"]
    return {"criterion": 4, "passed": ok, "weights": reports,
            "total_samples": total}


def _random_positive_weight(rng, grid):
    # |sum| <= 0.8 (1/3 + 1/4 + 1/5 + 1/6) < 0.76, so the weight stays
    # above 0.44 for every draw
    c = rng.uniform(-0.8, 0.8, 4)

    def fn(tt):
        out = 1.2 * np.ones_like(tt)
        for j, cj in enumerate(c, start=1):
            out = out + (cj / (j + 2.0)) * np.sin(j * np.pi * tt)
        return out

    return sample(fn, grid)


def check_sturm_suite(n=1000, n_pairs=200, seed=12345):
    """Criterion 5: 200 seeded randomized ordered pairs all pass the
    comparison check; both negative controls fail."""
    if not 1 <= n_pairs <= MAX_STURM_PAIRS:
        raise ValidationError(
            f"need 1..{MAX_STURM_PAIRS} pairs, got {n_pairs}")
    rng = np.random.default_rng(seed)
    grid = make_grid(n)
    pool = [eigen_pencil(_random_positive_weight(rng, grid), STURM_K_MAX, 0)
            for _ in range(STURM_POOL)]

    accepted = 0
    attempts = 0
    failures = []
    last_pair = None
    while accepted < n_pairs and attempts < 50 * n_pairs:
        attempts += 1
        i1, i2 = rng.integers(0, STURM_POOL, 2)
        k1 = int(rng.integers(1, STURM_K_MAX))          # 1..STURM_K_MAX-1
        k2 = int(rng.integers(k1 + 1, STURM_K_MAX + 1))  # k1+1..STURM_K_MAX
        res1, res2 = pool[i1], pool[i2]
        mu1, mu2 = res1.positive[k1 - 1].mu, res2.positive[k2 - 1].mu
        b1 = mu1 * res1.weight
        b2 = mu2 * res2.weight
        if not np.all(b2.interior > b1.interior):
            continue
        u1 = res1.positive[k1 - 1].phi
        u2 = res2.positive[k2 - 1].phi
        verdict = sturm_check(b1, b2, u1, u2)
        accepted += 1
        last_pair = (b1, b2, u1, u2)
        if not verdict["pass"]:
            failures.append((int(i1), k1, int(i2), k2))

    b1, b2, u1, u2 = last_pair
    # negative control A: second solution replaced by the first
    control_a_failed = False
    try:
        v = sturm_check(b1, b2, u1, u1)
        control_a_failed = not v["pass"]
    except HypothesisViolated:
        control_a_failed = True
    # negative control B: coefficient ordering reversed
    control_b_failed = False
    try:
        sturm_check(b2, b1, u2, u1)
    except HypothesisViolated:
        control_b_failed = True
    passed = (accepted == n_pairs and not failures
              and control_a_failed and control_b_failed)
    return {"criterion": 5, "passed": passed, "pairs": accepted,
            "failures": failures, "control_a_failed": control_a_failed,
            "control_b_failed": control_b_failed}


def _branch_config(phi):
    """Step sizes for a branch of at least BATTERY_MIN_POINTS steps."""
    phi_h = np.sqrt(interior_dot(phi, phi))
    length = BATTERY_NORM_BUDGET * phi_h
    ds_max = length / float(BATTERY_MIN_POINTS)
    return ContinuationConfig(ds=ds_max / 8.0, ds_max=ds_max,
                              norm_budget=BATTERY_NORM_BUDGET, max_steps=2000)


BATTERY = (
    ("one", "zero", 1, +1),
    ("one", "cubic", 1, +1),
    ("one", "cubic", 2, +1),
    ("sin3pi", "cubic", 1, +1),
    ("sin3pi", "cubic", 1, -1),
)


def run_branch_battery(grid, spectra):
    """Trace the sigma = +/- halves for every battery row; 10 branches.
    `grid` is not read: each window carries its own."""
    branches = []
    for weight_name, g_name, k, nu in BATTERY:
        res = spectra[weight_name]
        g = cubic_perturbation() if g_name == "cubic" else zero_perturbation()
        spec = PerturbedProblem(m=res.weight, g=g)
        pair = res.pair(k, nu)
        config = _branch_config(pair.phi)
        for sigma in (+1, -1):
            start = bifurcation_start(k, nu, sigma, spec, res)
            branches.append(trace_branch(start, spec, config))
    return branches


def check_branch_invariants(branches):
    """Criteria 6 and 7 on a traced battery.

    6: zero generalized-double classifications across all points.
    7: every point of a branch lies in its nodal class S_k^sigma from the
    eps-amplitude point to the norm budget, and sigma halves of one
    bifurcation point share no nontrivial point.
    """
    doubles = 0
    containment_ok = True
    sizes = []
    for b in branches:
        sizes.append(len(b.points))
        for p in b.points:
            if not p.profile.is_nodal:
                doubles += 1
            if not p.profile.in_class(b.k, b.sigma):
                containment_ok = False
        if b.termination not in (TERM_NORM_BUDGET, TERM_HYPERPLANE):
            containment_ok = False
    # unilateral distinctness on the sigma pairs (consecutive battery halves)
    distinct_ok = True
    for a, b in zip(branches[0::2], branches[1::2]):
        npts = min(len(a.points), len(b.points))
        gap = min(e_norm(a.points[i].u - b.points[i].u) for i in range(npts))
        if gap <= EPS_START / 2.0:
            distinct_ok = False
    passed6 = doubles == 0
    passed7 = (containment_ok and distinct_ok and len(branches) >= 8
               and min(sizes) >= 100)
    report6 = {"criterion": 6, "passed": passed6, "doubles": doubles,
               "branches": len(branches), "points_per_branch": sizes}
    report7 = {"criterion": 7, "passed": passed7,
               "containment": containment_ok, "distinct": distinct_ok,
               "min_points": min(sizes)}
    return report6, report7


def check_nodal_solutions(spectra, residual_tol=1e-8, agree_tol=1e-4):
    """Criterion 8: the saturating-nonlinearity desk cases.

    For k = 1, 2 and gamma = 0.75 mu_k^+: both sigma solutions exist in
    S_k^sigma, with fixed-point residual below 1e-8, and max-norm
    agreement with an independent nonlinear shooting solve below 1e-4.
    gamma = 0.25 mu_1^+ must be rejected.  The multi-index check at
    (k, n) = (1, 2) computes the intersection of the admissible intervals
    of both indices for the saturating nonlinearity and records whether it
    is empty as `skipped`, with a notice when it is; it then calls
    solve_nodal for each index and sign with a wider-gain nonlinearity.
    """
    f = saturating_f()
    res = spectra["one"]
    m = res.weight
    details = {}
    ok = True
    for k in (1, 2):
        mu_k = res.pair(k, +1).mu
        gamma = 0.75 * mu_k
        spec = AutonomousProblem(m=m, gamma=gamma, f=f)
        for sigma in (+1, -1):
            u = solve_nodal(gamma, f, m, k, +1, sigma, spectrum_result=res)
            profile = nodal_profile(u)
            rmax, _ = fp_residual(u, 1.0, spec)
            slope0 = derivative(u, 1).values[0]
            jerk0 = derivative(u, 3).values[0]
            u_shoot = shoot_nodal_solution(gamma, WEIGHTS["one"], f.f,
                                           slope0, jerk0, m.grid)
            agree = float(np.max(np.abs(u.values - u_shoot.values)))
            good = (profile.in_class(k, sigma)
                    and rmax <= residual_tol and agree <= agree_tol)
            ok = ok and good
            details[f"k{k}sigma{sigma:+d}"] = {
                "gamma": gamma, "zeros": profile.count, "residual": rmax,
                "shoot_agreement": agree, "ok": good}

    rejected = False
    try:
        solve_nodal(0.25 * res.pair(1, +1).mu, f, m, 1, +1, +1,
                    spectrum_result=res)
    except GammaNotAdmissible:
        rejected = True
    ok = ok and rejected
    details["inadmissible_rejected"] = rejected

    # multi-index check, (k, n) = (1, 2): mu_2 ~ 16 mu_1 and finf = 2 empty the
    # intersection of both intervals on every grid; a wider gain opens it
    mu1 = res.pair(1, +1).mu
    gamma_12 = 0.75 * mu1
    lows, highs = zip(*(admissible_interval(res.pair(j, +1).mu, f) for j in (1, 2)))
    lo, hi = max(lows), min(highs)
    skipped = not lo < hi
    details["range_driver"] = {"skipped": skipped}
    if skipped:
        details["range_driver"]["notice"] = (
            f"interval (mu_2/finf, mu_1/f0) = ({lo:.6g}, {hi:.6g}) "
            f"is empty for the saturating nonlinearity; "
            f"gamma = {gamma_12:.6g} cannot satisfy it")
    wide = saturating_f(gain=17.0)
    config = ContinuationConfig(norm_budget=5e3, max_steps=2000)
    profiles = [[nodal_profile(solve_nodal(0.96 * mu1, wide, m, j, +1, sigma,
                                           config, res))
                 for sigma in (+1, -1)] for j in (1, 2)]
    counts = [(pp.count, pm.count) for pp, pm in profiles]
    wide_ok = all(pp.in_class(j, +1) and pm.in_class(j, -1)
                  for j, (pp, pm) in enumerate(profiles, start=1))
    details["range_driver_wide"] = {"pairs": len(profiles),
                                    "zero_counts": counts, "ok": wide_ok}
    ok = ok and wide_ok
    return {"criterion": 8, "passed": ok, "details": details}


def check_spacing(spectra):
    """Criterion 9: the `one` window's zero gaps, endpoints included, are
    those of sin(j pi t), 1/j, within 1e-3."""
    errs = [np.diff([0.0] + find_zeros(p.phi) + [1.0]) - 1.0 / p.k
            for p in spectra["one"].positive]
    worst = max(float(np.max(np.abs(e))) for e in errs)
    return {"criterion": 9, "passed": worst <= 1e-3, "worst": worst}


def check_convergence_order(spectra):
    """Criterion 10: mu_1^+ error against pi^4 shrinks by 3.8x to 4.2x per
    grid doubling (second-order discretization), on the ladder n // 4, n // 2
    and n of the `one` window's n interior nodes (500, 1000, 2000 by default)."""
    n = spectra["one"].grid.n_interior
    rungs = [eigen_pencil(sample(WEIGHTS["one"], make_grid(n // d)), 1, 0)
             for d in (4, 2)]
    errs = [abs(r.positive[0].mu - np.pi**4) for r in rungs + [spectra["one"]]]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    passed = all(3.8 <= r <= 4.2 for r in ratios)
    return {"criterion": 10, "passed": passed, "errors": errs, "ratios": ratios}


LABELS = {
    1: "analytic spectrum (constant weight)",
    2: "nodal count law on built-in weights",
    3: "pencil vs shooting oracle agreement",
    4: "degree parity sweep",
    5: "comparison-theorem suite",
    6: "no generalized double zeros on branches",
    7: "branch containment and unilateral distinctness",
    8: "nodal solutions of the autonomous problem",
    9: "constant-coefficient zero spacing",
    10: "second-order eigenvalue convergence",
}


def verify_all(n=2000, seed=0):
    """Run criteria 1..10 and return the list of report dicts; an n
    below MIN_BATTERY_N is refused before any work."""
    if n < MIN_BATTERY_N:
        raise TooCoarse(f"the battery needs n >= {MIN_BATTERY_N}, got {n}: "
                        f"criterion 10's coarsest rung has n // 4 interior nodes")
    spectra = compute_spectra(n)
    reports = [
        check_analytic_spectrum(spectra),
        check_nodal_counts(spectra),
        check_oracle_agreement(spectra),
        check_degree_parity(spectra, seed=seed),
        check_sturm_suite(seed=seed + 12345),
    ]
    branches = run_branch_battery(spectra["one"].grid, spectra)
    r6, r7 = check_branch_invariants(branches)
    reports.extend([r6, r7,
                    check_nodal_solutions(spectra),
                    check_spacing(spectra),
                    check_convergence_order(spectra)])
    reports.sort(key=lambda r: r["criterion"])
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}: criterion {r['criterion']:2d} - {LABELS[r['criterion']]}")
    return reports, branches

"""The three benchmark workloads: inputs drawn from a seed, one timed pass,
and the acceptance check of every operation the pass ran.

A pass calls the library's public functions back to back from a single
caller, so the load is a closed loop with one client: each call starts when
the previous one returns.  Every call goes through a module attribute at
call time, which lets the traced run see the wrappers that
tracing.Tracer installs.  Checks run after the pass, outside its timing,
and judge each operation against the acceptance tolerances of the paper,
so a faster wrong answer counts as a failure, not as throughput.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from beamspec import (analysis, continuation, grid, nodal, nonlinear, presets,
                      shooting, spectrum, verify)

WEIGHTS = presets.WEIGHTS

# the saturating nonlinearity f(s) = s (2 - 1/(1+s^2)) of criterion 8
SATURATING = presets.saturating_f()

# parity samples per sign and weight, as `beamspec degree --samples 12` draws them
PARITY_PER_SIGN = 6

# nodal indices shot on the seeded strictly positive weight
POOL_KS = 3


@dataclass(frozen=True)
class Size:
    n: int                   # interior grid nodes
    shoot_steps: int = None  # RK4 steps of the eigenvalue oracle; None: library default


FULL = Size(n=2000)
# every code path at a size that runs in seconds; its answers are not
# expected to meet the n = 2000 tolerances
SMOKE = Size(n=48, shoot_steps=200)


@dataclass
class Verdict:
    label: str
    kind: str        # "pencil" delivers eigenpairs, "result" the workload's main results
    ok: bool
    delivered: int = 0
    margins: dict = field(default_factory=dict)
    error: str = None


class Pass:
    """Phase times, per-operation times and outputs of one timed pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.phases = {}
        self.op_seconds = {}
        self.out = {}
        self.given = {}   # values an operation was handed that its check needs
        self.errors = {}
        self.wall = 0.0

    @contextmanager
    def phase(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - start

    def op(self, label, fn, *args, **kwargs):
        """Run one operation; an exception is recorded as its failure."""
        if self.tracer is not None:
            self.tracer.begin_op()
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            self.errors[label] = f"{type(exc).__name__}: {exc}"
            value = None
        self.op_seconds[label] = time.perf_counter() - start
        self.out[label] = value
        return value

    def failed(self, label, kind):
        """Verdict for an operation that raised or never ran."""
        return Verdict(label, kind, False,
                       error=self.errors.get(label, "not run: an input operation failed"))


def _count_law_violations(result):
    """Pairs whose eigenfunction breaks the nodal count law: k - 1 simple zeros."""
    bad = 0
    for pair in result.positive + result.negative:
        profile = nodal.nodal_profile(pair.phi)
        if profile.count != pair.k - 1 or not profile.is_nodal or profile.anomalies:
            bad += 1
    return bad


def _solution_check(u, m, gamma, zeros, sigma):
    """Verdict and fixed-point residual of a nodal solution of the autonomous problem."""
    spec = nonlinear.AutonomousProblem(m=m, gamma=gamma, f=SATURATING)
    residual, _ = nonlinear.fp_residual(u, 1.0, spec)
    profile = nodal.nodal_profile(u)
    ok = ((profile.count, profile.sigma) == (zeros, sigma) and profile.is_nodal
          and residual <= 1e-8)
    return ok, residual


def _pencil_verdict(label, result):
    bad = _count_law_violations(result)
    return Verdict(label, "pencil", bad == 0,
                   delivered=len(result.positive) + len(result.negative),
                   margins={"count_law_violations": bad})


# ---------------------------------------------------------------- spectra


def spectra_inputs(seed, size):
    g = grid.make_grid(size.n)
    rng = np.random.default_rng(seed)
    weights = {name: grid.sample(WEIGHTS[name], g) for name in ("one", "sin3pi")}
    # unit draws in the order `beamspec degree` makes them: positive side,
    # then negative side, per weight; uniform(lo, hi) is lo + (hi - lo) * draw
    draws = {name: (rng.random(PARITY_PER_SIGN), rng.random(PARITY_PER_SIGN))
             for name in weights}
    return {"weights": weights, "draws": draws}


def parity_samples(window, pos_draws, neg_draws):
    """mu samples inside the computed spectrum, as cli._cmd_degree draws them."""
    pos = [p.mu for p in window.positive]
    neg = [p.mu for p in window.negative]
    hi = 0.97 * max(pos)
    lo = 0.97 * min(neg) if neg else -1.5 * max(pos)
    return np.concatenate([1e-3 + (hi - 1e-3) * pos_draws,
                           lo + (-1e-3 - lo) * neg_draws])


def spectra_run(inputs, p):
    weights = inputs["weights"]
    with p.phase("windows"):
        for name, m in weights.items():
            p.op(f"window:{name}", spectrum.widest_resolvable_window, m)
    with p.phase("parity"):
        for name, m in weights.items():
            window = p.out[f"window:{name}"]
            if window is not None:
                mus = parity_samples(window, *inputs["draws"][name])
                p.op(f"parity:{name}", analysis.degree_parity_sweep, m, mus,
                     spectrum_result=window)


def _analytic_rel_error(window):
    """Worst |mu / (k pi)^4 - 1| of the constant weight's window."""
    return max((abs(p.mu / (p.k * np.pi) ** 4 - 1.0) for p in window.positive),
               default=np.inf)


def spectra_check(inputs, p):
    verdicts = []
    for name in inputs["weights"]:
        label = f"window:{name}"
        window = p.out[label]
        if window is None:
            verdicts.append(p.failed(label, "pencil"))
        else:
            v = _pencil_verdict(label, window)
            if name == "one":
                err = _analytic_rel_error(window)
                v.margins["analytic_rel_err"] = err
                v.ok = v.ok and err <= 1e-3 and not window.negative
            verdicts.append(v)

        label = f"parity:{name}"
        report = p.out.get(label)
        if report is None:
            verdicts.append(p.failed(label, "result"))
            continue
        pos = [q.mu for q in window.positive]
        neg = [q.mu for q in window.negative]
        for i, row in enumerate(report["rows"]):
            mu = row["mu"]
            count = (sum(0.0 < ev < mu for ev in pos) if mu > 0
                     else sum(mu < ev < 0.0 for ev in neg))
            gap = min((abs(mu - ev) / abs(mu) for ev in pos + neg), default=np.inf)
            verdicts.append(Verdict(f"{label}:{i}", "result",
                                    row["det_sign"] == (-1) ** count, delivered=1,
                                    margins={"eigen_gap_rel": gap}))
    return verdicts


# ---------------------------------------------------------------- oracle


def pool_weight(coeffs):
    """1.2 + sum_j c_j/(j+2) sin(j pi t): the generator of the Sturm-suite pool."""
    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, 1.2)
        for j, c in enumerate(coeffs, start=1):
            out = out + (c / (j + 2.0)) * np.sin(j * np.pi * t)
        return out
    return fn


def oracle_inputs(seed, size):
    g = grid.make_grid(size.n)
    rng = np.random.default_rng(seed)
    return {"grid": g, "size": size,
            "pool": pool_weight(rng.uniform(-0.8, 0.8, 4)),
            "one": grid.sample(WEIGHTS["one"], g),
            # one coupling for both sigma, as criterion 8 uses; mu_1 of m = 1 is pi^4
            "gamma": rng.uniform(0.6, 0.9) * np.pi ** 4}


def _nodal_shoot(gamma, m, sigma, spectrum_result, g):
    """Criterion-8 pair: the continuation solution and the shooting solve seeded from it."""
    u = continuation.solve_nodal(gamma, SATURATING, m, 1, +1, sigma,
                                 spectrum_result=spectrum_result)
    slope0 = grid.derivative(u, 1).values[0]
    jerk0 = grid.derivative(u, 3).values[0]
    u_shoot = shooting.shoot_nodal_solution(gamma, WEIGHTS["one"], SATURATING.f,
                                            slope0, jerk0, g)
    return u, u_shoot


def oracle_run(inputs, p):
    g = inputs["grid"]
    weights = {"pool": (inputs["pool"], POOL_KS, 0), "sin3pi": (WEIGHTS["sin3pi"], 1, 1)}
    steps = {} if inputs["size"].shoot_steps is None else {"n_steps": inputs["size"].shoot_steps}
    with p.phase("pencils"):
        for name, (fn, count_pos, count_neg) in weights.items():
            p.op(f"pencil:{name}", spectrum.eigen_pencil_extrapolated,
                 fn, g, count_pos, count_neg)
        p.op("pencil:one", spectrum.eigen_pencil, inputs["one"], 1, 0)
    with p.phase("shoots"):
        for name, (fn, _, _) in weights.items():
            extrapolated = p.out[f"pencil:{name}"]
            if extrapolated is None:
                continue
            for sign, mus in (("+", extrapolated[1]), ("-", extrapolated[2])):
                for rank, (mu_x, bracket) in enumerate(
                        zip(mus, verify._shoot_brackets(mus)), start=1):
                    label = f"shoot:{name}:{sign}{rank}"
                    p.given[label] = mu_x
                    p.op(label, shooting.shoot_eigenvalue, fn, bracket, **steps)
    with p.phase("nodal"):
        one_spectrum = p.out["pencil:one"]
        if one_spectrum is not None:
            for sigma in (+1, -1):
                p.op(f"nodal:{sigma:+d}", _nodal_shoot, inputs["gamma"], inputs["one"],
                     sigma, one_spectrum, g)


def oracle_check(inputs, p):
    verdicts = []
    expected_shoots = {"pool": (POOL_KS, 0), "sin3pi": (1, 1)}
    for name, (count_pos, count_neg) in expected_shoots.items():
        label = f"pencil:{name}"
        out = p.out[label]
        if out is None:
            verdicts.append(p.failed(label, "pencil"))
            verdicts.extend(p.failed(f"shoot:{name}", "result")
                            for _ in range(count_pos + count_neg))
            continue
        fine, pos_x, neg_x = out
        v = _pencil_verdict(label, fine)
        v.ok = v.ok and (len(pos_x), len(neg_x)) == (count_pos, count_neg)
        verdicts.append(v)
        for sign, mus in (("+", pos_x), ("-", neg_x)):
            for rank in range(1, len(mus) + 1):
                label = f"shoot:{name}:{sign}{rank}"
                mu_shoot = p.out.get(label)
                if mu_shoot is None:
                    verdicts.append(p.failed(label, "result"))
                    continue
                rel = abs(p.given[label] / mu_shoot - 1.0)
                verdicts.append(Verdict(label, "result", rel <= 1e-6, delivered=1,
                                        margins={"oracle_rel_err": rel}))

    one_spectrum = p.out["pencil:one"]
    verdicts.append(p.failed("pencil:one", "pencil") if one_spectrum is None
                    else _pencil_verdict("pencil:one", one_spectrum))
    for sigma in (+1, -1):
        label = f"nodal:{sigma:+d}"
        out = p.out.get(label)
        if out is None:
            verdicts.append(p.failed(label, "check"))
            continue
        u, u_shoot = out
        ok, residual = _solution_check(u, inputs["one"], inputs["gamma"], 0, sigma)
        agree = float(np.max(np.abs(u.values - u_shoot.values)))
        verdicts.append(Verdict(label, "check", ok and agree <= 1e-4, margins={
            "fp_residual": residual, "shoot_agreement": agree}))
    return verdicts


# ---------------------------------------------------------------- branches


def branches_inputs(seed, size):
    g = grid.make_grid(size.n)
    rng = np.random.default_rng(seed)
    return {"grid": g,
            "weights": {name: grid.sample(WEIGHTS[name], g) for name in ("one", "sin3pi")},
            # one coupling for both sigma, as `beamspec solve --gamma G --sigma both`
            # takes it; mu_2 of m = 1 is (2 pi)^4
            "gamma": rng.uniform(0.6, 0.9) * (2.0 * np.pi) ** 4}


def branches_run(inputs, p):
    weights = inputs["weights"]
    with p.phase("spectra"):
        p.op("pencil:one", spectrum.eigen_pencil, weights["one"], verify.WINDOW, 0)
        p.op("pencil:sin3pi", spectrum.eigen_pencil, weights["sin3pi"],
             verify.WINDOW, verify.WINDOW)
    with p.phase("battery"):
        spectra = {name: p.out[f"pencil:{name}"] for name in weights}
        if None not in spectra.values():
            p.op("battery", verify.run_branch_battery, inputs["grid"], spectra)
    with p.phase("solve"):
        # no precomputed spectrum: each call runs its own pencil, as `beamspec solve` does
        for sigma in (+1, -1):
            p.op(f"solve:{sigma:+d}", continuation.solve_nodal, inputs["gamma"],
                 SATURATING, weights["one"], 2, +1, sigma)


def branches_check(inputs, p):
    verdicts = []
    for name in inputs["weights"]:
        label = f"pencil:{name}"
        out = p.out[label]
        verdicts.append(p.failed(label, "pencil") if out is None
                        else _pencil_verdict(label, out))

    battery = p.out.get("battery")
    if battery is None:
        verdicts.append(p.failed("battery", "result"))
    for i, b in enumerate(battery or ()):
        held = all((q.profile.count, q.profile.sigma) == (b.k - 1, b.sigma)
                   and q.profile.is_nodal for q in b.points)
        ok = (held and b.termination == continuation.TERM_NORM_BUDGET
              and len(b.points) >= 100)
        verdicts.append(Verdict(f"branch:{i}", "result", ok, delivered=len(b.points),
                                margins={"points": len(b.points)}))

    for sigma in (+1, -1):
        label = f"solve:{sigma:+d}"
        u = p.out.get(label)
        if u is None:
            verdicts.append(p.failed(label, "check"))
            continue
        ok, residual = _solution_check(u, inputs["weights"]["one"], inputs["gamma"],
                                       1, sigma)
        verdicts.append(Verdict(label, "check", ok, margins={"fp_residual": residual}))
    return verdicts


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    inputs: callable
    run: callable
    check: callable
    pencil_phase: str    # phase whose "pencil" verdicts give eigenpairs_per_s
    result_phase: str    # phase whose "result" verdicts give results_per_s
    result_name: str     # what results_per_s counts on this workload


WORKLOADS = {
    "spectra": Workload(spectra_inputs, spectra_run, spectra_check,
                        "windows", "parity", "parity_samples_per_s"),
    "oracle": Workload(oracle_inputs, oracle_run, oracle_check,
                       "pencils", "shoots", "oracle_eigs_per_s"),
    "branches": Workload(branches_inputs, branches_run, branches_check,
                         "spectra", "battery", "branch_points_per_s"),
}

# margins where the smallest value is the worst one; for the rest the largest is
SMALLEST_IS_WORST = {"eigen_gap_rel", "points"}


def run_pass(workload, inputs, tracer=None):
    p = Pass(tracer)
    start = time.perf_counter()
    workload.run(inputs, p)
    p.wall = time.perf_counter() - start
    return p


def rate(verdicts, kind, passes, phase):
    """Delivered results of passing operations of one kind per second of their phase."""
    delivered = sum(v.delivered for v in verdicts if v.kind == kind and v.ok)
    seconds = sum(p.phases.get(phase, 0.0) for p in passes)
    return delivered / seconds if seconds > 0 else 0.0


def summarize(verdicts):
    """Attempted, failed and worst margin per check group (label up to its first ':')."""
    groups = {}
    for v in verdicts:
        g = groups.setdefault(v.label.split(":")[0],
                              {"attempted": 0, "failed": 0, "worst": {}})
        g["attempted"] += 1
        g["failed"] += not v.ok
        for key, value in v.margins.items():
            pick = min if key in SMALLEST_IS_WORST else max
            g["worst"][key] = value if key not in g["worst"] else pick(g["worst"][key], value)
    return groups

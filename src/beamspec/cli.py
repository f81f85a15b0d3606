"""Command-line surface.

Subcommands: spectrum, degree, sturm, branch, solve, verify-all.  Every
run writes its outputs plus a manifest.json (inputs, versions, sha256
checksums of the files the run wrote) into the output directory: each
command returns its exit code and the paths it wrote.  Exit codes:
0 success, 1 usage, 2 hypothesis/validation error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .continuation import (TERM_STEP_FAILURE, ContinuationConfig, bifurcation_start,
                           save_branch, solve_nodal, trace_branch)
from .errors import NumericalError, ValidationError
from .grid import from_csv, make_grid, sample, to_csv
from .nonlinear import PerturbedProblem, check_asymptotics
from .presets import WEIGHTS, asymptotic_f, perturbation, table_f, weight
from .render import render_diagram
from .spectrum import eigen_pencil, widest_resolvable_window
from .verify import LABELS, check_sturm_suite, verify_all

MAX_SAMPLES = 10_000  # degree draws its samples at once, one determinant each
# the dense pencil window holds n x n float64 matrices: 66 MB above the
# process baseline at n = 2000, growing as n^2 (about 410 MB at 5000),
# and its eigensolve grows as n^3
MAX_N = 5000


def _weight_arg(name_or_path, grid):
    """Built-in weight name, or a CSV path of (t, value) samples."""
    if name_or_path in WEIGHTS:
        fn = weight(name_or_path)
        return sample(fn, grid), name_or_path
    if os.path.isfile(name_or_path):
        try:
            m = from_csv(name_or_path)
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"weight CSV '{name_or_path}': {exc}") from None
        if m.grid.n_interior != grid.n_interior:
            raise ValidationError(
                f"weight CSV has n={m.grid.n_interior}, run wants n={grid.n_interior}")
        return m, os.path.basename(name_or_path)
    raise ValidationError(f"weight '{name_or_path}' is neither built-in nor a file")


def _nonlinearity_arg(args):
    if args.f_table:
        try:
            return table_f(args.f_table, args.f0, args.finf)
        except (OSError, ValueError, IndexError) as exc:
            raise ValidationError(f"--f-table '{args.f_table}': {exc}") from None
    try:
        params = json.loads(args.f_params) if args.f_params else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--f-params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ValidationError("--f-params must be a JSON object")
    return asymptotic_f(args.f, **params)


def _write_manifest(outdir, command, config, paths):
    """manifest.json with the checksums of exactly the files in paths."""
    files = []
    for path in paths:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        files.append({"path": os.path.relpath(path, outdir), "sha256": digest})
    manifest = {
        "command": command,
        "config": config,
        "files": sorted(files, key=lambda f: f["path"]),
        "versions": {
            "beamspec": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _cmd_spectrum(args):
    if args.kneg < -1:
        raise ValidationError(
            f"--kneg must be -1 (same as --kmax) or non-negative, got {args.kneg}")
    grid = make_grid(args.n)
    m, weight_id = _weight_arg(args.weight, grid)
    has_neg = bool(np.any(m.interior < 0.0))
    res = eigen_pencil(m, args.kmax, args.kneg if args.kneg >= 0
                       else (args.kmax if has_neg else 0))
    os.makedirs(args.out, exist_ok=True)
    refs = {}
    for side in (res.positive, res.negative):
        for p in side:
            ref = f"phi_{'pos' if p.nu > 0 else 'neg'}_k{p.k}.csv"
            to_csv(p.phi, os.path.join(args.out, ref))
            refs[(p.k, p.nu)] = ref
    path = os.path.join(args.out, "spectrum.json")
    with open(path, "w") as fh:
        json.dump(res.to_json(weight_id=weight_id, phi_refs=refs), fh,
                  indent=2, sort_keys=True)
    print(f"wrote spectrum.json with {len(res.positive)} positive and "
          f"{len(res.negative)} negative pairs")
    return 0, [path] + [os.path.join(args.out, ref) for ref in refs.values()]


def _cmd_degree(args):
    from .analysis import degree_parity_sweep, parity_samples
    grid = make_grid(args.n)
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ValidationError(
            f"--samples must lie in 1..{MAX_SAMPLES}, got {args.samples}")
    m, weight_id = _weight_arg(args.weight, grid)
    res = widest_resolvable_window(m)
    rng = np.random.default_rng(args.seed)
    samples = parity_samples(res, rng, args.samples // 2,
                             args.samples - args.samples // 2)
    rep = degree_parity_sweep(m, samples, spectrum_result=res)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "degree_parity.json")
    with open(path, "w") as fh:
        json.dump({"weight_id": weight_id, "n": args.n, "seed": args.seed,
                   "all_match": rep["all_match"], "rows": rep["rows"]},
                  fh, indent=2, sort_keys=True)
    print(f"{'all match' if rep['all_match'] else 'MISMATCH'} "
          f"on {rep['n_samples']} samples")
    for row in rep["rows"]:
        print(f"  mu={row['mu']: .6g}  det={row['det_sign']:+d}  "
              f"count={row['count']}  match={row['match']}")
    return (0 if rep["all_match"] else 3), [path]


def _cmd_sturm(args):
    rep = check_sturm_suite(n=args.n, n_pairs=args.pairs, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sturm_suite.json")
    with open(path, "w") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True)
    print(f"{rep['pairs']} pairs, failures: {rep['failures']}, "
          f"controls failed as expected: "
          f"{rep['control_a_failed'] and rep['control_b_failed']}")
    return (0 if rep["passed"] else 3), [path]


def _branch_labels(args):
    if args.k < 1:
        raise ValidationError(f"--k must be at least 1, got {args.k}")
    nu = +1 if args.nu == "+" else -1
    sigmas = [+1, -1] if args.sigma == "both" else [+1 if args.sigma == "+" else -1]
    return nu, sigmas


def _cmd_branch(args):
    grid = make_grid(args.n)
    m, _ = _weight_arg(args.weight, grid)
    nu, sigmas = _branch_labels(args)
    spec = PerturbedProblem(m=m, g=perturbation(args.g))
    config = ContinuationConfig(ds=args.ds, ds_max=args.ds_max,
                                norm_budget=args.norm_budget,
                                max_steps=args.max_steps)
    res = widest_resolvable_window(m)
    branches = []
    for sigma in sigmas:
        start = bifurcation_start(args.k, nu, sigma, spec, res)
        branches.append(trace_branch(start, spec, config))
    os.makedirs(args.out, exist_ok=True)
    failed = False
    svg = os.path.join(args.out, "diagram.svg")
    paths = [svg]
    for sigma, br in zip(sigmas, branches):
        name = f"branch_k{args.k}_{'p' if nu > 0 else 'n'}_{'p' if sigma > 0 else 'n'}"
        paths += save_branch(br, args.out, basename=name)
        print(f"{name}: {len(br.points)} points, termination {br.termination}")
        failed = failed or br.termination == TERM_STEP_FAILURE
    with open(svg, "w") as fh:
        fh.write(render_diagram(branches))
    return (3 if failed else 0), paths


def _cmd_solve(args):
    grid = make_grid(args.n)
    m, _ = _weight_arg(args.weight, grid)
    f = _nonlinearity_arg(args)
    check_asymptotics(f)
    nu, sigmas = _branch_labels(args)
    config = ContinuationConfig(norm_budget=args.norm_budget,
                                max_steps=args.max_steps)
    res = widest_resolvable_window(m)
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for sigma in sigmas:
        u = solve_nodal(args.gamma, f, m, args.k, nu, sigma, config, res)
        name = f"solution_k{args.k}_{'p' if nu > 0 else 'n'}_{'p' if sigma > 0 else 'n'}.csv"
        path = os.path.join(args.out, name)
        to_csv(u, path)
        paths.append(path)
        print(f"wrote {name} (max |u| = {np.max(np.abs(u.values)):.6g})")
    return 0, paths


def _cmd_verify_all(args):
    reports, branches = verify_all(n=args.n, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    report = os.path.join(args.out, "verify_report.json")
    svg = os.path.join(args.out, "diagram.svg")
    with open(report, "w") as fh:
        json.dump({"n": args.n, "seed": args.seed,
                   "criteria": [{"criterion": r["criterion"],
                                 "label": LABELS[r["criterion"]],
                                 "passed": bool(r["passed"])} for r in reports]},
                  fh, indent=2, sort_keys=True)
    with open(svg, "w") as fh:
        fh.write(render_diagram(branches))
    return (0 if all(r["passed"] for r in reports) else 3), [report, svg]


def build_parser():
    p = argparse.ArgumentParser(
        prog="beamspec",
        description="Eigenvalues, nodal classes, and bifurcation branches of "
                    "the simply supported beam operator with sign-changing weight")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--n", type=int, default=2000, help="interior grid nodes")
        sp.add_argument("--out", default="out", help="output directory")
        if seeded:
            sp.add_argument("--seed", type=int, default=0, help="seed for randomized suites")

    sp = sub.add_parser("spectrum", help="eigenvalue sequences of a weight")
    common(sp)
    sp.add_argument("--weight", default="one")
    sp.add_argument("--kmax", type=int, default=6)
    sp.add_argument("--kneg", type=int, default=-1,
                    help="negative pairs (-1: same as kmax when the weight allows)")
    sp.set_defaults(fn=_cmd_spectrum)

    sp = sub.add_parser("degree", help="degree parity sweep")
    common(sp, seeded=True)
    sp.add_argument("--weight", default="one")
    sp.add_argument("--samples", type=int, default=50,
                    help=f"parity samples, at most {MAX_SAMPLES}")
    sp.set_defaults(fn=_cmd_degree)

    sp = sub.add_parser("sturm", help="randomized comparison-theorem suite")
    common(sp, seeded=True)
    sp.add_argument("--pairs", type=int, default=200)
    sp.set_defaults(fn=_cmd_sturm)

    sp = sub.add_parser("branch", help="trace bifurcation branches")
    common(sp)
    sp.add_argument("--weight", default="one")
    sp.add_argument("--g", default="cubic", help="perturbation name")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--nu", choices=["+", "-"], default="+")
    sp.add_argument("--sigma", choices=["+", "-", "both"], default="both")
    sp.add_argument("--ds", type=float, default=0.05)
    sp.add_argument("--ds-max", type=float, default=0.5)
    sp.add_argument("--norm-budget", type=float, default=1e3)
    sp.add_argument("--max-steps", type=int, default=2000)
    sp.set_defaults(fn=_cmd_branch)

    sp = sub.add_parser("solve", help="nodal solutions of the autonomous problem")
    common(sp)
    sp.add_argument("--weight", default="one")
    sp.add_argument("--f", default="saturating", help="nonlinearity name")
    sp.add_argument("--f-params", default=None,
                    help='JSON params for the named nonlinearity, e.g. {"gain": 17}')
    sp.add_argument("--f-table", default=None,
                    help="CSV of (s, f(s)) rows; overrides --f")
    sp.add_argument("--f0", type=float, default=1.0,
                    help="declared slope at zero for --f-table")
    sp.add_argument("--finf", type=float, default=1.0,
                    help="declared slope at infinity for --f-table")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--nu", choices=["+", "-"], default="+")
    sp.add_argument("--sigma", choices=["+", "-", "both"], default="+")
    sp.add_argument("--norm-budget", type=float, default=1e3)
    sp.add_argument("--max-steps", type=int, default=2000)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify-all", help="run the full verification battery")
    common(sp, seeded=True)
    sp.set_defaults(fn=_cmd_verify_all)
    return p


class _Stdout:
    """Standard output for one run.  A reader that has gone ends the output,
    not the run: the run still writes its files and manifest and returns
    its own exit code."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text):
        self._guard(self.stream.write, text)
        return len(text)

    def flush(self):
        self._guard(self.stream.flush)

    def _guard(self, call, *args):
        try:
            call(*args)
        except BrokenPipeError:
            # later output, and the interpreter's last flush, go to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, self.stream.fileno())
            os.close(null)


def run(argv=None):
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        return _run(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("fn",) and not callable(v)}
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        if args.n > MAX_N:
            raise ValidationError(f"--n must be at most {MAX_N}, got {args.n}")
        # the nearest existing ancestor of --out must be a directory
        anc = out = os.path.abspath(args.out)
        while not os.path.exists(anc):
            anc = os.path.dirname(anc)
        if not os.path.isdir(anc):
            where = "" if anc == out else f" is under '{anc}', which"
            raise ValidationError(f"--out '{args.out}'{where} exists and is not a directory")
        code, paths = args.fn(args)
        _write_manifest(args.out, args.command, config, paths)
    except (ValidationError, OSError) as exc:
        # an OSError here is an output the system cannot create or write
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

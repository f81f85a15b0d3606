"""beamspec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory.  Workloads are `spectra`, `oracle` and `branches` (see
perfbench/README.md).  With `--trace 0` the run reports the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it runs one untraced and one
traced pass and reports the per-layer metrics.  The last line of standard
output is the result object; the line before it is the full record
(environment, phase and operation times, check margins), which is also
written to perfbench/out/ together with the spans of a traced pass.
"""

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh-process set-ups per run; setup_s is their median
SETUP_RUNS = 5


def import_library():
    """Import beamspec from this checkout's src/, and nothing else."""
    if not (SRC / "beamspec" / "__init__.py").is_file():
        sys.exit(f"error: no beamspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamspec
    if Path(beamspec.__file__).resolve().parent != SRC / "beamspec":
        sys.exit(f"error: imported beamspec from {beamspec.__file__}, not {SRC}")


def time_setups(count, n):
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(n)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def blas_libraries():
    """Vendor configuration and thread count of every OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so[.\d]*)$", fh.read(), re.M)))
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry.update(config=config().decode(), threads=threads())
                    break
            if "config" in entry:
                break
        libs.append(entry)
    return libs


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_libraries(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")},
        "numba": has_numba,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("spectra", "oracle", "branches"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="passes repeat while the next one is expected to end "
                         "within this budget; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid and short shooting, for testing the harness")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_library()
    # these import beamspec, so they come after src/ is on the path
    import setup_probe
    import tracing
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    setup_times = [] if args.trace else time_setups(1 if args.smoke else SETUP_RUNS, size.n)
    start = time.perf_counter()
    setup_probe.warm_up(size.n)
    inputs = workload.inputs(args.seed, size)
    in_process_setup = time.perf_counter() - start

    tracer = None
    if args.trace:
        passes = [workloads.run_pass(workload, inputs)]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(workloads.run_pass(workload, inputs, tracer))
        finally:
            tracer.uninstall()
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workloads.run_pass(workload, inputs))
            if args.smoke or (time.perf_counter() - start + passes[-1].wall
                              > args.seconds):
                break

    verdicts = [v for p in passes for v in workload.check(inputs, p)]
    failed = sum(not v.ok for v in verdicts)
    eigenpairs_per_s = workloads.rate(verdicts, "pencil", passes, workload.pencil_phase)
    results_per_s = workloads.rate(verdicts, "result", passes, workload.result_phase)

    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, passes[1].wall, passes[0].wall)
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "eigenpairs_per_s": {"value": eigenpairs_per_s, "unit": "1/s"},
            "results_per_s": {"value": results_per_s, "unit": "1/s"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "n": size.n, "environment": environment(),
        "setup": {"fresh_process_s": setup_times, "in_process_s": in_process_setup},
        "passes": [{"wall_s": p.wall, "phases_s": p.phases, "ops_s": p.op_seconds}
                   for p in passes],
        "ops_failed_frac": failed / len(verdicts),
        "eigenpairs_per_s": eigenpairs_per_s,
        workload.result_name: results_per_s,
        "checks": workloads.summarize(verdicts),
        "failures": {v.label: v.error or v.margins for v in verdicts if not v.ok},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_csv(OUT / f"{stem}-spans.csv")
    record_line = json.dumps(record, default=float)
    (OUT / f"{stem}.json").write_text(record_line + "\n")
    print(record_line)
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

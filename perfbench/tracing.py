"""Spans around the public functions of each beamspec layer, installed from outside.

The library carries no instrumentation of its own, so the traced run wraps
the functions it wants to see.  `from .x import y` binds at import time,
which means one function object can sit in several module namespaces
(`continuation.eigen_pencil`, `spectrum.nodal_profile`,
`nonlinear.lambda2`, and `spectrum._shoot` under another name).  A wrapper
therefore replaces the object in every `beamspec.*` namespace that holds
it, and `uninstall` puts every original back.

Spans are kept in memory as (name, start, end, parent, op, count) rows;
parent is the index of the enclosing span (-1 at top level), op the id of
the benchmark operation that caused it, and count a number the wrapper
read off the result (accepted points of a traced branch), or 0.
"""

import functools
import sys
import time

# layer -> public functions wrapped in that layer.  Only functions that sit
# on a layer boundary are listed: lambda_solve (inside lambda2) and
# classify_zero (inside nodal_profile) stay unwrapped so that the listed
# functions keep their own cost as self time.
TARGETS = {
    "spectrum": ("eigen_pencil", "widest_resolvable_window",
                 "eigen_pencil_extrapolated"),
    "linops": ("det_sign_psi", "lambda2"),
    "analysis": ("degree_parity_sweep",),
    "shooting": ("shoot_eigenvalue", "shoot_nodal_solution"),
    "nodal": ("nodal_profile", "find_zeros"),
    "nonlinear": ("fp_residual", "newton"),
    "continuation": ("trace_branch", "bifurcation_start", "cross_hyperplane",
                     "solve_nodal"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


def _accepted_steps(branch):
    return len(branch.points) - 1


# counts read off a function's result, stored on its span
RESULT_COUNTS = {"continuation.trace_branch": _accepted_steps}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def begin_op(self):
        self.op += 1

    def _wrap(self, name, fn):
        count_of = RESULT_COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            count = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    count = count_of(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, count)

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "beamspec" or key.startswith("beamspec.")]
        for layer, fns in TARGETS.items():
            owner = sys.modules[f"beamspec.{layer}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op,count\n")
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op},{count}\n")


def unit_of(metric):
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(("pencil_calls", "calls_per_point", "points_per_profile",
                        "overhead_frac")):
        return "ratio"
    if metric.endswith((".calls", ".points", ".spans")):
        return "count"
    return "ms" if ".ms_per_" in metric else "s"


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, traced_wall, untraced_wall):
    """Per-layer counts, self times and ratios of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.  The
    self times of all spans plus `other.self_s` (harness time outside any
    span) add up to the traced wall time.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    top_level = 0.0
    for name, start, end, parent, _, _ in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur
        if parent >= 0:
            self_s[spans[parent][0]] -= dur
        else:
            top_level += dur

    in_window = in_branch_profile = in_branch_residual = 0
    steps = 0
    for i, (name, *_rest, count) in enumerate(spans):
        if name == "spectrum.eigen_pencil":
            in_window += _has_ancestor(spans, i, "spectrum.widest_resolvable_window")
        elif name == "nodal.nodal_profile":
            in_branch_profile += _has_ancestor(spans, i, "continuation.trace_branch")
        elif name == "nonlinear.fp_residual":
            in_branch_residual += _has_ancestor(spans, i, "continuation.trace_branch")
        elif name == "continuation.trace_branch":
            steps += count

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["spectrum.widest_resolvable_window.pencil_calls"] = ratio(
        in_window, calls["spectrum.widest_resolvable_window"])
    out["linops.det_sign_psi.ms_per_call"] = ratio(
        total["linops.det_sign_psi"], calls["linops.det_sign_psi"], 1e3)
    out["shooting.shoot_eigenvalue.s_per_call"] = ratio(
        total["shooting.shoot_eigenvalue"], calls["shooting.shoot_eigenvalue"])
    out["nodal.find_zeros.ms_per_call"] = ratio(
        total["nodal.find_zeros"], calls["nodal.find_zeros"], 1e3)
    out["nonlinear.fp_residual.calls_per_point"] = ratio(in_branch_residual, steps)
    out["continuation.trace_branch.ms_per_point"] = ratio(
        total["continuation.trace_branch"], steps, 1e3)
    out["continuation.points"] = steps
    out["continuation.points_per_profile"] = ratio(steps, in_branch_profile)
    out["other.self_s"] = traced_wall - top_level
    out["trace.wall_s"] = traced_wall
    out["trace.spans"] = len(spans)
    out["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    return out

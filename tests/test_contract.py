"""Generated inputs for the CLI exit-code contract.

Every command but verify-all runs in-process through cli.run on drawn
arguments: built-in weights or generated weight and f-table CSVs (NaN,
+-inf, 1e+-300, too few rows, t off the grid), out-of-range numbers and
--f-params.  Each run must return an exit code in {0, 1, 2, 3}, raise
nothing and warn of nothing; a run that exits 0 must leave a manifest
whose checksums hold.

Sizes stay small or lie beyond the bounds that the CLI refuses before
any work: --n is at most 48 or above cli.MAX_N, --samples and --pairs
are small or above their maxima, and --max-steps is small.  The draws
are derandomized, so every run of the suite tries the same cases.
"""

import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamspec import cli
from beamspec.presets import ASYMPTOTIC_FS, PERTURBATIONS, WEIGHTS
from beamspec.verify import MAX_STURM_PAIRS
from test_cli import _manifest_checks_out

SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0]

# a number option's text: mostly plain floats, else special values or
# non-numbers
FLOAT = st.floats(-300.0, 300.0).map(repr)
NUMBER = st.one_of(FLOAT, FLOAT, st.sampled_from(SPECIAL).map(repr),
                   st.sampled_from(["abc", ""]))
# couplings in the admissible interval of k = 1 on the constant weight
# with the saturating f, besides any number
GAMMA = st.one_of(st.floats(50.0, 95.0).map(repr), NUMBER)
STEP = st.one_of(st.floats(1e-5, 0.5).map(repr), NUMBER)
# mostly grids the CLI accepts, else too coarse or above cli.MAX_N
N = st.one_of(st.integers(8, 48), st.integers(8, 48), st.integers(-2, 7),
              st.integers(cli.MAX_N + 1, 10**12))
# mostly the first few pairs of a window
K = st.one_of(st.integers(1, 3), st.integers(-1, 14))
ALWAYS = ("--n", "--weight", "--gamma", "--samples", "--pairs", "--max-steps")


def _bounded(low, high, maximum):
    """Small values, mostly valid ones, or values above the refused maximum."""
    return st.one_of(st.integers(1, high), st.integers(low, high),
                     st.integers(maximum + 1, 10**12))


@st.composite
def _csv_rows(draw, count, column):
    """count rows of (x, column(x)), x uniform on [0, 1]; half of them
    corrupted, by an x column off [0, 1] or up to three special values."""
    corrupt = draw(st.booleans())
    scale = draw(st.sampled_from([1.0, 1.5, -1.0])) if corrupt else 1.0
    xs = [scale * i / max(count - 1, 1) for i in range(count)]
    values = [column(x) for x in xs]
    for i, v in draw(st.lists(st.tuples(st.integers(0, max(count - 1, 0)),
                                        st.sampled_from(SPECIAL)),
                              max_size=3 if corrupt else 0)):
        if i < count:
            values[i] = v
    return "".join(f"{x!r},{v!r}\n" for x, v in zip(xs, values))


@st.composite
def _weight(draw, n, tmp):
    """A built-in weight name, or the path of a generated weight CSV."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(WEIGHTS) + ["nope"]))
    # mostly one row per grid node, else too few rows
    fits = 8 <= n <= 48 and draw(st.sampled_from([True, True, True, False]))
    count = n + 2 if fits else draw(st.integers(0, 9))
    shape = draw(st.sampled_from([
        lambda t: math.sin(3.0 * math.pi * t), lambda t: 1.0, lambda t: -1.0 - t,
        lambda t: 0.0, lambda t: 1.0 - 2.0 * t]))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e9, 1e300]))
    path = os.path.join(tmp, "weight.csv")
    with open(path, "w") as fh:
        fh.write("t,value\n" + draw(_csv_rows(count, lambda t: scale * shape(t))))
    return path


@st.composite
def _f_table(draw, tmp):
    count = draw(st.integers(0, 12))
    shape = draw(st.sampled_from([lambda s: s, lambda s: 3.0 * s - 2.0 * math.atan(s),
                                  lambda s: -s, lambda s: s * s]))
    path = os.path.join(tmp, "f.csv")
    with open(path, "w") as fh:
        fh.write("s,f\n" + draw(_csv_rows(count, shape)))
    return path


F_PARAMS = st.one_of(
    st.fixed_dictionaries({"gain": st.one_of(st.sampled_from(SPECIAL[3:]),
                                             st.floats(-10.0, 1e12),
                                             st.sampled_from(["2", None, True]))}),
    st.sampled_from(['{"bogus": 1}', "[17]", "{bad", "null", "{}"]))


@st.composite
def _argv(draw, tmp):
    command = draw(st.sampled_from(["spectrum", "degree", "sturm", "branch", "solve"]))
    n = draw(N)
    options = {"--n": n}
    if command != "sturm":
        options["--weight"] = draw(_weight(n, tmp))
    if command in ("degree", "sturm"):
        options["--seed"] = draw(st.one_of(st.integers(0, 3), st.integers(-1, 3)))
    if command == "spectrum":
        options["--kmax"] = draw(st.integers(-1, 14))
        options["--kneg"] = draw(st.integers(-3, 14))
    elif command == "degree":
        options["--samples"] = draw(_bounded(-2, 12, cli.MAX_SAMPLES))
    elif command == "sturm":
        options["--pairs"] = draw(_bounded(-1, 4, MAX_STURM_PAIRS))
    else:
        options["--k"] = draw(K)
        options["--nu"] = draw(st.sampled_from(["+", "-"]))
        options["--sigma"] = draw(st.sampled_from(["+", "-", "both"]))
        options["--norm-budget"] = draw(NUMBER)
        options["--max-steps"] = draw(st.integers(-1, 12))
    if command == "branch":
        options["--g"] = draw(st.sampled_from(sorted(PERTURBATIONS) + ["quartic"]))
        options["--ds"] = draw(STEP)
        options["--ds-max"] = draw(STEP)
    elif command == "solve":
        options["--gamma"] = draw(GAMMA)
        if draw(st.booleans()):
            options["--f-table"] = draw(_f_table(tmp))
            options["--f0"] = draw(NUMBER)
            options["--finf"] = draw(NUMBER)
        else:
            options["--f"] = draw(st.sampled_from(sorted(ASYMPTOTIC_FS) + ["cubic"]))
            params = draw(F_PARAMS)
            options["--f-params"] = params if isinstance(params, str) else json.dumps(params)
    # the other options may be left at their defaults; the sizes never are
    kept = [opt for opt in options if opt in ALWAYS or draw(st.booleans())]
    return [command] + [f"{opt}={options[opt]}" for opt in kept]


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_generated_input_keeps_the_exit_code_contract(data, time_limit):
    time_limit(60)
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(_argv(tmp), label="argv")
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(argv + ["--out", out])
        assert code in (0, 1, 2, 3)
        assert [str(w.message) for w in caught] == []
        if code == 0:
            _manifest_checks_out(out)

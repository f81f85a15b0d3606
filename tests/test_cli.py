import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import beamspec
from beamspec.cli import run


def _manifest_checks_out(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    for entry in manifest["files"]:
        path = os.path.join(outdir, entry["path"])
        assert os.path.exists(path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == entry["sha256"]
    return manifest


def test_spectrum_command(tmp_path):
    out = str(tmp_path / "spec")
    code = run(["spectrum", "--weight", "one", "--n", "400", "--kmax", "3",
                "--out", out])
    assert code == 0
    with open(os.path.join(out, "spectrum.json")) as fh:
        blob = json.load(fh)
    assert blob["positive"][0]["mu"] == pytest.approx(97.409, rel=1e-3)
    assert blob["negative"] == []
    assert os.path.exists(os.path.join(out, "phi_pos_k1.csv"))
    _manifest_checks_out(out)


def test_degree_command(tmp_path):
    out = str(tmp_path / "deg")
    code = run(["degree", "--weight", "sin3pi", "--n", "300",
                "--samples", "10", "--seed", "3", "--out", out])
    assert code == 0
    with open(os.path.join(out, "degree_parity.json")) as fh:
        blob = json.load(fh)
    assert blob["all_match"]


def test_sturm_command(tmp_path):
    out = str(tmp_path / "sturm")
    code = run(["sturm", "--pairs", "12", "--n", "400", "--seed", "1",
                "--out", out])
    assert code == 0
    with open(os.path.join(out, "sturm_suite.json")) as fh:
        blob = json.load(fh)
    assert blob["pairs"] == 12
    assert blob["control_a_failed"] and blob["control_b_failed"]
    _manifest_checks_out(out)


def test_solve_command_and_rejection(tmp_path):
    out = str(tmp_path / "sol")
    gamma = 0.75 * np.pi**4
    code = run(["solve", "--weight", "one", "--f", "saturating",
                "--gamma", f"{gamma}", "--k", "1", "--sigma", "+",
                "--n", "400", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "solution_k1_p_p.csv"))
    _manifest_checks_out(out)

    bad = run(["solve", "--weight", "one", "--f", "saturating",
               "--gamma", f"{0.25 * np.pi**4}", "--k", "1", "--sigma", "+",
               "--n", "400", "--out", str(tmp_path / "bad")])
    assert bad == 2


def _atan_table(path):
    # f(s) = 3 s - 2 atan s has slope 1 at zero and 3 at infinity; knots
    # 5e-4 apart inside +-0.05 keep the chord slope the asymptotics check
    # samples at s = +-1e-7 within its 1e-3 tolerance of f0 = 1
    outer = 0.05 * np.arange(2, 201)
    s = np.concatenate([-outer[::-1], np.linspace(-0.05, 0.05, 201), outer])
    rows = "".join(f"{x:.17g},{3.0 * x - 2.0 * np.arctan(x):.17g}\n" for x in s)
    path.write_text("s,f\n" + rows)
    return s


def test_table_f_interpolates_its_knots(tmp_path):
    from beamspec.presets import table_f
    s = _atan_table(tmp_path / "f.csv")
    f = table_f(str(tmp_path / "f.csv"), 1.0, 3.0).f
    exact = 3.0 * s - 2.0 * np.arctan(s)
    assert np.array_equal(f(s), exact)
    mid = 0.5 * (s[:-1] + s[1:])
    np.testing.assert_allclose(f(mid), 0.5 * (exact[:-1] + exact[1:]), rtol=1e-13, atol=1e-16)
    # beyond the table, straight on with the declared slope at infinity
    assert f(s[-1] + 2.0) == pytest.approx(exact[-1] + 6.0, rel=1e-15)


def test_solve_command_with_f_table(tmp_path):
    _atan_table(tmp_path / "f.csv")
    out = tmp_path / "sol"
    code = run(["solve", "--n", "300", "--gamma", "70", "--f-table",
                str(tmp_path / "f.csv"), "--f0", "1", "--finf", "3",
                "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "solution_k1_p_p.csv")
    _manifest_checks_out(out)


def test_huge_first_step_is_capped_at_the_norm_budget(tmp_path, capsys, monkeypatch):
    # a step as long as the norm budget already leaves it, so ds = 1e299
    # starts at the budget instead of halving toward it one newton call
    # at a time
    from beamspec import continuation
    newton, calls = continuation.newton, []
    monkeypatch.setattr(continuation, "newton",
                        lambda *a, **kw: calls.append(a) or newton(*a, **kw))
    assert run(["branch", "--ds", "1e299", "--ds-max", "1e300", "--n", "300",
                "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("2 points, termination NormBudget") == 2
    # one start polish and one step per half
    assert len(calls) == 4


def test_branch_step_failure_exits_3_with_its_manifest(tmp_path, capsys, monkeypatch):
    # every corrector call after the start polish fails, so both halves end
    # in StepFailure at DS_MIN; the run still writes and checksums its files
    from beamspec import cli, continuation
    from beamspec.errors import NoConvergence
    trace = cli.trace_branch

    def forced(*args, **kwargs):
        raise NoConvergence("forced")

    def failing_trace(*args):
        with monkeypatch.context() as patch:
            patch.setattr(continuation, "newton", forced)
            return trace(*args)

    monkeypatch.setattr(cli, "trace_branch", failing_trace)
    out = tmp_path / "b"
    assert run(["branch", "--n", "48", "--out", str(out)]) == 3
    assert capsys.readouterr().out.count("1 points, termination StepFailure") == 2
    manifest = _manifest_checks_out(out)
    assert "branch_k1_p_p.json" in [e["path"] for e in manifest["files"]]
    with open(out / "branch_k1_p_n.json") as fh:
        assert json.load(fh)["flags"] == ["step failure: forced"]


def test_branch_command_deterministic_svg(tmp_path):
    args = ["branch", "--weight", "one", "--g", "cubic", "--k", "1",
            "--sigma", "both", "--n", "300", "--norm-budget", "20",
            "--ds", "0.001", "--ds-max", "0.02"]
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    with open(os.path.join(out1, "diagram.svg"), "rb") as f1, \
            open(os.path.join(out2, "diagram.svg"), "rb") as f2:
        assert f1.read() == f2.read()
    manifest = _manifest_checks_out(out1)
    assert any(e["path"].endswith(".csv") for e in manifest["files"])
    # the two sigma halves were written
    assert os.path.exists(os.path.join(out1, "branch_k1_p_p.json"))
    assert os.path.exists(os.path.join(out1, "branch_k1_p_n.json"))


def test_branch_outputs_reproducible(tmp_path):
    # byte-determinism of every manifest-referenced file across reruns
    args = ["branch", "--weight", "one", "--g", "cubic", "--k", "1",
            "--sigma", "+", "--n", "300", "--norm-budget", "10",
            "--ds", "0.001", "--ds-max", "0.05"]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    m1 = _manifest_checks_out(out1)
    m2 = _manifest_checks_out(out2)
    assert [e["sha256"] for e in m1["files"]] == [e["sha256"] for e in m2["files"]]


def test_branch_certifies_only_the_traced_sign_class(tmp_path):
    # k = 7 lies in the positive class of sin3pi; the negative class cannot
    # be certified 11 pairs deep at n = 300 and must not be asked for
    out = str(tmp_path / "b")
    assert run(["branch", "--n", "300", "--weight", "sin3pi", "--k", "7",
                "--nu", "+", "--max-steps", "3", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "branch_k7_p_p.json"))
    assert os.path.exists(os.path.join(out, "branch_k7_p_n.json"))


def test_usage_and_validation_exit_codes(tmp_path):
    assert run(["no-such-command"]) == 1
    assert run(["spectrum", "--weight", "up", "--n", "300",
                "--out", str(tmp_path / "x")]) == 2


def test_spectrum_rejects_impossible_weight(tmp_path):
    # custom CSV weight that is nowhere positive
    from beamspec.grid import make_grid, sample, to_csv
    g = make_grid(300)
    m = sample(lambda t: -1.0 - 0.1 * t, g)
    path = tmp_path / "neg.csv"
    to_csv(m, path)
    code = run(["spectrum", "--weight", str(path), "--n", "300", "--kmax", "2",
                "--out", str(tmp_path / "y")])
    assert code == 2


def _malformed_files(tmp_path):
    from beamspec.grid import make_grid, sample, to_csv
    g = make_grid(300)
    to_csv(sample(lambda t: -1.0 - 0.1 * t, g), tmp_path / "neg.csv")
    to_csv(sample(lambda t: 0.0 * t, g), tmp_path / "zero.csv")
    to_csv(sample(lambda t: np.sin(3 * np.pi * t), g), tmp_path / "nan.csv")
    rows = (tmp_path / "nan.csv").read_text().splitlines()
    rows[5] = rows[5].split(",")[0] + ",nan"
    (tmp_path / "nan.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "table.csv").write_text("s,f\n0,0\n1,oops\n")
    (tmp_path / "identity.csv").write_text("s,f\n-1,-1\n0,0\n1,1\n")
    return {name: str(tmp_path / f"{name}.csv")
            for name in ("neg", "zero", "nan", "table", "identity")}


@pytest.mark.parametrize("argv, code", [
    # a weight with no positive part has an all-negative spectrum; its
    # positive samples expect parity +1
    (["degree", "--weight", "{neg}", "--samples", "6"], 0),
    (["degree", "--weight", "{zero}", "--samples", "6"], 2),
    (["spectrum", "--weight", "one", "--kmax", "13"], 2),
    (["spectrum", "--weight", "{nan}"], 2),
    (["solve", "--gamma", "70", "--f-params", "{{bad"], 2),
    (["solve", "--gamma", "70", "--f-params", "[17]"], 2),
    (["solve", "--gamma", "70", "--f-table", "{table}"], 2),
    (["degree", "--samples", "-2"], 2),
    (["degree", "--seed", "-1"], 2),
    (["sturm", "--pairs", "0"], 2),
    (["branch", "--norm-budget", "-5"], 2),
    (["branch", "--max-steps", "0"], 2),
    (["branch", "--max-steps", "-1"], 2),
    (["branch", "--k", "0"], 2),
    (["solve", "--gamma", "70", "--k", "0"], 2),
    (["spectrum", "--kneg", "-2"], 2),
    # the working directory: a path that exists but is not a CSV file
    (["spectrum", "--weight", "."], 2),
    # a first step far beyond the norm budget: ds is capped at the budget,
    # and each branch leaves it in one step
    (["branch", "--ds", "1e299", "--ds-max", "1e300"], 0),
    # JSON reads 1e400 as inf, which makes f NaN everywhere
    (["solve", "--gamma", "73.05", "--f-params", '{{"gain": 1e400}}'], 2),
    # a relative tolerance on an infinite declared slope passes any sample
    (["solve", "--gamma", "73.05", "--f-table", "{identity}", "--f0", "inf",
      "--finf", "1"], 2),
    (["solve", "--gamma", "73.05", "--f-table", "{identity}", "--f0", "1",
      "--finf", "inf"], 2),
], ids=["degree-negative-weight", "degree-zero-weight", "spectrum-kmax-13",
        "spectrum-nan-weight", "solve-bad-json", "solve-json-not-object",
        "solve-bad-table", "degree-negative-samples", "degree-negative-seed",
        "sturm-zero-pairs", "branch-negative-norm-budget", "branch-max-steps-0",
        "branch-max-steps-negative", "branch-k-0", "solve-k-0",
        "spectrum-kneg-minus-2", "spectrum-weight-directory", "branch-ds-overflow",
        "solve-infinite-gain", "solve-table-infinite-f0", "solve-table-infinite-finf"])
def test_malformed_inputs_exit_without_traceback(tmp_path, capsys, argv, code):
    files = _malformed_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--n", "300", "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    # numpy's overflow warnings would name library internals to the user
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("module", ["beamspec", "beamspec.cli"])
def test_module_entry_points_write_the_spectrum(tmp_path, module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamspec.__file__)))
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", module, "spectrum", "--n", "48",
                           "--kmax", "2", "--out", str(out)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == ["manifest.json", "phi_pos_k1.csv",
                                       "phi_pos_k2.csv", "spectrum.json"]
    _manifest_checks_out(out)


@pytest.mark.parametrize("argv", [["branch"], ["solve", "--gamma", "70"]],
                         ids=["branch", "solve"])
def test_k_below_one_is_refused_before_the_pencil(tmp_path, capsys, monkeypatch,
                                                  argv):
    from beamspec import spectrum
    calls = []
    monkeypatch.setattr(spectrum, "eigh", lambda *a, **kw: calls.append(a))
    assert run(argv + ["--k", "0", "--n", "300", "--out", str(tmp_path)]) == 2
    assert "--k must be at least 1, got 0" in capsys.readouterr().err
    assert calls == []


def test_out_that_is_a_file_is_refused_before_the_pencil(tmp_path, capsys,
                                                         monkeypatch):
    from beamspec import spectrum
    calls = []
    monkeypatch.setattr(spectrum, "eigh", lambda *a, **kw: calls.append(a))
    out = tmp_path / "taken"
    out.write_text("")
    assert run(["spectrum", "--n", "48", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: ValidationError: --out '{out}' exists" in err
    assert "Traceback" not in err
    assert calls == []


def test_out_under_a_file_is_refused_before_the_pencil(tmp_path, capsys,
                                                       monkeypatch):
    # the nearest existing ancestor of --out is a regular file, so the
    # directory can never be made
    from beamspec import spectrum
    calls = []
    monkeypatch.setattr(spectrum, "eigh", lambda *a, **kw: calls.append(a))
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" / "deeper"
    assert run(["spectrum", "--n", "48", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"error: ValidationError: --out '{out}' is under '{afile}', "
            "which exists and is not a directory") in err
    assert "Traceback" not in err
    assert calls == []

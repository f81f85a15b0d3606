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


def _tree(outdir):
    """Sorted paths of the files under outdir, manifest.json left out."""
    return sorted(os.path.relpath(os.path.join(root, name), outdir)
                  for root, _, names in os.walk(outdir) for name in names
                  if name != "manifest.json")


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
    # samples at s = +-1e-9 within its 1e-3 tolerance of f0 = 1
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


def test_solve_refuses_the_sign_condition_before_the_window(tmp_path, capsys,
                                                           monkeypatch):
    # both slopes are 1, but f(s) s < 0 on part of (0, 1): the early
    # hypothesis check refuses f before the pencil window is computed
    from beamspec import cli
    calls = []
    monkeypatch.setattr(cli, "widest_resolvable_window", lambda m: calls.append(m))
    s = [-10.0, -0.05, 0.0, 0.05, 0.1, 0.3, 0.8, 10.0]
    f = [-10.0, -0.05, 0.0, 0.05, 0.1, -0.5, 0.8, 10.0]
    table = tmp_path / "f.csv"
    table.write_text("s,f\n" + "".join(f"{a},{b}\n" for a, b in zip(s, f)))
    assert run(["solve", "--n", "48", "--gamma", "70", "--f-table", str(table),
                "--f0", "1", "--finf", "1", "--out", str(tmp_path / "out")]) == 2
    assert ("AsymptoticMismatch: sign condition f(s) s > 0 fails on samples"
            in capsys.readouterr().err)
    assert calls == []


def test_huge_first_step_is_capped_at_the_norm_budget(tmp_path, capsys, monkeypatch):
    # a step as long as the norm budget already leaves it, so ds = 1e299
    # starts at the budget instead of halving toward it one newton call
    # at a time.  The corrector's tolerance is the start's, about 1e-10:
    # the step at the budget stalls at a residual of about 3e-10 and one
    # at half of it converges
    from beamspec import continuation
    newton, calls = continuation.newton, []
    monkeypatch.setattr(continuation, "newton",
                        lambda *a, **kw: calls.append(a) or newton(*a, **kw))
    assert run(["branch", "--ds", "1e299", "--ds-max", "1e300", "--n", "300",
                "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("2 points, termination NormBudget") == 2
    # one start polish and two steps per half
    assert len(calls) == 6


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
    # in a fresh directory the manifest covers every file the run left
    assert [e["path"] for e in manifest["files"]] == _tree(out1)
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


def test_manifest_lists_only_the_files_of_its_run(tmp_path):
    # a second run into the same directory writes fewer pairs, next to a
    # stray file: its manifest checksums what it wrote and nothing else
    out = tmp_path / "d"
    assert run(["spectrum", "--n", "40", "--kmax", "3", "--out", str(out)]) == 0
    assert [e["path"] for e in _manifest_checks_out(out)["files"]] == _tree(out)
    (out / "notes.txt").write_text("not an output\n")
    assert run(["spectrum", "--n", "40", "--kmax", "1", "--out", str(out)]) == 0
    manifest = _manifest_checks_out(out)
    assert manifest["config"]["kmax"] == 1
    assert [e["path"] for e in manifest["files"]] == ["phi_pos_k1.csv", "spectrum.json"]
    assert "phi_pos_k3.csv" in _tree(out)


def test_branch_certifies_only_the_traced_sign_class(tmp_path):
    # k = 7 lies in the positive class of sin3pi; at n = 300 the window cuts
    # the negative class after 9 pairs, which must not stop a positive branch
    out = str(tmp_path / "b")
    assert run(["branch", "--n", "300", "--weight", "sin3pi", "--k", "7",
                "--nu", "+", "--max-steps", "3", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "branch_k7_p_p.json"))
    assert os.path.exists(os.path.join(out, "branch_k7_p_n.json"))


@pytest.mark.parametrize("nu", ["+", "-"])
def test_branch_starts_from_every_certified_pair(tmp_path, nu):
    # k = 5 is the third pair of linear_ramp on either side, and the ninth
    # pair of each side is uncertifiable at n = 300: the lookup stays short of it
    out = str(tmp_path / "b")
    assert run(["branch", "--n", "300", "--weight", "linear_ramp", "--k", "5",
                "--nu", nu, "--max-steps", "3", "--out", out]) == 0
    side = "p" if nu == "+" else "n"
    assert os.path.exists(os.path.join(out, f"branch_k5_{side}_p.json"))
    assert os.path.exists(os.path.join(out, f"branch_k5_{side}_n.json"))


@pytest.mark.parametrize("weight, k", [("linear_ramp", 14), ("one", 13)],
                         ids=["cut-before-an-uncertifiable-pair", "cut-at-12-pairs"])
def test_k_outside_the_window_is_refused(tmp_path, capsys, weight, k):
    from beamspec.grid import make_grid, sample
    from beamspec.presets import WEIGHTS
    from beamspec.spectrum import widest_resolvable_window
    certified = [p.k for p in widest_resolvable_window(
        sample(WEIGHTS[weight], make_grid(300))).positive]
    assert k not in certified
    assert run(["branch", "--n", "300", "--weight", weight, "--k", str(k),
                "--max-steps", "3", "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotInWeightClass: ")
    assert f"(present nodal indices: {certified})" in err


def _edge_lobe_weight_csv(path, n=300):
    """A weight positive on about 14 % of [0, 1], next to t = 1.  Its
    positive eigenfunctions are localized there: their tails on t < 1/2
    fall below the float floor, so the pencil certifies no positive pair
    at n = 300 to 4000, while the decomposition returns the positive eigenvalues."""
    from beamspec.grid import make_grid, sample, to_csv
    a = (-0.85795648, 0.97206671, 0.19274591, 0.08930649)
    b = (-0.59102835, -0.11860982, -1.99774629, -1.13140747)

    def fn(t):
        return -0.30147885 + sum((aj * np.sin(j * np.pi * t) + bj * np.cos(j * np.pi * t)) / j
                                 for j, (aj, bj) in enumerate(zip(a, b), start=1))

    to_csv(sample(fn, make_grid(n)), path)
    return str(path)


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_degree_parity_counts_uncertified_eigenvalues(tmp_path, seed):
    # every positive sample above mu_1^+ sees one eigenvalue below it,
    # though the window certifies no positive pair; counting the certified
    # pairs alone read 0 there and mismatched 19 to 21 of 50 samples
    weight = _edge_lobe_weight_csv(tmp_path / "w.csv")
    out = tmp_path / "deg"
    assert run(["degree", "--n", "300", "--weight", weight, "--seed", str(seed),
                "--out", str(out)]) == 0
    with open(out / "degree_parity.json") as fh:
        rows = json.load(fh)["rows"]
    assert len(rows) == 50 and all(row["match"] for row in rows)
    assert any(row["mu"] > 0 and row["count"] > 0 for row in rows)


def test_cuts_name_their_cause(tmp_path, capsys):
    weight = _edge_lobe_weight_csv(tmp_path / "w.csv")
    # the first positive eigenfunction's tail lies below the float floor:
    # a finer grid would not resolve it, so the message does not ask for one
    assert run(["spectrum", "--n", "300", "--weight", weight, "--kmax", "1",
                "--kneg", "0", "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NodalMismatch: eigenfunction at mu=1.17328e+06 has "
                          "unresolved near-zero region at t=")
    assert err.rstrip().endswith("its amplitude there lies below the float floor, "
                                 "1e-08 of max|u|, which a finer grid does not lift")
    assert "too coarse" not in err
    # the positive side holds eigenvalues but no certified pair
    assert run(["branch", "--n", "300", "--weight", weight, "--k", "1", "--nu", "+",
                "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == (
        "error: NotInWeightClass: no certified eigenfunction in the positive class: "
        "the decomposition found 12 eigenvalues there, from mu=1.17328e+06, but the "
        "window was cut before the first of them\n")


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


@pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-row"])
def test_short_weight_csv_names_its_rows(tmp_path, capsys, rows):
    path = tmp_path / "short.csv"
    path.write_text("t,value\n" + "".join(f"{i / (rows + 1)},1\n" for i in range(rows)))
    assert run(["branch", "--n", "300", "--weight", str(path),
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: TooCoarse: {path}: need at least 10 data rows "
        f"(8 interior nodes and 2 endpoints), got {rows}\n")


def test_verify_all_writes_its_report_and_exits_3_on_a_failure(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from beamspec import cli
    reports = [{"criterion": c, "passed": c != 4} for c in range(1, 11)]
    branch = SimpleNamespace(k=1, nu=+1, sigma=+1, origin_mu=97.4,
                             points=[SimpleNamespace(mu=97.0,
                                                     profile=SimpleNamespace(norm=0.5))])
    calls = []
    monkeypatch.setattr(cli, "verify_all",
                        lambda **kw: calls.append(kw) or (reports, [branch]))
    out = tmp_path / "v"
    assert run(["verify-all", "--n", "60", "--seed", "7", "--out", str(out)]) == 3
    assert calls == [{"n": 60, "seed": 7}]
    with open(out / "verify_report.json") as fh:
        blob = json.load(fh)
    assert (blob["n"], blob["seed"]) == (60, 7)
    assert blob["criteria"] == [{"criterion": c, "label": cli.LABELS[c],
                                 "passed": c != 4} for c in range(1, 11)]
    manifest = _manifest_checks_out(out)
    assert [e["path"] for e in manifest["files"]] == ["diagram.svg", "verify_report.json"]


def _malformed_files(tmp_path):
    from beamspec.grid import make_grid, sample, to_csv
    g = make_grid(300)
    to_csv(sample(lambda t: -1.0 - 0.1 * t, g), tmp_path / "neg.csv")
    to_csv(sample(lambda t: 0.0 * t, g), tmp_path / "zero.csv")
    to_csv(sample(lambda t: 1.0 + 0.0 * t, make_grid(48)), tmp_path / "n48.csv")
    to_csv(sample(lambda t: 1e300 * (1.0 - 2.0 * t), g), tmp_path / "huge.csv")
    to_csv(sample(lambda t: np.sin(3 * np.pi * t), g), tmp_path / "nan.csv")
    rows = (tmp_path / "nan.csv").read_text().splitlines()
    rows[5] = rows[5].split(",")[0] + ",nan"
    (tmp_path / "nan.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "table.csv").write_text("s,f\n0,0\n1,oops\n")
    (tmp_path / "identity.csv").write_text("s,f\n-1,-1\n0,0\n1,1\n")
    (tmp_path / "header.csv").write_text("t,value\n")
    (tmp_path / "onerow.csv").write_text("t,value\n0,0\n")
    return {name: str(tmp_path / f"{name}.csv")
            for name in ("neg", "zero", "n48", "huge", "nan", "table", "identity", "header",
                         "onerow")}


@pytest.mark.parametrize("argv, code", [
    # a weight with no positive part has an all-negative spectrum; its
    # positive samples expect parity +1
    (["degree", "--weight", "{neg}", "--samples", "6"], 0),
    (["degree", "--weight", "{zero}", "--samples", "6"], 2),
    # every eigenvalue lies within 1e-290 of zero: the samples start a
    # thousandth of the reach away from mu = 0, not at 1e-3 beyond it
    (["degree", "--weight", "{huge}", "--samples", "6"], 0),
    (["spectrum", "--weight", "one", "--kmax", "13"], 2),
    (["spectrum", "--weight", "{nan}"], 2),
    (["solve", "--gamma", "70", "--f-params", "{{bad"], 2),
    (["solve", "--gamma", "70", "--f-params", "[17]"], 2),
    (["solve", "--gamma", "70", "--f-table", "{table}"], 2),
    (["degree", "--samples", "-2"], 2),
    (["degree", "--seed", "-1"], 2),
    # only the randomized commands take a seed
    (["spectrum", "--seed", "1"], 1),
    (["branch", "--seed", "1"], 1),
    (["solve", "--gamma", "70", "--seed", "1"], 1),
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
    # a predictor whose E-norm overflows fails its step, and ds halves
    (["branch", "--norm-budget", "1e308", "--ds", "1e307", "--ds-max", "1e308",
      "--sigma", "+"], 3),
    # a secant whose squared length overflows ends each half as a step
    # failure, with the points before it written
    (["branch", "--g", "zero", "--norm-budget", "1e308", "--ds", "1e307",
      "--ds-max", "1e308"], 3),
    # halving keeps an infinite ds infinite: refused before any step
    (["branch", "--ds", "inf", "--ds-max", "inf", "--norm-budget", "inf"], 2),
    (["branch", "--weight", "{header}"], 2),
    (["branch", "--weight", "{onerow}"], 2),
    (["solve", "--gamma", "73.05", "--f-table", "{header}"], 2),
    # refused before the sweep would draw 1e11 samples at once
    (["degree", "--samples", "99999999999"], 2),
    # f0 reads 0 at s = +-1e-9, f's slope in floats, and f overflows at
    # s = 1e6; refused with no numpy warning
    (["solve", "--gamma", "70", "--f-params", '{{"gain": 1e308}}'], 2),
    (["branch", "--g", "quartic"], 2),
    (["solve", "--gamma", "70", "--f", "cubic"], 2),
    # both refused before the pencil would allocate n x n matrices, or the
    # suite would draw up to 50 candidates per pair
    (["spectrum", "--n", "5001"], 2),
    (["sturm", "--pairs", "10001"], 2),
    # a weight sampled on another grid than the run's
    (["spectrum", "--weight", "{n48}"], 2),
    # a parameter the nonlinearity's factory does not take
    (["solve", "--gamma", "70", "--f-params", '{{"bogus": 1}}'], 2),
], ids=["degree-negative-weight", "degree-zero-weight", "degree-huge-weight",
        "spectrum-kmax-13",
        "spectrum-nan-weight", "solve-bad-json", "solve-json-not-object",
        "solve-bad-table", "degree-negative-samples", "degree-negative-seed",
        "spectrum-seed", "branch-seed", "solve-seed",
        "sturm-zero-pairs", "branch-negative-norm-budget", "branch-max-steps-0",
        "branch-max-steps-negative", "branch-k-0", "solve-k-0",
        "spectrum-kneg-minus-2", "spectrum-weight-directory", "branch-ds-overflow",
        "solve-infinite-gain", "solve-table-infinite-f0", "solve-table-infinite-finf",
        "branch-enorm-overflow", "branch-secant-overflow", "branch-infinite-ds",
        "branch-header-only-weight", "branch-one-row-weight",
        "solve-header-only-table", "degree-samples-above-maximum",
        "solve-overflowing-gain", "branch-unknown-perturbation",
        "solve-unknown-nonlinearity", "spectrum-n-above-maximum",
        "sturm-pairs-above-maximum", "spectrum-weight-on-another-grid",
        "solve-unknown-f-param"])
def test_malformed_inputs_exit_without_traceback(tmp_path, capsys, time_limit,
                                                argv, code):
    # the slowest case, branch-secant-overflow, takes about 30 s: about 1 000
    # stalled corrector calls per half before its first step; a hang fails its case
    time_limit(60)
    files = _malformed_files(tmp_path)
    # the defaults go before the case's own options, so a case's --n wins
    argv = argv[:1] + ["--n", "300", "--out", str(tmp_path / "out")] + [
        a.format(**files) for a in argv[1:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    # numpy's overflow and empty-input warnings would name library
    # internals to the user
    assert [str(w.message) for w in caught] == []
    if argv[0] == "branch" and code in (0, 3):
        # a branch run that ends, failed or not, writes every half it traced
        written = [e["path"] for e in _manifest_checks_out(tmp_path / "out")["files"]]
        halves = [p for p in written if p.startswith("branch_") and p.endswith(".json")]
        assert len(halves) == (1 if "--sigma" in argv else 2)


@pytest.mark.parametrize("argv, message", [
    (["verify-all", "--n", "24"],
     "TooCoarse: the battery needs n >= 32, got 24: criterion 10's coarsest "
     "rung has n // 4 interior nodes"),
    (["spectrum", "--n", "5001"], "--n must be at most 5000, got 5001"),
    (["sturm", "--pairs", "10001"], "need 1..10000 pairs, got 10001"),
], ids=["verify-all-too-coarse", "spectrum-n-above-maximum",
        "sturm-pairs-above-maximum"])
def test_size_arguments_out_of_bounds_are_refused_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    from beamspec import spectrum
    calls = []
    monkeypatch.setattr(spectrum, "_decompose", lambda *a, **kw: calls.append(a))
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


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
    monkeypatch.setattr(spectrum, "_decompose", lambda *a, **kw: calls.append(a))
    assert run(argv + ["--k", "0", "--n", "300", "--out", str(tmp_path)]) == 2
    assert "--k must be at least 1, got 0" in capsys.readouterr().err
    assert calls == []


def test_out_that_is_a_file_is_refused_before_the_pencil(tmp_path, capsys,
                                                         monkeypatch):
    from beamspec import spectrum
    calls = []
    monkeypatch.setattr(spectrum, "_decompose", lambda *a, **kw: calls.append(a))
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
    monkeypatch.setattr(spectrum, "_decompose", lambda *a, **kw: calls.append(a))
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" / "deeper"
    assert run(["spectrum", "--n", "48", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"error: ValidationError: --out '{out}' is under '{afile}', "
            "which exists and is not a directory") in err
    assert "Traceback" not in err
    assert calls == []


def test_an_out_path_the_system_cannot_create_exits_2(tmp_path, capsys):
    # each path component may hold at most 255 bytes, so makedirs fails
    # with ENAMETOOLONG once the spectrum is computed
    out = tmp_path / ("a" * 300)
    assert run(["spectrum", "--n", "48", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OSError: ") and "File name too long" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, files", [
    (["degree", "--weight", "sin3pi", "--samples", "200"], ["degree_parity.json"]),
    (["spectrum", "--kmax", "2"], ["phi_pos_k1.csv", "phi_pos_k2.csv", "spectrum.json"]),
], ids=["degree", "spectrum"])
def test_a_reader_that_has_gone_ends_the_output_not_the_run(tmp_path, argv, files):
    # the read end closes before the run writes a line, so every write to
    # stdout fails with EPIPE, whenever the buffer happens to be flushed
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamspec.__file__)))
    out = tmp_path / "o"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "beamspec", *argv, "--n", "48",
                               "--out", str(out)],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(os.listdir(out)) == sorted(["manifest.json", *files])
    _manifest_checks_out(out)

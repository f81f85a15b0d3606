import hashlib
import json
import os

import numpy as np
import pytest

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


def test_branch_command_deterministic_svg(tmp_path):
    args = ["branch", "--weight", "one", "--g", "cubic", "--k", "1",
            "--sigma", "both", "--n", "300", "--norm-budget", "20",
            "--ds", "0.001", "--ds-max", "0.02"]
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    svg1 = open(os.path.join(out1, "diagram.svg"), "rb").read()
    svg2 = open(os.path.join(out2, "diagram.svg"), "rb").read()
    assert svg1 == svg2
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


def test_thread_fanout_is_deterministic(tmp_path, monkeypatch):
    # the sigma halves may run on worker threads; results must not depend
    # on the fan-out width
    args = ["branch", "--weight", "one", "--g", "cubic", "--k", "1",
            "--sigma", "both", "--n", "300", "--norm-budget", "10",
            "--ds", "0.001", "--ds-max", "0.05"]
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "threaded")
    monkeypatch.setenv("BEAMSPEC_THREADS", "1")
    assert run(args + ["--out", out1]) == 0
    monkeypatch.setenv("BEAMSPEC_THREADS", "2")
    assert run(args + ["--out", out2]) == 0
    m1 = _manifest_checks_out(out1)
    m2 = _manifest_checks_out(out2)
    assert [e["sha256"] for e in m1["files"]] == [e["sha256"] for e in m2["files"]]


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
    return {name: str(tmp_path / f"{name}.csv")
            for name in ("neg", "zero", "nan", "table")}


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
], ids=["degree-negative-weight", "degree-zero-weight", "spectrum-kmax-13",
        "spectrum-nan-weight", "solve-bad-json", "solve-json-not-object",
        "solve-bad-table"])
def test_malformed_inputs_exit_without_traceback(tmp_path, capsys, argv, code):
    files = _malformed_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    assert run(argv + ["--n", "300", "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err

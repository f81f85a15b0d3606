import dataclasses
from types import SimpleNamespace

import numpy as np

from beamspec import verify


def test_verify_all_runs_each_check_once_and_prints_in_criterion_order(monkeypatch,
                                                                      capsys):
    # every check is stubbed: the battery's wiring alone is under test
    calls = []

    def stub(name, *criteria, result=None):
        def check(*args, **kwargs):
            calls.append((name, args, kwargs))
            reports = [{"criterion": c, "passed": c != 7} for c in criteria]
            return result if result is not None else (
                reports[0] if len(reports) == 1 else tuple(reports))
        monkeypatch.setattr(verify, name, check)

    grid, branches = object(), [object()]
    spectra = {"one": SimpleNamespace(grid=grid)}
    stub("compute_spectra", result=spectra)
    stub("run_branch_battery", result=branches)
    stub("check_analytic_spectrum", 1)
    stub("check_nodal_counts", 2)
    stub("check_oracle_agreement", 3)
    stub("check_degree_parity", 4)
    stub("check_sturm_suite", 5)
    stub("check_branch_invariants", 6, 7)
    stub("check_nodal_solutions", 8)
    stub("check_spacing", 9)
    stub("check_convergence_order", 10)

    reports, got_branches = verify.verify_all(n=60, seed=7)

    assert got_branches is branches
    assert [r["criterion"] for r in reports] == list(range(1, 11))
    assert calls == [
        ("compute_spectra", (60,), {}),
        ("check_analytic_spectrum", (spectra,), {}),
        ("check_nodal_counts", (spectra,), {}),
        ("check_oracle_agreement", (spectra,), {}),
        ("check_degree_parity", (spectra,), {"seed": 7}),
        ("check_sturm_suite", (), {"seed": 7 + 12345}),
        ("run_branch_battery", (grid, spectra), {}),
        ("check_branch_invariants", (branches,), {}),
        ("check_nodal_solutions", (spectra,), {}),
        ("check_spacing", (spectra,), {}),
        ("check_convergence_order", (spectra,), {}),
    ]
    assert capsys.readouterr().out.splitlines() == [
        f"{'FAIL' if c == 7 else 'PASS'}: criterion {c:2d} - {verify.LABELS[c]}"
        for c in range(1, 11)]


def test_an_oracle_bracket_without_a_sign_change_is_a_failed_row():
    # at n = 100 the coarse-grid extrapolation misses some roots by more
    # than the bracket built around it: the shoot finds no sign change,
    # which fails its row and the criterion instead of raising
    report = verify.check_oracle_agreement(verify.compute_spectra(100))
    assert report["passed"] is False
    failed = [r for r in report["rows"] if "error" in r]
    assert failed
    for row in failed:
        assert row["error"].startswith("NoSignChange: ")
        assert row["shoot"] is None and row["rel"] == np.inf


def _relabelled(window, rank, k):
    """A window holding only its positive pair of that rank, labelled k."""
    pair = dataclasses.replace(window.positive[rank - 1], k=k)
    return dataclasses.replace(window, positive=(pair,), negative=(), flags=())


def test_nodal_counts_accept_a_complete_window(spectrum_one800):
    report = verify.check_nodal_counts({"one": spectrum_one800})
    assert report["passed"]
    assert report["details"]["one+"] == [1, 2, 3, 4, 5, 6]


def test_nodal_counts_fail_a_swapped_label(spectrum_one800):
    # negative control: the k = 2 eigenfunction relabelled as k = 1
    report = verify.check_nodal_counts({"one": _relabelled(spectrum_one800, 2, 1)})
    assert not report["passed"]
    row = report["details"]["one+k1"]
    assert (row["zeros"], row["ok"]) == (1, False)


def test_spacing_of_the_constant_weight(spectrum_one800):
    # a worst gap error of at most 1e-3 forces j gaps of about 1/j each
    report = verify.check_spacing({"one": spectrum_one800})
    assert report["passed"] and report["worst"] <= 1e-3
    # negative control: the k = 2 eigenfunction relabelled as k = 3
    assert not verify.check_spacing({"one": _relabelled(spectrum_one800, 2, 3)})["passed"]

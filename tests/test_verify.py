import numpy as np

from beamspec import verify


def test_verify_all_runs_each_check_once_and_prints_in_criterion_order(monkeypatch):
    # every check is stubbed: the battery's wiring alone is under test
    calls = []

    def stub(name, *criteria, result=None):
        def check(*args, **kwargs):
            calls.append((name, args, kwargs))
            reports = [{"criterion": c, "passed": c != 7} for c in criteria]
            return result if result is not None else (
                reports[0] if len(reports) == 1 else tuple(reports))
        monkeypatch.setattr(verify, name, check)

    grid, spectra, branches = object(), object(), [object()]
    stub("compute_spectra", result=(grid, spectra))
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

    lines = []
    reports, got_branches = verify.verify_all(n=60, seed=7, printer=lines.append)

    assert got_branches is branches
    assert [r["criterion"] for r in reports] == list(range(1, 11))
    assert calls == [
        ("compute_spectra", (60,), {}),
        ("check_analytic_spectrum", (spectra,), {}),
        ("check_nodal_counts", (spectra,), {}),
        ("check_oracle_agreement", (grid, spectra), {}),
        ("check_degree_parity", (spectra,), {"seed": 7}),
        ("check_sturm_suite", (), {"seed": 7 + 12345}),
        ("run_branch_battery", (grid, spectra), {}),
        ("check_branch_invariants", (branches,), {}),
        ("check_nodal_solutions", (grid, spectra), {}),
        ("check_spacing", (spectra,), {}),
        ("check_convergence_order", (spectra,), {}),
    ]
    assert lines == [f"{'FAIL' if c == 7 else 'PASS'}: criterion {c:2d} - "
                     f"{verify.LABELS[c]}" for c in range(1, 11)]


def test_an_oracle_bracket_without_a_sign_change_is_a_failed_row():
    # at n = 100 the coarse-grid extrapolation misses some roots by more
    # than the bracket built around it: the shoot finds no sign change,
    # which fails its row and the criterion instead of raising
    grid, spectra = verify.compute_spectra(100)
    report = verify.check_oracle_agreement(grid, spectra)
    assert report["passed"] is False
    failed = [r for r in report["rows"] if "error" in r]
    assert failed
    for row in failed:
        assert row["error"].startswith("NoSignChange: ")
        assert row["shoot"] is None and row["rel"] == np.inf

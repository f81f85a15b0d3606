import dataclasses
from types import SimpleNamespace

import numpy as np

from beamspec import verify
from beamspec.continuation import (TERM_NORM_BUDGET, TERM_STEP_FAILURE, Branch,
                                   BranchPoint)
from beamspec.grid import make_grid, sample
from beamspec.nodal import nodal_profile


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


def _battery():
    """Ten k = 1 branches of 100 points, the sigma halves of five pairs:
    sigma a sin(pi t) for a from 1e-3 to 1e3 on 63 interior nodes, each
    point with its real nodal profile, every branch at its norm budget."""
    grid = make_grid(63)
    halves = {}
    for sigma in (+1, -1):
        points = []
        for i, a in enumerate(np.geomspace(1e-3, 1e3, 100)):
            u = sample(lambda t: sigma * a * np.sin(np.pi * t), grid)
            points.append(BranchPoint(mu=np.pi ** 4, u=u,
                                      profile=nodal_profile(u), arclength=float(i)))
        halves[sigma] = Branch(k=1, nu=+1, sigma=sigma, origin_mu=np.pi ** 4,
                               points=tuple(points), termination=TERM_NORM_BUDGET,
                               flags=())
    return [halves[sigma] for _ in range(5) for sigma in (+1, -1)]


def _with_point(branch, i, u, profile=None):
    """branch with its point i moved to u, profiled afresh unless given."""
    points = list(branch.points)
    points[i] = dataclasses.replace(points[i], u=u,
                                    profile=profile or nodal_profile(u))
    return dataclasses.replace(branch, points=tuple(points))


def test_branch_invariants_pass_a_healthy_battery():
    report6, report7 = verify.check_branch_invariants(_battery())
    assert report6["passed"] and report6["doubles"] == 0
    assert report6["points_per_branch"] == [100] * 10
    assert report7["passed"] and report7["containment"] and report7["distinct"]


def test_branch_invariants_fail_a_point_with_a_generalized_double_zero():
    # sin(pi t) (t - 1/2)^6 has u', u'' and u''' vanishing at the node t = 1/2
    branches = _battery()
    grid = branches[0].points[0].u.grid
    u = sample(lambda t: np.sin(np.pi * t) * (t - 0.5) ** 6, grid)
    assert not nodal_profile(u).is_nodal
    branches[0] = _with_point(branches[0], 50, u)
    report6, report7 = verify.check_branch_invariants(branches)
    assert not report6["passed"] and report6["doubles"] == 1
    assert not report7["passed"] and not report7["containment"]


def test_branch_invariants_fail_a_point_outside_its_nodal_class():
    # sin(2 pi t) is nodal with one interior zero: in S_2^+, not in S_1^+
    branches = _battery()
    u = sample(lambda t: np.sin(2.0 * np.pi * t), branches[2].points[0].u.grid)
    branches[2] = _with_point(branches[2], 99, u)
    report6, report7 = verify.check_branch_invariants(branches)
    assert report6["passed"]
    assert not report7["passed"] and not report7["containment"] and report7["distinct"]


def test_branch_invariants_fail_a_branch_that_stopped_short_of_its_budget():
    branches = _battery()
    branches[5] = dataclasses.replace(branches[5], termination=TERM_STEP_FAILURE)
    report6, report7 = verify.check_branch_invariants(branches)
    assert report6["passed"]
    assert not report7["passed"] and not report7["containment"] and report7["distinct"]


def test_branch_invariants_fail_sigma_halves_that_share_a_point():
    # the minus half takes the plus half's point 40 but keeps its own
    # profile there, so only the distinctness of the halves can fail
    branches = _battery()
    minus = branches[7]
    shared = branches[6].points[40].u
    branches[7] = _with_point(minus, 40, shared, profile=minus.points[40].profile)
    report6, report7 = verify.check_branch_invariants(branches)
    assert report6["passed"]
    assert not report7["passed"] and report7["containment"] and not report7["distinct"]


def test_the_range_check_skips_exactly_when_its_interval_is_empty(spectra, monkeypatch):
    # the saturating nonlinearity empties the (1, 2) interval on the n = 2000 window
    empty = verify.check_nodal_solutions(spectra)["details"]
    assert empty["range_driver"]["skipped"]
    assert empty["range_driver"]["notice"].startswith("interval (mu_2/finf, mu_1/f0) = (")
    # an interval the check reads as (0, inf) for every index is never empty;
    # solve_nodal keeps its own binding, so every solve and the rejection stay
    monkeypatch.setattr(verify, "admissible_interval", lambda mu, f: (0.0, np.inf))
    opened = verify.check_nodal_solutions(spectra)["details"]
    assert opened.pop("range_driver") == {"skipped": False}
    del empty["range_driver"]
    assert opened == empty

"""Acceptance criteria, one test per criterion, at their stated tolerances.

The heavy shared state is computed once: the pencil windows at n = 2000
(the session fixture `spectra`) and the traced branch battery (per module).
Each test prints its own PASS/FAIL line so a -s run reads as a checklist.
"""

import pytest
from conftest import counted

from beamspec import continuation, grid, nonlinear, shooting, spectrum, verify


@pytest.fixture
def decompositions(count_calls):
    """Grid size of every dense pencil decomposition a test runs."""
    return count_calls(spectrum, "_decompose",
                       key=lambda m, count_pos, count_neg, vectors: m.grid.n_interior)


@pytest.fixture(scope="module")
def traced(spectra):
    """The battery, traced once, and how often it called the corrector, the
    mixed factorization, the fixed-point residual and the stencils."""
    with pytest.MonkeyPatch.context() as mp:
        work = {name: counted(mp, owner, name)
                for owner, name in ((continuation, "newton"), (nonlinear, "_MixedLU"),
                                    (nonlinear, "_fp"), (grid, "derivative"))}
        branches = verify.run_branch_battery(spectra["one"].grid, spectra)
    return branches, {name: tally.total() for name, tally in work.items()}


@pytest.fixture(scope="module")
def branches(traced):
    return traced[0]


def _finish(report):
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{status}: criterion {report['criterion']} - "
          f"{verify.LABELS[report['criterion']]}")
    assert report["passed"], report


def test_criterion_01_analytic_spectrum(spectra):
    report = verify.check_analytic_spectrum(spectra, tol=1e-3)
    assert len(report["rel_errors"]) == 6
    _finish(report)


def test_criterion_02_nodal_count_law(spectra):
    _finish(verify.check_nodal_counts(spectra))


def test_criterion_03_oracle_agreement(spectra):
    report = verify.check_oracle_agreement(spectra, tol=1e-6)
    assert report["n_eigenvalues"] >= 20
    _finish(report)


def test_criterion_03_takes_138_determinants(spectra, count_calls):
    # each of the 29 centred shoots closes after 4 determinants but a few;
    # a change in the oracle's work shows here before it shows in time
    determinants = count_calls(shooting, "_finite_determinant")
    report = verify.check_oracle_agreement(spectra, tol=1e-6)
    assert report["n_eigenvalues"] == 29
    assert determinants.total() == 138


def test_criterion_03_builds_the_steps_once_per_weight(spectra):
    # the 29 shoots share their weight's folded steps: 4 builds, not 29
    shooting._folded_steps.cache_clear()
    report = verify.check_oracle_agreement(spectra, tol=1e-6)
    assert report["n_eigenvalues"] == 29
    assert shooting._folded_steps.cache_info().misses == len(spectra) == 4


def test_criterion_04_degree_parity(spectra):
    report = verify.check_degree_parity(spectra, seed=0)
    assert report["total_samples"] >= 150
    _finish(report)


def test_criterion_05_sturm_suite():
    report = verify.check_sturm_suite(n=1000, n_pairs=200, seed=12345)
    assert report["pairs"] == 200
    _finish(report)


def test_criterion_06_no_double_zeros(branches):
    report6, _ = verify.check_branch_invariants(branches)
    assert report6["branches"] >= 8
    assert min(report6["points_per_branch"]) >= 100
    _finish(report6)


def test_the_battery_takes_pinned_work(traced):
    # one corrector call per point, none failed; a change in the work the
    # battery does shows here, where its time hides in run-to-run spread
    _, work = traced
    assert work == {"newton": 1214, "_MixedLU": 1414, "_fp": 2628, "derivative": 3642}


def test_criterion_07_branch_containment(branches):
    _, report7 = verify.check_branch_invariants(branches)
    _finish(report7)


def test_criterion_08_nodal_solutions(spectra, decompositions):
    report = verify.check_nodal_solutions(spectra, residual_tol=1e-8,
                                          agree_tol=1e-4)
    details = report["details"]
    assert details["inadmissible_rejected"]
    if details["range_driver"].get("skipped"):
        print("NOTICE:", details["range_driver"]["notice"])
    # every solve, the multi-index ones included, reads the `one` window
    assert decompositions == {}
    _finish(report)


def test_criterion_09_zero_spacing(spectra, decompositions):
    report = verify.check_spacing(spectra)
    assert decompositions == {}
    _finish(report)


def test_criterion_10_convergence_order(spectra, decompositions):
    report = verify.check_convergence_order(spectra)
    for ratio in report["ratios"]:
        assert 3.8 <= ratio <= 4.2
    # the finest rung is the `one` window itself
    assert decompositions == {500: 1, 1000: 1}
    _finish(report)

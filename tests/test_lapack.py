import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import beamspec
from beamspec import _lapack
from beamspec.grid import make_grid, sample
from beamspec.linops import SecondDiffOperator


def test_eigh_is_scipys_bit_for_bit():
    # the pencil's G at n = 300 for sin(3 pi t), formed as the pencil forms it
    m = sample(lambda t: np.sin(3 * np.pi * t), make_grid(300))
    a = SecondDiffOperator(m.grid)
    g = a.solve(a.solve(np.diag(m.interior)).T)
    g = 0.5 * (g + g.T)
    vals, vecs = _lapack.eigh(g)
    ref_vals, ref_vecs = scipy.linalg.eigh(g)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
    assert np.array_equal(_lapack.eigh(g, eigvals_only=True),
                          scipy.linalg.eigh(g, eigvals_only=True))


def test_eigh_refuses_non_finite_input():
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.eigh(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def _run(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamspec.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def test_the_module_file_is_loaded_without_the_package():
    assert _run("import sys, beamspec\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                "import scipy.linalg, scipy.linalg.lapack as lapack\n"
                "print(all(getattr(lapack, name) is getattr(beamspec._lapack, name)\n"
                "          for name in ('dpttrf', 'dpttrs', 'dgbtrf', 'dgbtrs')))\n"
                ).split() == ["[]", "True"]


def test_an_imported_scipy_linalg_lends_its_module():
    assert _run("import sys, scipy.linalg, beamspec\n"
                "print(beamspec._lapack._f is sys.modules['scipy.linalg._flapack'])\n"
                ).split() == ["True"]


def test_a_scipy_without_the_module_file_falls_back_to_the_package():
    # no extension suffix matches, so the loader finds no file and the
    # routines come from scipy.linalg's own import
    code = (
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n"
        "import numpy as np, beamspec\n"
        "from beamspec import _lapack, linops, spectrum\n"
        "assert _lapack._f is sys.modules['scipy.linalg._flapack']\n"
        "m = beamspec.sample(lambda t: np.ones_like(t), beamspec.make_grid(100))\n"
        "mu = spectrum.eigen_pencil(m, 2, 0).positive[0].mu\n"
        "print(round(mu / np.pi**4, 3), linops.det_sign_psi(2.0 * mu, m))\n")
    assert _run(code).split() == ["1.0", "-1"]

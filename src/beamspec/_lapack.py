"""The five LAPACK routines beamspec calls, bound without scipy.linalg.

The pencil's eigenvalues go through dsyevr, the operator A through
dpttrf/dpttrs, and the degree signs and the branch corrector through
dgbtrf/dgbtrs.  All five live in scipy's compiled f2py module
scipy/linalg/_flapack.  Reaching them as scipy.linalg.lapack.X runs
scipy.linalg's package init first, and that init is most of the cost of
`import beamspec`:

    scipy.linalg/__init__
      -> _cythonized_array_utils -> scipy._lib._util -> _array_api
      -> array_api_compat.numpy, whose clone_module("numpy") touches every
         lazy numpy submodule: numpy.f2py, numpy.testing (with unittest
         and email), numpy.ma and others.

Measured with `python -X importtime` on 2 vCPUs (numpy 2.4, scipy
1.17.1): through scipy.linalg, `import beamspec` took 449-533 ms, of which
scipy.linalg took 258-338 ms, and left a peak memory of 56.6 MB against
26.8 MB for numpy alone.  Bound as below it takes 205-238 ms and 31.3 MB.

So the module file is loaded directly, under its own name (the init
symbol is PyInit__flapack), without importing the scipy package and
without leaving an entry in sys.modules.  A scipy with another layout falls back to
the package import: the same routines, only slower to reach.

eigh runs scipy.linalg.eigh's default path for a real symmetric matrix
and nothing else: a finiteness check, the dsyevr workspace query, and
dsyevr on the lower triangle, so its output is bit for bit scipy's.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _flapack():
    """scipy's _flapack extension module, loaded from its file."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:    # scipy.linalg is imported already
        return sys.modules[name]
    try:
        base = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                            "linalg", "_flapack")
        for path in (base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES):
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = loader.create_module(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
                # CPython enters a single-phase extension module into
                # sys.modules itself; without that entry a later import of
                # scipy.linalg loads it afresh, with these same routines
                sys.modules.pop(name, None)
                return module
    except (ImportError, OSError, AttributeError):
        pass
    from scipy.linalg import _flapack
    return _flapack


_f = _flapack()
dpttrf, dpttrs, dgbtrf, dgbtrs = _f.dpttrf, _f.dpttrs, _f.dgbtrf, _f.dgbtrs


def eigh(a, overwrite_a=False, eigvals_only=False):
    """Eigenvalues, ascending, and unless eigvals_only the eigenvectors as
    columns, of the real symmetric matrix a read from its lower triangle."""
    a = np.asarray_chkfinite(a)
    work, iwork, _ = _f.dsyevr_lwork(a.shape[0], lower=1)
    w, v, _, _, info = _f.dsyevr(a, compute_v=0 if eigvals_only else 1, lower=1,
                                 overwrite_a=overwrite_a, lwork=int(work),
                                 liwork=int(iwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return w if eigvals_only else (w, v)

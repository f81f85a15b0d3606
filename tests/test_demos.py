"""The narrative scripts under demos/ run to completion on the library."""

import os
import shutil
import subprocess
import sys

import beamspec

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def test_every_demo_runs(tmp_path):
    # each script runs from a copy, since some write their outputs next to
    # themselves.  All six start at once with one BLAS thread each: six
    # processes with a thread per core each took twice as long on 2 cores
    # as running the scripts one after another
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamspec.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    names = sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))
    assert len(names) == 6
    procs = {}
    for name in names:
        script = shutil.copy(os.path.join(DEMOS, name), tmp_path)
        procs[name] = subprocess.Popen([sys.executable, script], cwd=tmp_path, env=env,
                                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                       text=True)
    for name, proc in procs.items():
        output = proc.communicate()[0]
        assert proc.returncode == 0, f"{name}:\n{output}"
        assert "Traceback" not in output, f"{name}:\n{output}"

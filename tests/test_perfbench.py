"""The benchmark's own smoke test passes.

perfbench reaches into the package by name: its traced ladder patches
``solver.l2_project``, ``solver.coercivity_norm``, ``harness.case_by_name``
and more.  A rename there breaks the benchmark, and this test makes that
break fail here.  It runs in a subprocess because ``perfbench/run.py`` pins
the BLAS threads in ``os.environ`` at import, which would leak into the
subprocesses of later tests.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/test_smoke.py"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

"""The measurement tools still run against the package.

``tools/memory_phases.py`` wraps ``solver._factor_plan``, ``solver._factor``
and ``solver._SaturationSolves`` by name, and ``tools/helper_sweep.py``
patches ``solver._can_run_helper`` and reads ``solver._helper``, so a
change to any of them that a tool no longer fits fails here rather than at
the next measurement.
"""

import pathlib
import subprocess
import sys

from dgflow import solver

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the stages of the first step on a new mesh, wherever the saturations go
STAGES = ("set-up", "coefficients", "hand-over", "pressure assembly", "plan",
          "factorisation", "pressure solve", "RT0", "a solve", "v solve")


def test_memory_phases_prints_every_stage(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "memory_phases.py"),
                           "--n", "4", "--steps", "1", "--warmup", "none"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # a row: step, stage name, then ru_maxrss, rise, VmRSS and the helper's two
    stages = [" ".join(line.split()[1:-5]) for line in lines if line.split()[0] == "0"]
    assert stages[0] == "set-up" and set(stages) == set(STAGES)
    assert lines[-1].startswith("# main ru_maxrss ")


def test_helper_sweep_prints_one_row_per_size(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "helper_sweep.py"),
                           "--sizes", "4", "--reps", "1", "--steps", "2", "--warmup", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if line.split()[:1] == ["4x4"]]
    assert len(rows) == 1
    # the helper runs exactly where this machine can run it
    assert rows[0].endswith(f"in the helper {int(solver._can_run_helper())}/1")

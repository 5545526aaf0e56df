"""Compare the final states of a parent revision and this checkout bit for bit.

    python3 tools/bitwise_states.py --parent HEAD~1

Unpacks ``--parent`` with ``git archive`` into a temporary directory and,
for it and for this checkout as it stands on disk, marches four
``solver.advance`` steps from the initial projection on each of: the
constant-density case at 8x8, the gravity case at 16x16, two meshes one
element thick whose vertical or horizontal interior-face group is empty
(gravity at 1x4, constant densities at 4x1), all with the saturations
solved in-process, and the gravity case at 32x32 (in the helper process,
where the machine can run it).  Each tree runs in its own interpreter.  Prints, per run and
field (pressure, s_a, s_v), whether ``np.array_equal`` holds, and exits 1
if any field differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from ab_pairs import export_tree  # noqa: E402

# the helper, once started, lives on, so the in-process runs come first
RUNS = (("constant_densities", 8, 8), ("gravity", 16, 16), ("gravity", 1, 4),
        ("constant_densities", 4, 1), ("gravity", 32, 32))
STEPS = 4
TAU = 1 / 64
FIELDS = ("pressure", "sat_a", "sat_v")

MARCH = """
import sys
import numpy as np
from dgflow import solver
from dgflow.assembly import SchemeConfig
from dgflow.harness import case_by_name
from dgflow.mesh import build_uniform_mesh

out = {}
for name, nx, ny in RUNS:
    case = case_by_name(name)
    state = solver.initialize(case, build_uniform_mesh(nx, ny))
    for _ in range(STEPS):
        state = solver.advance(state, TAU, SchemeConfig(), case)
    for field in FIELDS:
        out[f"{name}_{nx}x{ny}_{field}"] = getattr(state, field).coeffs
    out[f"{name}_{nx}x{ny}_helper"] = np.array(getattr(solver, "_helper", None) is not None)
np.savez(sys.argv[1], **out)
"""


def march(tree: Path, dest: Path) -> dict:
    """Final states of every run in ``RUNS``, computed from ``tree``'s sources."""
    code = f"RUNS = {RUNS!r}; STEPS = {STEPS}; TAU = {TAU!r}; FIELDS = {FIELDS!r}\n" + MARCH
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", code, str(dest)], cwd=tree, env=env, check=True)
    with np.load(dest) as data:
        return dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bitwise_states_") as tmp:
        parent_tree = Path(tmp) / "parent"
        commit = export_tree(args.parent, parent_tree)
        parent = march(parent_tree, Path(tmp) / "parent.npz")
        change = march(ROOT, Path(tmp) / "change.npz")

    print(f"parent {commit} against the working tree, {STEPS} steps of tau = {TAU}")
    same = True
    for name, nx, ny in RUNS:
        key = f"{name}_{nx}x{ny}"
        where = "helper" if change[key + "_helper"] else "in-process"
        for field in FIELDS:
            equal = np.array_equal(parent[f"{key}_{field}"], change[f"{key}_{field}"])
            same &= equal
            print(f"{name:20s} {nx:3d}x{ny:<3d} {where:10s} {field:8s} "
                  f"{'identical' if equal else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

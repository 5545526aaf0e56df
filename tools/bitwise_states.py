"""Compare the final states of a parent revision and this checkout bit for bit.

    python3 tools/bitwise_states.py --parent HEAD~1
    python3 tools/bitwise_states.py --parent HEAD~1 --rtol 1e-10

Unpacks ``--parent`` with ``git archive`` into a temporary directory and,
for it and for this checkout as it stands on disk, marches four
``solver.advance`` steps from the initial projection on each of: the
constant-density case at 8x8, the gravity case at 16x16, two meshes one
element thick whose vertical or horizontal interior-face group is empty
(gravity at 1x4, constant densities at 4x1), the gravity case at 8x8 with
Neumann sides (pressure on the right side, s_a on the top side), the
gravity case at 32x32, and an 8x8 run that leaves no parameter at its
default value of 1: permeability 2.5, gravity (0.1, -0.2), a Neumann side
for each unknown, the symmetric pressure form with penalty 5 and the
incomplete aqueous form with penalty 3.  Each run is marched twice: once with the
saturations solved in-process (``solver._can_run_helper`` patched to
False) and once as the tree itself chooses, which is the helper process
where the tree and the machine run it.  Each tree runs in its own
interpreter.  Prints, per run and field (pressure, s_a, s_v), where each
tree solved the saturations and whether ``np.array_equal`` holds, and
exits 1 if any field differs.  With ``--rtol``, prints instead the largest
difference of each run and field relative to the parent field's largest
magnitude, and exits 1 if any exceeds the tolerance.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from ab_pairs import export_tree  # noqa: E402

RUNS = (("constant_densities", 8, 8), ("gravity", 16, 16), ("gravity", 1, 4),
        ("constant_densities", 4, 1), ("gravity_neumann", 8, 8), ("gravity", 32, 32),
        ("kappa_theta", 8, 8))
MODES = ("in-process", "default")
STEPS = 4
TAU = 1 / 64
FIELDS = ("pressure", "sat_a", "sat_v")

MARCH = """
import sys
import numpy as np
from dgflow import solver
from dgflow.assembly import SchemeConfig
from dgflow.harness import case_by_name
from dgflow.manufactured import ManufacturedCase, gravity_case
from dgflow.mesh import build_uniform_mesh
from dgflow.physics import FluidProperties

SCHEMES = {"kappa_theta": SchemeConfig(theta_p=-1, alpha_p=5.0, theta_a=0, alpha_a=3.0)}


def build_case(name):
    # the sides left out are Neumann
    if name == "gravity_neumann":
        return ManufacturedCase(name, gravity_case().fluids, dirichlet_sides={
            "pressure": ("left", "bottom", "top"), "sat_a": ("left", "right", "bottom")})
    if name == "kappa_theta":
        fluids = FluidProperties(permeability=2.5, gravity=(0.1, -0.2))
        return ManufacturedCase(name, fluids, dirichlet_sides={
            "pressure": ("left", "bottom", "top"), "sat_a": ("left", "right", "bottom"),
            "sat_v": ("right", "bottom", "top")})
    return case_by_name(name)


can_run_helper = solver._can_run_helper
out = {}
for mode in MODES:
    for name, nx, ny in RUNS:
        # a helper left from the previous run would hide where this one ran
        if solver._helper is not None:
            solver._helper.close()
            solver._helper = None
        solver._can_run_helper = can_run_helper if mode == "default" else lambda: False
        case = build_case(name)
        state = solver.initialize(case, build_uniform_mesh(nx, ny))
        for _ in range(STEPS):
            state = solver.advance(state, TAU, SCHEMES.get(name, SchemeConfig()), case)
        key = f"{mode}_{name}_{nx}x{ny}"
        for field in FIELDS:
            out[f"{key}_{field}"] = getattr(state, field).coeffs
        out[f"{key}_helper"] = np.array(solver._helper is not None)
np.savez(sys.argv[1], **out)
"""


def march(tree: Path, dest: Path) -> dict:
    """Final states of every run in ``RUNS``, computed from ``tree``'s sources."""
    code = (f"RUNS = {RUNS!r}; MODES = {MODES!r}; STEPS = {STEPS}; TAU = {TAU!r}; "
            f"FIELDS = {FIELDS!r}\n" + MARCH)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", code, str(dest)], cwd=tree, env=env, check=True)
    with np.load(dest) as data:
        return dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--rtol", type=float, default=None,
                        help="pass within this relative difference instead of bit for bit")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bitwise_states_") as tmp:
        parent_tree = Path(tmp) / "parent"
        commit = export_tree(args.parent, parent_tree)
        parent = march(parent_tree, Path(tmp) / "parent.npz")
        change = march(ROOT, Path(tmp) / "change.npz")

    print(f"parent {commit} against the working tree, {STEPS} steps of tau = {TAU}; "
          "saturations solved in (parent/change)")
    same = True
    for mode, (name, nx, ny) in itertools.product(MODES, RUNS):
        key = f"{mode}_{name}_{nx}x{ny}"
        where = "/".join("helper" if side[key + "_helper"] else "in-process"
                         for side in (parent, change))
        for field in FIELDS:
            a, b = parent[f"{key}_{field}"], change[f"{key}_{field}"]
            if args.rtol is None:
                ok = np.array_equal(a, b)
                verdict = "identical" if ok else "DIFFERENT"
            else:
                rel = float(np.max(np.abs(b - a)) / np.max(np.abs(a)))
                ok = rel <= args.rtol
                verdict = f"max rel diff {rel:.3e} {'within' if ok else 'BEYOND'} {args.rtol:g}"
            same &= ok
            print(f"{name:20s} {nx:3d}x{ny:<3d} {where:21s} {field:8s} {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""Walk through the mesh and broken-Q1 building blocks.

Builds a small structured grid, inspects faces and neighbors, projects a
smooth function onto the discontinuous space and measures how the
projection error and the DG norms behave under refinement.
"""

import numpy as np

from dgflow import build_uniform_mesh
from dgflow.dg_core import (DGField, coercivity_norm, jump, l2_error,
                            l2_project, star_norm)

mesh = build_uniform_mesh(2, 2)
print(f"mesh: {mesh}")
print(f"  elements: {mesh.n_elements}, faces: {mesh.n_faces} "
      f"({len(mesh.interior_faces)} interior / {len(mesh.boundary_faces)} boundary)")

face = mesh.face(mesh.interior_faces[0])
print(f"  first interior face: between elements {face.k1} and {face.k2}, "
      f"normal {face.normal}, length {face.length}")

# project a smooth function and watch the error drop by ~4x per refinement
f = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)
print("\nL2 projection of sin(pi x) cos(pi y):")
m = mesh
for level in range(4):
    proj = l2_project(f, m)
    print(f"  h={m.dx:<8} error={l2_error(proj, f):.4e}  "
          f"|||.|||={coercivity_norm(proj):.4f}  "
          f"star={star_norm(proj):.4f}")
    m = m.refine()

# jumps of a projected (discontinuous) field across one face
m = build_uniform_mesh(4, 4)
proj = l2_project(f, m)
fid = m.interior_faces[0]
print(f"\nprojection jump across face {fid} at midpoint: "
      f"{jump(proj, m.face(fid), 0.5):+.3e} (projections are discontinuous)")

# a field built from a single element is nonzero on its side only
single = DGField.zeros(m)
single.coeffs[m.face_k1[fid], :] = 1.0
print(f"jump of an indicator-like field on that face: "
      f"{jump(single, m.face(fid), 0.5):+.1f}")

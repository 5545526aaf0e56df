"""Structured quadrilateral meshes with oriented faces for face-based DG assembly.

The mesh is a uniform nx-by-ny lattice of axis-aligned rectangles.  It is
built from one map, ``elem_to_faces``, and one ownership rule: an element
is the first adjacent element ``k1`` of a face exactly where the face's
stored unit normal is its outward normal (``elem_face_sign`` +1), which
holds on its right and top faces, and on its left and bottom faces only at
the boundary.  So every interior face's normal points from ``k1`` into the
second element ``k2``, and boundary faces store the outward normal of
their single element.  Every face array is scattered from the map by that
rule, and the face groups are read off ``face_k2`` and ``face_tag``.
Physical points of reference points come from one affine map,
:meth:`Mesh.points`.  All arrays are read-only (``boundary_by_side`` is a
read-only mapping), so a mesh can be shared freely once built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

# Local face slots of an element, in this fixed order.
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3

SIDE_NAMES = ("left", "right", "bottom", "top")

INTERIOR = -1  # boundary-tag value for interior faces

# Outward unit normals of the four local face slots, one row per slot.
EDGE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
EDGE_NORMALS.flags.writeable = False


class InvalidDomainError(ValueError):
    """Raised for a degenerate domain rectangle."""


@dataclass(frozen=True)
class Face:
    """Record view of one mesh face."""

    id: int
    kind: str              # "interior" | "boundary"
    k1: int                # first adjacent element
    k2: int | None         # second adjacent element (interior faces only)
    normal: np.ndarray     # unit 2-vector, points from k1 into k2 / outward
    length: float
    midpoint: np.ndarray
    tag: str | None        # boundary side name, None for interior faces


class Mesh:
    """Uniform rectangular grid of ``nx * ny`` quadrilateral elements (each
    count an integer >= 1) on the rectangle ``domain = (x0, y0, x1, y1)``,
    whose bounds are finite with ``x1 > x0`` and ``y1 > y0``.

    Element ``(i, j)`` occupies ``[x0+i*dx, x0+(i+1)*dx] x [y0+j*dy, ...]``
    and has flat index ``j*nx + i``.  Faces are numbered with all vertical
    faces first (column-major), then all horizontal faces (row-major).

    Instances are immutable after construction.
    """

    def __init__(self, nx: int, ny: int, domain=(0.0, 0.0, 1.0, 1.0)):
        try:
            x0, y0, x1, y1 = (float(v) for v in domain)
        except (TypeError, ValueError) as exc:
            raise InvalidDomainError(f"domain must be four numbers (x0, y0, x1, y1), "
                                     f"got {domain!r}") from exc
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (nx, ny)):
            raise ValueError(f"element counts must be integers >= 1, got nx={nx!r}, "
                             f"ny={ny!r}")
        if not (all(map(math.isfinite, (x0, y0, x1, y1))) and x1 > x0 and y1 > y0):
            raise InvalidDomainError(f"degenerate domain rectangle {domain}")

        self.nx = int(nx)
        self.ny = int(ny)
        self.domain = (x0, y0, x1, y1)
        self.dx = (x1 - x0) / nx
        self.dy = (y1 - y0) / ny
        self.n_elements = self.nx * self.ny
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        nx, ny, dx, dy = self.nx, self.ny, self.dx, self.dy
        n_v = (nx + 1) * ny
        n_f = self.n_faces = n_v + (ny + 1) * nx
        j, i = np.divmod(np.arange(self.n_elements), nx)

        # the column and row of each element's four faces; vertical faces are
        # numbered i*ny + j, horizontal ones n_v + j*nx + i
        vertical = EDGE_NORMALS[:, 0] != 0.0
        col = i[:, None] + (EDGE_NORMALS[:, 0] > 0)
        row = j[:, None] + (EDGE_NORMALS[:, 1] > 0)
        e2f = np.where(vertical, col * ny + row, n_v + row * nx + col)
        # the faces in column 0 or nx, or in row 0 or ny, are on the boundary
        boundary = np.where(vertical, col % nx, row % ny) == 0
        # the ownership rule: k1 where the stored normal is the outward one;
        # flat indices into (element, slot)
        owner = boundary | (EDGE_NORMALS.sum(axis=1) > 0)
        own, other = np.flatnonzero(owner), np.flatnonzero(~owner)

        self.face_k1 = np.empty(n_f, dtype=np.int64)
        self.face_k1[e2f.take(own)] = own // 4
        self.face_k2 = np.full(n_f, -1, dtype=np.int64)
        self.face_k2[e2f.take(other)] = other // 4
        k1_slot = np.empty(n_f, dtype=np.int64)
        k1_slot[e2f.take(own)] = own % 4
        self.face_normal = EDGE_NORMALS.take(k1_slot, axis=0)
        # a boundary face's tag is its element's slot: SIDE_NAMES is in slot order
        self.face_tag = np.where(self.face_k2 < 0, k1_slot, INTERIOR)
        self.face_length = np.where(np.arange(n_f) < n_v, dy, dx)
        # x0 + (column + offset) * dx, the same from either side of a face
        self.face_midpoint = np.empty((n_f, 2))
        self.face_midpoint[e2f, 0] = self.domain[0] + (col + 0.5 * ~vertical) * dx
        self.face_midpoint[e2f, 1] = self.domain[1] + (row + 0.5 * vertical) * dy
        self.elem_to_faces = e2f
        self.elem_face_sign = np.where(owner, 1, -1)
        self.elem_origin = self.domain[:2] + np.column_stack([i, j]) * (dx, dy)

        # the interior faces are the right and top faces that have a k2; in
        # column-major element order, as the face numbering puts them
        by_column = e2f.reshape(ny, nx, 4).transpose(1, 0, 2).reshape(-1, 4)
        right, top = by_column[:, RIGHT], by_column[:, TOP]
        self.interior_vertical = right[self.face_k2[right] >= 0]
        self.interior_horizontal = top[self.face_k2[top] >= 0]
        self.interior_faces = np.concatenate(
            [self.interior_vertical, self.interior_horizontal])
        self.boundary_faces = np.flatnonzero(self.face_tag >= 0)
        by_side = {name: np.flatnonzero(self.face_tag == s)
                   for s, name in enumerate(SIDE_NAMES)}
        for arr in (self.face_k1, self.face_k2, self.face_normal, self.face_tag,
                    self.face_length, self.face_midpoint, e2f, self.elem_face_sign,
                    self.elem_origin, self.interior_vertical, self.interior_horizontal,
                    self.interior_faces, self.boundary_faces, *by_side.values()):
            arr.flags.writeable = False
        self.boundary_by_side = MappingProxyType(by_side)

    # -- queries -----------------------------------------------------------

    @property
    def h(self) -> float:
        """Largest element diameter (cell diagonal)."""
        return float(np.hypot(self.dx, self.dy))

    def face(self, fid: int) -> Face:
        if not (isinstance(fid, numbers.Integral) and not isinstance(fid, bool)
                and 0 <= fid < self.n_faces):
            raise IndexError(f"face id {fid!r} is outside [0, {self.n_faces})")
        k2 = int(self.face_k2[fid])
        tag = int(self.face_tag[fid])
        return Face(
            id=int(fid),
            kind="interior" if k2 >= 0 else "boundary",
            k1=int(self.face_k1[fid]),
            k2=k2 if k2 >= 0 else None,
            normal=self.face_normal[fid],
            length=float(self.face_length[fid]),
            midpoint=self.face_midpoint[fid],
            tag=SIDE_NAMES[tag] if tag >= 0 else None,
        )

    def points(self, ref) -> np.ndarray:
        """Physical coordinates of reference points ``ref`` (m, 2) in [0,1]^2
        on every element, shape (n_elements, m, 2)."""
        return self.elem_origin[:, None, :] + np.asarray(ref) * (self.dx, self.dy)

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Corner coordinates of each element, shape (n_elements, 4, 2)."""
        coords = self.points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        coords.flags.writeable = False
        return coords

    def refine(self) -> "Mesh":
        """Uniformly refined mesh: element counts doubled, same domain."""
        return Mesh(2 * self.nx, 2 * self.ny, self.domain)

    def __repr__(self):
        return f"Mesh({self.nx}x{self.ny}, domain={self.domain})"


#: the name the package, its demos and the CLI build meshes by
build_uniform_mesh = Mesh

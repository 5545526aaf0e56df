"""Structured quadrilateral meshes with oriented faces for face-based DG assembly.

The mesh is a uniform nx-by-ny lattice of axis-aligned rectangles.  Every
interior face stores one fixed unit normal pointing from its first adjacent
element ``k1`` into the second ``k2``; boundary faces store the outward
normal of their single element.  All geometry and connectivity is held in
read-only numpy arrays so a mesh can be shared freely once built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Local face slots of an element, in this fixed order.
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3

SIDE_NAMES = ("left", "right", "bottom", "top")

INTERIOR = -1  # boundary-tag value for interior faces


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
        x0, y0, x1, y1 = (float(v) for v in domain)
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

        self._build_faces()
        self._build_element_connectivity()
        for arr in (self.face_k1, self.face_k2, self.face_normal,
                    self.face_length, self.face_midpoint, self.face_tag,
                    self.elem_to_faces, self.elem_face_sign, self.elem_origin):
            arr.flags.writeable = False

    # -- construction ------------------------------------------------------

    def _build_faces(self):
        nx, ny, dx, dy = self.nx, self.ny, self.dx, self.dy
        x0, y0 = self.domain[0], self.domain[1]
        n_v = (nx + 1) * ny      # vertical faces, id = i*ny + j
        n_h = (ny + 1) * nx      # horizontal faces, id = n_v + j*nx + i
        n_f = n_v + n_h
        self.n_faces = n_f
        self._n_vertical = n_v

        k1 = np.empty(n_f, dtype=np.int64)
        k2 = np.full(n_f, -1, dtype=np.int64)
        normal = np.zeros((n_f, 2))
        tag = np.full(n_f, INTERIOR, dtype=np.int64)

        i, j = np.meshgrid(np.arange(nx + 1), np.arange(ny), indexing="ij")
        vid = (i * ny + j).ravel()
        iv, jv = i.ravel(), j.ravel()
        left_elem = jv * nx + (iv - 1)
        right_elem = jv * nx + iv
        interior_v = (iv > 0) & (iv < nx)
        k1[vid] = np.where(iv == 0, right_elem, left_elem)
        k2[vid[interior_v]] = right_elem[interior_v]
        normal[vid, 0] = np.where(iv == 0, -1.0, 1.0)
        tag[vid[iv == 0]] = 0     # left
        tag[vid[iv == nx]] = 1    # right

        i, j = np.meshgrid(np.arange(nx), np.arange(ny + 1), indexing="ij")
        hid = (n_v + j * nx + i).ravel()
        ih, jh = i.ravel(), j.ravel()
        below_elem = (jh - 1) * nx + ih
        above_elem = jh * nx + ih
        interior_h = (jh > 0) & (jh < ny)
        k1[hid] = np.where(jh == 0, above_elem, below_elem)
        k2[hid[interior_h]] = above_elem[interior_h]
        normal[hid, 1] = np.where(jh == 0, -1.0, 1.0)
        tag[hid[jh == 0]] = 2     # bottom
        tag[hid[jh == ny]] = 3    # top

        length = np.empty(n_f)
        length[:n_v] = dy
        length[n_v:] = dx

        midpoint = np.empty((n_f, 2))
        midpoint[vid, 0] = x0 + iv * dx
        midpoint[vid, 1] = y0 + (jv + 0.5) * dy
        midpoint[hid, 0] = x0 + (ih + 0.5) * dx
        midpoint[hid, 1] = y0 + jh * dy

        self.face_k1 = k1
        self.face_k2 = k2
        self.face_normal = normal
        self.face_length = length
        self.face_midpoint = midpoint
        self.face_tag = tag

        all_ids = np.arange(n_f)
        self.interior_vertical = vid[interior_v]
        self.interior_horizontal = hid[interior_h]
        self.interior_faces = np.concatenate(
            [self.interior_vertical, self.interior_horizontal])
        self.boundary_faces = all_ids[tag >= 0]
        self.boundary_by_side = {
            name: all_ids[tag == s] for s, name in enumerate(SIDE_NAMES)
        }

    def _build_element_connectivity(self):
        nx, ny = self.nx, self.ny
        n_v = self._n_vertical
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        eid = (j * nx + i).ravel()
        ie, je = i.ravel(), j.ravel()

        e2f = np.empty((self.n_elements, 4), dtype=np.int64)
        e2f[eid, LEFT] = ie * ny + je
        e2f[eid, RIGHT] = (ie + 1) * ny + je
        e2f[eid, BOTTOM] = n_v + je * nx + ie
        e2f[eid, TOP] = n_v + (je + 1) * nx + ie

        # +1 where the stored face normal is outward from this element
        sign = np.empty((self.n_elements, 4), dtype=np.int64)
        sign[eid, LEFT] = np.where(ie == 0, 1, -1)
        sign[eid, RIGHT] = 1
        sign[eid, BOTTOM] = np.where(je == 0, 1, -1)
        sign[eid, TOP] = 1

        origin = np.empty((self.n_elements, 2))
        origin[eid, 0] = self.domain[0] + ie * self.dx
        origin[eid, 1] = self.domain[1] + je * self.dy

        self.elem_to_faces = e2f
        self.elem_face_sign = sign
        self.elem_origin = origin

    # -- queries -----------------------------------------------------------

    @property
    def h(self) -> float:
        """Largest element diameter (cell diagonal)."""
        return float(np.hypot(self.dx, self.dy))

    def face(self, fid: int) -> Face:
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

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Corner coordinates of each element, shape (n_elements, 4, 2)."""
        offsets = np.array([[0.0, 0.0], [self.dx, 0.0],
                            [0.0, self.dy], [self.dx, self.dy]])
        coords = self.elem_origin[:, None, :] + offsets[None, :, :]
        coords.flags.writeable = False
        return coords

    def refine(self) -> "Mesh":
        """Uniformly refined mesh: element counts doubled, same domain."""
        return Mesh(2 * self.nx, 2 * self.ny, self.domain)

    def __repr__(self):
        return f"Mesh({self.nx}x{self.ny}, domain={self.domain})"


#: the name the package, its demos and the CLI build meshes by
build_uniform_mesh = Mesh

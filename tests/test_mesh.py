import math
import re

import numpy as np
import pytest

from dgflow.mesh import (EDGE_NORMALS, INTERIOR, InvalidDomainError, LEFT, RIGHT, BOTTOM,
                         SIDE_NAMES, TOP, Mesh, build_uniform_mesh)

UNIT = (0.0, 0.0, 1.0, 1.0)
ORACLE_MESHES = [(1, 1, UNIT), (2, 2, UNIT), (1, 4, UNIT), (4, 1, UNIT), (5, 3, UNIT),
                 (64, 64, UNIT), (3, 4, (-1.5, 0.25, 3.5, 8.25)),
                 (7, 3, (0.1, 0.05, 0.8, 0.95)), (13, 9, (0.1, 0.2, 0.7, 1.3))]


def test_single_cell_counts():
    m = build_uniform_mesh(1, 1)
    assert m.n_elements == 1
    assert len(m.interior_faces) == 0
    assert len(m.boundary_faces) == 4


def test_two_by_two_counts():
    m = build_uniform_mesh(2, 2)
    assert m.n_elements == 4
    assert len(m.interior_faces) == 4
    assert len(m.boundary_faces) == 8


def test_uniform_face_lengths():
    m = build_uniform_mesh(4, 4)
    assert np.allclose(m.face_length, 0.25)


@pytest.mark.parametrize("domain", [(0.0, 0.0, 0.0, 1.0), (0.0, 2.0, 1.0, 1.0),
                                    (0.0, 0.0, math.nan, 1.0), (math.nan, 0.0, 1.0, 1.0),
                                    (0.0, 0.0, math.inf, 1.0), (0.0, -math.inf, 1.0, 1.0)])
def test_invalid_domain_raises(domain):
    # non-finite bounds would give a mesh with dx or dy of nan or inf
    with pytest.raises(InvalidDomainError):
        build_uniform_mesh(2, 2, domain)


@pytest.mark.parametrize("nx, ny", [(2.0, 2), (2.5, 2), (2, "2"), (2, None), (0, 2)])
def test_element_counts_must_be_positive_integers(nx, ny):
    with pytest.raises(ValueError, match=r"element counts must be integers >= 1, "
                                         rf"got nx={nx!r}, ny={ny!r}"):
        Mesh(nx, ny)


def test_numpy_integer_counts_are_accepted():
    mesh = Mesh(np.int64(3), np.int32(2))
    assert (mesh.nx, mesh.ny, mesh.n_elements) == (3, 2, 6)
    assert type(mesh.nx) is int


def test_refine_doubles_counts():
    m = build_uniform_mesh(2, 2)
    r = m.refine()
    assert (r.nx, r.ny) == (4, 4)
    assert r.domain == m.domain


def test_refinement_ladder_reaches_table_resolution():
    m = build_uniform_mesh(2, 2)  # side length 0.5
    for _ in range(5):
        m = m.refine()
    assert m.dx == pytest.approx(0.015625, abs=0.0)


def test_refine_preserves_domain_exactly():
    dom = (-1.5, 0.25, 3.5, 8.25)
    m = build_uniform_mesh(3, 2, dom)
    assert m.refine().domain == dom


def test_interior_faces_have_two_distinct_elements():
    m = build_uniform_mesh(3, 4)
    for fid in m.interior_faces:
        f = m.face(fid)
        assert f.kind == "interior"
        assert f.k2 is not None and f.k1 != f.k2
    for fid in m.boundary_faces:
        f = m.face(fid)
        assert f.kind == "boundary" and f.k2 is None
        assert f.tag in ("left", "right", "bottom", "top")


def test_unit_normals():
    m = build_uniform_mesh(3, 3)
    norms = np.linalg.norm(m.face_normal, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-14)


def test_normal_orientation_k1_to_k2():
    m = build_uniform_mesh(3, 3)
    for fid in m.interior_faces:
        f = m.face(fid)
        d = m.elem_origin[f.k2] - m.elem_origin[f.k1]
        assert np.dot(d, f.normal) > 0


def test_signed_face_areas_close_per_element():
    m = build_uniform_mesh(3, 2, (0.0, 0.0, 2.0, 1.0))
    for e in range(m.n_elements):
        total = np.zeros(2)
        for slot in (LEFT, RIGHT, BOTTOM, TOP):
            fid = m.elem_to_faces[e, slot]
            total += (m.elem_face_sign[e, slot] * m.face_length[fid]
                      * m.face_normal[fid])
        assert np.allclose(total, 0.0, atol=1e-14)


def test_boundary_side_lengths_sum_exactly():
    m = build_uniform_mesh(5, 3, (0.0, 0.0, 2.0, 3.0))
    sums = {s: m.face_length[f].sum() for s, f in m.boundary_by_side.items()}
    assert abs(sums["left"] - 3.0) < 1e-14
    assert abs(sums["right"] - 3.0) < 1e-14
    assert abs(sums["bottom"] - 2.0) < 1e-14
    assert abs(sums["top"] - 2.0) < 1e-14


def test_element_to_faces_has_four_faces():
    m = build_uniform_mesh(4, 3)
    assert m.elem_to_faces.shape == (12, 4)
    # each slot points at a face adjacent to the element
    for e in range(m.n_elements):
        for slot in range(4):
            fid = m.elem_to_faces[e, slot]
            assert e in (m.face_k1[fid], m.face_k2[fid])


def test_diameter_is_cell_diagonal():
    m = build_uniform_mesh(4, 4)
    assert m.h == pytest.approx(0.25 * np.sqrt(2.0))
    corners = m.node_coords[0]
    assert np.hypot(*(corners[3] - corners[0])) == pytest.approx(m.h)


def test_face_midpoints():
    m = build_uniform_mesh(2, 2)
    f = m.face(m.interior_vertical[0])
    assert np.allclose(f.midpoint, [0.5, 0.25])


@pytest.mark.parametrize("domain", [(0, 0, 1), (0, 0, 1, 1, 2), None, "abcd",
                                    (0, 0, "one", 1)])
def test_domain_that_is_not_four_numbers_raises(domain):
    with pytest.raises(InvalidDomainError, match=re.escape(repr(domain))):
        Mesh(2, 2, domain)


@pytest.mark.parametrize("fid", [-1, 12, np.int64(12), 1.5, "0", True])
def test_face_id_outside_the_faces_raises(fid):
    with pytest.raises(IndexError, match=re.escape("outside [0, 12)")):
        Mesh(2, 2).face(fid)


def _public_arrays(m):
    arrays = {name: getattr(m, name) for name in (
        "face_k1", "face_k2", "face_normal", "face_length", "face_midpoint", "face_tag",
        "elem_to_faces", "elem_face_sign", "elem_origin", "interior_vertical",
        "interior_horizontal", "interior_faces", "boundary_faces", "node_coords")}
    arrays.update({f"boundary_by_side[{s!r}]": a for s, a in m.boundary_by_side.items()})
    return arrays


def test_every_array_is_read_only():
    m = Mesh(3, 2)
    for name, arr in {**_public_arrays(m), "EDGE_NORMALS": EDGE_NORMALS}.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    with pytest.raises(TypeError):
        m.boundary_by_side["left"] = np.arange(2)
    assert list(m.boundary_by_side) == list(SIDE_NAMES)


def _oracle(nx, ny, domain):
    """Every public array of ``Mesh(nx, ny, domain)`` by a plain loop over the
    face columns and rows."""
    x0, y0, x1, y1 = domain
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    n_v = (nx + 1) * ny
    faces = {}   # id: (k1, k2, normal, tag, length, midpoint)
    for i in range(nx + 1):
        for j in range(ny):
            left, right = j * nx + i - 1, j * nx + i
            k1, k2, normal, tag = ((right, -1, (-1.0, 0.0), LEFT) if i == 0 else
                                   (left, -1, (1.0, 0.0), RIGHT) if i == nx else
                                   (left, right, (1.0, 0.0), INTERIOR))
            faces[i * ny + j] = (k1, k2, normal, tag, dy, (x0 + i * dx, y0 + (j + 0.5) * dy))
    for j in range(ny + 1):
        for i in range(nx):
            below, above = (j - 1) * nx + i, j * nx + i
            k1, k2, normal, tag = ((above, -1, (0.0, -1.0), BOTTOM) if j == 0 else
                                   (below, -1, (0.0, 1.0), TOP) if j == ny else
                                   (below, above, (0.0, 1.0), INTERIOR))
            faces[n_v + j * nx + i] = (k1, k2, normal, tag, dx,
                                       (x0 + (i + 0.5) * dx, y0 + j * dy))
    columns = list(zip(*(faces[f] for f in range(len(faces)))))
    k1, k2, normal, tag, length, midpoint = (np.array(c) for c in columns)
    elements = [(j * nx + i, i, j) for j in range(ny) for i in range(nx)]
    e2f = np.array([[i * ny + j, (i + 1) * ny + j, n_v + j * nx + i, n_v + (j + 1) * nx + i]
                    for _, i, j in elements])
    sign = np.array([[1 if i == 0 else -1, 1, 1 if j == 0 else -1, 1]
                     for _, i, j in elements])
    origin = np.array([(x0 + i * dx, y0 + j * dy) for _, i, j in elements])
    expected = dict(
        face_k1=k1, face_k2=k2, face_normal=normal, face_length=length,
        face_midpoint=midpoint, face_tag=tag, elem_to_faces=e2f, elem_face_sign=sign,
        elem_origin=origin,
        interior_vertical=np.array([i * ny + j for i in range(1, nx) for j in range(ny)],
                                   dtype=np.int64),
        interior_horizontal=np.array([n_v + j * nx + i for i in range(nx)
                                      for j in range(1, ny)], dtype=np.int64),
        boundary_faces=np.flatnonzero(tag >= 0),
        node_coords=np.array([[(x0 + i * dx + a * dx, y0 + j * dy + b * dy)
                               for b in (0, 1) for a in (0, 1)] for _, i, j in elements]))
    expected["interior_faces"] = np.concatenate(
        [expected["interior_vertical"], expected["interior_horizontal"]])
    for s, name in enumerate(SIDE_NAMES):
        expected[f"boundary_by_side[{name!r}]"] = np.flatnonzero(tag == s)
    return expected


@pytest.mark.parametrize("nx, ny, domain", ORACLE_MESHES)
def test_arrays_match_a_per_face_oracle(nx, ny, domain):
    m = Mesh(nx, ny, domain)
    expected = _oracle(nx, ny, m.domain)
    actual = _public_arrays(m)
    assert actual.keys() == expected.keys()
    for name, want in expected.items():
        got = actual[name]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    # the ownership rule: an element is k1 of exactly its faces of sign +1
    elements = np.arange(m.n_elements)[:, None]
    assert np.array_equal(m.elem_face_sign > 0, m.face_k1[m.elem_to_faces] == elements)
    assert np.array_equal(m.elem_face_sign < 0, m.face_k2[m.elem_to_faces] == elements)

import numpy as np
import pytest

from dgflow.mesh import (InvalidDomainError, LEFT, RIGHT, BOTTOM, TOP, Mesh,
                         build_uniform_mesh)


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


def test_invalid_domain_raises():
    with pytest.raises(InvalidDomainError):
        build_uniform_mesh(2, 2, (0.0, 0.0, 0.0, 1.0))
    with pytest.raises(InvalidDomainError):
        build_uniform_mesh(2, 2, (0.0, 2.0, 1.0, 1.0))


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

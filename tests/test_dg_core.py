import numpy as np
import pytest

from dgflow import assembly, dg_core
from dgflow.assembly import NonPositiveCoefficientError
from dgflow.dg_core import (FACE_POINTS, DGField, coercivity_norm, evaluate,
                            gauss_1d, gauss_2d, jump, jump_seminorm, l2_error,
                            l2_project, star_norm)
from dgflow.mesh import BOTTOM, LEFT, RIGHT, TOP, Mesh, build_uniform_mesh

from helpers import (eval_basis, evaluate_at, face_quadrature_jumps, fine_l2_error,
                     nodal_interpolant)


@pytest.fixture(scope="module")
def mesh22():
    return build_uniform_mesh(2, 2)


# -- basis -------------------------------------------------------------------

def test_lagrange_property(mesh22):
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    for i, pt in enumerate(nodes):
        vals, _ = eval_basis(mesh22.dx, mesh22.dy, pt)
        expected = np.zeros(4)
        expected[i] = 1.0
        assert np.allclose(vals, expected)


def test_partition_of_unity_and_gradient_sum(mesh22):
    rng = np.random.default_rng(7)
    for _ in range(100):
        pt = rng.random(2)
        vals, grads = eval_basis(mesh22.dx, mesh22.dy, pt)
        assert abs(vals.sum() - 1.0) < 1e-14
        assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)


def test_gradients_are_physical(mesh22):
    # on a 2x2 unit-square mesh, d/dx of the (1,0) node function at the
    # reference center is 1/dx = 2
    _, grads = eval_basis(mesh22.dx, mesh22.dy, (0.5, 0.5))
    assert grads[1, 0] == pytest.approx(2.0 * 0.5)  # dN1/dxi=0.5 over dx=0.5


# -- quadrature --------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_1d_monomial_exactness(n):
    rule = gauss_1d(n)
    assert rule.weights.sum() == pytest.approx(1.0)
    for d in range(rule.degree + 1):
        exact = 1.0 / (d + 1)
        assert (rule.weights * rule.points**d).sum() == pytest.approx(exact, abs=1e-13)


def test_gauss_2d_monomial_exactness():
    rule = gauss_2d(3)
    assert rule.weights.sum() == pytest.approx(1.0)
    for i in range(rule.degree + 1):
        for j in range(rule.degree + 1 - i):
            val = (rule.weights * rule.points[:, 0]**i * rule.points[:, 1]**j).sum()
            assert val == pytest.approx(1.0 / ((i + 1) * (j + 1)), abs=1e-13)


def test_middle_face_point_is_the_edge_midpoint():
    # assembly reads the face weights, penalties and upwind selectors from
    # the middle face quadrature point, so it must be the midpoint exactly
    assert gauss_1d(FACE_POINTS).points[assembly.MID] == 0.5
    t = dg_core.tables(build_uniform_mesh(3, 2))
    for edge, midpoint in ((LEFT, (0.0, 0.5)), (RIGHT, (1.0, 0.5)),
                           (BOTTOM, (0.5, 0.0)), (TOP, (0.5, 1.0))):
        assert np.array_equal(t.trace_phi[edge][:, assembly.MID],
                              dg_core.basis_values(np.array(midpoint)))


# -- jump / averages ---------------------------------------------------------

def test_jump_of_continuous_function_is_zero(mesh22):
    field = nodal_interpolant(mesh22, lambda x, y: 2 * x + 3 * y)
    for fid in mesh22.interior_faces:
        assert abs(jump(field, mesh22.face(fid), 0.3)) < 1e-14


def test_jump_on_boundary_returns_trace(mesh22):
    # a field that differs on every edge: the trace is read on the edge
    # that lies on the boundary side
    field = nodal_interpolant(mesh22, lambda x, y: 5.0 + x + 2.0 * y)
    for side in ("left", "right", "bottom", "top"):
        face = mesh22.face(mesh22.boundary_by_side[side][0])
        x, y = face.midpoint
        assert jump(field, face, 0.5) == pytest.approx(5.0 + x + 2.0 * y)


def test_jump_sign_of_single_element_basis(mesh22):
    # basis function supported on k1 only: jump = +trace on that face,
    # on the neighbour's side it enters with a minus sign
    field = DGField.zeros(mesh22)
    fid = mesh22.interior_vertical[0]
    face = mesh22.face(fid)
    field.coeffs[face.k1, :] = 1.0
    assert jump(field, face, 0.4) == pytest.approx(1.0)
    field = DGField.zeros(mesh22)
    field.coeffs[face.k2, :] = 1.0
    assert jump(field, face, 0.4) == pytest.approx(-1.0)


def weighted_average(a1, a2, A1, A2):
    """assembly's weighted face average of ``a1`` and ``a2``, with the
    weight traces ``A1`` and ``A2``, on one face."""
    def trace(v):
        return np.full((1, FACE_POINTS), float(v))
    return assembly._face_average(trace(A1), trace(A2), (trace(a1),),
                                  (trace(a2),))[0, assembly.MID]


def test_weighted_average_values():
    assert weighted_average(1.0, 3.0, 2.0, 2.0) == pytest.approx(2.0)
    # w1 = A2/(A1+A2) = 1/4
    assert weighted_average(1.0, 0.0, 3.0, 1.0) == pytest.approx(0.25)
    for A1, A2 in [(0.5, 9.0), (4.0, 1e-6)]:
        assert weighted_average(7.0, 7.0, A1, A2) == pytest.approx(7.0)


def test_weighted_average_between_extremes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a1, a2 = rng.normal(size=2)
        A1, A2 = rng.random(2) + 1e-6
        v = weighted_average(a1, a2, A1, A2)
        assert min(a1, a2) - 1e-12 <= v <= max(a1, a2) + 1e-12


def test_weighted_average_degenerate():
    # the face rule refuses the traces before any weight is formed
    zero = np.zeros((1, FACE_POINTS))
    with pytest.raises(NonPositiveCoefficientError):
        assembly._face_weights(zero, zero, "pressure", 1.0)


# -- projection --------------------------------------------------------------

def test_l2_project_reproduces_bilinear(mesh22):
    f = lambda x, y: 1.0 + 2 * x - y + 0.5 * x * y
    proj = l2_project(f, mesh22)
    interp = nodal_interpolant(mesh22, f)
    assert np.allclose(proj.coeffs, interp.coeffs, atol=1e-12)


def test_l2_project_constant(mesh22):
    proj = l2_project(lambda x, y: 7.0 + 0 * x, mesh22)
    assert np.allclose(proj.coeffs, 7.0, atol=1e-13)


def test_l2_project_orthogonality(mesh22):
    f = lambda x, y: np.sin(x + y)
    proj = l2_project(f, mesh22)
    t = dg_core.tables(mesh22)
    xq, yq = t.qpoints[..., 0], t.qpoints[..., 1]
    resid = f(xq, yq) - proj.coeffs @ t.phi
    rng = np.random.default_rng(11)
    for _ in range(10):
        w = DGField(mesh22, rng.normal(size=(mesh22.n_elements, 4)))
        inner = np.einsum("eq,eq,q->", resid, w.coeffs @ t.phi, t.wdet)
        assert abs(inner) < 1e-10


def test_l2_project_idempotent(mesh22):
    f = lambda x, y: np.exp(x) * np.cos(y)
    proj = l2_project(f, mesh22)
    again = l2_project(lambda x, y: evaluate_at(proj, x, y), mesh22)
    assert np.allclose(proj.coeffs, again.coeffs, atol=1e-12)


# -- norms -------------------------------------------------------------------

def test_norms_of_zero_field(mesh22):
    z = DGField.zeros(mesh22)
    assert coercivity_norm(z) == 0.0
    assert star_norm(z) == 0.0


def test_continuous_linear_norm(mesh22):
    w = nodal_interpolant(mesh22, lambda x, y: x)
    assert jump_seminorm(w) < 1e-14
    assert dg_core.broken_gradient_norm(w) == pytest.approx(1.0)
    assert coercivity_norm(w) == pytest.approx(1.0)


def test_single_jump_norm_matches_face_oracle():
    m = build_uniform_mesh(2, 1)
    field = DGField.zeros(m)
    field.coeffs[0, :] = 1.0  # unit jump on the single interior face
    oracle = face_quadrature_jumps(field)
    assert jump_seminorm(field) ** 2 == pytest.approx(oracle, rel=1e-12)
    assert coercivity_norm(field) == pytest.approx(np.sqrt(oracle), rel=1e-12)


def test_star_norm_exceeds_coercivity_norm(mesh22):
    w = nodal_interpolant(mesh22, lambda x, y: x + 0.5 * y)
    assert star_norm(w) >= coercivity_norm(w)


def test_star_norm_single_cell_hand_value():
    # w = x on one unit cell: gradient (1,0); the extra term integrates
    # |grad w . n|^2 = 1 over the two vertical edges, scaled by the
    # diagonal diameter h_K = sqrt(2)
    m = build_uniform_mesh(1, 1)
    w = nodal_interpolant(m, lambda x, y: x)
    expected = np.sqrt(1.0 + np.sqrt(2.0) * 2.0)
    assert star_norm(w) == pytest.approx(expected, rel=1e-12)


def test_l2_error_of_own_interpolant(mesh22):
    f = lambda x, y: 0.5 - x + 2 * y
    interp = nodal_interpolant(mesh22, f)
    assert l2_error(interp, f) < 1e-12


def test_l2_error_constant_offset(mesh22):
    z = DGField.zeros(mesh22)
    assert l2_error(z, lambda x, y: 3.0 + 0 * x) == pytest.approx(3.0)


def test_l2_error_matches_fine_quadrature_oracle():
    m = build_uniform_mesh(4, 4)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    proj = l2_project(f, m)
    ours = l2_error(proj, f)
    oracle = fine_l2_error(proj, f, n=6)
    assert ours == pytest.approx(oracle, abs=1e-8)


def _error_rule_arrays(tab):
    """Arrays held by a table object whose shape carries the error rule's
    point count (5x5 = 25; a 4x4 mesh has 16 elements, so no volume or face
    array can have that length)."""
    n = dg_core.ERROR_POINTS ** 2
    found, todo = [], list(vars(tab).values())
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray) and n in v.shape:
            found.append(v)
        elif isinstance(v, dict):
            todo.extend(v.values())
        elif hasattr(v, "__dict__") and not isinstance(v, Mesh):
            todo.extend(vars(v).values())
    return found


def test_error_tables_are_built_by_the_first_l2_error():
    m = build_uniform_mesh(4, 4)
    tab = dg_core.tables(m)     # a new mesh gets new tables
    f = lambda x, y: np.sin(np.pi * x) * np.cos(y)
    proj = l2_project(f, m)
    assert _error_rule_arrays(tab) == []
    ours = l2_error(proj, f)
    assert len(_error_rule_arrays(tab)) == 3
    # the same floats as the 5x5 Gauss rule written out
    err = gauss_2d(dg_core.ERROR_POINTS)
    q = m.elem_origin[:, None, :] + err.points[None, :, :] * np.array([m.dx, m.dy])
    diff = proj.coeffs @ dg_core.basis_values(err.points).T - f(q[:, :, 0], q[:, :, 1])
    assert ours == float(np.sqrt(np.einsum("eq,q->", diff**2, err.weights * (m.dx * m.dy))))
    assert l2_error(proj, f) == ours


def test_evaluate_uses_single_element_block(mesh22):
    field = DGField.zeros(mesh22)
    field.coeffs[3, :] = [1.0, 2.0, 3.0, 4.0]
    assert evaluate(field, 3, (0.0, 0.0)) == pytest.approx(1.0)
    assert evaluate(field, 0, (1.0, 1.0)) == pytest.approx(0.0)

"""Strong Dirichlet data by row replacement on CSR matrices, and the replay
contract of the three assemblies (``constrain=True`` equals
``apply_dirichlet`` applied to the ``constrain=False`` system, bit for
bit, and so does the saturation system the solver hands over)."""

import re

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dgflow import assembly
from dgflow.assembly import (ConflictingConstraintError, LaggedCoefficients,
                             LinearSystem, SchemeConfig, apply_dirichlet)
from dgflow.dg_core import DGField
from dgflow.manufactured import gravity_case
from dgflow.mesh import build_uniform_mesh
from dgflow.solver import initialize, solve_linear

# entries drawn from a small set that contains 0.0, so explicit zeros occur
ENTRIES = st.sampled_from([0.0, 1.0, -2.5, 0.375, 3.0, -1e-3])


@st.composite
def csr_systems(draw):
    """A CSR matrix with a random pattern (explicit zeros, possibly missing
    diagonal entries), a right-hand side, and constraints in which repeated
    DOFs carry equal values."""
    n = draw(st.integers(1, 8))
    stored = draw(arrays(bool, (n, n)))
    if draw(st.booleans()):
        np.fill_diagonal(stored, False)
    dense = draw(arrays(float, (n, n), elements=ENTRIES))
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    matrix = sps.csr_matrix((dense[rows, cols], cols, indptr), shape=(n, n))
    rhs = draw(arrays(float, n, elements=ENTRIES))
    value_of = draw(arrays(float, n, elements=ENTRIES))
    dofs = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
                    dtype=np.int64)
    return matrix, rhs, dofs, value_of[dofs]


def dense_row_replacement(matrix, rhs, dofs, values):
    """Reference: unit rows for the constrained DOFs, values in the rhs."""
    A = matrix.toarray()
    b = np.array(rhs, dtype=float)
    A[dofs, :] = 0.0
    A[dofs, dofs] = 1.0
    b[dofs] = values
    return A, b


def dense_column_elimination(matrix, rhs, dofs, values):
    """Reference: move constrained columns to the rhs, then unit rows."""
    A, b = dense_row_replacement(matrix, rhs, dofs, values)
    fixed = np.zeros(A.shape[0])
    fixed[dofs] = values
    free = np.ones(A.shape[0], dtype=bool)
    free[dofs] = False
    b[free] -= A[free] @ fixed
    A[np.ix_(free, ~free)] = 0.0
    return A, b


def lacks_diagonal(matrix, dofs):
    """Some constrained row stores no diagonal entry."""
    return any(d not in matrix.indices[matrix.indptr[d]:matrix.indptr[d + 1]]
               for d in dofs)


@settings(max_examples=300, deadline=None)
@given(csr_systems())
def test_apply_dirichlet_matches_dense_row_replacement(system):
    matrix, rhs, dofs, values = system
    if lacks_diagonal(matrix, dofs):
        with pytest.raises(ValueError, match="stores no diagonal entry"):
            apply_dirichlet(matrix, rhs, dofs, values)
        return
    M, b = apply_dirichlet(matrix, rhs, dofs, values)
    A_ref, b_ref = dense_row_replacement(matrix, rhs, dofs, values)
    assert isinstance(M, sps.csr_matrix) and M.has_canonical_format
    assert np.array_equal(M.toarray(), A_ref)
    assert np.array_equal(b, b_ref)
    # the input's pattern: every stored entry stays, explicit zeros included
    assert M.indptr is matrix.indptr
    assert np.array_equal(M.indices, matrix.indices)


@settings(max_examples=300, deadline=None)
@given(csr_systems(), st.booleans())
def test_apply_dirichlet_matches_dense_elimination(system, dominant):
    # row replacement and column elimination give the same solution
    matrix, rhs, dofs, values = system
    if dominant:   # a stored, dominant diagonal: most raw draws are singular
        matrix = (matrix + 10.0 * sps.eye(matrix.shape[0])).tocsr()
    if lacks_diagonal(matrix, dofs):
        return
    A_ref, b_ref = dense_column_elimination(matrix, rhs, dofs, values)
    if np.linalg.cond(A_ref) > 1e8:
        return
    M, b = apply_dirichlet(matrix, rhs, dofs, values)
    x, x_ref = np.linalg.solve(M.toarray(), b), np.linalg.solve(A_ref, b_ref)
    assert np.allclose(x, x_ref, rtol=1e-6, atol=1e-6 * np.abs(x_ref).max(initial=1.0))


@settings(max_examples=100, deadline=None)
@given(csr_systems(), st.data())
def test_apply_dirichlet_conflicting_values_name_the_dof(system, data):
    matrix, rhs, dofs, values = system
    n = matrix.shape[0]
    dof = data.draw(st.integers(0, n - 1))
    dofs = np.append(dofs, [dof, dof])
    values = np.append(values, [1.0, 2.0])
    conflicting = {d for d in dofs if len(set(values[dofs == d])) > 1}
    with pytest.raises(ConflictingConstraintError, match=f"DOF {min(conflicting)} "):
        apply_dirichlet(matrix, rhs, dofs, values)


def test_apply_dirichlet_conflict_message_prints_plain_floats():
    with pytest.raises(ConflictingConstraintError, match=r"DOF 1 .* \[2\.0, 3\.0\]$"):
        apply_dirichlet(sps.eye(3, format="csr"), np.zeros(3), np.array([1, 1, 2]),
                        np.array([3.0, 2.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_dirichlet_rejects_non_finite_values(bad):
    # a DOF given once: not a conflict, even though nan != nan
    with pytest.raises(ValueError, match="DOF 0 received a non-finite value") as info:
        apply_dirichlet(sps.csr_matrix(np.eye(3)), np.ones(3), np.array([0]),
                        np.array([bad]))
    assert not isinstance(info.value, ConflictingConstraintError)
    # the smallest such DOF is named, whatever the order
    with pytest.raises(ValueError, match="DOF 1 received a non-finite value"):
        apply_dirichlet(sps.csr_matrix(np.eye(3)), np.ones(3), np.array([2, 0, 1]),
                        np.array([bad, 1.0, bad]))


@pytest.mark.parametrize("dofs, values, message", [
    ([1.5], [1.0], "DOF 1.5 is not an integer"),
    ([0, np.nan], [1.0, 2.0], "DOF nan is not an integer"),
    ([True], [1.0], "DOFs must be integers, got bool [True]"),
    ([-1], [1.0], "DOF -1 is not a row of the 3-row matrix"),
    ([0, 3], [1.0, 2.0], "DOF 3 is not a row of the 3-row matrix"),
    ([0, 1], [2.0], "2 DOFs and 1 values"),
    (np.array([[0, 1]]), np.array([[1.0, 2.0]]), "must be 1-D"),
])
def test_apply_dirichlet_rejects_bad_dofs_before_any_work(dofs, values, message):
    A = sps.csr_matrix(np.eye(3))
    rhs = np.ones(3)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        apply_dirichlet(A, rhs, dofs, values)
    assert not isinstance(info.value, ConflictingConstraintError)


@pytest.mark.parametrize("n_rhs", [2, 4])
def test_apply_dirichlet_rejects_a_rhs_of_another_length(n_rhs):
    with pytest.raises(ValueError, match=re.escape(f"shape ({n_rhs},) for a matrix of "
                                                   "shape (3, 3)")):
        apply_dirichlet(sps.csr_matrix(np.eye(3)), np.ones(n_rhs), [2], [1.0])


def test_apply_dirichlet_takes_no_dofs_and_whole_float_dofs():
    A = sps.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    M, b = apply_dirichlet(A, np.ones(2), [], [])
    assert np.array_equal(M.toarray(), A.toarray()) and np.array_equal(b, np.ones(2))
    M, b = apply_dirichlet(A, np.ones(2), [1.0], [4.0])
    assert np.array_equal(M.toarray(), [[2.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(b, [1.0, 4.0])


def test_duplicated_diagonal_entry_gives_the_prescribed_value():
    # a non-canonical input whose constrained row stores its diagonal twice
    # is summed first, so the unit diagonal is 1, not 2
    matrix = sps.csr_matrix((np.array([2.0, 1.0, 3.0, 4.0, -1.0]),
                             np.array([0, 0, 1, 1, 0]), np.array([0, 3, 5])),
                            shape=(2, 2))
    assert not matrix.has_canonical_format
    M, b = apply_dirichlet(matrix, np.array([5.0, 6.0]), np.array([0]), np.array([0.7]))
    assert M.has_canonical_format
    assert np.array_equal(M.toarray(), [[1.0, 0.0], [-1.0, 4.0]])
    assert np.array_equal(b, [0.7, 6.0])
    assert np.allclose(np.linalg.solve(M.toarray(), b), [0.7, (6.0 + 0.7) / 4.0])


def test_apply_dirichlet_leaves_its_input_alone():
    # a stored diagonal in every row, as a constrained row needs
    A = (sps.random(12, 12, density=0.4, random_state=3) + sps.eye(12)).tocsr()
    before = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    rhs = np.arange(12.0)
    apply_dirichlet(A, rhs, np.array([0, 5, 11]), np.array([1.0, 2.0, 3.0]))
    assert all(np.array_equal(x, y) for x, y in
               zip(before, (A.data, A.indices, A.indptr)))
    assert np.array_equal(rhs, np.arange(12.0))


# -- the replay contract of the assemblies -----------------------------------

@pytest.fixture(scope="module")
def step_mesh():
    return build_uniform_mesh(6, 6)


@pytest.fixture(scope="module")
def step_systems(step_mesh):
    """Constrained and unconstrained systems of one gravity step on 6x6, and
    for the saturations a third: the one the solver hands over, from
    ``_saturation_matrix`` and ``_saturation_rhs``."""
    case = gravity_case()
    mesh = step_mesh
    state = initialize(case, mesh)
    cfg = SchemeConfig()
    tau = 1.0 / 6
    coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)

    def pressure(constrain):
        return assembly.assemble_pressure(state, mesh, cfg, case, tau, coeffs,
                                          constrain=constrain)

    p_new = DGField.from_vector(mesh, solve_linear(pressure(True)), "pressure")
    velocity = assembly.rt0_project(p_new, state, mesh, cfg, coeffs)

    def aqueous(constrain):
        return assembly.assemble_aqueous(state, p_new, velocity, mesh, cfg, case,
                                         tau, tau, coeffs, constrain=constrain)

    sa_new = DGField.from_vector(mesh, solve_linear(aqueous(True)), "sat_a")

    def vapor(constrain):
        return assembly.assemble_vapor(state, p_new, sa_new, velocity, mesh, cfg,
                                       case, tau, tau, coeffs, constrain=constrain)

    def handover(phase):
        matrix, dofs, values = assembly._saturation_matrix(phase, mesh, cfg, case, tau,
                                                           tau, coeffs)
        rhs = assembly._saturation_rhs(mesh, coeffs, case, tau, tau, velocity, phase,
                                       getattr(state, "sat_" + phase), p_new)
        rhs[dofs] = values
        return LinearSystem(matrix, rhs, dofs, values)

    return {"pressure": (pressure(True), pressure(False)),
            "aqueous": (aqueous(True), aqueous(False), handover("a")),
            "vapor": (vapor(True), vapor(False), handover("v"))}


@pytest.mark.parametrize("name", ["pressure", "aqueous", "vapor"])
def test_constrained_assembly_is_apply_dirichlet_of_raw(step_systems, name):
    constrained, raw, *handover = step_systems[name]
    matrix, rhs = apply_dirichlet(raw.matrix, raw.rhs, raw.constrained_dofs,
                                  raw.constrained_values)
    for system in [constrained] + handover:
        for got, want in ((system.matrix.data, matrix.data),
                          (system.matrix.indices, matrix.indices),
                          (system.matrix.indptr, matrix.indptr),
                          (system.rhs, rhs),
                          (system.constrained_dofs, raw.constrained_dofs),
                          (system.constrained_values, raw.constrained_values)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["pressure", "aqueous", "vapor"])
def test_assembled_matrices_are_canonical_csr(step_systems, name):
    for system in step_systems[name]:
        m = system.matrix
        assert isinstance(m, sps.csr_matrix)
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        key = rows * m.shape[1] + m.indices
        assert np.all(np.diff(key) > 0)   # sorted within rows, no duplicates


def _same_memory(a, b):
    """``a`` and ``b`` are the same array or views of all of it: no copy."""
    return a.ctypes.data == b.ctypes.data and a.shape == b.shape and a.dtype == b.dtype


def test_all_systems_on_a_mesh_share_one_pattern(step_mesh, step_systems):
    # constrained or not, handed over or not, every matrix keeps the mesh's
    # index arrays
    matrices = [system.matrix for systems in step_systems.values() for system in systems]
    pattern = assembly._groups(step_mesh).pattern
    for m in matrices:
        assert _same_memory(m.indices, pattern.indices)
        assert _same_memory(m.indptr, pattern.indptr)


def test_assembly_replaces_rows_in_the_matrix_it_built(monkeypatch):
    # the constrained matrix is the one form_matrix returned, its data written
    # in place: no copy of data, no second matrix
    case = gravity_case()
    mesh = build_uniform_mesh(3, 3)
    state = initialize(case, mesh)
    cfg = SchemeConfig()
    coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    built = []
    form_matrix = assembly.form_matrix

    def spy(*args):
        built.append(form_matrix(*args))
        return built[-1]

    monkeypatch.setattr(assembly, "form_matrix", spy)
    matrices = [assembly._saturation_matrix(phase, mesh, cfg, case, 0.1, 0.1, coeffs)[0]
                for phase in "av"]
    matrices.append(assembly.assemble_pressure(state, mesh, cfg, case, 0.1, coeffs).matrix)
    assert len(built) == 3
    for matrix, raw in zip(matrices, built):
        assert matrix is raw and _same_memory(matrix.data, raw.data)


def test_assembled_patterns_are_read_only(step_systems):
    for systems in step_systems.values():
        for m in (system.matrix for system in systems):
            assert not m.indices.flags.writeable and not m.indptr.flags.writeable
            with pytest.raises(ValueError):
                m.indices[0] = 1

"""Strong Dirichlet elimination on CSR matrices, and the replay contract of
the three assemblies (``constrain=True`` equals ``apply_dirichlet`` applied
to the ``constrain=False`` system, bit for bit)."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dgflow import assembly
from dgflow.assembly import (ConflictingConstraintError, LaggedCoefficients,
                             SchemeConfig, apply_dirichlet)
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


def dense_elimination(matrix, rhs, dofs, values):
    """Reference: move constrained columns to the rhs, then identity rows."""
    A = matrix.toarray()
    fixed = np.zeros(A.shape[0])
    fixed[dofs] = values
    b = rhs - A @ fixed
    b[dofs] = values
    A[dofs, :] = 0.0
    A[:, dofs] = 0.0
    A[dofs, dofs] = 1.0
    return A, b


def check_against_dense(matrix, rhs, dofs, values):
    M, b = apply_dirichlet(matrix, rhs, dofs, values)
    A_ref, b_ref = dense_elimination(matrix, rhs, dofs, values)

    assert isinstance(M, sps.csr_matrix) and M.has_canonical_format
    assert np.array_equal(M.toarray(), A_ref)
    assert np.allclose(b, b_ref, rtol=1e-12, atol=1e-12)
    assert np.array_equal(b[dofs], values)
    # stored entries: those of free rows and columns (explicit zeros kept),
    # plus one unit diagonal per constrained DOF
    free = np.ones(matrix.shape[0], dtype=bool)
    free[dofs] = False
    coo = matrix.tocoo()
    kept = np.count_nonzero(free[coo.row] & free[coo.col])
    assert M.nnz == kept + len(np.unique(dofs))


@settings(max_examples=300, deadline=None)
@given(csr_systems(), st.data())
def test_apply_dirichlet_matches_dense_elimination(system, data):
    matrix, rhs, dofs, values = system
    check_against_dense(matrix, rhs, dofs, values)
    plan = assembly._dirichlet_plans.entries[0][1]

    # new values on the same pattern and DOFs reuse the plan
    n = matrix.shape[0]
    again = sps.csr_matrix(
        (data.draw(arrays(float, matrix.nnz, elements=ENTRIES)),
         matrix.indices, matrix.indptr), shape=(n, n))
    value_of = data.draw(arrays(float, n, elements=ENTRIES))
    check_against_dense(again, data.draw(arrays(float, n, elements=ENTRIES)),
                        dofs, value_of[dofs])
    assert assembly._dirichlet_plans.entries[0][1] is plan


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


def test_apply_dirichlet_leaves_its_input_alone():
    A = sps.random(12, 12, density=0.4, random_state=3, format="csr")
    before = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    rhs = np.arange(12.0)
    apply_dirichlet(A, rhs, np.array([0, 5, 11]), np.array([1.0, 2.0, 3.0]))
    assert all(np.array_equal(x, y) for x, y in
               zip(before, (A.data, A.indices, A.indptr)))
    assert np.array_equal(rhs, np.arange(12.0))


# -- the replay contract of the assemblies -----------------------------------

@pytest.fixture(scope="module")
def step_systems():
    """Constrained and unconstrained systems of one gravity step on 6x6."""
    case = gravity_case()
    mesh = build_uniform_mesh(6, 6)
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

    return {name: (fn(True), fn(False)) for name, fn in
            (("pressure", pressure), ("aqueous", aqueous), ("vapor", vapor))}


@pytest.mark.parametrize("name", ["pressure", "aqueous", "vapor"])
def test_constrained_assembly_is_apply_dirichlet_of_raw(step_systems, name):
    constrained, raw = step_systems[name]
    matrix, rhs = apply_dirichlet(raw.matrix, raw.rhs, raw.constrained_dofs,
                                  raw.constrained_values)
    for got, want in ((constrained.matrix.data, matrix.data),
                      (constrained.matrix.indices, matrix.indices),
                      (constrained.matrix.indptr, matrix.indptr),
                      (constrained.rhs, rhs)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(constrained.constrained_dofs, raw.constrained_dofs)
    assert np.array_equal(constrained.constrained_values, raw.constrained_values)


@pytest.mark.parametrize("name", ["pressure", "aqueous", "vapor"])
def test_assembled_matrices_are_canonical_csr(step_systems, name):
    for system in step_systems[name]:
        m = system.matrix
        assert isinstance(m, sps.csr_matrix)
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        key = rows * m.shape[1] + m.indices
        assert np.all(np.diff(key) > 0)   # sorted within rows, no duplicates


def test_all_systems_on_a_mesh_share_one_pattern(step_systems):
    raws = [step_systems[name][1].matrix for name in ("pressure", "aqueous", "vapor")]
    for m in raws[1:]:
        assert np.array_equal(m.indices, raws[0].indices)
        assert np.array_equal(m.indptr, raws[0].indptr)


# -- the elimination plan ------------------------------------------------------

def test_cold_and_warm_plans_give_identical_bits(step_systems):
    raw = step_systems["pressure"][1]
    args = (raw.matrix, raw.rhs, raw.constrained_dofs, raw.constrained_values)
    assembly._dirichlet_plans.clear()
    cold = apply_dirichlet(*args)
    warm = apply_dirichlet(*args)
    assert len(assembly._dirichlet_plans.entries) == 1
    for got, want in ((cold[0].data, warm[0].data), (cold[0].indices, warm[0].indices),
                      (cold[0].indptr, warm[0].indptr), (cold[1], warm[1])):
        assert np.array_equal(got, want)


def test_patterns_with_equal_indptr_never_share_a_plan():
    # one entry per row, in column 0 or in column 2: equal shape, nnz and
    # indptr, different indices
    n = 4
    indptr = np.arange(n + 1)
    dofs, values = np.array([0]), np.array([2.0])
    assembly._dirichlet_plans.clear()
    for col in (0, 2, 0):
        matrix = sps.csr_matrix((np.full(n, 3.0), np.full(n, col), indptr),
                                shape=(n, n))
        rhs = np.ones(n)
        M, b = apply_dirichlet(matrix, rhs, dofs, values)
        A_ref, b_ref = dense_elimination(matrix, rhs, dofs, values)
        assert np.array_equal(M.toarray(), A_ref) and np.array_equal(b, b_ref)
    assert len(assembly._dirichlet_plans.entries) == 2


def test_plan_keys_do_not_follow_the_callers_arrays():
    # a writable pattern is copied into the key, so editing it afterwards
    # cannot make the old plan answer for the new pattern
    n = 4
    matrix = sps.csr_matrix((np.full(n, 3.0), np.zeros(n, dtype=np.int32),
                             np.arange(n + 1)), shape=(n, n))
    dofs, values = np.array([0]), np.array([2.0])
    assembly._dirichlet_plans.clear()
    apply_dirichlet(matrix, np.ones(n), dofs, values)
    matrix.indices[:] = 2
    M, b = apply_dirichlet(matrix, np.ones(n), dofs, values)
    A_ref, b_ref = dense_elimination(matrix, np.ones(n), dofs, values)
    assert np.array_equal(M.toarray(), A_ref) and np.array_equal(b, b_ref)


def test_assembled_patterns_are_read_only(step_systems):
    for constrained, raw in step_systems.values():
        for m in (constrained.matrix, raw.matrix):
            assert not m.indices.flags.writeable and not m.indptr.flags.writeable
            with pytest.raises(ValueError):
                m.indices[0] = 1

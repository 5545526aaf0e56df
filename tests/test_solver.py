import math

import numpy as np
import pytest
import scipy.sparse as sps

from dgflow import dg_core, solver
from dgflow.assembly import LinearSystem, NonPositiveCoefficientError, SchemeConfig
from dgflow.dg_core import DGField, l2_project, tables
from dgflow.manufactured import UNKNOWNS, ManufacturedCase, constant_densities_case
from dgflow.mesh import build_uniform_mesh
from dgflow.physics import FluidProperties
from dgflow.solver import (NonConvergenceError, PhaseState, SingularSystemError,
                           TimeConfig, advance, initialize, run, solve_linear)

from helpers import (StubCase, constant_state, l2_norm, lagged_coefficients,
                     nodal_interpolant, zero_mobilities)


def _system(matrix, rhs):
    return LinearSystem(sps.csr_matrix(matrix), np.asarray(rhs, dtype=float),
                        np.empty(0, dtype=np.int64), np.empty(0))


# -- linear solves -------------------------------------------------------------

def test_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(solve_linear(_system(np.eye(3), rhs)), rhs)


def test_solve_diagonal():
    sol = solve_linear(_system(np.diag([2.0, 4.0]), [2.0, 8.0]))
    assert np.allclose(sol, [1.0, 2.0])


def test_solve_residual_oracle():
    mesh = build_uniform_mesh(3, 3)
    state = constant_state(mesh)
    from dgflow.assembly import assemble_pressure
    case = StubCase(pressure=lambda t, x, y: 1.0 + x + y)
    system = assemble_pressure(state, mesh, SchemeConfig(), case, 1.0,
                               lagged_coefficients(state, case))
    x = solve_linear(system)
    res = np.linalg.norm(system.matrix @ x - system.rhs)
    assert res <= 1e-11 * (1.0 + np.linalg.norm(system.rhs))


def test_solve_singular_raises():
    with pytest.raises(SingularSystemError):
        solve_linear(_system(np.zeros((2, 2)), [1.0, 1.0]))


# -- time configuration ----------------------------------------------------------

def test_time_config_consistency():
    tc = TimeConfig.from_step(0.25, 1.0)
    assert tc.n_steps == 4
    with pytest.raises(ValueError):
        TimeConfig(0.3, 1.0, 4)
    with pytest.raises(ValueError):
        TimeConfig(-0.1, 1.0, 10)
    # NaN passes every comparison that is written as the failing case
    for tau, t_final, n_steps in ((0.25, math.nan, 0), (math.inf, 1.0, 0), (math.nan, 1.0, 4)):
        with pytest.raises(ValueError):
            TimeConfig(tau, t_final, n_steps)


@pytest.mark.parametrize("make, field", [
    (lambda: FluidProperties(gravity=(0.0,)), "gravity"),
    (lambda: FluidProperties(gravity=(0.0, -0.1, 0.3)), "gravity"),
    (lambda: TimeConfig(0.25, 1.0, 4.0), "n_steps"),
    (lambda: TimeConfig(0.25, -0.25, -1), "n_steps")],
    ids=["gravity-1", "gravity-3", "n_steps-float", "n_steps-negative"])
def test_inputs_that_would_fail_late_are_refused_by_name(make, field):
    # a one-component gravity failed at the first step, a third component was
    # dropped; a float n_steps failed in run, a negative one marched no step
    with pytest.raises(ValueError, match=f"^{field} must "):
        make()


# -- initialization ---------------------------------------------------------------

def test_initialize_constant_fields():
    mesh = build_uniform_mesh(3, 2)
    case = ManufacturedCase("steady", FluidProperties(), "2", "1/4", "1/4")
    state = initialize(case, mesh)
    assert np.allclose(state.pressure.coeffs, 2.0, atol=1e-13)
    assert np.allclose(state.sat_a.coeffs, 0.25, atol=1e-13)
    assert state.step == 0 and state.time == 0.0


def test_initialize_projection_rate():
    case = constant_densities_case()
    errs = []
    for nx in (4, 8):
        mesh = build_uniform_mesh(nx, nx)
        state = initialize(case, mesh)
        errs.append(dg_core.l2_error(state.sat_a, case.sat_a, 0.0))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_initialize_orthogonality():
    case = constant_densities_case()
    mesh = build_uniform_mesh(4, 4)
    state = initialize(case, mesh)
    t = tables(mesh)
    xq, yq = t.qpoints[..., 0], t.qpoints[..., 1]
    resid = case.sat_v(0.0, xq, yq) - state.sat_v.coeffs @ t.phi
    rng = np.random.default_rng(6)
    for _ in range(5):
        w = rng.normal(size=(mesh.n_elements, 4))
        assert abs(np.einsum("eq,eq,q->", resid, w @ t.phi, t.wdet)) < 1e-10


# -- stepping ---------------------------------------------------------------------

def test_steady_state_is_a_fixed_point():
    # constant exact fields, zero sources: every advance reproduces the
    # state to solver tolerance
    mesh = build_uniform_mesh(4, 4)
    case = ManufacturedCase("steady", FluidProperties(), "2", "1/4", "1/4")
    cfg = SchemeConfig()
    state = initialize(case, mesh)
    for _ in range(3):
        new = advance(state, 0.25, cfg, case)
        assert np.max(np.abs(new.pressure.coeffs - state.pressure.coeffs)) < 1e-10
        assert np.max(np.abs(new.sat_a.coeffs - state.sat_a.coeffs)) < 1e-10
        assert np.max(np.abs(new.sat_v.coeffs - state.sat_v.coeffs)) < 1e-10
        state = new
    assert state.step == 3
    assert state.time == pytest.approx(0.75)


def test_one_step_sanity_bounds():
    case = constant_densities_case()
    mesh = build_uniform_mesh(2, 2)
    state = advance(initialize(case, mesh), 0.25, SchemeConfig(), case)
    for field in (state.pressure, state.sat_a, state.sat_v):
        assert np.all(np.isfinite(field.coeffs))
    assert state.sat_a.coeffs.min() > 0 and state.sat_a.coeffs.max() < 1
    assert state.sat_v.coeffs.min() > 0 and state.sat_v.coeffs.max() < 1


def test_zero_steps_returns_projection_errors():
    case = constant_densities_case()
    mesh = build_uniform_mesh(4, 4)
    _, report = run(case, mesh, TimeConfig(0.1, 0.0, 0), SchemeConfig())
    proj = l2_project(lambda x, y: case.sat_a(0.0, x, y), mesh)
    assert report.l2_sat_a == pytest.approx(
        dg_core.l2_error(proj, case.sat_a, 0.0), rel=1e-12)


def test_run_reports_bounds_and_dofs():
    case = constant_densities_case()
    mesh = build_uniform_mesh(4, 4)
    _, report = run(case, mesh, TimeConfig.from_step(0.25, 1.0), SchemeConfig())
    assert report.saturations_in_bounds
    assert report.dofs == 4 * mesh.n_elements


def test_run_projects_only_the_initial_state(monkeypatch):
    # the final errors are L2 errors against the exact fields: no final
    # projection and no coercivity norm is computed
    projected, normed = [], []
    project = solver.l2_project
    monkeypatch.setattr(solver, "l2_project",
                        lambda fn, mesh, tag="": projected.append(tag) or project(fn, mesh, tag))
    monkeypatch.setattr(solver, "coercivity_norm", normed.append)
    run(constant_densities_case(), build_uniform_mesh(2, 2), TimeConfig.from_step(0.5, 1.0),
        SchemeConfig())
    assert projected == list(UNKNOWNS) and normed == []


def test_determinism_bitwise():
    case = constant_densities_case()
    cfg = SchemeConfig()
    mesh = build_uniform_mesh(4, 4)
    time = TimeConfig.from_step(0.25, 0.5)
    s1, r1 = run(case, mesh, time, cfg)
    s2, r2 = run(case, mesh, time, cfg)
    assert np.array_equal(s1.pressure.coeffs, s2.pressure.coeffs)
    assert np.array_equal(s1.sat_a.coeffs, s2.sat_a.coeffs)
    assert np.array_equal(s1.sat_v.coeffs, s2.sat_v.coeffs)
    assert r1.l2_pressure == r2.l2_pressure


def test_error_decreases_under_refinement():
    case = constant_densities_case()
    cfg = SchemeConfig()
    errs = []
    for nx in (2, 4, 8):
        h = 1.0 / nx
        _, rep = run(case, build_uniform_mesh(nx, nx),
                     TimeConfig.from_step(h, 1.0), cfg)
        errs.append((rep.l2_pressure, rep.l2_sat_a, rep.l2_sat_v))
    for i in range(3):
        assert errs[0][i] > errs[1][i] > errs[2][i]


def test_solver_error_carries_step_index():
    # pure-Neumann pressure problem: the matrix is singular (constants)
    mesh = build_uniform_mesh(2, 2)
    state = constant_state(mesh)
    # incompatible data: nonzero total source with zero Neumann flux
    bad = StubCase(dirichlet_sides={"pressure": ()},
                   q_total=lambda t, x, y: np.ones(
                       np.broadcast_shapes(np.shape(x), np.shape(y))),
                   neumann={"pressure": lambda t, x, y, n: np.zeros(
                       np.broadcast_shapes(np.shape(x), np.shape(y)))})
    with pytest.raises((SingularSystemError, NonConvergenceError)) as err:
        advance(state, 0.25, SchemeConfig(), bad)
    assert "step 0 -> 1" in str(err.value)


@pytest.mark.parametrize("tau", [0.0, -0.25, math.inf, math.nan])
def test_advance_refuses_a_step_that_is_not_finite_and_positive(tau, monkeypatch):
    # refused by name before any work: no coefficients are built
    mesh = build_uniform_mesh(4, 4)
    state = constant_state(mesh)

    def unreachable(*args):
        raise AssertionError("advance started a step")

    monkeypatch.setattr(solver, "LaggedCoefficients", unreachable)
    with pytest.raises(ValueError, match=r"^step 0 -> 1: the time step must be finite "
                                         r"and positive, got "):
        advance(state, tau, SchemeConfig(), StubCase())


def test_coefficient_error_carries_step_index(monkeypatch):
    case = constant_densities_case()
    state = initialize(case, build_uniform_mesh(2, 2))
    zero_mobilities(monkeypatch)
    with pytest.raises(NonPositiveCoefficientError, match=r"^step 0 -> 1: non-positive"):
        advance(state, 0.25, SchemeConfig(), case)


# -- per-pattern solve plans -------------------------------------------------------

def _clear_plans():
    solver._factor_plans.clear()


def test_cold_and_warm_plans_give_identical_bits():
    case = constant_densities_case()
    cfg = SchemeConfig()
    state = initialize(case, build_uniform_mesh(6, 6))
    _clear_plans()
    cold = advance(state, 1 / 6, cfg, case)
    assert len(solver._factor_plans) == 1   # one mesh pattern
    warm = advance(state, 1 / 6, cfg, case)
    for a, b in ((cold.pressure, warm.pressure), (cold.sat_a, warm.sat_a),
                 (cold.sat_v, warm.sat_v)):
        assert np.array_equal(a.coeffs, b.coeffs)


def _cyclic(n, shift, rng):
    # two entries per row: the diagonal and column (i + shift) mod n, so
    # shape, nnz and indptr do not depend on the shift
    rows = np.repeat(np.arange(n), 2)
    cols = np.column_stack([np.arange(n), (np.arange(n) + shift) % n]).ravel()
    vals = np.column_stack([rng.uniform(4.0, 5.0, n), rng.uniform(-1.0, 1.0, n)]).ravel()
    return sps.csr_matrix((vals, (rows, cols)), shape=(n, n))


def test_patterns_with_equal_indptr_never_share_a_plan():
    rng = np.random.default_rng(11)
    A1, A2 = _cyclic(9, 1, rng), _cyclic(9, 4, rng)
    assert np.array_equal(A1.indptr, A2.indptr) and A1.nnz == A2.nnz
    assert not np.array_equal(A1.indices, A2.indices)
    _clear_plans()
    for A in (A1, A2, A1):
        b = rng.normal(size=9)
        x = solve_linear(_system(A, b))
        assert np.linalg.norm(A @ x - b) <= 1e-12 * (1.0 + np.linalg.norm(b))
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-12, atol=0)
    assert len(solver._factor_plans) == 2
    orders = [plan.order for _, plan in solver._factor_plans]
    assert not np.array_equal(orders[0], orders[1])


def test_factor_plan_keys_do_not_follow_the_callers_arrays():
    # a writable pattern is copied into the key, so editing it afterwards
    # cannot make the old plan answer for the new pattern
    rng = np.random.default_rng(12)
    A1, A2 = _cyclic(9, 1, rng), _cyclic(9, 4, rng)
    indices = A1.indices.copy()
    b = rng.normal(size=9)
    _clear_plans()
    solve_linear(_system(sps.csr_matrix((A1.data, indices, A1.indptr), shape=(9, 9)), b))
    indices[:] = A2.indices
    x = solve_linear(_system(sps.csr_matrix((A2.data, indices, A2.indptr), shape=(9, 9)), b))
    assert np.allclose(x, np.linalg.solve(A2.toarray(), b), rtol=1e-12, atol=0)
    assert len(solver._factor_plans) == 2


def _splu_calls(monkeypatch):
    calls = []
    splu = solver.spla.splu

    def spy(A, permc_spec=None, **kwargs):
        calls.append((A.dtype, permc_spec))
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", spy)
    return calls


def test_dg_system_factors_in_single_precision_only(monkeypatch):
    mesh = build_uniform_mesh(4, 4)
    from dgflow.assembly import assemble_pressure
    state, case = constant_state(mesh), StubCase(pressure=lambda t, x, y: 1.0 + x - 2 * y)
    system = assemble_pressure(state, mesh, SchemeConfig(), case, 1.0,
                               lagged_coefficients(state, case))
    _clear_plans()
    calls = _splu_calls(monkeypatch)
    x = solve_linear(system)
    solve_linear(system)
    # the plan's ordering, then one single-precision factor per solve
    assert calls == [(np.float32, "MMD_AT_PLUS_A"), (np.float32, "NATURAL"),
                     (np.float32, "NATURAL")]
    # refined to stagnation, not just to the residual bound: as accurate as
    # a double-precision factor
    reference = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.max(np.abs(x - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_ill_conditioned_system_falls_back_to_double(monkeypatch):
    # condition number 1e10: single-precision refinement cannot converge
    rng = np.random.default_rng(5)
    n = 30
    Q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = sps.csr_matrix(Q1 @ np.diag(np.logspace(0, -10, n)) @ Q2.T)
    b = A @ rng.normal(size=n)
    _clear_plans()
    calls = _splu_calls(monkeypatch)
    x = solve_linear(_system(A, b))
    assert (np.float64, "NATURAL") in calls
    assert np.linalg.norm(A @ x - b) <= 1e-12 * (1.0 + np.linalg.norm(b))


def test_duplicate_entries_are_summed_before_factoring():
    # a non-canonical CSR (one entry stored twice) must not reach SuperLU
    # with duplicates, which it would sum in the plan's own arrays
    A = sps.csr_matrix((np.array([1.0, 1.0, 3.0]), np.array([0, 0, 1]),
                        np.array([0, 2, 3])), shape=(2, 2))
    assert not A.has_canonical_format
    _clear_plans()
    for _ in range(2):
        assert np.allclose(solve_linear(_system(A, [4.0, 3.0])), [2.0, 1.0])


def test_plan_reorders_for_minimum_degree_fill():
    mesh = build_uniform_mesh(8, 8)
    from dgflow.assembly import assemble_pressure
    state, case = constant_state(mesh), StubCase(pressure=lambda t, x, y: 1.0 + x - 2 * y)
    A = assemble_pressure(state, mesh, SchemeConfig(), case, 1.0,
                          lagged_coefficients(state, case)).matrix
    plan = solver._factor_plan(A)
    permuted = A[plan.order][:, plan.order].tocsc()
    gathered = sps.csc_matrix((A.data[plan.gather], plan.indices, plan.indptr),
                              shape=A.shape)
    for got, want in ((gathered.data, permuted.data), (gathered.indices, permuted.indices),
                      (gathered.indptr, permuted.indptr)):
        assert np.array_equal(got, want)
    natural = solver.spla.splu(permuted, permc_spec="NATURAL")
    mmd = solver.spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert natural.L.nnz + natural.U.nnz == mmd.L.nnz + mmd.U.nnz


def test_system_singular_in_single_precision_is_solved_in_double(monkeypatch):
    # 1 + 1e-9 rounds to 1 in float32, so that factor is exactly singular;
    # the order and the factor both come from double precision instead
    A = sps.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0],
                                 [0.0, 0.0, 2.0]]))
    b = A @ np.array([1.0, -1.0, 0.5])
    _clear_plans()
    calls = _splu_calls(monkeypatch)
    x = solve_linear(_system(A, b))
    assert calls[:2] == [(np.float32, "MMD_AT_PLUS_A"), (np.float64, "MMD_AT_PLUS_A")]
    assert calls[-1] == (np.float64, "NATURAL")
    assert np.linalg.norm(A @ x - b) <= 1e-12 * (1.0 + np.linalg.norm(b))

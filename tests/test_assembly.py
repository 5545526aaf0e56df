import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps

from dgflow import assembly, dg_core, physics
from dgflow.assembly import (ConflictingConstraintError, LaggedCoefficients,
                             NonPositiveCoefficientError, RTField, SchemeConfig,
                             apply_dirichlet, assemble_aqueous, assemble_pressure,
                             assemble_vapor, dirichlet_constraints, form_matrix,
                             harmonic_penalty, rt0_project)
from dgflow.dg_core import DGField, evaluate, tables
from dgflow.manufactured import constant_densities_case, gravity_case
from dgflow.mesh import build_uniform_mesh
from dgflow.physics import FluidProperties
from dgflow.solver import PhaseState, advance, initialize, solve_linear

from helpers import (StubCase, constant_state, nodal_interpolant,
                     reference_trace_constant, rt_moments_oracle)


LINEAR_P = lambda t, x, y: 1.0 + x + y
NIPG = SchemeConfig()


def make_coeffs(mesh, state, fluids=None):
    return LaggedCoefficients(mesh, fluids or FluidProperties(),
                              state.sat_a, state.sat_v)


# -- harmonic penalty ----------------------------------------------------------

def test_harmonic_penalty_values():
    assert harmonic_penalty(1.0, 1.0) == pytest.approx(1.0)
    assert harmonic_penalty(2.0, 6.0) == pytest.approx(3.0)
    assert harmonic_penalty(5.0, 1e-12) == pytest.approx(0.0, abs=1e-11)
    assert harmonic_penalty(3.0, 3.0) <= 2.0 * 3.0


def test_harmonic_penalty_degenerate():
    with pytest.raises(NonPositiveCoefficientError):
        harmonic_penalty(0.0, 0.0)


def test_vanishing_vapor_diffusivity_raises(monkeypatch):
    # the clamp keeps kappa lam_v p_cv' > 0; a closure that lets it vanish
    # fails at assembly, as for the other two equations
    real = physics.mobilities

    def no_vapor(s, fluids):
        mob = real(s, fluids)
        return dataclasses.replace(mob, lam_v=np.zeros_like(mob.lam_v))

    monkeypatch.setattr(physics, "mobilities", no_vapor)
    mesh = build_uniform_mesh(4, 4)
    coeffs = make_coeffs(mesh, constant_state(mesh))
    form_matrix(mesh, NIPG, coeffs, "aqueous")
    with pytest.raises(NonPositiveCoefficientError, match="non-positive vapor"):
        form_matrix(mesh, NIPG, coeffs, "vapor")


def test_vapor_system_does_not_read_sat_a():
    # The vapor closures (lam_v = s_v^2 / mu_v, p_cv'(s_v), a clamp that
    # cuts each saturation off on its own) read only s_v.  That is why the
    # scheme has no switch for the aqueous saturation the vapor
    # coefficients are lagged at: it cannot change a bit.  If a closure
    # ever makes them depend on s_a, this fails and the choice matters again.
    rng = np.random.default_rng(31)
    mesh = build_uniform_mesh(6, 6)
    case = gravity_case()
    shape = (mesh.n_elements, 4)
    sat_v = DGField(mesh, rng.uniform(0.05, 0.45, shape), "sat_v")
    state = PhaseState(DGField(mesh, rng.uniform(1.0, 3.0, shape), "pressure"),
                       DGField(mesh, rng.uniform(0.05, 0.45, shape), "sat_a"), sat_v)
    velocity = RTField(mesh, rng.normal(size=mesh.n_faces))
    vapor, aqueous = [], []
    for _ in range(2):
        sat_a = DGField(mesh, rng.uniform(0.05, 0.45, shape), "sat_a")
        coeffs = LaggedCoefficients(mesh, case.fluids, sat_a, sat_v)
        args = (velocity, mesh, NIPG, case, 0.05, 0.3, coeffs)
        vapor.append(assemble_vapor(state, state.pressure, None, *args, constrain=False))
        aqueous.append(assemble_aqueous(state, state.pressure, *args, constrain=False))
    # the two aqueous saturations do reach the closures
    assert not np.array_equal(aqueous[0].matrix.data, aqueous[1].matrix.data)
    a, b = vapor
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.rhs, b.rhs)


# -- patch tests ---------------------------------------------------------------

def test_reference_trace_constant_of_square_cells():
    # the value behind the penalty guidance of SchemeConfig and the README
    assert reference_trace_constant() ** 2 == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-12)


def _patch_alpha(theta):
    c_tr = reference_trace_constant()
    thr = 0.25 * (1 - theta) ** 2 * c_tr**2  # frozen coefficients: ratio one
    return max(1.0, 1.5 * thr)


@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_pressure_patch_test(theta):
    mesh = build_uniform_mesh(4, 4)
    state = constant_state(mesh)
    case = StubCase(pressure=LINEAR_P)
    cfg = SchemeConfig(theta_p=theta, alpha_p=_patch_alpha(theta))
    system = assemble_pressure(state, mesh, cfg, case, t_next=1.0,
                               coeffs=make_coeffs(mesh, state, case.fluids))
    sol = solve_linear(system)
    expected = nodal_interpolant(mesh, lambda x, y: LINEAR_P(1.0, x, y))
    assert np.max(np.abs(sol - expected.vector)) < 1e-10


@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_aqueous_patch_test(theta):
    mesh = build_uniform_mesh(4, 4)
    state = constant_state(mesh)
    linear_sa = lambda t, x, y: 0.2 + 0.05 * x + 0.1 * y
    case = StubCase(sat_a=linear_sa)
    cfg = SchemeConfig(theta_a=theta, alpha_a=_patch_alpha(theta))
    system = assemble_aqueous(state, state.pressure, RTField.zeros(mesh), mesh,
                              cfg, case, tau=1e15, t_next=1.0,
                              coeffs=make_coeffs(mesh, state, case.fluids))
    sol = solve_linear(system)
    expected = nodal_interpolant(mesh, lambda x, y: linear_sa(1.0, x, y))
    assert np.max(np.abs(sol - expected.vector)) < 1e-10


@pytest.mark.parametrize("theta", [-1, 0, 1])
def test_vapor_patch_test(theta):
    mesh = build_uniform_mesh(4, 4)
    state = constant_state(mesh)
    linear_sv = lambda t, x, y: 0.3 - 0.04 * x + 0.02 * y
    case = StubCase(sat_v=linear_sv)
    cfg = SchemeConfig(theta_v=theta, alpha_v=_patch_alpha(theta))
    system = assemble_vapor(state, state.pressure, None, RTField.zeros(mesh), mesh,
                            cfg, case, tau=1e15, t_next=1.0,
                            coeffs=make_coeffs(mesh, state, case.fluids))
    sol = solve_linear(system)
    expected = nodal_interpolant(mesh, lambda x, y: linear_sv(1.0, x, y))
    assert np.max(np.abs(sol - expected.vector)) < 1e-10


# (1, 3) and (3, 1) leave one interior face group empty
NEUMANN_MESHES = pytest.mark.parametrize("shape", [(4, 4), (1, 3), (3, 1)],
                                         ids=["4x4", "1x3", "3x1"])


@NEUMANN_MESHES
def test_pressure_patch_with_neumann_side(shape):
    # right side Neumann: the patch solution stays nodal-exact when the
    # prescribed flux matches the linear field's total flux
    mesh = build_uniform_mesh(*shape)
    state = constant_state(mesh)
    lam_t = 0.75  # total mobility of the frozen (0.25, 0.25) state
    flux = lambda t, x, y, n: np.broadcast_to(
        lam_t * (n[0] + n[1]),
        np.broadcast_shapes(np.shape(x), np.shape(y))).copy()
    case = StubCase(pressure=LINEAR_P,
                    dirichlet_sides={"pressure": ("left", "bottom", "top")},
                    neumann={"pressure": flux})
    system = assemble_pressure(state, mesh, NIPG, case, 1.0,
                               make_coeffs(mesh, state, case.fluids))
    sol = solve_linear(system)
    expected = nodal_interpolant(mesh, lambda x, y: LINEAR_P(1.0, x, y))
    assert np.max(np.abs(sol - expected.vector)) < 1e-10


@NEUMANN_MESHES
def test_aqueous_patch_with_neumann_side(shape):
    mesh = build_uniform_mesh(*shape)
    state = constant_state(mesh)
    s = physics.clamp(0.25, 0.25)
    lam_a = float(physics.mobilities(s, FluidProperties()).lam_a)
    dpca_plus = float(physics.capillary_pressure_a(s.s_a)[2])
    diff = lam_a * dpca_plus
    grad = (0.05, 0.1)
    linear_sa = lambda t, x, y: 0.2 + grad[0] * x + grad[1] * y
    flux = lambda t, x, y, n: np.broadcast_to(
        diff * (grad[0] * n[0] + grad[1] * n[1]),
        np.broadcast_shapes(np.shape(x), np.shape(y))).copy()
    case = StubCase(sat_a=linear_sa,
                    dirichlet_sides={"sat_a": ("left", "right", "bottom")},
                    neumann={"sat_a": flux})
    system = assemble_aqueous(state, state.pressure, RTField.zeros(mesh), mesh,
                              NIPG, case, tau=1e15, t_next=1.0,
                              coeffs=make_coeffs(mesh, state, case.fluids))
    sol = solve_linear(system)
    expected = nodal_interpolant(mesh, lambda x, y: linear_sa(1.0, x, y))
    assert np.max(np.abs(sol - expected.vector)) < 1e-10


def test_sipg_matrix_symmetry():
    mesh = build_uniform_mesh(4, 4)
    state = constant_state(mesh, sa=0.3, sv=0.2)
    coeffs = make_coeffs(mesh, state)
    cfg = SchemeConfig(theta_p=-1, alpha_p=10.0)
    B = form_matrix(mesh, cfg, coeffs, "pressure")
    asym = np.abs((B - B.T).toarray()).max()
    assert asym < 1e-12


def test_nonuniform_state_sipg_still_symmetric():
    mesh = build_uniform_mesh(3, 3)
    case = constant_densities_case()
    state = initialize(case, mesh)
    coeffs = make_coeffs(mesh, state)
    B = form_matrix(mesh, SchemeConfig(theta_p=-1, alpha_p=10.0), coeffs, "pressure")
    assert np.abs((B - B.T).toarray()).max() < 1e-12


# -- coercivity samples ---------------------------------------------------------

@pytest.fixture(scope="module")
def sample_state():
    mesh = build_uniform_mesh(4, 4)
    case = constant_densities_case()
    return mesh, case, initialize(case, mesh)


@pytest.mark.parametrize("equation", ["pressure", "aqueous", "vapor"],
                         ids=lambda equation: equation + "_form")
def test_quadratic_form_positivity_nipg(sample_state, equation):
    mesh, case, state = sample_state
    coeffs = make_coeffs(mesh, state)
    B = form_matrix(mesh, NIPG, coeffs, equation)
    dofs, _ = dirichlet_constraints(mesh, case, "pressure", 0.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        w = rng.normal(size=B.shape[0])
        w[dofs] = 0.0
        assert w @ (B @ w) > 0.0


def test_quadratic_form_can_fail_below_threshold(sample_state):
    # incomplete variant with a tiny penalty: report, do not assert
    mesh, case, state = sample_state
    coeffs = make_coeffs(mesh, state)
    cfg = SchemeConfig(theta_p=0, alpha_p=1e-8)
    B = form_matrix(mesh, cfg, coeffs, "pressure")
    dofs, _ = dirichlet_constraints(mesh, case, "pressure", 0.0)
    rng = np.random.default_rng(4)
    bad = 0
    for _ in range(50):
        w = rng.normal(size=B.shape[0])
        w[dofs] = 0.0
        if w @ (B @ w) <= 0.0:
            bad += 1
    print(f"theta=0 alpha=1e-8: {bad}/50 sign failures (reported, not asserted)")


def test_boundedness_constant_stable_under_refinement():
    case = constant_densities_case()
    rng = np.random.default_rng(23)

    def fitted_constant(mesh):
        state = initialize(case, mesh)
        B = form_matrix(mesh, NIPG, make_coeffs(mesh, state), "pressure")
        c = 0.0
        for _ in range(30):
            v = DGField(mesh, rng.normal(size=(mesh.n_elements, 4)))
            w = DGField(mesh, rng.normal(size=(mesh.n_elements, 4)))
            b_vw = w.vector @ (B @ v.vector)
            c = max(c, abs(b_vw) / (dg_core.coercivity_norm(v)
                                    * dg_core.coercivity_norm(w)))
        return c

    c0 = fitted_constant(build_uniform_mesh(4, 4))
    for nx in (8, 16):
        assert fitted_constant(build_uniform_mesh(nx, nx)) <= 1.1 * c0


# -- RT0 projection -------------------------------------------------------------

def test_rt0_flux_of_continuous_linear_pressure():
    mesh = build_uniform_mesh(3, 3)
    state = constant_state(mesh)
    coeffs = make_coeffs(mesh, state)
    p = nodal_interpolant(mesh, lambda x, y: 1.0 + 2 * x + 3 * y, "pressure")
    velocity = rt0_project(p, state, mesh, NIPG, coeffs)
    grad = np.array([2.0, 3.0])
    for fid in range(mesh.n_faces):
        n = mesh.face_normal[fid]
        assert velocity.fluxes[fid] == pytest.approx(-(grad @ n), abs=1e-12)


def test_rt0_jump_term_hand_value():
    # piecewise-constant pressure with a unit jump: flux = alpha*eta/h_e
    mesh = build_uniform_mesh(2, 1)
    state = constant_state(mesh)  # lam_t = 0.75 everywhere
    coeffs = make_coeffs(mesh, state)
    p = DGField.zeros(mesh, "pressure")
    fid = mesh.interior_faces[0]
    p.coeffs[mesh.face_k1[fid], :] = 1.0
    velocity = rt0_project(p, state, mesh, NIPG, coeffs)
    h_e = mesh.face_length[fid]
    expected = 1.0 * 0.75 / h_e  # eta = harmonic(0.75, 0.75)
    assert velocity.fluxes[fid] == pytest.approx(expected, rel=1e-12)


def test_rt0_moments_match_independent_oracle():
    mesh = build_uniform_mesh(3, 3)
    case = constant_densities_case()
    state = initialize(case, mesh)
    coeffs = make_coeffs(mesh, state)
    system = assemble_pressure(state, mesh, NIPG, case, t_next=0.25, coeffs=coeffs)
    p = DGField.from_vector(mesh, solve_linear(system), "pressure")
    velocity = rt0_project(p, state, mesh, NIPG, coeffs)
    oracle = rt_moments_oracle(mesh, p, coeffs, NIPG)
    assert np.allclose(velocity.fluxes * mesh.face_length, oracle, atol=1e-12)


def test_rt0_divergence_free_on_patch_solve():
    mesh = build_uniform_mesh(4, 4)
    state = constant_state(mesh)
    case = StubCase(pressure=LINEAR_P)
    coeffs = make_coeffs(mesh, state, case.fluids)
    system = assemble_pressure(state, mesh, NIPG, case, t_next=1.0, coeffs=coeffs)
    p = DGField.from_vector(mesh, solve_linear(system), "pressure")
    velocity = rt0_project(p, state, mesh, NIPG, coeffs)
    signed = (velocity.fluxes[mesh.elem_to_faces]
              * mesh.face_length[mesh.elem_to_faces]
              * mesh.elem_face_sign)
    # interior elements only; boundary elements have no balance statement
    interior = [e for e in range(mesh.n_elements)
                if all(mesh.face_tag[mesh.elem_to_faces[e]] < 0)]
    assert len(interior) == 4
    assert np.abs(signed[interior].sum(axis=1)).max() < 1e-10


def test_rt0_normal_trace_single_valued():
    # one stored scalar per face: both adjacent elements reconstruct the
    # same normal component on the shared face
    mesh = build_uniform_mesh(3, 2)
    rng = np.random.default_rng(8)
    velocity = RTField(mesh, rng.normal(size=mesh.n_faces))
    from dgflow.mesh import LEFT, RIGHT
    for fid in mesh.interior_vertical:
        k1, k2 = mesh.face_k1[fid], mesh.face_k2[fid]
        # each side's face list points at the same stored normal flux
        f1 = velocity.fluxes[mesh.elem_to_faces[k1, RIGHT]]
        f2 = velocity.fluxes[mesh.elem_to_faces[k2, LEFT]]
        assert f1 == f2  # same stored scalar


# -- upwinding -------------------------------------------------------------------

def test_upwind_value_selector():
    # without gravity the sign of the flux picks the side; a tie goes to k1
    mesh = build_uniform_mesh(2, 1)
    grp, = (g for g in assembly._groups(mesh).interior if len(g.fids))
    side1, side2 = (SimpleNamespace(kappa=1.0, mob=SimpleNamespace(
        lam_a=np.full((1, dg_core.FACE_POINTS), lam))) for lam in (3.0, 7.0))
    up = RTField(mesh, np.zeros(mesh.n_faces))
    for flux, k1_side in ((1.0, True), (-1.0, False), (0.0, True)):
        up.fluxes[grp.fids] = flux
        mask = assembly._group_upwind(grp, side1, side2, up, (0.0, 0.0), 5.0, "lam_a")[0]
        assert mask.tolist() == [k1_side]


def test_upwind_matches_bruteforce_on_run():
    from dgflow.solver import advance
    mesh = build_uniform_mesh(4, 4)
    case = gravity_case()
    state = initialize(case, mesh)
    coeffs = make_coeffs(mesh, state, case.fluids)
    system = assemble_pressure(state, mesh, NIPG, case, 0.25, coeffs)
    p = DGField.from_vector(mesh, solve_linear(system))
    velocity = rt0_project(p, state, mesh, NIPG, coeffs)
    g = case.fluids.gravity_vector

    chosen = {}
    for grp in assembly._groups(mesh).interior:
        s1, s2 = coeffs.face[grp.key]
        mask = assembly._group_upwind(grp, s1, s2, velocity, g, case.fluids.rho_a,
                                      "lam_a")[0]
        lam1, lam2 = s1.mob.lam_a[:, assembly.MID], s2.mob.lam_a[:, assembly.MID]
        chosen.update(zip(grp.fids, np.where(mask, lam1, lam2)))
    assert sorted(chosen) == sorted(mesh.interior_faces)
    for fid in mesh.interior_faces:
        face = mesh.face(fid)
        sides = []
        for elem, mid in _face_midpoints(mesh, face):
            sa = evaluate(state.sat_a, elem, mid)
            sv = evaluate(state.sat_v, elem, mid)
            s = physics.clamp(sa, sv)
            lam = float(physics.mobilities(s, case.fluids).lam_a)
            sides.append(lam)
        d1, d2 = sides
        dg1, dg2 = (case.fluids.rho_a * case.fluids.permeability * d for d in sides)
        # k1 when the plain-average flux {D u + D^g g} . n is nonnegative
        selector = (0.5 * (d1 + d2) * velocity.fluxes[fid]
                    + 0.5 * (dg1 + dg2) * (g @ face.normal))
        assert chosen[fid] == (d1 if selector >= 0.0 else d2)


def _face_midpoints(mesh, face):
    vertical = face.normal[0] != 0.0
    if vertical:
        return ((face.k1, (1.0, 0.5)), (face.k2, (0.0, 0.5)))
    return ((face.k1, (0.5, 1.0)), (face.k2, (0.5, 0.0)))


# -- mass consistency ------------------------------------------------------------

def test_identity_time_step_preserves_field():
    mesh = build_uniform_mesh(3, 3)
    rng = np.random.default_rng(2)
    s_prev = DGField(mesh, rng.uniform(0.2, 0.4, size=(mesh.n_elements, 4)))
    phi_tau = 0.2 / 0.01
    pattern = assembly._groups(mesh).pattern
    data = np.zeros(pattern.nnz)
    assembly._add_mass(data, mesh, phi_tau)
    M = assembly._on_pattern(pattern, data)
    t = tables(mesh)
    rhs = phi_tau * np.einsum("jk,ek->ej", t.mass, s_prev.coeffs)
    from dgflow.assembly import LinearSystem
    sol = solve_linear(LinearSystem(M, rhs.ravel(), np.empty(0, np.int64),
                                    np.empty(0)))
    assert np.max(np.abs(sol - s_prev.vector)) < 1e-12


# -- the scatter map ----------------------------------------------------------------

def test_scatter_map_is_32_bit():
    pattern = assembly._groups(build_uniform_mesh(3, 2)).pattern
    assert pattern.scatter.dtype == np.int32
    assert pattern.volume.dtype == np.int32
    assert np.shares_memory(pattern.volume, pattern.scatter)


@pytest.mark.parametrize("equation", ["pressure", "aqueous", "vapor"])
def test_form_matrix_sums_as_a_64_bit_scatter_map(equation):
    # the 32-bit map gives the bits the same map gives in 64 bits
    mesh = build_uniform_mesh(4, 3)
    coeffs = make_coeffs(mesh, initialize(gravity_case(), mesh))
    cfg = SchemeConfig(theta_p=-1, alpha_p=9.0, theta_a=0, alpha_a=3.0)
    pattern = assembly._groups(mesh).pattern
    assert pattern.scatter.dtype == np.int32
    theta, alpha = cfg.variant(equation)
    weights = assembly._diffusion_weights(mesh, coeffs, equation, alpha, theta)
    wide = np.bincount(pattern.scatter.astype(np.int64), weights=weights,
                       minlength=pattern.nnz)
    data = form_matrix(mesh, cfg, coeffs, equation).data
    assert data.tobytes() == wide.tobytes()


# -- structural symmetry of the two saturation assemblies -------------------------

def test_aqueous_vapor_swap_identical_matrices():
    # mu_a = mu_v and s_a = s_v = 0.62 make the two diffusivities coincide:
    # 6.3/(s+0.01) = 3.9/(1.01-s) exactly at s = 0.62
    mesh = build_uniform_mesh(3, 3)
    fluids = FluidProperties(mu_v=0.5, mu_a=0.5)
    state = constant_state(mesh, sa=0.62, sv=0.62)
    coeffs = LaggedCoefficients(mesh, fluids, state.sat_a, state.sat_v)
    cfg = SchemeConfig(theta_a=1, theta_v=1, alpha_a=2.0, alpha_v=2.0)
    Ba = form_matrix(mesh, cfg, coeffs, "aqueous").toarray()
    Bv = form_matrix(mesh, cfg, coeffs, "vapor").toarray()
    assert np.allclose(Ba, Bv, rtol=1e-13, atol=1e-14)


# -- one-step and short-run transfer ----------------------------------------------

def test_one_step_aqueous_error_transfer():
    # error after a single step scales like O(tau + h): halving both
    # roughly halves it (rate oracle against the refined run)
    from dgflow.solver import advance, initialize
    case = constant_densities_case()
    errs = []
    for nx in (4, 8):
        mesh = build_uniform_mesh(nx, nx)
        h = 1.0 / nx
        state = advance(initialize(case, mesh), h, NIPG, case)
        errs.append(dg_core.l2_error(state.sat_a, case.sat_a, h))
    assert 1.8 <= errs[0] / errs[1] <= 3.2


def test_short_run_vapor_error_magnitude():
    # sixteen first-order steps on a 16x16 grid land near the reference
    # vapor error magnitude for this scenario
    from dgflow.solver import TimeConfig, run
    case = constant_densities_case()
    h = 0.0625
    _, rep = run(case, build_uniform_mesh(16, 16),
                 TimeConfig.from_step(h, 1.0), NIPG)
    assert 4.77e-3 / 3 <= rep.l2_sat_v <= 4.77e-3 * 3


# -- Dirichlet constraint machinery ----------------------------------------------

def test_apply_dirichlet_identity_rows_and_columns():
    A = sps.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                 [1.0, 3.0, 1.0],
                                 [0.0, 1.0, 4.0]]))
    rhs = np.array([1.0, 2.0, 3.0])
    M, b = apply_dirichlet(A, rhs, np.array([0]), np.array([5.0]))
    dense = M.toarray()
    assert np.array_equal(dense[0], [1.0, 0.0, 0.0])   # identity row
    assert np.array_equal(dense[1:], A.toarray()[1:])  # column 0 stays
    assert M.nnz == A.nnz                              # explicit zero kept
    assert np.array_equal(b, [5.0, 2.0, 3.0])
    # the same solution as eliminating column 0 into the rhs
    x = np.linalg.solve(dense, b)
    x_free = np.linalg.solve(A.toarray()[1:, 1:], rhs[1:] - A.toarray()[1:, 0] * 5.0)
    assert np.allclose(x, np.concatenate([[5.0], x_free]), rtol=1e-14, atol=0)


def test_apply_dirichlet_zero_values_keep_interior_rows():
    rng = np.random.default_rng(12)
    # a stored diagonal in every row, as a constrained row needs
    A = (sps.random(20, 20, density=0.3, random_state=1) + sps.eye(20)).tocsr()
    rhs = rng.normal(size=20)
    dofs = np.array([3, 7])
    M, b = apply_dirichlet(A, rhs, dofs, np.zeros(2))
    free = np.setdiff1d(np.arange(20), dofs)
    assert np.allclose(b[free], rhs[free])
    dense_in = A.toarray()
    dense_out = M.toarray()
    assert np.allclose(dense_out[np.ix_(free, free)], dense_in[np.ix_(free, free)])


def test_apply_dirichlet_conflicting_values_raise():
    A = sps.eye(4, format="csr")
    with pytest.raises(ConflictingConstraintError):
        apply_dirichlet(A, np.zeros(4), np.array([1, 1]), np.array([2.0, 3.0]))


def test_constrained_rows_solve_exactly():
    mesh = build_uniform_mesh(3, 3)
    state = constant_state(mesh)
    case = StubCase(pressure=LINEAR_P)
    system = assemble_pressure(state, mesh, NIPG, case, t_next=0.5,
                               coeffs=make_coeffs(mesh, state, case.fluids))
    sol = solve_linear(system)
    resid = system.matrix @ sol - system.rhs
    assert np.max(np.abs(resid[system.constrained_dofs])) == 0.0
    assert np.allclose(sol[system.constrained_dofs], system.constrained_values)


def test_dirichlet_constraints_cover_boundary_nodes():
    mesh = build_uniform_mesh(2, 2)
    case = StubCase(pressure=LINEAR_P)
    dofs, vals = dirichlet_constraints(mesh, case, "pressure", 0.0)
    # every element touches the boundary on a 2x2 mesh; 3 constrained
    # nodes per corner element
    assert len(dofs) == 12
    xy = mesh.node_coords.reshape(-1, 2)[dofs]
    assert np.allclose(vals, 1.0 + xy[:, 0] + xy[:, 1])


@pytest.mark.parametrize("n", [1, 3, 6])
def test_dirichlet_data_are_evaluated_once_per_boundary_node(n):
    # four Dirichlet sides: 8n side DOFs, of which the four corners are shared
    mesh = build_uniform_mesh(n, n)
    calls = []

    def data(t, x, y):
        calls.append((np.shape(x), np.shape(y)))
        return np.sin(3.0 * x) + y**2 + t

    dofs, vals = dirichlet_constraints(mesh, StubCase(pressure=data), "pressure", 0.5)
    assert calls == [((8 * n - 4,), (8 * n - 4,))]
    assert np.all(np.diff(dofs) > 0)
    x, y = mesh.node_coords.reshape(-1, 2)[dofs].T
    assert np.array_equal(vals, np.sin(3.0 * x) + y**2 + 0.5)


def test_scalar_dirichlet_data_give_the_constant_at_every_dof():
    mesh = build_uniform_mesh(4, 4)
    case = StubCase(pressure=lambda t, x, y: 1.0)
    dofs, vals = dirichlet_constraints(mesh, case, "pressure", 0.0)
    assert len(dofs) == 28 and vals.shape == dofs.shape and np.all(vals == 1.0)
    state = advance(constant_state(mesh), 0.25, NIPG, case)
    assert np.all(np.isfinite(state.pressure.coeffs))


def test_forms_scale_with_permeability():
    # every diffusivity carries kappa, the averaging weights do not see its
    # scale and the harmonic penalty is linear in it
    mesh = build_uniform_mesh(4, 4)
    state = initialize(constant_densities_case(), mesh)
    cfg = SchemeConfig(theta_p=-1, alpha_p=9.0, theta_a=0, alpha_a=3.0)
    unit = make_coeffs(mesh, state)
    scaled = make_coeffs(mesh, state, FluidProperties(permeability=2.5))
    for equation in ("pressure", "aqueous", "vapor"):
        a = form_matrix(mesh, cfg, unit, equation).data
        b = form_matrix(mesh, cfg, scaled, equation).data
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-13, atol=1e-13 * np.abs(a).max())


@pytest.mark.parametrize("field", ["alpha_p", "alpha_a", "alpha_v"])
def test_array_penalty_is_refused(field):
    with pytest.raises(ValueError, match=field):
        SchemeConfig(**{field: np.full(4, 2.0)})


# -- consistency under refinement -------------------------------------------------

def test_interpolated_exact_residual_decays():
    case = constant_densities_case()
    maxres = {"p": [], "a": [], "v": []}
    for nx in (4, 8, 16):
        mesh = build_uniform_mesh(nx, nx)
        tau = 1.0 / nx
        t0, t1 = 0.0, tau
        interp = lambda fn, tt: nodal_interpolant(
            mesh, lambda x, y: fn(tt, x, y))
        state = PhaseState(interp(case.pressure, t0),
                           interp(case.sat_a, t0), interp(case.sat_v, t0))
        coeffs = make_coeffs(mesh, state, case.fluids)
        p1 = interp(case.pressure, t1)
        velocity = rt0_project(p1, state, mesh, NIPG, coeffs)

        sys_p = assemble_pressure(state, mesh, NIPG, case, t1, coeffs,
                                  constrain=False)
        free = np.setdiff1d(np.arange(4 * mesh.n_elements),
                            dirichlet_constraints(mesh, case, "pressure", t1)[0])
        maxres["p"].append(np.abs((sys_p.matrix @ p1.vector
                                   - sys_p.rhs))[free].max())

        sys_a = assemble_aqueous(state, p1, velocity, mesh, NIPG, case, tau,
                                 t1, coeffs, constrain=False)
        sa1 = interp(case.sat_a, t1)
        free = np.setdiff1d(np.arange(4 * mesh.n_elements),
                            dirichlet_constraints(mesh, case, "sat_a", t1)[0])
        maxres["a"].append(np.abs((sys_a.matrix @ sa1.vector
                                   - sys_a.rhs))[free].max())

        sys_v = assemble_vapor(state, p1, sa1, velocity, mesh, NIPG, case,
                               tau, t1, coeffs, constrain=False)
        sv1 = interp(case.sat_v, t1)
        free = np.setdiff1d(np.arange(4 * mesh.n_elements),
                            dirichlet_constraints(mesh, case, "sat_v", t1)[0])
        maxres["v"].append(np.abs((sys_v.matrix @ sv1.vector
                                   - sys_v.rhs))[free].max())

    for key, series in maxres.items():
        assert series[0] > series[1] > series[2], (key, series)

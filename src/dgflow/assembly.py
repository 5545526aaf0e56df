"""Assembly of the sequential-implicit linear systems and the RT0 projection.

Each implicit solve couples a volume diffusion term, interior-face
consistency/adjoint terms with coefficient-weighted averages, a jump
penalty scaled by the harmonic mean of the diffusivity traces, and (for
the saturations) upwinded advection driven by the face-flux velocity
reconstructed from the pressure solve.  Dirichlet values are imposed
strongly on nodal DOFs.

Nonlinear coefficients are lagged: they are evaluated from the previous
time level once per step (volume quadrature points; face-midpoint traces
per side for penalties, averaging weights and upwinding) and shared by
all three systems.

Kernels.  Every mesh caches, in :func:`_groups`, the quadrature tables
that do not depend on the state: per interior-face group the jump traces
``J`` (8 x nq), ``Jw = J * w``, ``Jw @ J.T`` and the consistency tables
``T_s[(j, k), q] = Jw[j, q] * gn_s[k, q]`` (32 x nq), and the weighted
volume tables.  A face block is then ``(alpha eta) Jw J^T - h C +
theta h C^T`` with ``C = [o1 (A1q @ T1^T) | o2 (A2q @ T2^T)]``, and each
load is ``values @ (table * weights)^T``: small matmuls, no per-call
tensor.  The volume blocks keep their two ``einsum`` contractions: the
pressure solution carries a large constant part that amplifies rounding
in the stiffness matrix, and summing them in matmul order moved the 64x64
pressure error by 3.9e-10 relative, beyond the 1e-10 the ladder tables
allow.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sps

from . import physics
from .dg_core import DGField, EDGE_NODES, tables
from .mesh import Mesh, Face, LEFT, RIGHT, BOTTOM, TOP, SIDE_NAMES


class NonPositiveCoefficientError(RuntimeError):
    """A face diffusivity trace lost positivity (clamping failure)."""


class ConflictingConstraintError(ValueError):
    """One DOF received two different prescribed boundary values."""


@dataclass(frozen=True)
class SchemeConfig:
    """Interior-penalty variant switches and penalty constants.

    ``theta_* = -1, 0, 1`` select the symmetric, incomplete and
    nonsymmetric variants.  Penalties may be scalars or per-face arrays
    indexed by global face id.  For ``theta != 1`` the penalty must exceed
    the advisory coercivity threshold (see
    :func:`check_coercivity_threshold`).
    """

    theta_p: int = 1
    theta_a: int = 1
    theta_v: int = 1
    alpha_p: float | np.ndarray = 1.0
    alpha_a: float | np.ndarray = 1.0
    alpha_v: float | np.ndarray = 1.0
    vapor_coeff_state: str = "lagged"   # "lagged" | "fresh_sa"
    # Velocity representation inside the saturation volume terms.  The
    # face-flux projection keeps only one normal flux per face, so its
    # in-element reconstruction inherits the O(h) one-sided boundary flux
    # error over the whole boundary strip, which costs half an order in the
    # fine-step studies; the broken pressure gradient (the projection's
    # argument) avoids that and is the default.  Face terms always use the
    # projected single-valued fluxes.
    advection_volume: str = "broken_gradient"   # | "rt_field"

    def __post_init__(self):
        for th in (self.theta_p, self.theta_a, self.theta_v):
            if th not in (-1, 0, 1):
                raise ValueError(f"theta must be -1, 0 or 1, got {th}")
        for al in (self.alpha_p, self.alpha_a, self.alpha_v):
            if np.any(np.asarray(al) <= 0):
                raise ValueError("penalty constants must be positive")
        if self.vapor_coeff_state not in ("lagged", "fresh_sa"):
            raise ValueError(f"unknown vapor_coeff_state {self.vapor_coeff_state!r}")
        if self.advection_volume not in ("broken_gradient", "rt_field"):
            raise ValueError(f"unknown advection_volume {self.advection_volume!r}")


@dataclass
class LinearSystem:
    """One constrained implicit solve: matrix, right-hand side, constraints."""

    matrix: sps.csr_matrix
    rhs: np.ndarray
    constrained_dofs: np.ndarray
    constrained_values: np.ndarray


@dataclass
class RTField:
    """Lowest-order Raviart-Thomas velocity: one normal flux per face.

    ``fluxes[f]`` is u . n_f with respect to the stored face normal, so the
    normal component across interior faces is single-valued by construction.
    """

    mesh: Mesh
    fluxes: np.ndarray

    @classmethod
    def zeros(cls, mesh: Mesh) -> "RTField":
        return cls(mesh, np.zeros(mesh.n_faces))


def harmonic_penalty(a1, a2):
    """Harmonic average 2*a1*a2/(a1+a2) of two diffusivity traces."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    denom = a1 + a2
    if np.any(denom <= 0.0):
        raise NonPositiveCoefficientError("harmonic average needs a positive sum")
    return 2.0 * a1 * a2 / denom


# -- face group tables -------------------------------------------------------

_group_cache: "weakref.WeakKeyDictionary[Mesh, SimpleNamespace]" = weakref.WeakKeyDictionary()

_SIDE_NORMALS = {
    "left": np.array([-1.0, 0.0]), "right": np.array([1.0, 0.0]),
    "bottom": np.array([0.0, -1.0]), "top": np.array([0.0, 1.0]),
}


def _groups(mesh: Mesh) -> SimpleNamespace:
    """Interior faces grouped by orientation, boundary faces by side, the
    weighted quadrature tables of the block and load kernels, and the
    fixed sparsity pattern of the DG matrices."""
    g = _group_cache.get(mesh)
    if g is not None:
        return g
    t = tables(mesh)
    w = t.face_w
    interior = []
    for key, fids, e1, e2, vertical in (
            ("v", mesh.interior_vertical, RIGHT, LEFT, True),
            ("h", mesh.interior_horizontal, TOP, BOTTOM, False)):
        k1 = mesh.face_k1[fids]
        k2 = mesh.face_k2[fids]
        grad = t.trace_gx if vertical else t.trace_gy
        J = np.vstack([t.trace_phi[e1], -t.trace_phi[e2]])   # (8, nq) jump
        Jw = J * w
        interior.append(SimpleNamespace(
            key=key, fids=fids, k1=k1, k2=k2, e1=e1, e2=e2,
            h=mesh.face_length[fids],
            normal=np.array([1.0, 0.0]) if vertical else np.array([0.0, 1.0]),
            dofs8=np.hstack([t.elem_dofs[k1], t.elem_dofs[k2]]),
            tr1=t.trace_phi[e1], tr2=t.trace_phi[e2],
            gn1=grad[e1], gn2=grad[e2],      # normal derivative traces (4, nq)
            Jw=Jw, JwJ=Jw @ J.T,
            # consistency tables T_s[(j, k), q] = Jw[j, q] * gn_s[k, q]
            T1=(Jw[:, None, :] * grad[e1][None]).reshape(32, -1),
            T2=(Jw[:, None, :] * grad[e2][None]).reshape(32, -1),
        ))
    boundary = {}
    s_param = t.face_rule.points
    for edge, side in enumerate(SIDE_NAMES):
        fids = mesh.boundary_by_side[side]
        elems = mesh.face_k1[fids]
        loc = np.array(EDGE_NODES[edge])
        nodes = mesh.node_coords[elems][:, loc, :]
        along = 1 if edge in (LEFT, RIGHT) else 0   # coordinate along the side
        ref = np.empty((len(s_param), 2))
        ref[:, along] = s_param
        ref[:, 1 - along] = 1.0 if edge in (RIGHT, TOP) else 0.0
        qpts = (mesh.elem_origin[elems][:, None, :]
                + ref[None, :, :] * np.array([mesh.dx, mesh.dy]))
        boundary[side] = SimpleNamespace(
            side=side, fids=fids, elems=elems, edge=edge,
            normal=_SIDE_NORMALS[side], h=mesh.face_length[fids],
            # nodal DOFs on the side and their coordinates (Dirichlet data)
            dofs=(4 * elems[:, None] + loc[None, :]).ravel(),
            x=nodes[..., 0].ravel(), y=nodes[..., 1].ravel(),
            # face quadrature points and weighted traces (Neumann data)
            qx=qpts[..., 0], qy=qpts[..., 1], trw=t.trace_phi[edge] * w,
        )
    g = SimpleNamespace(
        interior=interior, boundary=boundary,
        # weighted volume tables of the load kernels, (4, nq)
        phi_w=t.phi * t.wdet, gx_w=t.gx * t.wdet, gy_w=t.gy * t.wdet,
        pattern=_block_pattern(mesh, interior))
    _group_cache[mesh] = g
    return g


def _block_pattern(mesh: Mesh, interior) -> SimpleNamespace:
    """CSR structure of the DG matrices and the block-to-CSR scatter map.

    The pattern never changes for a mesh, so assembly writes only ``data``:
    ``np.bincount(scatter, weights)`` over the block entries in the order
    :func:`_diffusion_parts` emits them (volume 4x4 blocks, then each
    interior group's 8x8 face blocks).  The face blocks are kept whole,
    although the entries coupling two nodes off the face are always zero:
    with them, minimum-degree ordering finds a factorization with about a
    fifth less fill on these meshes.
    """
    n = 4 * mesh.n_elements
    blocks = [tables(mesh).elem_dofs] + [g.dofs8 for g in interior]
    keys = np.concatenate([(d[:, :, None] * n + d[:, None, :]).ravel()
                           for d in blocks])
    used, scatter = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(used, n)
    template = sps.csr_matrix(
        (np.ones(len(used)), cols, np.searchsorted(rows, np.arange(n + 1))),
        shape=(n, n))
    return SimpleNamespace(
        shape=(n, n), nnz=len(used), indices=template.indices,
        indptr=template.indptr, scatter=scatter,
        volume=scatter[:16 * mesh.n_elements])


def _on_pattern(p: SimpleNamespace, data: np.ndarray) -> sps.csr_matrix:
    # each matrix owns its index arrays, so in-place scipy methods on it
    # cannot corrupt the cached pattern
    return sps.csr_matrix((data, p.indices.copy(), p.indptr.copy()),
                          shape=p.shape)


# -- lagged closure data -----------------------------------------------------

class LaggedCoefficients:
    """Closure coefficients of one lagged state.

    Volume values live at the 3x3 quadrature points of every element.
    Each interior-face side carries two sets of traces: midpoint values,
    which fix the averaging weights, penalties and upwind selectors, and
    quadrature-point values for the face integrands themselves.
    """

    def __init__(self, mesh: Mesh, fluids: physics.FluidProperties,
                 sat_a: DGField, sat_v: DGField):
        t = tables(mesh)
        self.mesh = mesh
        self.fluids = fluids
        self.sat_a_field = sat_a
        self.sat_v_field = sat_v
        self.kappa = np.broadcast_to(
            np.asarray(fluids.permeability, dtype=float), (mesh.n_elements,))

        s = physics.clamp(sat_a.coeffs @ t.phi, sat_v.coeffs @ t.phi)
        self.vol = SimpleNamespace(mob=physics.mobilities(s, fluids))
        _, self.vol.dpcv = physics.capillary_pressure_v(s.s_v)
        _, self.vol.dpca, self.vol.dpca_plus = physics.capillary_pressure_a(s.s_a)
        self.vol.kappa = self.kappa[:, None]

        self.grad_sa = (sat_a.coeffs @ t.gx, sat_a.coeffs @ t.gy)
        self.grad_sv = (sat_v.coeffs @ t.gx, sat_v.coeffs @ t.gy)

        self.face = {}
        for g in _groups(mesh).interior:
            self.face[g.key] = (
                self._side(t, g.k1, g.e1),
                self._side(t, g.k2, g.e2),
            )

    def _side(self, t, elems, edge):
        # midpoint traces fix the averaging weights and penalties ...
        sa = self.sat_a_field.coeffs[elems] @ t.trace_phi_mid[edge]
        sv = self.sat_v_field.coeffs[elems] @ t.trace_phi_mid[edge]
        s = physics.clamp(sa, sv)
        mob = physics.mobilities(s, self.fluids)
        _, dpcv = physics.capillary_pressure_v(s.s_v)
        _, dpca, dpca_plus = physics.capillary_pressure_a(s.s_a)
        side = SimpleNamespace(mob=mob, dpcv=dpcv, dpca=dpca,
                               dpca_plus=dpca_plus, kappa=self.kappa[elems])
        # ... while integrands carry the full coefficient trace
        sa_q = self.sat_a_field.coeffs[elems] @ t.trace_phi[edge]
        sv_q = self.sat_v_field.coeffs[elems] @ t.trace_phi[edge]
        s_q = physics.clamp(sa_q, sv_q)
        side.q_mob = physics.mobilities(s_q, self.fluids)
        _, side.q_dpcv = physics.capillary_pressure_v(s_q.s_v)
        _, side.q_dpca, side.q_dpca_plus = physics.capillary_pressure_a(s_q.s_a)
        return side


def _face_diffusivity(side, equation):
    if equation == "pressure":
        return side.kappa * side.mob.lam_t
    if equation == "aqueous":
        return side.kappa * side.mob.lam_a * side.dpca_plus
    if equation == "vapor":
        return side.kappa * side.mob.lam_v * side.dpcv
    raise ValueError(equation)


def _face_diffusivity_q(side, equation):
    """Same coefficient as a function along the face (quadrature points)."""
    if equation == "pressure":
        return side.kappa[:, None] * side.q_mob.lam_t
    if equation == "aqueous":
        return side.kappa[:, None] * side.q_mob.lam_a * side.q_dpca_plus
    if equation == "vapor":
        return side.kappa[:, None] * side.q_mob.lam_v * side.q_dpcv
    raise ValueError(equation)


def _vol_diffusivity(coeffs, equation):
    v = coeffs.vol
    if equation == "pressure":
        return v.kappa * v.mob.lam_t
    if equation == "aqueous":
        return v.kappa * v.mob.lam_a * v.dpca_plus
    if equation == "vapor":
        return v.kappa * v.mob.lam_v * v.dpcv
    raise ValueError(equation)


# -- generic matrix pieces ---------------------------------------------------

def _alpha_on(alpha, fids):
    a = np.asarray(alpha, dtype=float)
    return a[fids] if a.ndim else np.full(len(fids), float(a))


def _diffusion_parts(mesh, coeffs, equation, alpha, theta):
    """Block entries of the volume + interior-face diffusion form, in the
    order of the mesh's scatter map (see :func:`_block_pattern`)."""
    t = tables(mesh)
    c = _vol_diffusivity(coeffs, equation)
    cw = c * t.wdet
    vol = (np.einsum("eq,jq,kq->ejk", cw, t.gx, t.gx)
           + np.einsum("eq,jq,kq->ejk", cw, t.gy, t.gy))
    data = [vol.ravel()]

    for g in _groups(mesh).interior:
        n = len(g.fids)
        if n == 0:
            continue
        s1, s2 = coeffs.face[g.key]
        A1 = _face_diffusivity(s1, equation)
        A2 = _face_diffusivity(s2, equation)
        _check_face_positivity(A1, A2, equation)
        den = A1 + A2
        o1, o2 = A2 / den, A1 / den
        eta = 2.0 * A1 * A2 / den
        al = _alpha_on(alpha, g.fids)

        # consistency term C[n, j, k] = sum_q w_q J_j {A grad phi_k . n}
        C = np.empty((n, 8, 8))
        C[:, :, :4] = (o1[:, None] * (_face_diffusivity_q(s1, equation) @ g.T1.T)
                       ).reshape(n, 8, 4)
        C[:, :, 4:] = (o2[:, None] * (_face_diffusivity_q(s2, equation) @ g.T2.T)
                       ).reshape(n, 8, 4)
        hC = g.h[:, None, None] * C
        blocks = (al * eta)[:, None, None] * g.JwJ - hC + theta * hC.transpose(0, 2, 1)
        data.append(blocks.ravel())

    return data


def _check_face_positivity(A1, A2, equation):
    lo = min(A1.min(initial=np.inf), A2.min(initial=np.inf))
    if equation == "vapor":
        if lo < 0.0:
            raise NonPositiveCoefficientError(
                f"negative vapor face diffusivity {lo}")
        if lo == 0.0:
            warnings.warn("vapor face penalty vanished; equation is "
                          "advection-dominated on some faces", RuntimeWarning)
    elif lo <= 0.0:
        raise NonPositiveCoefficientError(
            f"non-positive {equation} face diffusivity {lo}; "
            "saturation clamping failed")


def _form_matrix(mesh, coeffs, equation, alpha, theta) -> sps.csr_matrix:
    p = _groups(mesh).pattern
    parts = _diffusion_parts(mesh, coeffs, equation, alpha, theta)
    data = np.bincount(p.scatter, weights=np.concatenate(parts), minlength=p.nnz)
    return _on_pattern(p, data)


def pressure_form(mesh, cfg: SchemeConfig, coeffs: LaggedCoefficients) -> sps.csr_matrix:
    """Unconstrained matrix of the pressure bilinear form."""
    return _form_matrix(mesh, coeffs, "pressure", cfg.alpha_p, cfg.theta_p)


def aqueous_form(mesh, cfg: SchemeConfig, coeffs: LaggedCoefficients) -> sps.csr_matrix:
    """Unconstrained matrix of the aqueous bilinear form (mass excluded)."""
    return _form_matrix(mesh, coeffs, "aqueous", cfg.alpha_a, cfg.theta_a)


def vapor_form(mesh, cfg: SchemeConfig, coeffs: LaggedCoefficients) -> sps.csr_matrix:
    """Unconstrained matrix of the vapor bilinear form (mass excluded)."""
    return _form_matrix(mesh, coeffs, "vapor", cfg.alpha_v, cfg.theta_v)


# -- right-hand sides --------------------------------------------------------

def _load_rhs(mesh, rhs, fn, t_next):
    t = tables(mesh)
    q = np.broadcast_to(
        np.asarray(fn(t_next, t.qpoints[:, :, 0], t.qpoints[:, :, 1]), dtype=float),
        t.qpoints.shape[:2])
    rhs += (q @ _groups(mesh).phi_w.T).ravel()


def _flux_volume_rhs(mesh, rhs, fx, fy, sign=1.0):
    """Accumulate sign * integral(F . grad w) for a quadrature-point field F."""
    g = _groups(mesh)
    contrib = fx @ g.gx_w.T + fy @ g.gy_w.T
    rhs += sign * contrib.ravel()


def _face_load(rhs, grp, values):
    """Accumulate integral(values * [w]) over an interior group's faces for
    face quadrature-point ``values``."""
    np.add.at(rhs, grp.dofs8, grp.h[:, None] * (values @ grp.Jw.T))


def _neumann_rhs(mesh, rhs, case, unknown, t_next):
    sides = [s for s in SIDE_NAMES
             if s not in case.dirichlet_sides[unknown]]
    if not sides:
        return
    t = tables(mesh)
    jfn = getattr(case, "neumann_" + unknown)
    for side in sides:
        bg = _groups(mesh).boundary[side]
        if len(bg.fids) == 0:
            continue
        jval = np.broadcast_to(
            np.asarray(jfn(t_next, bg.qx, bg.qy, bg.normal), dtype=float),
            bg.qx.shape)
        np.add.at(rhs, t.elem_dofs[bg.elems], bg.h[:, None] * (jval @ bg.trw.T))


def _pressure_rhs(mesh, coeffs, cfg, case, t_next):
    rhs = np.zeros(4 * mesh.n_elements)
    _load_rhs(mesh, rhs, case.source_total, t_next)

    v = coeffs.vol
    g = case.fluids.gravity_vector
    # grad p_c by the chain rule on the lagged discrete saturations
    cap_v = v.kappa * v.mob.lam_v * v.dpcv
    cap_a = v.kappa * v.mob.lam_a * v.dpca
    fx = (cap_v * coeffs.grad_sv[0] - cap_a * coeffs.grad_sa[0]
          - v.kappa * v.mob.rho_lam_t * g[0])
    fy = (cap_v * coeffs.grad_sv[1] - cap_a * coeffs.grad_sa[1]
          - v.kappa * v.mob.rho_lam_t * g[1])
    _flux_volume_rhs(mesh, rhs, fx, fy, sign=-1.0)

    for grp in _groups(mesh).interior:
        if len(grp.fids) == 0:
            continue
        s1, s2 = coeffs.face[grp.key]
        gn_sv1 = coeffs.sat_v_field.coeffs[grp.k1] @ grp.gn1
        gn_sv2 = coeffs.sat_v_field.coeffs[grp.k2] @ grp.gn2
        gn_sa1 = coeffs.sat_a_field.coeffs[grp.k1] @ grp.gn1
        gn_sa2 = coeffs.sat_a_field.coeffs[grp.k2] @ grp.gn2

        # vapor capillary average, weights from the kappa*lam_v midpoint traces
        o1, o2 = _average_weights(s1.kappa * s1.mob.lam_v,
                                  s2.kappa * s2.mob.lam_v)
        k1, k2 = s1.kappa[:, None], s2.kappa[:, None]
        avg = o1[:, None] * k1 * s1.q_mob.lam_v * s1.q_dpcv * gn_sv1 \
            + o2[:, None] * k2 * s2.q_mob.lam_v * s2.q_dpcv * gn_sv2
        # minus the aqueous capillary average (dpca carries its own sign)
        o1, o2 = _average_weights(s1.kappa * s1.mob.lam_a,
                                  s2.kappa * s2.mob.lam_a)
        avg -= o1[:, None] * k1 * s1.q_mob.lam_a * s1.q_dpca * gn_sa1 \
            + o2[:, None] * k2 * s2.q_mob.lam_a * s2.q_dpca * gn_sa2

        # gravity average, weights from the kappa*(rho lam)_t midpoint traces
        gn_dot = g[0] * grp.normal[0] + g[1] * grp.normal[1]
        if gn_dot != 0.0:
            o1, o2 = _average_weights(s1.kappa * s1.mob.rho_lam_t,
                                      s2.kappa * s2.mob.rho_lam_t)
            avg -= gn_dot * (o1[:, None] * k1 * s1.q_mob.rho_lam_t
                             + o2[:, None] * k2 * s2.q_mob.rho_lam_t)

        _face_load(rhs, grp, avg)

    _neumann_rhs(mesh, rhs, case, "pressure", t_next)
    return rhs


def _average_weights(A1, A2):
    den = A1 + A2
    return A2 / den, A1 / den


def _group_upwind(grp, s1, s2, velocity, gravity, rho, phase):
    """Per-face upwind side mask (True = k1) from the midpoint selector."""
    if phase == "a":
        d1, d2 = s1.mob.lam_a, s2.mob.lam_a
    else:
        d1, d2 = s1.mob.lam_v, s2.mob.lam_v
    dg1, dg2 = rho * s1.kappa * d1, rho * s2.kappa * d2
    flux = velocity.fluxes[grp.fids]
    gn_dot = gravity[0] * grp.normal[0] + gravity[1] * grp.normal[1]
    selector = 0.5 * (d1 + d2) * flux + 0.5 * (dg1 + dg2) * gn_dot
    return selector >= 0.0, flux, gn_dot, (d1, d2), (dg1, dg2)


def upwind_coefficients(mesh, coeffs: LaggedCoefficients, velocity: RTField,
                        gravity, rho, phase: str) -> np.ndarray:
    """Upwinded midpoint mobility indexed by face id (interior faces only)."""
    out = np.zeros(mesh.n_faces)
    for grp in _groups(mesh).interior:
        if len(grp.fids) == 0:
            continue
        s1, s2 = coeffs.face[grp.key]
        mask, _, _, (d1, d2), _ = _group_upwind(grp, s1, s2, velocity,
                                                gravity, rho, phase)
        out[grp.fids] = np.where(mask, d1, d2)
    return out


def velocity_at_quadrature(velocity: RTField, mesh: Mesh):
    """RT0 reconstruction of the velocity at the volume quadrature points."""
    t = tables(mesh)
    e2f, nrm = mesh.elem_to_faces, mesh.face_normal
    ux_l = velocity.fluxes[e2f[:, LEFT]] * nrm[e2f[:, LEFT], 0]
    ux_r = velocity.fluxes[e2f[:, RIGHT]] * nrm[e2f[:, RIGHT], 0]
    uy_b = velocity.fluxes[e2f[:, BOTTOM]] * nrm[e2f[:, BOTTOM], 1]
    uy_t = velocity.fluxes[e2f[:, TOP]] * nrm[e2f[:, TOP], 1]
    xi, eta = t.vol_points[:, 0], t.vol_points[:, 1]
    ux = ux_l[:, None] * (1.0 - xi) + ux_r[:, None] * xi
    uy = uy_b[:, None] * (1.0 - eta) + uy_t[:, None] * eta
    return ux, uy


def _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity, phase, sat_prev,
                    cfg, p_new):
    """Shared aqueous/vapor right-hand side; ``phase`` is 'a' or 'v'."""
    t = tables(mesh)
    rhs = np.zeros(4 * mesh.n_elements)
    fluids = case.fluids
    g = fluids.gravity_vector
    if phase == "a":
        source, unknown, rho = case.source_aqueous, "sat_a", fluids.rho_a
        lam_q = coeffs.vol.mob.lam_a
    else:
        source, unknown, rho = case.source_vapor, "sat_v", fluids.rho_v
        lam_q = coeffs.vol.mob.lam_v

    _load_rhs(mesh, rhs, source, t_next)

    # (phi/tau)(S^n, w)
    scaled = (fluids.porosity / tau) * np.einsum("jk,ek->ej", t.mass, sat_prev.coeffs)
    rhs += scaled.ravel()

    kap = coeffs.vol.kappa
    if cfg.advection_volume == "broken_gradient" and p_new is not None:
        ux = -kap * (p_new.coeffs @ t.gx)
        uy = -kap * (p_new.coeffs @ t.gy)
    else:
        ux, uy = velocity_at_quadrature(velocity, mesh)
    _flux_volume_rhs(mesh, rhs,
                     lam_q * ux + kap * rho * lam_q * g[0],
                     lam_q * uy + kap * rho * lam_q * g[1])

    for grp in _groups(mesh).interior:
        if len(grp.fids) == 0:
            continue
        s1, s2 = coeffs.face[grp.key]
        mask, flux, gn_dot, _, (dg1, dg2) = _group_upwind(
            grp, s1, s2, velocity, g, rho, phase)
        if phase == "a":
            d1q, d2q = s1.q_mob.lam_a, s2.q_mob.lam_a
        else:
            d1q, d2q = s1.q_mob.lam_v, s2.q_mob.lam_v

        # upwind side is a per-face choice; its coefficient trace varies
        integrand = np.where(mask[:, None], d1q, d2q) * flux[:, None]
        if gn_dot != 0.0:
            o1, o2 = _average_weights(dg1, dg2)
            integrand += gn_dot * rho * (
                o1[:, None] * s1.kappa[:, None] * d1q
                + o2[:, None] * s2.kappa[:, None] * d2q)

        _face_load(rhs, grp, -integrand)

    _neumann_rhs(mesh, rhs, case, unknown, t_next)
    return rhs


# -- Dirichlet constraints ---------------------------------------------------

def dirichlet_constraints(mesh, case, unknown, t):
    """Constrained DOF ids and nodal boundary values for one unknown."""
    data_fn = getattr(case, "boundary_" + unknown)
    dofs, vals = [], []
    for side in case.dirichlet_sides[unknown]:
        bg = _groups(mesh).boundary[side]
        if len(bg.fids) == 0:
            continue
        dofs.append(bg.dofs)
        vals.append(np.asarray(data_fn(t, bg.x, bg.y), dtype=float).ravel())
    if not dofs:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return _dedupe_constraints(np.concatenate(dofs), np.concatenate(vals))


def _dedupe_constraints(dofs, vals):
    """Sorted unique DOFs with their values; a DOF given two different
    values raises, naming the smallest such DOF."""
    uniq, first, inverse = np.unique(dofs, return_index=True, return_inverse=True)
    conflict = vals != vals[first][inverse]
    if np.any(conflict):
        dof = uniq[inverse[conflict]].min()
        raise ConflictingConstraintError(
            f"DOF {dof} received conflicting values {set(vals[dofs == dof])}")
    return uniq, vals[first]


def apply_dirichlet(matrix, rhs, dofs, values):
    """Impose prescribed nodal values strongly.

    Constrained rows become identity rows carrying the value; constrained
    columns are eliminated into the right-hand side (which keeps a
    symmetric matrix symmetric).  Works on the CSR arrays directly: entries
    of unconstrained rows and columns keep their order, so a canonical
    input gives a canonical result.  Returns the new ``(csr_matrix, rhs)``.
    """
    dofs, values = _dedupe_constraints(np.asarray(dofs, dtype=np.int64),
                                       np.asarray(values, dtype=float))
    A = matrix.tocsr()
    n = A.shape[0]
    constrained = np.zeros(n, dtype=bool)
    constrained[dofs] = True
    val_map = np.zeros(n)
    val_map[dofs] = values
    row = np.repeat(np.arange(n), np.diff(A.indptr))
    c_row, c_col = constrained[row], constrained[A.indices]

    rhs = np.array(rhs, dtype=float, copy=True)
    move = ~c_row & c_col
    np.subtract.at(rhs, row[move], A.data[move] * val_map[A.indices[move]])
    rhs[dofs] = values

    # a constrained row keeps a single entry, its unit diagonal
    keep = ~(c_row | c_col)
    counts = np.bincount(row[keep], minlength=n)
    counts[dofs] = 1
    indptr = np.zeros(n + 1, dtype=A.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    unit = np.zeros(indptr[-1], dtype=bool)
    unit[indptr[dofs]] = True
    indices = np.empty(indptr[-1], dtype=A.indices.dtype)
    data = np.empty(indptr[-1])
    indices[unit], data[unit] = dofs, 1.0
    indices[~unit], data[~unit] = A.indices[keep], A.data[keep]
    return sps.csr_matrix((data, indices, indptr), shape=A.shape), rhs


# -- the three assemblies ----------------------------------------------------

def assemble_pressure(state, mesh, cfg, case, t_next,
                      coeffs: LaggedCoefficients | None = None,
                      constrain: bool = True) -> LinearSystem:
    """Linear system of the implicit pressure solve at ``t_next``.

    Coefficients come from the lagged ``state``; the load and the Dirichlet
    data are evaluated at ``t_next``.
    """
    if coeffs is None:
        coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    matrix = pressure_form(mesh, cfg, coeffs)
    rhs = _pressure_rhs(mesh, coeffs, cfg, case, t_next)
    dofs, vals = dirichlet_constraints(mesh, case, "pressure", t_next)
    if constrain:
        matrix, rhs = apply_dirichlet(matrix, rhs, dofs, vals)
    return LinearSystem(matrix, rhs, dofs, vals)


def assemble_aqueous(state, p_new, velocity, mesh, cfg, case, tau, t_next,
                     coeffs: LaggedCoefficients | None = None,
                     constrain: bool = True) -> LinearSystem:
    """Linear system of the implicit aqueous-saturation solve."""
    if coeffs is None:
        coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    matrix = aqueous_form(mesh, cfg, coeffs)
    matrix.data += _mass_matrix(mesh, case.fluids.porosity / tau).data
    rhs = _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity,
                          "a", state.sat_a, cfg, p_new)
    dofs, vals = dirichlet_constraints(mesh, case, "sat_a", t_next)
    if constrain:
        matrix, rhs = apply_dirichlet(matrix, rhs, dofs, vals)
    return LinearSystem(matrix, rhs, dofs, vals)


def assemble_vapor(state, p_new, sa_new, velocity, mesh, cfg, case, tau, t_next,
                   coeffs: LaggedCoefficients | None = None,
                   constrain: bool = True) -> LinearSystem:
    """Linear system of the implicit vapor-saturation solve.

    With ``cfg.vapor_coeff_state == "fresh_sa"`` the vapor coefficients are
    evaluated at the just-computed aqueous saturation instead of the lagged
    one.
    """
    if cfg.vapor_coeff_state == "fresh_sa" and sa_new is not None:
        coeffs = LaggedCoefficients(mesh, case.fluids, sa_new, state.sat_v)
    elif coeffs is None:
        coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    matrix = vapor_form(mesh, cfg, coeffs)
    matrix.data += _mass_matrix(mesh, case.fluids.porosity / tau).data
    rhs = _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity,
                          "v", state.sat_v, cfg, p_new)
    dofs, vals = dirichlet_constraints(mesh, case, "sat_v", t_next)
    if constrain:
        matrix, rhs = apply_dirichlet(matrix, rhs, dofs, vals)
    return LinearSystem(matrix, rhs, dofs, vals)


def _mass_matrix(mesh, scale) -> sps.csr_matrix:
    """``scale`` times the element mass matrix, on the mesh's DG pattern
    (its blocks are the volume blocks)."""
    p = _groups(mesh).pattern
    data = np.zeros(p.nnz)
    data[p.volume] = np.broadcast_to(scale * tables(mesh).mass,
                                     (mesh.n_elements, 4, 4)).ravel()
    return _on_pattern(p, data)


# -- RT0 velocity projection -------------------------------------------------

def rt0_project(p_new: DGField, state, mesh, cfg,
                coeffs: LaggedCoefficients | None = None,
                fluids: physics.FluidProperties | None = None) -> RTField:
    """Project the pressure-driven velocity onto face normal fluxes.

    Interior faces carry minus the weighted average of the one-sided
    normal fluxes plus the scaled pressure jump penalty (the same lagged
    penalty as the pressure system); boundary faces take the one-sided
    flux.  The result is H(div)-conforming by construction.
    """
    if coeffs is None:
        if fluids is None:
            raise TypeError("rt0_project needs either lagged coefficients "
                            "or fluid properties to rebuild them")
        coeffs = LaggedCoefficients(mesh, fluids, state.sat_a, state.sat_v)
    t = tables(mesh)
    w = t.face_w
    fluxes = np.zeros(mesh.n_faces)

    for grp in _groups(mesh).interior:
        if len(grp.fids) == 0:
            continue
        s1, s2 = coeffs.face[grp.key]
        A1 = _face_diffusivity(s1, "pressure")
        A2 = _face_diffusivity(s2, "pressure")
        o1, o2 = _average_weights(A1, A2)
        eta = harmonic_penalty(A1, A2)
        al = _alpha_on(cfg.alpha_p, grp.fids)

        gn1 = p_new.coeffs[grp.k1] @ grp.gn1
        gn2 = p_new.coeffs[grp.k2] @ grp.gn2
        avg = (o1 * s1.kappa)[:, None] * gn1 + (o2 * s2.kappa)[:, None] * gn2
        jump_p = p_new.coeffs[grp.k1] @ grp.tr1 - p_new.coeffs[grp.k2] @ grp.tr2
        fluxes[grp.fids] = -avg @ w + (al * eta / grp.h) * (jump_p @ w)

    for side in SIDE_NAMES:
        bg = _groups(mesh).boundary[side]
        if len(bg.fids) == 0:
            continue
        gn = (p_new.coeffs[bg.elems] @ t.trace_gx[bg.edge]) * bg.normal[0] \
            + (p_new.coeffs[bg.elems] @ t.trace_gy[bg.edge]) * bg.normal[1]
        fluxes[bg.fids] = -coeffs.kappa[bg.elems] * (gn @ w)

    return RTField(mesh, fluxes)


def upwind_value(face: Face, d_left, d_right, velocity: RTField,
                 dg_left, dg_right, gravity):
    """Upwinded face trace of an advected coefficient.

    Chooses the k1 side when the plain-average advective flux
    {D u + D^g g} . n_e is nonnegative (ties go to k1), the k2 side
    otherwise.
    """
    flux = velocity.fluxes[face.id]
    gn = gravity[0] * face.normal[0] + gravity[1] * face.normal[1]
    selector = 0.5 * (d_left + d_right) * flux + 0.5 * (dg_left + dg_right) * gn
    return d_left if selector >= 0.0 else d_right


# -- coercivity thresholds ---------------------------------------------------

@dataclass(frozen=True)
class CoefficientBounds:
    """Min/max of each equation's diffusivity over the clamped range."""

    pressure: tuple[float, float]
    aqueous: tuple[float, float]
    vapor: tuple[float, float]


def sample_coefficient_bounds(fluids: physics.FluidProperties,
                              n: int = 201) -> CoefficientBounds:
    """Sample the clamped closure range on a saturation grid."""
    grid = np.linspace(physics.SAT_EPS, 1.0 - physics.SAT_EPS, n)
    sa, sv = np.meshgrid(grid, grid, indexing="ij")
    s = physics.clamp(sa, sv)
    mob = physics.mobilities(s, fluids)
    _, dpcv = physics.capillary_pressure_v(s.s_v)
    _, _, dpca_plus = physics.capillary_pressure_a(s.s_a)
    kap_lo = float(np.min(fluids.permeability))
    kap_hi = float(np.max(fluids.permeability))

    def bounds(c):
        return (kap_lo * float(c.min()), kap_hi * float(c.max()))

    return CoefficientBounds(
        pressure=bounds(mob.lam_t),
        aqueous=bounds(mob.lam_a * dpca_plus),
        vapor=bounds(mob.lam_v * dpcv),
    )


def reference_trace_constant() -> float:
    """Trace constant estimated on the reference cell (unit aspect ratio).

    Largest generalized Rayleigh quotient of the edge-trace mass matrix
    against the cell mass matrix, scaled for square cells whose diameter
    is the diagonal.
    """
    t = tables(Mesh(1, 1))
    mu = 0.0
    for edge in (LEFT, RIGHT, BOTTOM, TOP):
        tr = t.trace_phi[edge]
        m_edge = np.einsum("iq,jq,q->ij", tr, tr, t.face_w)
        vals = scipy.linalg.eigh(m_edge, t.mass, eigvals_only=True)
        mu = max(mu, float(vals[-1]))
    return float(np.sqrt(np.sqrt(2.0) * mu))


def check_coercivity_threshold(cfg: SchemeConfig,
                               bounds: CoefficientBounds,
                               c_tr: float | None = None) -> dict:
    """Advisory minimum penalty per equation.

    ``0.25 (1-theta)^2 (hi/lo)^3 C_tr^2`` from the coefficient bounds; zero
    for the nonsymmetric variant.  A warning is emitted when a configured
    penalty sits below its threshold for theta != 1.
    """
    if c_tr is None:
        c_tr = reference_trace_constant()
    out = {}
    for name, theta, alpha in (("pressure", cfg.theta_p, cfg.alpha_p),
                               ("aqueous", cfg.theta_a, cfg.alpha_a),
                               ("vapor", cfg.theta_v, cfg.alpha_v)):
        lo, hi = getattr(bounds, name)
        thr = 0.25 * (1 - theta) ** 2 * (hi / lo) ** 3 * c_tr**2
        out[name] = thr
        if theta != 1 and np.any(np.asarray(alpha) < thr):
            warnings.warn(
                f"{name} penalty {alpha} below advisory coercivity "
                f"threshold {thr:.3g}", RuntimeWarning)
    return out

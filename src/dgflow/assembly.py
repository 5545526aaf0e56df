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

Patterns and plans.  Every matrix on a mesh shares the mesh's read-only
CSR index arrays, and assembly writes only ``data``.  Dirichlet
elimination keeps one plan per (input pattern, constrained DOFs): which
input entries it keeps and where they go, where the constrained rows'
unit diagonals sit, which entries it moves to the right-hand side, and
the constrained (read-only) pattern.  A call then gathers ``data`` and
updates the right-hand side in the same order as a plan-free
elimination, so the result is the same bits whether the plan is new or
reused.  :class:`PlanCache` holds these plans, and the solver's factor
plans, keyed by exact comparison of the index arrays.
"""

from __future__ import annotations

import functools
import warnings
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sps

from . import physics
from .dg_core import DGField, EDGE_NODES, EDGE_NORMALS, tables
from .manufactured import NonFiniteFieldError
from .mesh import Mesh, Face, LEFT, RIGHT, BOTTOM, TOP, SIDE_NAMES


class NonPositiveCoefficientError(RuntimeError):
    """A face diffusivity trace lost positivity (clamping failure)."""


class ConflictingConstraintError(ValueError):
    """One DOF received two different prescribed boundary values."""


#: the implicit equations by the suffix of their names (``theta_a``, ``sat_a``)
EQUATIONS = {"p": "pressure", "a": "aqueous", "v": "vapor"}


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

    def __post_init__(self):
        for equation in EQUATIONS.values():
            theta, alpha = self.variant(equation)
            if theta not in (-1, 0, 1):
                raise ValueError(f"theta must be -1, 0 or 1, got {theta}")
            if np.any(np.asarray(alpha) <= 0):
                raise ValueError("penalty constants must be positive")

    def variant(self, equation: str):
        """``(theta, alpha)`` of ``equation``: 'pressure', 'aqueous' or 'vapor'."""
        key = equation[0]
        return getattr(self, "theta_" + key), getattr(self, "alpha_" + key)


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


def _average_weights(A1, A2):
    den = A1 + A2
    return A2 / den, A1 / den


# -- face group tables -------------------------------------------------------

_group_cache: "weakref.WeakKeyDictionary[Mesh, SimpleNamespace]" = weakref.WeakKeyDictionary()


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
            normal=EDGE_NORMALS[edge], h=mesh.face_length[fids],
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
        shape=(n, n), nnz=len(used), indices=_frozen(template.indices),
        indptr=_frozen(template.indptr), scatter=scatter,
        volume=scatter[:16 * mesh.n_elements].reshape(mesh.n_elements, 16))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _on_pattern(p: SimpleNamespace, data: np.ndarray) -> sps.csr_matrix:
    # every matrix on the mesh shares the read-only index arrays: an in-place
    # scipy method that would change them raises instead of corrupting them
    return sps.csr_matrix((data, p.indices, p.indptr), shape=p.shape)


class PlanCache:
    """Plans keyed by index arrays, most recently used first, at most
    ``size`` of them.

    Keys are compared element by element.  A key array that is read-only
    (a cached pattern) is kept by reference; a writable one is copied, so
    that changing the caller's array later cannot re-label a plan.  Not
    safe to share between threads.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: list[tuple[tuple, object]] = []

    def get(self, key: tuple, build):
        for i, (k, plan) in enumerate(self.entries):
            if all(np.array_equal(a, b) for a, b in zip(k, key)):
                self.entries.insert(0, self.entries.pop(i))
                return plan
        plan = build()
        kept = tuple(a if not a.flags.writeable else a.copy() for a in key)
        self.entries.insert(0, (kept, plan))
        del self.entries[self.size:]
        return plan

    def clear(self):
        self.entries.clear()


#: plans kept per cache: the three unknowns' constraint sets on each level of
#: a four-level ladder
PLAN_CACHE_SIZE = 12


# -- lagged closure data -----------------------------------------------------

class LaggedCoefficients:
    """Closure coefficients of one lagged state.

    ``vol`` holds the closures at the 3x3 quadrature points of every
    element.  Each interior-face side (``face[key]``, a pair per group)
    holds them at two point sets: ``mid``, the midpoint, which fixes the
    averaging weights, penalties and upwind selectors, and ``q``, the face
    quadrature points, for the face integrands themselves.  All three come
    from :func:`_closures`.
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
        self.vol = _closures(sat_a.coeffs @ t.phi, sat_v.coeffs @ t.phi, fluids,
                             self.kappa[:, None])
        self.grad_sa = (sat_a.coeffs @ t.gx, sat_a.coeffs @ t.gy)
        self.grad_sv = (sat_v.coeffs @ t.gx, sat_v.coeffs @ t.gy)
        self.face = {g.key: (self._side(t, g.k1, g.e1), self._side(t, g.k2, g.e2))
                     for g in _groups(mesh).interior}

    def _side(self, t, elems, edge):
        sa, sv = self.sat_a_field.coeffs[elems], self.sat_v_field.coeffs[elems]
        kappa = self.kappa[elems]
        return SimpleNamespace(
            mid=_closures(sa @ t.trace_phi_mid[edge], sv @ t.trace_phi_mid[edge],
                          self.fluids, kappa),
            q=_closures(sa @ t.trace_phi[edge], sv @ t.trace_phi[edge],
                        self.fluids, kappa[:, None]))


def _closures(sa, sv, fluids, kappa) -> SimpleNamespace:
    """The clamped closures at one point set, with the permeability
    ``kappa`` in the shape that broadcasts against them.

    The closures are looked up on :mod:`physics` at each call, so that a
    patched closure is seen everywhere.
    """
    s = physics.clamp(sa, sv)
    mob = physics.mobilities(s, fluids)
    _, dpcv = physics.capillary_pressure_v(s.s_v)
    _, dpca, dpca_plus = physics.capillary_pressure_a(s.s_a)
    return SimpleNamespace(kappa=kappa, mob=mob, dpcv=dpcv, dpca=dpca,
                           dpca_plus=dpca_plus)


def _diffusivity(c: SimpleNamespace, equation: str):
    """The diffusion coefficient of one equation from :func:`_closures`."""
    if equation == "pressure":
        return c.kappa * c.mob.lam_t
    if equation == "aqueous":
        return c.kappa * c.mob.lam_a * c.dpca_plus
    if equation == "vapor":
        return c.kappa * c.mob.lam_v * c.dpcv
    raise ValueError(equation)


# -- generic matrix pieces ---------------------------------------------------

def _alpha_on(alpha, fids):
    a = np.asarray(alpha, dtype=float)
    return a[fids] if a.ndim else np.full(len(fids), float(a))


def _face_weights(s1, s2, equation, alpha, fids):
    """The interior-face rule of one equation, from its midpoint
    diffusivity traces: the averaging weights ``(o1, o2)`` and the scaled
    jump penalty ``alpha * eta`` of each face.  The pressure form and the
    RT0 projection share it, so the projected flux is the form's flux."""
    A1 = _diffusivity(s1.mid, equation)
    A2 = _diffusivity(s2.mid, equation)
    lo = min(A1.min(initial=np.inf), A2.min(initial=np.inf))
    if lo <= 0.0:
        raise NonPositiveCoefficientError(
            f"non-positive {equation} face diffusivity {lo}; "
            "saturation clamping failed")
    o1, o2 = _average_weights(A1, A2)
    return o1, o2, _alpha_on(alpha, fids) * harmonic_penalty(A1, A2)


def _face_average(w1, w2, f1, f2):
    """Weighted face average of two one-sided products: the weights come
    from the midpoint traces ``w1, w2``, and each side's factors ``f1``,
    ``f2`` multiply its weight left to right."""
    o1, o2 = _average_weights(w1, w2)
    return (functools.reduce(np.multiply, f1, o1[:, None])
            + functools.reduce(np.multiply, f2, o2[:, None]))


def _diffusion_parts(mesh, coeffs, equation, alpha, theta):
    """Block entries of the volume + interior-face diffusion form, in the
    order of the mesh's scatter map (see :func:`_block_pattern`)."""
    t = tables(mesh)
    cw = _diffusivity(coeffs.vol, equation) * t.wdet
    vol = (np.einsum("eq,jq,kq->ejk", cw, t.gx, t.gx)
           + np.einsum("eq,jq,kq->ejk", cw, t.gy, t.gy))
    data = [vol.ravel()]

    for g in _groups(mesh).interior:
        n = len(g.fids)
        s1, s2 = coeffs.face[g.key]
        o1, o2, penalty = _face_weights(s1, s2, equation, alpha, g.fids)

        # consistency term C[n, j, k] = sum_q w_q J_j {A grad phi_k . n}
        C = np.empty((n, 8, 8))
        C[:, :, :4] = (o1[:, None] * (_diffusivity(s1.q, equation) @ g.T1.T)
                       ).reshape(n, 8, 4)
        C[:, :, 4:] = (o2[:, None] * (_diffusivity(s2.q, equation) @ g.T2.T)
                       ).reshape(n, 8, 4)
        hC = g.h[:, None, None] * C
        blocks = penalty[:, None, None] * g.JwJ - hC + theta * hC.transpose(0, 2, 1)
        data.append(blocks.ravel())

    return data


def form_matrix(mesh, cfg: SchemeConfig, coeffs: LaggedCoefficients,
                equation: str) -> sps.csr_matrix:
    """Unconstrained matrix of the bilinear form of ``equation`` ('pressure',
    'aqueous' or 'vapor'; the saturation forms exclude the mass term), with
    the equation's theta and alpha from ``cfg``."""
    theta, alpha = cfg.variant(equation)
    p = _groups(mesh).pattern
    parts = _diffusion_parts(mesh, coeffs, equation, alpha, theta)
    data = np.bincount(p.scatter, weights=np.concatenate(parts), minlength=p.nnz)
    return _on_pattern(p, data)


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
    t = tables(mesh)
    for side in (s for s in SIDE_NAMES if s not in case.dirichlet_sides[unknown]):
        bg = _groups(mesh).boundary[side]
        jval = case.neumann(unknown, t_next, bg.qx, bg.qy, bg.normal)
        jval = np.broadcast_to(np.asarray(jval, dtype=float), bg.qx.shape)
        np.add.at(rhs, t.elem_dofs[bg.elems], bg.h[:, None] * (jval @ bg.trw.T))


def _pressure_rhs(mesh, coeffs, case, t_next):
    rhs = np.zeros(4 * mesh.n_elements)
    _load_rhs(mesh, rhs, case.source_total, t_next)

    v = coeffs.vol
    g = case.fluids.gravity_vector
    # grad p_c by the chain rule on the lagged discrete saturations
    cap_v = _diffusivity(v, "vapor")
    cap_a = v.kappa * v.mob.lam_a * v.dpca
    fx, fy = (cap_v * coeffs.grad_sv[i] - cap_a * coeffs.grad_sa[i]
              - v.kappa * v.mob.rho_lam_t * g[i] for i in (0, 1))
    _flux_volume_rhs(mesh, rhs, fx, fy, sign=-1.0)

    for grp in _groups(mesh).interior:
        s1, s2 = coeffs.face[grp.key]
        m1, m2, q1, q2 = s1.mid, s2.mid, s1.q, s2.q
        # the vapor capillary average minus the aqueous one (dpca carries its
        # own sign), each weighted by the kappa*lam midpoint traces of its phase
        vapor, aqueous = (_face_average(
            m1.kappa * getattr(m1.mob, lam), m2.kappa * getattr(m2.mob, lam),
            (q1.kappa, getattr(q1.mob, lam), getattr(q1, dpc), sat[grp.k1] @ grp.gn1),
            (q2.kappa, getattr(q2.mob, lam), getattr(q2, dpc), sat[grp.k2] @ grp.gn2))
            for lam, dpc, sat in (("lam_v", "dpcv", coeffs.sat_v_field.coeffs),
                                  ("lam_a", "dpca", coeffs.sat_a_field.coeffs)))
        avg = vapor - aqueous

        # gravity average, weights from the kappa*(rho lam)_t midpoint traces
        gn_dot = g[0] * grp.normal[0] + g[1] * grp.normal[1]
        if gn_dot != 0.0:
            avg -= gn_dot * _face_average(
                m1.kappa * m1.mob.rho_lam_t, m2.kappa * m2.mob.rho_lam_t,
                (q1.kappa, q1.mob.rho_lam_t), (q2.kappa, q2.mob.rho_lam_t))

        _face_load(rhs, grp, avg)

    _neumann_rhs(mesh, rhs, case, "pressure", t_next)
    return rhs


def _group_upwind(grp, s1, s2, velocity, gravity, rho, lam):
    """Per-face upwind side mask (True = k1) from the midpoint selector of
    the mobility named ``lam``; also the fluxes, g . n and both rho kappa lam."""
    m1, m2 = s1.mid, s2.mid
    d1, d2 = getattr(m1.mob, lam), getattr(m2.mob, lam)
    dg1, dg2 = rho * m1.kappa * d1, rho * m2.kappa * d2
    flux = velocity.fluxes[grp.fids]
    gn_dot = gravity[0] * grp.normal[0] + gravity[1] * grp.normal[1]
    selector = 0.5 * (d1 + d2) * flux + 0.5 * (dg1 + dg2) * gn_dot
    return selector >= 0.0, flux, gn_dot, (dg1, dg2)


def _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity, phase, sat_prev,
                    p_new):
    """Shared aqueous/vapor right-hand side; ``phase`` is 'a' or 'v'."""
    t = tables(mesh)
    rhs = np.zeros(4 * mesh.n_elements)
    fluids = case.fluids
    g = fluids.gravity_vector
    lam, rho = "lam_" + phase, getattr(fluids, "rho_" + phase)
    lam_q = getattr(coeffs.vol.mob, lam)

    _load_rhs(mesh, rhs, getattr(case, "source_" + EQUATIONS[phase]), t_next)

    # (phi/tau)(S^n, w)
    scaled = (fluids.porosity / tau) * np.einsum("jk,ek->ej", t.mass, sat_prev.coeffs)
    rhs += scaled.ravel()

    kap = coeffs.vol.kappa
    # The volume terms take the broken pressure gradient, not the projected
    # face fluxes: their in-element reconstruction would spread the O(h)
    # one-sided boundary flux error over the boundary strip, which costs half
    # an order in the fine-step studies.  Face terms use the projected fluxes.
    ux = -kap * (p_new.coeffs @ t.gx)
    uy = -kap * (p_new.coeffs @ t.gy)
    _flux_volume_rhs(mesh, rhs,
                     lam_q * ux + kap * rho * lam_q * g[0],
                     lam_q * uy + kap * rho * lam_q * g[1])

    for grp in _groups(mesh).interior:
        s1, s2 = coeffs.face[grp.key]
        mask, flux, gn_dot, (dg1, dg2) = _group_upwind(grp, s1, s2, velocity, g,
                                                       rho, lam)
        d1q, d2q = getattr(s1.q.mob, lam), getattr(s2.q.mob, lam)

        # upwind side is a per-face choice; its coefficient trace varies
        integrand = np.where(mask[:, None], d1q, d2q) * flux[:, None]
        if gn_dot != 0.0:
            integrand += gn_dot * rho * _face_average(dg1, dg2, (s1.q.kappa, d1q),
                                                      (s2.q.kappa, d2q))

        _face_load(rhs, grp, -integrand)

    _neumann_rhs(mesh, rhs, case, "sat_" + phase, t_next)
    return rhs


# -- Dirichlet constraints ---------------------------------------------------

def dirichlet_constraints(mesh, case, unknown, t):
    """Constrained DOF ids and nodal boundary values for one unknown."""
    data_fn = getattr(case, "boundary_" + unknown)
    sides = [_groups(mesh).boundary[side] for side in case.dirichlet_sides[unknown]]
    dofs = np.concatenate([np.empty(0, dtype=np.int64)] + [bg.dofs for bg in sides])
    vals = [np.asarray(data_fn(t, bg.x, bg.y), dtype=float).ravel() for bg in sides]
    vals = np.concatenate([np.empty(0)] + vals)
    bad = dofs[~np.isfinite(vals)]
    if bad.size:
        raise NonFiniteFieldError(f"the Dirichlet data of {unknown} at t={t:g} are not "
                                  f"finite at DOF {bad.min()}")
    return _dedupe_constraints(dofs, vals)


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


_dirichlet_plans = PlanCache(PLAN_CACHE_SIZE)


def apply_dirichlet(matrix, rhs, dofs, values):
    """Impose prescribed nodal values strongly.

    Constrained rows become identity rows carrying the value; constrained
    columns are eliminated into the right-hand side (which keeps a
    symmetric matrix symmetric).  Works on the CSR arrays directly: entries
    of unconstrained rows and columns keep their order, so a canonical
    input gives a canonical result.  The elimination plan depends only on
    the input pattern and the constrained DOFs, so it is built once per
    such pair (see :func:`_dirichlet_plan`); a call then gathers ``data``
    and updates the right-hand side.  Returns the new ``(csr_matrix, rhs)``.
    """
    matrix, lift = _eliminate(matrix, *_dedupe_constraints(
        np.asarray(dofs, dtype=np.int64), np.asarray(values, dtype=float)))
    return matrix, lift(rhs)


def _eliminate(matrix, dofs, values):
    """The matrix half of :func:`apply_dirichlet`, for de-duplicated
    constraints: the constrained matrix, and a function that takes a
    right-hand side of ``matrix`` to the one of the constrained system;
    it keeps only the products moved to the right-hand side, not the matrix."""
    A = matrix.tocsr()
    plan = _dirichlet_plans.get((A.indptr, A.indices, dofs),
                                lambda: _dirichlet_plan(A, dofs))
    lift = functools.partial(_lift, plan.move_rows,
                             A.data[plan.move] * values[plan.move_slot], dofs, values)
    data = np.append(A.data, 1.0)[plan.source]
    return sps.csr_matrix((data, plan.indices, plan.indptr), shape=A.shape), lift


def _lift(rows, moved, dofs, values, rhs):
    rhs = np.array(rhs, dtype=float, copy=True)
    np.subtract.at(rhs, rows, moved)
    rhs[dofs] = values
    return rhs


def _dirichlet_plan(A: sps.csr_matrix, dofs: np.ndarray) -> SimpleNamespace:
    """What :func:`apply_dirichlet` does to one pattern: where each output
    entry comes from (``source``: an input entry of a free row and a free
    column, or ``A.nnz`` for the unit diagonal of a constrained row), the
    entries of free rows in constrained columns it moves to the right-hand
    side (``move``, with their rows and the positions of their columns in
    ``dofs``), and the constrained CSR pattern (read-only)."""
    n = A.shape[0]
    idx = A.indices.dtype
    constrained = np.zeros(n, dtype=bool)
    constrained[dofs] = True
    row = np.repeat(np.arange(n), np.diff(A.indptr))
    c_row, c_col = constrained[row], constrained[A.indices]
    move = np.flatnonzero(~c_row & c_col)

    # a constrained row keeps a single entry, its unit diagonal
    keep = np.flatnonzero(~(c_row | c_col))
    counts = np.bincount(row[keep], minlength=n)
    counts[dofs] = 1
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    unit = indptr[dofs]
    free = np.ones(indptr[-1], dtype=bool)
    free[unit] = False
    indices = np.empty(indptr[-1], dtype=idx)
    indices[unit], indices[free] = dofs, A.indices[keep]
    source = np.full(indptr[-1], A.nnz, dtype=idx)
    source[free] = keep
    return SimpleNamespace(
        source=source, move=move.astype(idx), move_rows=row[move],
        move_slot=np.searchsorted(dofs, A.indices[move]),
        indices=_frozen(indices), indptr=_frozen(indptr))


# -- the three assemblies ----------------------------------------------------

def assemble_pressure(state, mesh, cfg, case, t_next, coeffs: LaggedCoefficients,
                      constrain: bool = True) -> LinearSystem:
    """Linear system of the implicit pressure solve at ``t_next``.

    The load and the Dirichlet data are evaluated at ``t_next``.  ``state``
    is not read (``coeffs`` holds the lagged closures); the public call
    order passes it, positionally (so does the benchmark's replay).
    """
    return _system(form_matrix(mesh, cfg, coeffs, "pressure"),
                   _pressure_rhs(mesh, coeffs, case, t_next),
                   mesh, case, "pressure", t_next, constrain)


def assemble_aqueous(state, p_new, velocity, mesh, cfg, case, tau, t_next,
                     coeffs: LaggedCoefficients,
                     constrain: bool = True) -> LinearSystem:
    """Linear system of the implicit aqueous-saturation solve."""
    return _assemble_saturation("a", state, p_new, velocity, mesh, cfg,
                                case, tau, t_next, coeffs, constrain)


def assemble_vapor(state, p_new, sa_new, velocity, mesh, cfg, case, tau, t_next,
                   coeffs: LaggedCoefficients,
                   constrain: bool = True) -> LinearSystem:
    """Linear system of the implicit vapor-saturation solve.

    ``sa_new``, the new aqueous saturation, is not read: the vapor closures
    (``lam_v = s_v^2 / mu_v``, ``p_cv'(s_v)`` and a clamp that cuts each
    saturation off on its own) read only s_v, so coefficients lagged at
    either aqueous saturation are the same.  It stays in the signature
    because the public call order passes it, positionally (so does the
    benchmark's replay of :func:`~dgflow.solver.advance`).
    """
    return _assemble_saturation("v", state, p_new, velocity, mesh, cfg,
                                case, tau, t_next, coeffs, constrain)


def _assemble_saturation(phase, state, p_new, velocity, mesh, cfg, case, tau,
                         t_next, coeffs, constrain) -> LinearSystem:
    return _system(_saturation_form(phase, mesh, cfg, case, tau, coeffs),
                   _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity, phase,
                                   getattr(state, "sat_" + phase), p_new),
                   mesh, case, "sat_" + phase, t_next, constrain)


def _system(matrix, rhs, mesh, case, unknown, t_next, constrain) -> LinearSystem:
    """The Dirichlet constraints of ``unknown`` at ``t_next``, imposed on
    ``matrix`` and ``rhs`` when ``constrain`` is set."""
    dofs, vals = dirichlet_constraints(mesh, case, unknown, t_next)
    if constrain:
        matrix, lift = _eliminate(matrix, dofs, vals)
        rhs = lift(rhs)
    return LinearSystem(matrix, rhs, dofs, vals)


def _saturation_form(phase, mesh, cfg, case, tau, coeffs) -> sps.csr_matrix:
    """Bilinear form plus scaled mass of one saturation equation; ``phase``
    is 'a' or 'v'."""
    matrix = form_matrix(mesh, cfg, coeffs, EQUATIONS[phase])
    _add_mass(matrix.data, mesh, case.fluids.porosity / tau)
    return matrix


def _saturation_matrix(phase, mesh, cfg, case, tau, t_next, coeffs):
    """The constrained matrix of one saturation system, which depends only
    on the lagged coefficients, tau and the Dirichlet DOFs, and the function
    that takes its :func:`_saturation_rhs` to the constrained right-hand
    side (see :func:`_eliminate`).  ``assemble_*`` gives the same bits."""
    dofs, vals = dirichlet_constraints(mesh, case, "sat_" + phase, t_next)
    return _eliminate(_saturation_form(phase, mesh, cfg, case, tau, coeffs), dofs, vals)


def _add_mass(data, mesh, scale):
    """Add ``scale`` times the element mass matrix to the volume-block
    entries of ``data`` on the mesh's DG pattern."""
    data[_groups(mesh).pattern.volume] += (scale * tables(mesh).mass).ravel()


# -- RT0 velocity projection -------------------------------------------------

def rt0_project(p_new: DGField, state, mesh, cfg,
                coeffs: LaggedCoefficients) -> RTField:
    """Project the pressure-driven velocity onto face normal fluxes.

    Interior faces carry minus the weighted average of the one-sided
    normal fluxes plus the scaled pressure jump penalty, by the pressure
    system's face rule (:func:`_face_weights`); boundary faces take the
    one-sided flux.  The result is H(div)-conforming by construction.
    ``state`` is not read; it stays in the signature because the public
    call order passes it, positionally (so does the benchmark's replay).
    """
    t = tables(mesh)
    w = t.face_w
    alpha = cfg.variant("pressure")[1]
    fluxes = np.zeros(mesh.n_faces)

    for grp in _groups(mesh).interior:
        s1, s2 = coeffs.face[grp.key]
        o1, o2, penalty = _face_weights(s1, s2, "pressure", alpha, grp.fids)

        gn1 = p_new.coeffs[grp.k1] @ grp.gn1
        gn2 = p_new.coeffs[grp.k2] @ grp.gn2
        avg = (o1 * s1.mid.kappa)[:, None] * gn1 + (o2 * s2.mid.kappa)[:, None] * gn2
        jump_p = p_new.coeffs[grp.k1] @ grp.tr1 - p_new.coeffs[grp.k2] @ grp.tr2
        fluxes[grp.fids] = -avg @ w + (penalty / grp.h) * (jump_p @ w)

    for side in SIDE_NAMES:
        bg = _groups(mesh).boundary[side]
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
    c = _closures(sa, sv, fluids, 1.0)   # kappa is applied to the extremes
    kap_lo = float(np.min(fluids.permeability))
    kap_hi = float(np.max(fluids.permeability))

    def bounds(equation):
        d = _diffusivity(c, equation)
        return (kap_lo * float(d.min()), kap_hi * float(d.max()))

    return CoefficientBounds(*map(bounds, EQUATIONS.values()))


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
    for name in EQUATIONS.values():
        theta, alpha = cfg.variant(name)
        lo, hi = getattr(bounds, name)
        thr = 0.25 * (1 - theta) ** 2 * (hi / lo) ** 3 * c_tr**2
        out[name] = thr
        if theta != 1 and np.any(np.asarray(alpha) < thr):
            warnings.warn(
                f"{name} penalty {alpha} below advisory coercivity "
                f"threshold {thr:.3g}", RuntimeWarning)
    return out

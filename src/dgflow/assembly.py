"""Assembly of the sequential-implicit linear systems and the RT0 projection.

Each implicit solve couples a volume diffusion term, interior-face
consistency/adjoint terms with coefficient-weighted averages, a jump
penalty scaled by the harmonic mean of the diffusivity traces, and (for
the saturations) upwinded advection driven by the face-flux velocity
reconstructed from the pressure solve.  Dirichlet values are imposed
strongly on nodal DOFs.

Nonlinear coefficients are lagged: they are evaluated from the previous
time level once per step, at the volume and face quadrature points, and
shared by all three systems.  The middle face point is the edge
midpoint, which fixes the penalties, averaging weights and upwinding.

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

Patterns.  Every matrix on a mesh, constrained or not, shares the mesh's
read-only CSR index arrays, and assembly writes only ``data``.  Dirichlet
values are imposed by row replacement: a constrained row keeps its stored
entries as explicit zeros except a unit diagonal, the right-hand side
carries the value, and the constrained columns stay where they are.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps

from . import physics
from .dg_core import DGField, EDGE_NODES, FACE_POINTS, tables
from .manufactured import NonFiniteFieldError
from .mesh import EDGE_NORMALS, Mesh, LEFT, RIGHT, BOTTOM, TOP, SIDE_NAMES


class NonPositiveCoefficientError(RuntimeError):
    """A face diffusivity trace lost positivity (clamping failure)."""


class ConflictingConstraintError(ValueError):
    """One DOF received two different prescribed boundary values."""


#: the implicit equations by the suffix of their names (``theta_a``, ``sat_a``)
EQUATIONS = {"p": "pressure", "a": "aqueous", "v": "vapor"}

#: the column of the face quadrature points that is the edge midpoint
MID = FACE_POINTS // 2


@dataclass(frozen=True)
class SchemeConfig:
    """Interior-penalty variant switches and penalty constants.

    ``theta_* = -1, 0, 1`` select the symmetric, incomplete and
    nonsymmetric variants; the penalty constants ``alpha_*`` are positive
    scalars.  For ``theta != 1`` the form is coercive only above a penalty
    bound.  The tests take ``alpha >= max(1, 1.5 * (1 - theta)**2 / 4 *
    C_tr**2)``, with the trace constant ``C_tr**2 = 4 sqrt(2)`` of square
    cells: about 8.5 for the symmetric and 2.1 for the incomplete variant.
    That bound holds for coefficients frozen in space; strongly varying
    diffusivities may need more.
    """

    theta_p: int = 1
    theta_a: int = 1
    theta_v: int = 1
    alpha_p: float = 1.0
    alpha_a: float = 1.0
    alpha_v: float = 1.0

    def __post_init__(self):
        for key, equation in EQUATIONS.items():
            theta, alpha = self.variant(equation)
            if theta not in (-1, 0, 1):
                raise ValueError(f"theta_{key} must be -1, 0 or 1, got {theta}")
            if np.ndim(alpha) != 0:
                raise ValueError(f"alpha_{key} must be a scalar")
            if not (np.isfinite(alpha) and alpha > 0):
                raise ValueError(f"alpha_{key} must be finite and positive, got {alpha}")

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
    for edge, side in enumerate(SIDE_NAMES):
        fids = mesh.boundary_by_side[side]
        elems = mesh.face_k1[fids]
        loc = np.array(EDGE_NODES[edge])
        qpts = mesh.points(t.edge_points[edge])[elems]
        boundary[side] = SimpleNamespace(
            fids=fids, elems=elems, edge=edge,
            normal=EDGE_NORMALS[edge], h=mesh.face_length[fids],
            # nodal DOFs on the side (Dirichlet data)
            dofs=(4 * elems[:, None] + loc[None, :]).ravel(),
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

    The pattern never changes for a mesh, so assembly writes only ``data``
    (``np.bincount(scatter, weights)`` over the block entries in the order
    of :func:`_diffusion_weights`: volume 4x4 blocks, then each interior
    group's 8x8 face blocks), then the mass and Dirichlet rows in place; a
    hand-over batch carries the pattern once.  Face blocks are kept whole,
    although entries coupling two nodes off the face are always zero: with
    them, minimum-degree ordering finds about a fifth less fill here.
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
    # the largest per-mesh array: 32-bit indices, as CSR's, halve it, and
    # ``np.bincount`` sums the same weights in the same order
    scatter = scatter.astype(np.int32)
    template.indices.flags.writeable = template.indptr.flags.writeable = False
    return SimpleNamespace(
        shape=(n, n), nnz=len(used), indices=template.indices,
        indptr=template.indptr, scatter=scatter,
        volume=scatter[:16 * mesh.n_elements].reshape(mesh.n_elements, 16))


def _on_pattern(p: SimpleNamespace, data: np.ndarray) -> sps.csr_matrix:
    # every matrix on the mesh shares the read-only index arrays: an in-place
    # scipy method that would change them raises instead of corrupting them
    return sps.csr_matrix((data, p.indices, p.indptr), shape=p.shape)


# -- lagged closure data -----------------------------------------------------

class LaggedCoefficients:
    """Closure coefficients of one lagged state.

    Holds the ``mesh``, the ``fluids``, the lagged saturations
    ``sat_a_field`` and ``sat_v_field`` (the pressure right-hand side takes
    their gradients where it reads them), and the closures from
    :func:`_closures`: ``vol`` at the 3x3 quadrature points of every
    element, and ``face[key]``, a pair per interior group, one per side, at
    the face quadrature points.  The middle column of a side (:data:`MID`,
    the edge midpoint) fixes the averaging weights, penalties and upwind
    selectors.
    """

    def __init__(self, mesh: Mesh, fluids: physics.FluidProperties,
                 sat_a: DGField, sat_v: DGField):
        t = tables(mesh)
        self.mesh = mesh
        self.fluids = fluids
        self.sat_a_field = sat_a
        self.sat_v_field = sat_v
        self.vol = _closures(sat_a.coeffs @ t.phi, sat_v.coeffs @ t.phi, fluids)
        self.face = {g.key: tuple(
            _closures(sat_a.coeffs[k] @ t.trace_phi[e], sat_v.coeffs[k] @ t.trace_phi[e],
                      fluids) for k, e in ((g.k1, g.e1), (g.k2, g.e2)))
            for g in _groups(mesh).interior}


def _closures(sa, sv, fluids) -> SimpleNamespace:
    """The clamped closures at one point set, with the permeability.

    The closures are looked up on :mod:`physics` at each call, so that a
    patched closure is seen everywhere.
    """
    s = physics.clamp(sa, sv)
    mob = physics.mobilities(s, fluids)
    dpca, _, dpcv, _ = physics.capillary_derivatives(s.s_a, s.s_v)
    return SimpleNamespace(kappa=fluids.permeability, mob=mob, dpcv=dpcv, dpca=dpca)


def _diffusivity(c: SimpleNamespace, equation: str):
    """The diffusion coefficient of one equation from :func:`_closures`."""
    if equation == "pressure":
        return c.kappa * c.mob.lam_t
    if equation == "aqueous":
        return c.kappa * c.mob.lam_a * -c.dpca
    if equation == "vapor":
        return c.kappa * c.mob.lam_v * c.dpcv
    raise ValueError(equation)


# -- generic matrix pieces ---------------------------------------------------

def _face_weights(A1, A2, equation, alpha):
    """The interior-face rule of one equation, from its diffusivity traces
    at the face points: the averaging weights ``(o1, o2)`` and the scaled
    jump penalty ``alpha * eta`` of each face, all from the midpoints.  The
    pressure form and the RT0 projection share it, so the projected flux is
    the form's flux."""
    A1, A2 = A1[:, MID], A2[:, MID]
    lo = min(A1.min(initial=np.inf), A2.min(initial=np.inf))
    if lo <= 0.0:
        raise NonPositiveCoefficientError(
            f"non-positive {equation} face diffusivity {lo}; "
            "saturation clamping failed")
    o1, o2 = _average_weights(A1, A2)
    return o1, o2, alpha * harmonic_penalty(A1, A2)


def _face_average(w1, w2, f1, f2):
    """Weighted face average of two one-sided products: the weights come
    from the midpoints of the traces ``w1, w2``, and each side's factors
    ``f1``, ``f2`` multiply its weight left to right."""
    o1, o2 = _average_weights(w1[:, MID], w2[:, MID])
    return (functools.reduce(np.multiply, f1, o1[:, None])
            + functools.reduce(np.multiply, f2, o2[:, None]))


def _diffusion_weights(mesh, coeffs, equation, alpha, theta):
    """Block entries of the volume + interior-face diffusion form, in the
    order of the mesh's scatter map (:func:`_block_pattern`), in one array."""
    t, groups = tables(mesh), _groups(mesh)
    weights = np.empty(len(groups.pattern.scatter))
    cw = _diffusivity(coeffs.vol, equation) * t.wdet
    start = 16 * mesh.n_elements
    weights[:start] = (np.einsum("eq,jq,kq->ejk", cw, t.gx, t.gx)
                       + np.einsum("eq,jq,kq->ejk", cw, t.gy, t.gy)).ravel()

    for g in groups.interior:
        n = len(g.fids)
        A1, A2 = (_diffusivity(s, equation) for s in coeffs.face[g.key])
        o1, o2, penalty = _face_weights(A1, A2, equation, alpha)

        # consistency term C[n, j, k] = sum_q w_q J_j {A grad phi_k . n}
        C = np.empty((n, 8, 8))
        C[:, :, :4] = (o1[:, None] * (A1 @ g.T1.T)).reshape(n, 8, 4)
        C[:, :, 4:] = (o2[:, None] * (A2 @ g.T2.T)).reshape(n, 8, 4)
        hC = g.h[:, None, None] * C
        blocks = weights[start:start + 64 * n].reshape(n, 8, 8)
        blocks[...] = penalty[:, None, None] * g.JwJ - hC + theta * hC.transpose(0, 2, 1)
        start += 64 * n

    return weights


def form_matrix(mesh, cfg: SchemeConfig, coeffs: LaggedCoefficients,
                equation: str) -> sps.csr_matrix:
    """Unconstrained matrix of the bilinear form of ``equation`` ('pressure',
    'aqueous' or 'vapor'; the saturation forms exclude the mass term), with
    the equation's theta and alpha from ``cfg``."""
    theta, alpha = cfg.variant(equation)
    p = _groups(mesh).pattern
    weights = _diffusion_weights(mesh, coeffs, equation, alpha, theta)
    return _on_pattern(p, np.bincount(p.scatter, weights=weights, minlength=p.nnz))


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

    t = tables(mesh)
    v = coeffs.vol
    g = case.fluids.gravity_vector
    sa, sv = coeffs.sat_a_field.coeffs, coeffs.sat_v_field.coeffs
    # grad p_c by the chain rule on the lagged discrete saturations
    cap_v = _diffusivity(v, "vapor")
    cap_a = v.kappa * v.mob.lam_a * v.dpca
    fx, fy = (cap_v * (sv @ grad) - cap_a * (sa @ grad)
              - v.kappa * v.mob.rho_lam_t * g[i] for i, grad in enumerate((t.gx, t.gy)))
    _flux_volume_rhs(mesh, rhs, fx, fy, sign=-1.0)

    for grp in _groups(mesh).interior:
        s1, s2 = coeffs.face[grp.key]
        # the vapor capillary average minus the aqueous one (dpca carries its
        # own sign), each weighted by the kappa*lam traces of its phase
        vapor, aqueous = (_face_average(
            s1.kappa * getattr(s1.mob, lam), s2.kappa * getattr(s2.mob, lam),
            (s1.kappa, getattr(s1.mob, lam), getattr(s1, dpc), sat[grp.k1] @ grp.gn1),
            (s2.kappa, getattr(s2.mob, lam), getattr(s2, dpc), sat[grp.k2] @ grp.gn2))
            for lam, dpc, sat in (("lam_v", "dpcv", coeffs.sat_v_field.coeffs),
                                  ("lam_a", "dpca", coeffs.sat_a_field.coeffs)))
        avg = vapor - aqueous

        # gravity average, weights from the kappa*(rho lam)_t traces
        gn_dot = g[0] * grp.normal[0] + g[1] * grp.normal[1]
        if gn_dot != 0.0:
            avg -= gn_dot * _face_average(
                s1.kappa * s1.mob.rho_lam_t, s2.kappa * s2.mob.rho_lam_t,
                (s1.kappa, s1.mob.rho_lam_t), (s2.kappa, s2.mob.rho_lam_t))

        _face_load(rhs, grp, avg)

    _neumann_rhs(mesh, rhs, case, "pressure", t_next)
    return rhs


def _group_upwind(grp, s1, s2, velocity, gravity, rho, lam):
    """Per-face upwind side mask (True = k1) from the selector of the
    mobility named ``lam`` at the face midpoints, {D u + D^g g} . n >= 0, so
    a tie goes to k1; also the fluxes, g . n and both rho kappa lam traces."""
    d1, d2 = getattr(s1.mob, lam), getattr(s2.mob, lam)
    dg1, dg2 = rho * s1.kappa * d1, rho * s2.kappa * d2
    flux = velocity.fluxes[grp.fids]
    gn_dot = gravity[0] * grp.normal[0] + gravity[1] * grp.normal[1]
    selector = (0.5 * (d1[:, MID] + d2[:, MID]) * flux
                + 0.5 * (dg1[:, MID] + dg2[:, MID]) * gn_dot)
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
        d1, d2 = getattr(s1.mob, lam), getattr(s2.mob, lam)

        # upwind side is a per-face choice; its coefficient trace varies
        integrand = np.where(mask[:, None], d1, d2) * flux[:, None]
        if gn_dot != 0.0:
            integrand += gn_dot * rho * _face_average(dg1, dg2, (s1.kappa, d1),
                                                      (s2.kappa, d2))

        _face_load(rhs, grp, -integrand)

    _neumann_rhs(mesh, rhs, case, "sat_" + phase, t_next)
    return rhs


# -- Dirichlet constraints ---------------------------------------------------

def dirichlet_constraints(mesh, case, unknown, t):
    """Constrained DOF ids of one unknown, sorted and each once, and its
    boundary data at their nodes: one call of the data, broadcast to the
    DOFs, so a node shared by two Dirichlet sides is evaluated once."""
    groups = _groups(mesh).boundary
    dofs = np.unique(np.concatenate([np.empty(0, dtype=np.int64)] + [
        groups[side].dofs for side in case.dirichlet_sides[unknown]]))
    x, y = mesh.node_coords.reshape(-1, 2)[dofs].T
    vals = np.broadcast_to(np.asarray(getattr(case, "boundary_" + unknown)(t, x, y),
                                      dtype=float), dofs.shape)
    bad = dofs[~np.isfinite(vals)]
    if bad.size:
        raise NonFiniteFieldError(f"the Dirichlet data of {unknown} at t={t:g} are not "
                                  f"finite at DOF {bad.min()}")
    return dofs, vals


def apply_dirichlet(matrix, rhs, dofs, values):
    """Impose prescribed nodal values strongly, by row replacement.

    A constrained row becomes a unit row: its stored entries stay as
    explicit zeros, its diagonal (which it must store, as every DG matrix
    does) becomes 1, and the right-hand side carries the value.  Columns
    are not eliminated, so the result has the input's CSR pattern (summed
    first if not canonical).  Returns a new ``(csr_matrix, rhs)`` and leaves
    the input alone; assembly replaces the rows of its own in place.  The
    DOFs may come in any order and repeat with the same value; a DOF given
    two different values raises :class:`ConflictingConstraintError`, naming
    the smallest such DOF.  A DOF that is not a whole number or not a row
    of ``matrix``, DOFs and values of different shapes, and a right-hand
    side that is not one value per row raise ``ValueError`` naming them.
    """
    given, values = np.asarray(dofs), np.asarray(values, dtype=float)
    if np.shape(rhs) != matrix.shape[:1]:
        raise ValueError(f"a right-hand side of shape {np.shape(rhs)} for a matrix of "
                         f"shape {matrix.shape}")
    if given.shape != values.shape or given.ndim != 1:
        raise ValueError(f"{given.size} DOFs and {values.size} values (shapes {given.shape} "
                         f"and {values.shape}): they must be 1-D and of one length")
    if given.dtype.kind not in "iuf":
        raise ValueError(f"DOFs must be integers, got {given.dtype} {given.tolist()}")
    with np.errstate(invalid="ignore"):
        dofs = given.astype(np.int64)
    bad = given[given != dofs]
    if bad.size:
        raise ValueError(f"DOF {bad[0]} is not an integer")
    bad = dofs[(dofs < 0) | (dofs >= matrix.shape[0])]
    if bad.size:
        raise ValueError(f"DOF {bad[0]} is not a row of the {matrix.shape[0]}-row matrix")
    bad = dofs[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"DOF {bad.min()} received a non-finite value")
    uniq, first, inverse = np.unique(dofs, return_index=True, return_inverse=True)
    conflict = values != values[first][inverse]
    if np.any(conflict):
        dof = uniq[inverse[conflict]].min()
        given = sorted(set(values[dofs == dof].tolist()))
        raise ConflictingConstraintError(f"DOF {dof} received conflicting values {given}")
    dofs, values = uniq, values[first]
    A = matrix.tocsr()
    if A.has_canonical_format:   # a new matrix on the input's index arrays
        A = sps.csr_matrix((A.data.copy(), A.indices, A.indptr), shape=A.shape)
    else:
        A = A.copy()
        A.sum_duplicates()
    _constrain(A, dofs)
    rhs = np.array(rhs, dtype=float, copy=True)
    rhs[dofs] = values
    return A, rhs


def _constrain(A, dofs):
    """Make the rows ``dofs`` (sorted, unique) of the canonical CSR ``A`` unit
    rows, in place; the right-hand side takes ``rhs[dofs] = values``."""
    # the stored entries of the constrained rows, row after row
    counts = np.diff(A.indptr)[dofs]
    slots = (np.repeat(A.indptr[dofs] - (np.cumsum(counts) - counts), counts)
             + np.arange(counts.sum()))
    rows = np.repeat(dofs, counts)
    diagonal = A.indices[slots] == rows
    if np.count_nonzero(diagonal) != len(dofs):
        missing = np.setdiff1d(dofs, rows[diagonal])
        raise ValueError(f"constrained row {missing[0]} stores no diagonal entry")
    A.data[slots] = 0.0
    A.data[slots[diagonal]] = 1.0


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
    return _system(_saturation_form("a", mesh, cfg, case, tau, coeffs),
                   _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity, "a",
                                   state.sat_a, p_new),
                   mesh, case, "sat_a", t_next, constrain)


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
    return _system(_saturation_form("v", mesh, cfg, case, tau, coeffs),
                   _saturation_rhs(mesh, coeffs, case, t_next, tau, velocity, "v",
                                   state.sat_v, p_new),
                   mesh, case, "sat_v", t_next, constrain)


def _system(matrix, rhs, mesh, case, unknown, t_next, constrain) -> LinearSystem:
    """The Dirichlet constraints of ``unknown`` at ``t_next``, imposed on
    ``matrix`` and, in place, on ``rhs`` when ``constrain`` is set."""
    dofs, vals = dirichlet_constraints(mesh, case, unknown, t_next)
    if constrain:
        _constrain(matrix, dofs)
        rhs[dofs] = vals
    return LinearSystem(matrix, rhs, dofs, vals)


def _saturation_form(phase, mesh, cfg, case, tau, coeffs) -> sps.csr_matrix:
    """Bilinear form plus scaled mass of one saturation equation; ``phase``
    is 'a' or 'v'."""
    matrix = form_matrix(mesh, cfg, coeffs, EQUATIONS[phase])
    _add_mass(matrix.data, mesh, case.fluids.porosity / tau)
    return matrix


def _saturation_matrix(phase, mesh, cfg, case, tau, t_next, coeffs):
    """``(matrix, dofs, values)`` of one saturation system for the helper's
    hand-over: the constrained matrix, which depends only on the lagged
    coefficients, tau and the Dirichlet DOFs, and the constraints, which its
    :func:`_saturation_rhs` takes as ``rhs[dofs] = values``.  ``assemble_*``
    gives the same bits."""
    dofs, vals = dirichlet_constraints(mesh, case, "sat_" + phase, t_next)
    matrix = _saturation_form(phase, mesh, cfg, case, tau, coeffs)
    _constrain(matrix, dofs)
    return matrix, dofs, vals


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
    kappa = coeffs.fluids.permeability
    fluxes = np.zeros(mesh.n_faces)

    for grp in _groups(mesh).interior:
        o1, o2, penalty = _face_weights(
            *(_diffusivity(s, "pressure") for s in coeffs.face[grp.key]), "pressure", alpha)

        gn1 = p_new.coeffs[grp.k1] @ grp.gn1
        gn2 = p_new.coeffs[grp.k2] @ grp.gn2
        avg = (o1 * kappa)[:, None] * gn1 + (o2 * kappa)[:, None] * gn2
        jump_p = p_new.coeffs[grp.k1] @ grp.tr1 - p_new.coeffs[grp.k2] @ grp.tr2
        fluxes[grp.fids] = -avg @ w + (penalty / grp.h) * (jump_p @ w)

    for side in SIDE_NAMES:
        bg = _groups(mesh).boundary[side]
        gn = (p_new.coeffs[bg.elems] @ t.trace_gx[bg.edge]) * bg.normal[0] \
            + (p_new.coeffs[bg.elems] @ t.trace_gy[bg.edge]) * bg.normal[1]
        fluxes[bg.fids] = -kappa * (gn @ w)

    return RTField(mesh, fluxes)


"""Shared test scaffolding: case stubs, states and independent oracles."""

import numpy as np
import scipy.linalg
import sympy as sp

from dgflow import dg_core, physics
from dgflow.assembly import LaggedCoefficients, harmonic_penalty
from dgflow.dg_core import DGField, evaluate, gauss_1d, jump
from dgflow.manufactured import _T, _X, _Y, _as_expr
from dgflow.mesh import BOTTOM, LEFT, RIGHT, SIDE_NAMES, TOP, Mesh
from dgflow.physics import PCA_SCALE, PCV_SCALE, FluidProperties
from dgflow.solver import PhaseState


def _const(value):
    def fn(t, x, y):
        return np.broadcast_to(float(value), np.broadcast_shapes(
            np.shape(t), np.shape(x), np.shape(y))).copy()
    return fn


class StubCase:
    """Duck-typed scenario with explicit boundary data and sources.

    Data callables take (t, x, y); sources default to zero.  ``neumann``
    maps an unknown to its Neumann flux ``(t, x, y, normal)``; asking for
    any other unknown's flux fails the test.  Useful for patch tests where
    the exact solution is linear and all closures are frozen by a spatially
    constant lagged state.
    """

    def __init__(self, fluids=None, pressure=None, sat_a=None, sat_v=None,
                 q_total=None, q_a=None, q_v=None, q_l=None,
                 dirichlet_sides=None, neumann=None):
        self.fluids = fluids or FluidProperties()
        self.boundary_pressure = pressure or _const(0.0)
        self.boundary_sat_a = sat_a or _const(0.25)
        self.boundary_sat_v = sat_v or _const(0.25)
        self.source_total = q_total or _const(0.0)
        self.source_aqueous = q_a or _const(0.0)
        self.source_vapor = q_v or _const(0.0)
        self.source_liquid = q_l or _const(0.0)
        sides = dict(dirichlet_sides or {})
        self.dirichlet_sides = {
            "pressure": tuple(sides.get("pressure", SIDE_NAMES)),
            "sat_a": tuple(sides.get("sat_a", SIDE_NAMES)),
            "sat_v": tuple(sides.get("sat_v", SIDE_NAMES)),
        }
        self.neumann_data = dict(neumann or {})

    def neumann(self, unknown, t, x, y, normal):
        if unknown not in self.neumann_data:
            raise AssertionError(f"Neumann {unknown} data requested unexpectedly")
        return self.neumann_data[unknown](t, x, y, normal)


def eval_basis(dx, dy, reference_point):
    """Basis values and physical gradients of a ``dx`` by ``dy`` cell at a
    reference point.

    Returns ``(values, gradients)`` with shapes (4,) and (4, 2); the
    gradients are mapped through the (diagonal) affine cell map.
    """
    pt = np.asarray(reference_point, dtype=float)
    grads = dg_core.basis_gradients(pt).copy()
    grads[..., 0] /= dx
    grads[..., 1] /= dy
    return dg_core.basis_values(pt), grads


def reference_trace_constant() -> float:
    """Trace constant estimated on the reference cell (unit aspect ratio).

    Largest generalized Rayleigh quotient of the edge-trace mass matrix
    against the cell mass matrix, scaled for square cells whose diameter
    is the diagonal: ``C_tr**2 = 4 sqrt(2)`` for Q1.  The patch tests pick
    their penalties from it.
    """
    t = dg_core.tables(Mesh(1, 1))
    mu = 0.0
    for edge in (LEFT, RIGHT, BOTTOM, TOP):
        tr = t.trace_phi[edge]
        m_edge = np.einsum("iq,jq,q->ij", tr, tr, t.face_w)
        vals = scipy.linalg.eigh(m_edge, t.mass, eigvals_only=True)
        mu = max(mu, float(vals[-1]))
    return float(np.sqrt(np.sqrt(2.0) * mu))


def evaluate_at(field, x, y):
    """Evaluate a DG field at physical points, locating elements by lattice index."""
    m = field.mesh
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i = np.clip(((x - m.domain[0]) / m.dx).astype(int), 0, m.nx - 1)
    j = np.clip(((y - m.domain[1]) / m.dy).astype(int), 0, m.ny - 1)
    ref = np.stack([(x - m.domain[0]) / m.dx - i, (y - m.domain[1]) / m.dy - j],
                   axis=-1)
    return evaluate(field, j * m.nx + i, ref)


def l2_norm(field):
    t = dg_core.tables(field.mesh)
    vals = field.coeffs @ t.phi
    return float(np.sqrt(np.einsum("eq,q->", vals**2, t.wdet)))


def constant_field(mesh, value, tag=""):
    return DGField(mesh, np.full((mesh.n_elements, 4), float(value)), tag)


def nodal_interpolant(mesh, fn, tag=""):
    """DGField whose nodal values are fn(x, y) at the element corners."""
    xy = mesh.node_coords
    return DGField(mesh, np.asarray(fn(xy[..., 0], xy[..., 1]), dtype=float), tag)


def constant_state(mesh, p=2.0, sa=0.25, sv=0.25):
    return PhaseState(constant_field(mesh, p, "pressure"),
                      constant_field(mesh, sa, "sat_a"),
                      constant_field(mesh, sv, "sat_v"))


def lagged_coefficients(state, case):
    """The closures lagged at ``state``, as ``advance`` builds them."""
    return LaggedCoefficients(state.mesh, case.fluids, state.sat_a, state.sat_v)


def fine_l2_error(field, exact, time=None, n=6):
    """Independent high-order quadrature oracle for the L2 distance."""
    from dgflow.dg_core import gauss_2d, basis_values
    rule = gauss_2d(n)
    mesh = field.mesh
    pts = (mesh.elem_origin[:, None, :]
           + rule.points[None, :, :] * np.array([mesh.dx, mesh.dy]))
    x, y = pts[..., 0], pts[..., 1]
    ex = exact(x, y) if time is None else exact(time, x, y)
    vals = np.einsum("ej,qj->eq", field.coeffs, basis_values(rule.points))
    diff2 = (vals - np.broadcast_to(np.asarray(ex, float), vals.shape)) ** 2
    return float(np.sqrt((diff2 * rule.weights).sum() * mesh.dx * mesh.dy))


def face_quadrature_jumps(field, n=4):
    """Independent evaluation of sum_e h_e^-1 ||[w]||^2 over interior faces."""
    from dgflow.dg_core import gauss_1d, jump
    mesh = field.mesh
    rule = gauss_1d(n)
    total = 0.0
    for fid in mesh.interior_faces:
        face = mesh.face(fid)
        vals = jump(field, face, rule.points)
        total += float((vals**2 * rule.weights).sum())  # h_e / h_e cancels
    return total


def zero_mobilities(monkeypatch):
    """Make the mobility closure vanish, so that every face diffusivity the
    assembly checks is zero."""
    real = physics.mobilities

    def zero(s, fluids):
        return physics.Mobilities(*(np.zeros_like(real(s, fluids).lam_t),) * 5)

    monkeypatch.setattr(physics, "mobilities", zero)


def rt_moments_oracle(mesh, p, coeffs, cfg, rule=None):
    """Independent recomputation of the RT0 projection's face moments (the
    normal flux times the face length), one face at a time with the
    generic trace operators and the reference basis."""
    rule = rule or gauss_1d(3)
    kappa = coeffs.fluids.permeability
    out = np.zeros(mesh.n_faces)
    for fid in range(mesh.n_faces):
        face = mesh.face(fid)
        n = face.normal
        vertical = n[0] != 0.0

        def sides(s):
            """(element, reference point) of the face parameter s on each side."""
            pts = [(1.0, s), (0.0, s)] if vertical else [(s, 1.0), (s, 0.0)]
            return list(zip((face.k1, face.k2), pts))

        def normal_gradient(elem, pt):
            _, grads = eval_basis(mesh.dx, mesh.dy, pt)
            return (p.coeffs[elem] @ grads) @ n

        total = 0.0
        if face.kind == "boundary":
            pick = 0 if (n[0] + n[1]) > 0 else 1
            for s, w in zip(rule.points, rule.weights):
                _, pt = sides(s)[pick]
                total += w * (-kappa * normal_gradient(face.k1, pt))
            out[fid] = total * face.length
            continue
        A1, A2 = (kappa * float(physics.mobilities(physics.clamp(
            evaluate(coeffs.sat_a_field, elem, mid), evaluate(coeffs.sat_v_field, elem, mid)),
            coeffs.fluids).lam_t) for elem, mid in sides(0.5))
        eta = harmonic_penalty(A1, A2)
        for s, w in zip(rule.points, rule.weights):
            (k1, pt1), (k2, pt2) = sides(s)
            # weights A2/(A1+A2) on the k1 side, A1/(A1+A2) on the k2 side
            avg = (A2 * kappa * normal_gradient(k1, pt1)
                   + A1 * kappa * normal_gradient(k2, pt2)) / (A1 + A2)
            total += w * (-avg + cfg.alpha_p * eta / face.length * jump(p, face, s))
        out[fid] = total * face.length
    return out


def symbolic_sources(fluids, pressure, sat_a, sat_v):
    """Independent oracle of the manufactured sources and Neumann fluxes.

    Expands each phase's mass balance in divergence form symbolically, with
    the closure laws written out again here, and returns sympy expressions
    in ``(t, x, y)``: ``sources`` with keys liquid, vapor, aqueous and total,
    and ``fluxes`` with keys pressure, sat_a and sat_v, each an (x, y) pair.
    """
    p, sa, sv = (_as_expr(e) for e in (pressure, sat_a, sat_v))
    kappa = fluids.permeability
    gx, gy = (float(c) for c in fluids.gravity)

    sl = 1 - sa - sv
    k_rl = sl * (sl + sa) * (1 - sa)
    lam = {"l": k_rl / fluids.mu_l, "v": sv**2 / fluids.mu_v, "a": sa**2 / fluids.mu_a}
    rho = {"l": fluids.rho_l, "v": fluids.rho_v, "a": fluids.rho_a}
    p_cv = PCV_SCALE * sp.log(sp.Float(1.01) - sv)
    p_ca = PCA_SCALE * sp.log(sa + sp.Float(0.01))
    phase_p = {"l": p, "v": p + p_cv, "a": p - p_ca}
    s_of = {"l": sl, "v": sv, "a": sa}

    q = {}
    for j in ("l", "v", "a"):
        fx = kappa * lam[j] * (sp.diff(phase_p[j], _X) - rho[j] * gx)
        fy = kappa * lam[j] * (sp.diff(phase_p[j], _Y) - rho[j] * gy)
        q[j] = fluids.porosity * sp.diff(s_of[j], _T) - sp.diff(fx, _X) - sp.diff(fy, _Y)
    sources = {"liquid": q["l"], "vapor": q["v"], "aqueous": q["a"],
               "total": q["l"] + q["v"] + q["a"]}

    lam_t = lam["l"] + lam["v"] + lam["a"]
    rho_lam_t = sum(rho[j] * lam[j] for j in ("l", "v", "a"))
    dpca_dsa = PCA_SCALE / (sa + sp.Float(0.01))
    dpcv_dsv = -PCV_SCALE / (sp.Float(1.01) - sv)
    fluxes = {"pressure": tuple(
        kappa * lam_t * sp.diff(p, z) + kappa * lam["v"] * sp.diff(p_cv, z)
        - kappa * lam["a"] * sp.diff(p_ca, z) - kappa * rho_lam_t * g
        for z, g in ((_X, gx), (_Y, gy)))}
    # the capillary pressure enters the aqueous phase pressure with a minus
    for j, sign, dpc_ds in (("a", -1, dpca_dsa), ("v", 1, dpcv_dsv)):
        fluxes["sat_" + j] = tuple(
            sign * kappa * lam[j] * dpc_ds * sp.diff(s_of[j], z)
            + kappa * lam[j] * sp.diff(p, z) - rho[j] * kappa * lam[j] * g
            for z, g in ((_X, gx), (_Y, gy)))
    return sources, fluxes

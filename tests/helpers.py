"""Shared test scaffolding: case stubs, states and independent oracles."""

import numpy as np

from dgflow import dg_core, physics
from dgflow.assembly import LaggedCoefficients, harmonic_penalty
from dgflow.dg_core import DGField, evaluate, gauss_1d, jump
from dgflow.mesh import SIDE_NAMES
from dgflow.physics import FluidProperties
from dgflow.solver import PhaseState

ALL_SIDES = tuple(SIDE_NAMES)


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
            "pressure": tuple(sides.get("pressure", ALL_SIDES)),
            "sat_a": tuple(sides.get("sat_a", ALL_SIDES)),
            "sat_v": tuple(sides.get("sat_v", ALL_SIDES)),
        }
        self.neumann_data = dict(neumann or {})

    def neumann(self, unknown, t, x, y, normal):
        if unknown not in self.neumann_data:
            raise AssertionError(f"Neumann {unknown} data requested unexpectedly")
        return self.neumann_data[unknown](t, x, y, normal)


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
    kappa = coeffs.kappa
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
            _, grads = dg_core.eval_basis(mesh.element(elem), pt)
            return (p.coeffs[elem] @ grads) @ n

        total = 0.0
        if face.kind == "boundary":
            pick = 0 if (n[0] + n[1]) > 0 else 1
            for s, w in zip(rule.points, rule.weights):
                _, pt = sides(s)[pick]
                total += w * (-kappa[face.k1] * normal_gradient(face.k1, pt))
            out[fid] = total * face.length
            continue
        A1, A2 = (kappa[elem] * float(physics.mobilities(physics.clamp(
            evaluate(coeffs.sat_a_field, elem, mid), evaluate(coeffs.sat_v_field, elem, mid)),
            coeffs.fluids).lam_t) for elem, mid in sides(0.5))
        eta = harmonic_penalty(A1, A2)
        for s, w in zip(rule.points, rule.weights):
            (k1, pt1), (k2, pt2) = sides(s)
            avg = dg_core.weighted_average(kappa[k1] * normal_gradient(k1, pt1),
                                           kappa[k2] * normal_gradient(k2, pt2), A1, A2)
            total += w * (-avg + cfg.alpha_p * eta / face.length * jump(p, face, s))
        out[fid] = total * face.length
    return out

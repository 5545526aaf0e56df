"""Shared test scaffolding: case stubs, states and independent oracles."""

import numpy as np

from dgflow import physics
from dgflow.dg_core import DGField
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

    Data callables take (t, x, y); sources default to zero.  Useful for
    patch tests where the exact solution is linear and all closures are
    frozen by a spatially constant lagged state.
    """

    def __init__(self, fluids=None, pressure=None, sat_a=None, sat_v=None,
                 q_total=None, q_a=None, q_v=None, q_l=None,
                 dirichlet_sides=None):
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

    def neumann_pressure(self, t, x, y, normal):
        raise AssertionError("Neumann pressure data requested unexpectedly")

    def neumann_sat_a(self, t, x, y, normal):
        raise AssertionError("Neumann sat_a data requested unexpectedly")

    def neumann_sat_v(self, t, x, y, normal):
        raise AssertionError("Neumann sat_v data requested unexpectedly")


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

"""Assembly and source kernels against their reference formulas.

The face blocks and the loads are small matmuls against per-mesh tables;
the references below are the ``einsum`` formulas they replaced, which sum
in another order, so they must agree to 1e-13 relative.  The volume
blocks keep their ``einsum`` and must agree bit for bit.
"""

import numpy as np
import pytest

from dgflow import assembly
from dgflow.assembly import LaggedCoefficients, RTField
from dgflow.dg_core import FACE_POINTS, DGField, gauss_1d, tables
from dgflow.manufactured import ManufacturedCase
from dgflow.mesh import build_uniform_mesh
from dgflow.physics import FluidProperties

RTOL = 1e-13
EQUATIONS = ("pressure", "aqueous", "vapor")


def assert_close(actual, reference):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    scale = np.max(np.abs(reference))
    assert scale > 0.0
    assert np.max(np.abs(actual - reference)) <= RTOL * scale


# -- reference kernels ----------------------------------------------------------

def ref_volume_blocks(mesh, coeffs, equation):
    t = tables(mesh)
    cw = assembly._diffusivity(coeffs.vol, equation) * t.wdet
    return (np.einsum("eq,jq,kq->ejk", cw, t.gx, t.gx)
            + np.einsum("eq,jq,kq->ejk", cw, t.gy, t.gy))


def ref_face_blocks(mesh, coeffs, equation, alpha, theta, grp):
    t = tables(mesh)
    w = t.face_w
    A1q, A2q = (assembly._diffusivity(s, equation) for s in coeffs.face[grp.key])
    # the weights and the penalty come from the edge midpoints
    A1, A2 = A1q[:, FACE_POINTS // 2], A2q[:, FACE_POINTS // 2]
    den = A1 + A2
    o1, o2 = A2 / den, A1 / den
    eta = 2.0 * A1 * A2 / den
    grad = t.trace_gx if grp.normal[0] != 0.0 else t.trace_gy
    gn1, gn2 = grad[grp.e1], grad[grp.e2]
    J = np.vstack([t.trace_phi[grp.e1], -t.trace_phi[grp.e2]])
    G = np.empty((len(grp.fids), 8, len(w)))
    G[:, :4, :] = o1[:, None, None] * A1q[:, None, :] * gn1[None]
    G[:, 4:, :] = o2[:, None, None] * A2q[:, None, :] * gn2[None]
    blocks = (alpha * eta)[:, None, None] * np.einsum("jq,kq,q->jk", J, J, w)[None]
    blocks -= grp.h[:, None, None] * np.einsum("jq,nkq,q->njk", J, G, w)
    blocks += theta * grp.h[:, None, None] * np.einsum("njq,kq,q->njk", G, J, w)
    return blocks


def ref_load_rhs(mesh, rhs, fn, t_next):
    t = tables(mesh)
    q = np.broadcast_to(
        np.asarray(fn(t_next, t.qpoints[:, :, 0], t.qpoints[:, :, 1]), dtype=float),
        t.qpoints.shape[:2])
    rhs += np.einsum("eq,jq,q->ej", q, t.phi, t.wdet).ravel()


def ref_flux_volume_rhs(mesh, rhs, fx, fy, sign=1.0):
    t = tables(mesh)
    contrib = (np.einsum("eq,jq,q->ej", fx, t.gx, t.wdet)
               + np.einsum("eq,jq,q->ej", fy, t.gy, t.wdet))
    rhs += sign * contrib.ravel()


def ref_face_load(rhs, grp, values):
    w = gauss_1d(FACE_POINTS).weights
    J = np.vstack([grp.tr1, -grp.tr2])
    np.add.at(rhs, grp.dofs8, grp.h[:, None] * np.einsum("nq,jq,q->nj", values, J, w))


def ref_neumann_rhs(mesh, rhs, case, unknown, t_next):
    t = tables(mesh)
    s_param = t.face_rule.points
    for side in (s for s in ("left", "right", "bottom", "top")
                 if s not in case.dirichlet_sides[unknown]):
        bg = assembly._groups(mesh).boundary[side]
        if side in ("left", "right"):
            ref = np.column_stack([np.full_like(s_param, 0.0 if side == "left" else 1.0),
                                   s_param])
        else:
            ref = np.column_stack([s_param,
                                   np.full_like(s_param, 0.0 if side == "bottom" else 1.0)])
        pts = (mesh.elem_origin[bg.elems][:, None, :]
               + ref[None, :, :] * np.array([mesh.dx, mesh.dy]))
        jval = np.broadcast_to(
            np.asarray(case.neumann(unknown, t_next, pts[:, :, 0], pts[:, :, 1], bg.normal),
                       dtype=float),
            pts.shape[:2])
        contrib = bg.h[:, None] * np.einsum("nq,jq,q->nj", jval, t.trace_phi[bg.edge],
                                            t.face_w)
        np.add.at(rhs, t.elem_dofs[bg.elems], contrib)


REFERENCE_LOADS = {"_load_rhs": ref_load_rhs, "_flux_volume_rhs": ref_flux_volume_rhs,
                   "_face_load": ref_face_load, "_neumann_rhs": ref_neumann_rhs}


# -- a random lagged state --------------------------------------------------------

@pytest.fixture(scope="module")
def lagged():
    rng = np.random.default_rng(20211)
    mesh = build_uniform_mesh(8, 8)
    n = mesh.n_elements
    fluids = FluidProperties(gravity=(0.0, -0.1))
    sat_a = DGField(mesh, rng.uniform(0.05, 0.45, (n, 4)), "sat_a")
    sat_v = DGField(mesh, rng.uniform(0.05, 0.45, (n, 4)), "sat_v")
    p_new = DGField(mesh, rng.uniform(1.0, 3.0, (n, 4)), "pressure")
    # every unknown keeps at least one Neumann side, so all loads run
    case = ManufacturedCase("kernels", fluids, dirichlet_sides={
        "pressure": ("left", "bottom"), "sat_a": ("right", "top"),
        "sat_v": ("left", "right", "top")})
    return dict(
        mesh=mesh, case=case, p_new=p_new, sat_a=sat_a, sat_v=sat_v,
        coeffs=LaggedCoefficients(mesh, fluids, sat_a, sat_v),
        velocity=RTField(mesh, rng.normal(size=mesh.n_faces)),
        alpha=rng.uniform(1.0, 4.0))


@pytest.mark.parametrize("theta", [-1, 0, 1])
@pytest.mark.parametrize("equation", EQUATIONS)
def test_diffusion_blocks_match_einsum_reference(lagged, equation, theta):
    mesh, coeffs, alpha = lagged["mesh"], lagged["coeffs"], lagged["alpha"]
    weights = assembly._diffusion_weights(mesh, coeffs, equation, alpha, theta)
    # the volume kernel is the reference formula itself: bit for bit
    start = 16 * mesh.n_elements
    assert np.array_equal(weights[:start], ref_volume_blocks(mesh, coeffs, equation).ravel())
    for grp in assembly._groups(mesh).interior:
        stop = start + 64 * len(grp.fids)
        assert_close(weights[start:stop].reshape(-1, 8, 8),
                     ref_face_blocks(mesh, coeffs, equation, alpha, theta, grp))
        start = stop
    assert start == len(weights)


def _right_hand_sides(d):
    mesh, coeffs, case = d["mesh"], d["coeffs"], d["case"]
    out = [assembly._pressure_rhs(mesh, coeffs, case, 0.3)]
    for phase, prev in (("a", d["sat_a"]), ("v", d["sat_v"])):
        out.append(assembly._saturation_rhs(
            mesh, coeffs, case, 0.3, 0.05, d["velocity"], phase, prev, d["p_new"]))
    return out


def test_right_hand_sides_match_einsum_loads(lagged, monkeypatch):
    new = _right_hand_sides(lagged)
    for name, ref in REFERENCE_LOADS.items():
        monkeypatch.setattr(assembly, name, ref)
    for a, b in zip(new, _right_hand_sides(lagged), strict=True):
        assert_close(a, b)

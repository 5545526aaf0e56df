"""Discontinuous Q1 finite element machinery on structured quad meshes.

Provides the tensor-product bilinear basis, Gauss quadrature, the jump
trace operator, elementwise L2 projection and the two mesh-dependent
norms used to measure DG errors: the coercivity norm (broken H1 seminorm
plus scaled jump seminorm over interior faces) and its strengthened
variant with elementwise normal-derivative boundary terms.

Per-mesh lookup tables (basis and trace values at quadrature points) are
cached in a weak dictionary keyed by the mesh object; meshes are immutable
so the cache never goes stale.  The tables of the richer error rule are
built only when an error is first measured on the mesh.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .mesh import Mesh, Face, LEFT, RIGHT, BOTTOM, TOP

# Local nodes of each element edge, matching the node order
# (0,0), (1,0), (0,1), (1,1) of the reference square.
EDGE_NODES = {LEFT: (0, 2), RIGHT: (1, 3), BOTTOM: (0, 1), TOP: (2, 3)}

# Outward reference normals of the four element edges.
EDGE_NORMALS = {
    LEFT: np.array([-1.0, 0.0]), RIGHT: np.array([1.0, 0.0]),
    BOTTOM: np.array([0.0, -1.0]), TOP: np.array([0.0, 1.0]),
}


class SingularMassMatrixError(RuntimeError):
    """Local mass matrix could not be inverted; the mesh is corrupt."""


# -- reference basis ---------------------------------------------------------

def basis_values(points) -> np.ndarray:
    """Q1 shape functions at reference points in [0,1]^2.

    Returns array of shape ``points.shape[:-1] + (4,)`` ordered by node:
    (0,0), (1,0), (0,1), (1,1).
    """
    p = np.asarray(points, dtype=float)
    xi, eta = p[..., 0], p[..., 1]
    return np.stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                     (1 - xi) * eta, xi * eta], axis=-1)


def basis_gradients(points) -> np.ndarray:
    """Reference gradients of the Q1 shape functions, shape (..., 4, 2)."""
    p = np.asarray(points, dtype=float)
    xi, eta = p[..., 0], p[..., 1]
    dxi = np.stack([-(1 - eta), (1 - eta), -eta, eta], axis=-1)
    deta = np.stack([-(1 - xi), -xi, (1 - xi), xi], axis=-1)
    return np.stack([dxi, deta], axis=-1)


# -- quadrature --------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on a reference cell or face.

    ``points`` are reference coordinates in [0,1]^d; weights sum to the
    reference measure (one).  ``degree`` is the highest total polynomial
    degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


def gauss_1d(n: int) -> QuadratureRule:
    """n-point Gauss rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0, degree=2 * n - 1)


def gauss_2d(n: int) -> QuadratureRule:
    """Tensor n-by-n Gauss rule on the unit square."""
    g = gauss_1d(n)
    xi, eta = np.meshgrid(g.points, g.points, indexing="ij")
    pts = np.column_stack([xi.ravel(), eta.ravel()])
    wts = np.outer(g.weights, g.weights).ravel()
    return QuadratureRule(pts, wts, degree=2 * n - 1)


VOLUME_POINTS = 3   # 3x3 Gauss per cell
FACE_POINTS = 3     # 3-point Gauss per face
ERROR_POINTS = 5    # 5x5 Gauss for error measurement only


# -- fields ------------------------------------------------------------------

@dataclass
class DGField:
    """Discontinuous piecewise bilinear scalar field.

    One block of four nodal values per element, stored as ``coeffs`` of
    shape (n_elements, 4).  Evaluation at an in-element point uses that
    element's block only; there is no inter-element continuity.
    """

    mesh: Mesh
    coeffs: np.ndarray
    tag: str = ""

    @classmethod
    def zeros(cls, mesh: Mesh, tag: str = "") -> "DGField":
        return cls(mesh, np.zeros((mesh.n_elements, 4)), tag)

    @classmethod
    def from_vector(cls, mesh: Mesh, vec, tag: str = "") -> "DGField":
        return cls(mesh, np.asarray(vec, dtype=float).reshape(mesh.n_elements, 4), tag)

    @property
    def vector(self) -> np.ndarray:
        """Flat coefficient vector of length 4 * n_elements."""
        return self.coeffs.reshape(-1)

    def copy(self) -> "DGField":
        return DGField(self.mesh, self.coeffs.copy(), self.tag)


def evaluate(field: DGField, elem_ids, ref_points) -> np.ndarray:
    """Evaluate a field on given elements at reference points.

    ``elem_ids`` (n,) and ``ref_points`` (n, 2) or (2,) broadcast together.
    """
    vals = basis_values(ref_points)
    return np.einsum("...j,...j->...", field.coeffs[elem_ids], vals)


# -- per-mesh tables ---------------------------------------------------------

class Q1Tables:
    """Precomputed basis/trace tables for one mesh (uniform cells).

    All elements share the same diagonal affine map, so basis values,
    physical gradients and edge traces at quadrature points are identical
    across elements and can be tabulated once.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        dx, dy = mesh.dx, mesh.dy

        vol = gauss_2d(VOLUME_POINTS)
        self.phi = basis_values(vol.points).T                 # (4, nq)
        gref = basis_gradients(vol.points)                    # (nq, 4, 2)
        self.gx = gref[:, :, 0].T / dx                        # (4, nq)
        self.gy = gref[:, :, 1].T / dy
        self.wdet = vol.weights * (dx * dy)                   # (nq,)

        self.mass = np.einsum("iq,jq,q->ij", self.phi, self.phi, self.wdet)

        face = gauss_1d(FACE_POINTS)
        self.face_rule = face
        s, self.face_w = face.points, face.weights            # weights sum to 1

        # Edge reference parametrizations: vertical faces run bottom->top,
        # horizontal faces left->right; both adjacent elements see the same
        # physical point for the same parameter value.
        edge_points = {
            LEFT: np.column_stack([np.zeros_like(s), s]),
            RIGHT: np.column_stack([np.ones_like(s), s]),
            BOTTOM: np.column_stack([s, np.zeros_like(s)]),
            TOP: np.column_stack([s, np.ones_like(s)]),
        }
        self.trace_phi = {}
        self.trace_gx = {}
        self.trace_gy = {}
        for edge, pts in edge_points.items():
            self.trace_phi[edge] = basis_values(pts).T        # (4, nfq)
            g = basis_gradients(pts)
            self.trace_gx[edge] = g[:, :, 0].T / dx
            self.trace_gy[edge] = g[:, :, 1].T / dy

        self.elem_dofs = (4 * np.arange(mesh.n_elements)[:, None]
                          + np.arange(4)[None, :])

        # physical volume quadrature coordinates, (n_elements, nq, 2)
        self.qpoints = (mesh.elem_origin[:, None, :]
                        + vol.points[None, :, :] * np.array([dx, dy]))

    @functools.cached_property
    def error_rule(self) -> SimpleNamespace:
        """The richer rule for error measurement, so the quadrature crime of
        the reported errors sits far below the discretization error: basis
        values ``phi`` (4, nq), weights ``wdet`` (nq,) and physical points
        ``qpoints`` (n_elements, nq, 2).  Built at the first
        :func:`l2_error` on the mesh, so a time march never holds them."""
        mesh = self.mesh
        err = gauss_2d(ERROR_POINTS)
        return SimpleNamespace(
            phi=basis_values(err.points).T, wdet=err.weights * (mesh.dx * mesh.dy),
            qpoints=(mesh.elem_origin[:, None, :]
                     + err.points[None, :, :] * np.array([mesh.dx, mesh.dy])))


_tables_cache: "weakref.WeakKeyDictionary[Mesh, Q1Tables]" = weakref.WeakKeyDictionary()


def tables(mesh: Mesh) -> Q1Tables:
    """Per-mesh table cache; cheap to call repeatedly."""
    tab = _tables_cache.get(mesh)
    if tab is None:
        tab = Q1Tables(mesh)
        _tables_cache[mesh] = tab
    return tab


# -- trace operators ---------------------------------------------------------

def jump(field: DGField, face: Face, s=0.5):
    """Jump of ``field`` across a face at face parameter(s) ``s`` in [0, 1]:
    trace from k1 minus trace from k2.  On boundary faces the single trace
    is returned."""
    s = np.asarray(s, dtype=float)
    one, zero = np.ones_like(s), np.zeros_like(s)
    if face.normal[0] != 0.0:   # vertical face: k1 on its left
        pt1, pt2 = np.stack([one, s], axis=-1), np.stack([zero, s], axis=-1)
    else:                       # horizontal face: k1 below it
        pt1, pt2 = np.stack([s, one], axis=-1), np.stack([s, zero], axis=-1)
    if face.k2 is None:
        # boundary: the element edge that lies on this face
        outward = face.normal[0] + face.normal[1] > 0
        return evaluate(field, face.k1, pt1 if outward else pt2)
    return evaluate(field, face.k1, pt1) - evaluate(field, face.k2, pt2)


# -- projection and norms ----------------------------------------------------

def l2_project(fn, mesh: Mesh, tag: str = "") -> DGField:
    """Elementwise L2 projection of ``fn(x, y)`` onto the broken Q1 space."""
    t = tables(mesh)
    xq, yq = t.qpoints[:, :, 0], t.qpoints[:, :, 1]
    fq = np.asarray(fn(xq, yq), dtype=float)
    fq = np.broadcast_to(fq, xq.shape)
    rhs = np.einsum("eq,jq,q->ej", fq, t.phi, t.wdet)
    try:
        coeffs = np.linalg.solve(t.mass, rhs.T).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - corrupt mesh only
        raise SingularMassMatrixError(str(exc)) from exc
    return DGField(mesh, coeffs, tag)


def broken_gradient_norm(field: DGField) -> float:
    """L2 norm of the elementwise gradient."""
    t = tables(field.mesh)
    gx = field.coeffs @ t.gx
    gy = field.coeffs @ t.gy
    return float(np.sqrt(np.einsum("eq,q->", gx**2 + gy**2, t.wdet)))

def jump_seminorm(field: DGField) -> float:
    """Scaled jump seminorm over interior faces: sum_e h_e^-1 ||[w]||^2."""
    t = tables(field.mesh)
    m = field.mesh
    total = 0.0
    for fids, e1, e2 in ((m.interior_vertical, RIGHT, LEFT),
                         (m.interior_horizontal, TOP, BOTTOM)):
        tr1 = field.coeffs[m.face_k1[fids]] @ t.trace_phi[e1]
        tr2 = field.coeffs[m.face_k2[fids]] @ t.trace_phi[e2]
        d2 = (tr1 - tr2) ** 2
        # h_e^-1 * (h_e * sum w_q d^2) = sum w_q d^2
        total += float(np.einsum("nq,q->", d2, t.face_w))
    return float(np.sqrt(total))


def coercivity_norm(field: DGField) -> float:
    """Broken H1 seminorm plus jump seminorm, the natural DG energy norm."""
    return float(np.hypot(broken_gradient_norm(field), jump_seminorm(field)))


def star_norm(field: DGField) -> float:
    """Coercivity norm strengthened with elementwise normal-flux terms.

    Adds ``sum_K h_K ||grad w . n_K||^2_{L2(boundary of K)}`` over all four
    edges of every element (interior and boundary alike).
    """
    t = tables(field.mesh)
    m = field.mesh
    extra = 0.0
    for edge in (LEFT, RIGHT, BOTTOM, TOP):
        n = EDGE_NORMALS[edge]
        gn = (field.coeffs @ t.trace_gx[edge]) * n[0] \
            + (field.coeffs @ t.trace_gy[edge]) * n[1]
        h_e = m.dy if edge in (LEFT, RIGHT) else m.dx
        extra += h_e * float(np.einsum("eq,q->", gn**2, t.face_w))
    extra *= m.h  # h_K, identical for uniform cells
    return float(np.sqrt(coercivity_norm(field) ** 2 + extra))


def l2_error(field: DGField, exact, time: float | None = None) -> float:
    """Elementwise-quadrature L2 distance between a field and a function.

    ``exact`` is called as ``exact(x, y)`` or ``exact(time, x, y)`` when a
    time is given.
    """
    r = tables(field.mesh).error_rule
    xq, yq = r.qpoints[:, :, 0], r.qpoints[:, :, 1]
    ex = exact(xq, yq) if time is None else exact(time, xq, yq)
    ex = np.broadcast_to(np.asarray(ex, dtype=float), xq.shape)
    diff = field.coeffs @ r.phi - ex
    return float(np.sqrt(np.einsum("eq,q->", diff**2, r.wdet)))

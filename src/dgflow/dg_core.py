"""Discontinuous Q1 finite element machinery on structured quad meshes.

Provides the tensor-product bilinear basis, Gauss quadrature, trace
operators (jump and weighted average), elementwise L2 projection and the
two mesh-dependent norms used to measure DG errors: the coercivity norm
(broken H1 seminorm plus scaled jump seminorm over interior faces) and
its strengthened variant with elementwise normal-derivative boundary
terms.

Per-mesh lookup tables (basis and trace values at quadrature points) are
cached in a weak dictionary keyed by the mesh object; meshes are immutable
so the cache never goes stale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, Element, Face, LEFT, RIGHT, BOTTOM, TOP

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


class DegenerateWeightsError(ValueError):
    """Weighted average requested with non-positive weight sum."""


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


def eval_basis(element: Element, reference_point):
    """Basis values and physical gradients of one element at a reference point.

    Returns ``(values, gradients)`` with shapes (4,) and (4, 2); the
    gradients are mapped through the (diagonal) affine cell map.
    """
    pt = np.asarray(reference_point, dtype=float)
    vals = basis_values(pt)
    grads = basis_gradients(pt).copy()
    dx = element.vertices[1, 0] - element.vertices[0, 0]
    dy = element.vertices[2, 1] - element.vertices[0, 1]
    grads[..., 0] /= dx
    grads[..., 1] /= dy
    return vals, grads


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


def evaluate_at(field: DGField, x, y) -> np.ndarray:
    """Evaluate at physical points, locating elements by lattice index."""
    m = field.mesh
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i = np.clip(((x - m.domain[0]) / m.dx).astype(int), 0, m.nx - 1)
    j = np.clip(((y - m.domain[1]) / m.dy).astype(int), 0, m.ny - 1)
    eid = j * m.nx + i
    ref = np.stack([(x - m.domain[0]) / m.dx - i, (y - m.domain[1]) / m.dy - j],
                   axis=-1)
    return evaluate(field, eid, ref)


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
        self.vol_rule = vol
        self.phi = basis_values(vol.points).T                 # (4, nq)
        gref = basis_gradients(vol.points)                    # (nq, 4, 2)
        self.gx = gref[:, :, 0].T / dx                        # (4, nq)
        self.gy = gref[:, :, 1].T / dy
        self.wdet = vol.weights * (dx * dy)                   # (nq,)
        self.vol_points = vol.points                          # reference coords

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
        self.trace_phi_mid = {}
        for edge, pts in edge_points.items():
            self.trace_phi[edge] = basis_values(pts).T        # (4, nfq)
            g = basis_gradients(pts)
            self.trace_gx[edge] = g[:, :, 0].T / dx
            self.trace_gy[edge] = g[:, :, 1].T / dy
            mid = pts.mean(axis=0)
            self.trace_phi_mid[edge] = basis_values(mid)      # (4,)

        self.elem_dofs = (4 * np.arange(mesh.n_elements)[:, None]
                          + np.arange(4)[None, :])

        # physical volume quadrature coordinates, (n_elements, nq, 2)
        self.qpoints = (mesh.elem_origin[:, None, :]
                        + vol.points[None, :, :] * np.array([dx, dy]))

        # richer rule for error measurement, so the quadrature crime of the
        # reported errors sits far below the discretization error
        err = gauss_2d(ERROR_POINTS)
        self.err_phi = basis_values(err.points).T
        self.err_wdet = err.weights * (dx * dy)
        self.err_qpoints = (mesh.elem_origin[:, None, :]
                            + err.points[None, :, :] * np.array([dx, dy]))


_tables_cache: "weakref.WeakKeyDictionary[Mesh, Q1Tables]" = weakref.WeakKeyDictionary()


def tables(mesh: Mesh) -> Q1Tables:
    """Per-mesh table cache; cheap to call repeatedly."""
    tab = _tables_cache.get(mesh)
    if tab is None:
        tab = Q1Tables(mesh)
        _tables_cache[mesh] = tab
    return tab


# -- trace operators ---------------------------------------------------------

def jump(field_or_pair, face: Face, s=0.5):
    """Jump across a face: trace from k1 minus trace from k2.

    On boundary faces the single trace is returned.  ``field_or_pair`` is
    either a DGField (traces are evaluated at face parameter ``s``) or a
    pair of already-evaluated side values ``(a1, a2)``.
    """
    if isinstance(field_or_pair, DGField):
        a1, a2 = _side_traces(field_or_pair, face, s)
    else:
        a1, a2 = field_or_pair[0], (field_or_pair[1] if face.k2 is not None else None)
    if face.k2 is None:
        return a1
    return a1 - a2


def _side_traces(field: DGField, face: Face, s):
    """Evaluate a field on both sides of a face at parameter s in [0,1]."""
    s = np.asarray(s, dtype=float)
    vertical = face.normal[0] != 0.0
    if vertical:
        e1, e2 = RIGHT, LEFT
        pt1 = np.stack([np.ones_like(s), s], axis=-1)
        pt2 = np.stack([np.zeros_like(s), s], axis=-1)
    else:
        e1, e2 = TOP, BOTTOM
        pt1 = np.stack([s, np.ones_like(s)], axis=-1)
        pt2 = np.stack([s, np.zeros_like(s)], axis=-1)
    if face.k2 is None:
        # boundary: pick the element edge that lies on this face
        sign = face.normal[0] + face.normal[1]
        pt = pt1 if sign > 0 else pt2
        return evaluate(field, face.k1, pt), None
    return evaluate(field, face.k1, pt1), evaluate(field, face.k2, pt2)


def weighted_average(a1, a2, A1, A2):
    """Coefficient-weighted face average ``w1*a1 + w2*a2``.

    The weights are ``w1 = A2/(A1+A2)`` and ``w2 = A1/(A1+A2)``; equal
    coefficients reduce to the arithmetic mean.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    denom = A1 + A2
    if np.any(denom <= 0.0):
        raise DegenerateWeightsError("weight sum A1 + A2 must be positive")
    return (A2 * np.asarray(a1) + A1 * np.asarray(a2)) / denom


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
    t = tables(field.mesh)
    xq, yq = t.err_qpoints[:, :, 0], t.err_qpoints[:, :, 1]
    ex = exact(xq, yq) if time is None else exact(time, xq, yq)
    ex = np.broadcast_to(np.asarray(ex, dtype=float), xq.shape)
    diff = field.coeffs @ t.err_phi - ex
    return float(np.sqrt(np.einsum("eq,q->", diff**2, t.err_wdet)))


def l2_norm(field: DGField) -> float:
    t = tables(field.mesh)
    vals = field.coeffs @ t.phi
    return float(np.sqrt(np.einsum("eq,q->", vals**2, t.wdet)))

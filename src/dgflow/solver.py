"""Sparse linear solves and the sequential-implicit time loop.

Each step solves, in order: the pressure system, the RT0 velocity
projection, the aqueous saturation, the vapor saturation.  All three
solves are linear because the nonlinear coefficients are lagged; no
sub-iteration is performed.  Stored saturation fields are never clamped,
clamping happens only inside coefficient evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import LaggedCoefficients, LinearSystem, SchemeConfig
from .dg_core import DGField, coercivity_norm, l2_error, l2_project
from .mesh import Mesh


class SingularSystemError(RuntimeError):
    """Direct factorization failed or produced a non-finite solution."""


class NonConvergenceError(RuntimeError):
    """Iterative backend missed the requested tolerance."""


#: relative residual tolerance for every implicit solve; two orders below
#: the smallest error magnitudes resolved by the verification studies
SOLVER_TOL = 1e-12


@dataclass
class PhaseState:
    """Discrete solution triple at one time level."""

    pressure: DGField
    sat_a: DGField
    sat_v: DGField
    step: int = 0
    time: float = 0.0

    @property
    def mesh(self) -> Mesh:
        return self.pressure.mesh


@dataclass(frozen=True)
class TimeConfig:
    """Uniform partition of [0, T] into ``n_steps`` steps of size tau."""

    tau: float
    t_final: float
    n_steps: int

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if abs(self.n_steps * self.tau - self.t_final) > 1e-12:
            raise ValueError(
                f"n_steps * tau = {self.n_steps * self.tau} != T = {self.t_final}")

    @classmethod
    def from_step(cls, tau: float, t_final: float) -> "TimeConfig":
        n = int(round(t_final / tau)) if t_final > 0 else 0
        return cls(tau, t_final, n)


def solve_linear(system: LinearSystem, tolerance: float = SOLVER_TOL,
                 method: str = "direct") -> np.ndarray:
    """Solve one constrained system to the requested relative residual.

    The default backend is a direct sparse LU factorization (the systems
    are nonsymmetric for theta in {0, 1}).  Everything that depends only on
    the sparsity pattern is kept in a plan, built at the first solve on a
    pattern and reused by every later one (every system on a mesh shares
    one pattern before constraints, see ``assembly._block_pattern``):

    * the symmetric order ``q``: minimum degree on the pattern of A + A^T
      (SuperLU's ``MMD_AT_PLUS_A``, whose ``perm_c`` is the inverse of
      ``q``).  The DG matrices are structurally symmetric, and this order
      roughly halves the LU fill against SuperLU's default COLAMD;
    * a map from the CSR ``data`` straight into the CSC arrays of
      ``A[q][:, q]``, which is then factored in its ``NATURAL`` order.

    The factor is single precision, and the solution is refined against
    the double-precision matrix until the residual stops halving.  A
    residual within ``tolerance`` is not enough: stopping there moved the
    64x64 pressure error by 1.7e-7 relative after six steps, where the
    verification tables allow 1e-10; at stagnation x is as accurate as a
    double-precision factor gives it.  If the refined residual misses the
    bound (condition numbers above about 1e7) or the single-precision
    factorization fails, the same plan is factored in double precision.
    A solve that builds the plan returns the same bits as one that reuses
    it.  ``method="iterative"`` runs ILU-preconditioned GMRES to the same
    tolerance.
    """
    b = system.rhs
    bound = tolerance * (1.0 + np.linalg.norm(b))
    if method == "direct":
        x = _direct_solve(system.matrix, b, bound)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("direct solve returned non-finite values")
        res = np.linalg.norm(system.matrix @ x - b)
        if res > bound:
            raise SingularSystemError(
                f"direct solve residual {res:.3e} exceeds {bound:.3e}")
        return x
    if method == "iterative":
        ilu = spla.spilu(system.matrix.tocsc(), drop_tol=1e-8, fill_factor=20)
        prec = spla.LinearOperator(system.matrix.shape, ilu.solve)
        x, info = spla.gmres(system.matrix, b, rtol=tolerance, atol=bound,
                             M=prec, maxiter=2000)
        res = np.linalg.norm(system.matrix @ x - b)
        if info != 0 or res > bound:
            raise NonConvergenceError(
                f"gmres failed (info={info}, residual={res:.3e})")
        return x
    raise ValueError(f"unknown method {method!r}")


#: factor plans, one per constrained sparsity pattern
_factor_plans = assembly.PlanCache(assembly.PLAN_CACHE_SIZE)


def _direct_solve(matrix, b: np.ndarray, bound: float) -> np.ndarray:
    A = matrix.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    try:
        plan = _factor_plans.get((A.indptr, A.indices), lambda: _factor_plan(A))
        try:
            x, res = _refined_solve(A, b, plan, np.float32)
            if res <= bound:
                return x
        except RuntimeError:
            pass
        return _refined_solve(A, b, plan, np.float64)[0]
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def _factor_plan(A: sps.csr_matrix) -> SimpleNamespace:
    """The symmetric minimum-degree order of ``A``'s pattern and the map
    from its CSR ``data`` to the CSC arrays of ``A[q][:, q]``.

    The order is read off a single-precision factorization (double if that
    one fails): it depends on the pattern only, and the smaller factor keeps
    the peak memory of the first solve at that of the later ones.
    """
    n = A.shape[0]
    csc = A.tocsc()
    try:
        lu = spla.splu(csc.astype(np.float32), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A")
    order = np.argsort(lu.perm_c).astype(A.indices.dtype)
    position = np.empty(n, dtype=A.indices.dtype)
    position[order] = np.arange(n, dtype=A.indices.dtype)
    rows = position[np.repeat(np.arange(n), np.diff(A.indptr))]
    cols = position[A.indices]
    gather = np.lexsort((rows, cols)).astype(A.indices.dtype)
    indptr = np.zeros(n + 1, dtype=A.indices.dtype)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return SimpleNamespace(order=order, gather=gather, indptr=indptr,
                           indices=rows[gather])


def _refined_solve(A, b, plan, dtype):
    """Factor ``A[q][:, q]`` in ``dtype`` and refine x until the residual
    ``b - A x`` stops halving; returns x and that residual's norm."""
    data = A.data.astype(dtype, copy=False)[plan.gather]
    lu = spla.splu(sps.csc_matrix((data, plan.indices, plan.indptr), shape=A.shape),
                   permc_spec="NATURAL")

    def solve(r):
        x = np.empty_like(r)
        x[plan.order] = lu.solve(r[plan.order].astype(dtype, copy=False))
        return x

    x = solve(b)
    r = b - A @ x
    res = np.linalg.norm(r)
    while True:
        x_new = x + solve(r)
        r_new = b - A @ x_new
        res_new = np.linalg.norm(r_new)
        if not res_new < 0.5 * res:
            return (x_new, res_new) if res_new < res else (x, res)
        x, r, res = x_new, r_new, res_new


def initialize(case, mesh: Mesh) -> PhaseState:
    """Starting state: elementwise L2 projections of the exact fields at t=0."""
    return PhaseState(
        pressure=l2_project(lambda x, y: case.pressure(0.0, x, y), mesh, "pressure"),
        sat_a=l2_project(lambda x, y: case.sat_a(0.0, x, y), mesh, "sat_a"),
        sat_v=l2_project(lambda x, y: case.sat_v(0.0, x, y), mesh, "sat_v"),
        step=0, time=0.0,
    )


def advance(state: PhaseState, tau: float, cfg: SchemeConfig, case) -> PhaseState:
    """One sequential-implicit step: pressure, velocity, aqueous, vapor."""
    mesh = state.mesh
    t_next = state.time + tau
    coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    try:
        sys_p = assembly.assemble_pressure(state, mesh, cfg, case, t_next, coeffs)
        p_new = DGField.from_vector(mesh, solve_linear(sys_p), "pressure")
        velocity = assembly.rt0_project(p_new, state, mesh, cfg, coeffs)
        sys_a = assembly.assemble_aqueous(state, p_new, velocity, mesh, cfg,
                                          case, tau, t_next, coeffs)
        sa_new = DGField.from_vector(mesh, solve_linear(sys_a), "sat_a")
        sys_v = assembly.assemble_vapor(state, p_new, sa_new, velocity, mesh,
                                        cfg, case, tau, t_next, coeffs)
        sv_new = DGField.from_vector(mesh, solve_linear(sys_v), "sat_v")
    except (SingularSystemError, NonConvergenceError) as exc:
        raise type(exc)(f"step {state.step} -> {state.step + 1}: {exc}") from exc
    return PhaseState(p_new, sa_new, sv_new, state.step + 1, t_next)


@dataclass
class ErrorReport:
    """Final-time error measures of one run."""

    h: float
    dofs: int
    l2_pressure: float
    l2_sat_a: float
    l2_sat_v: float
    energy_pressure: float
    energy_sat_a: float
    energy_sat_v: float
    saturations_in_bounds: bool


def run(case, mesh: Mesh, time: TimeConfig, cfg: SchemeConfig):
    """March the scheme to the final time and report errors.

    Returns ``(final_state, ErrorReport)`` with elementwise L2 errors
    against the exact fields and coercivity-norm errors against their L2
    projections at the final time.
    """
    state = initialize(case, mesh)
    in_bounds = _saturations_in_bounds(state)
    for _ in range(time.n_steps):
        state = advance(state, time.tau, cfg, case)
        in_bounds = in_bounds and _saturations_in_bounds(state)

    t_end = state.time
    proj_p = l2_project(lambda x, y: case.pressure(t_end, x, y), mesh)
    proj_a = l2_project(lambda x, y: case.sat_a(t_end, x, y), mesh)
    proj_v = l2_project(lambda x, y: case.sat_v(t_end, x, y), mesh)
    report = ErrorReport(
        h=mesh.dx,
        dofs=4 * mesh.n_elements,
        l2_pressure=l2_error(state.pressure, case.pressure, t_end),
        l2_sat_a=l2_error(state.sat_a, case.sat_a, t_end),
        l2_sat_v=l2_error(state.sat_v, case.sat_v, t_end),
        energy_pressure=coercivity_norm(
            DGField(mesh, state.pressure.coeffs - proj_p.coeffs)),
        energy_sat_a=coercivity_norm(
            DGField(mesh, state.sat_a.coeffs - proj_a.coeffs)),
        energy_sat_v=coercivity_norm(
            DGField(mesh, state.sat_v.coeffs - proj_v.coeffs)),
        saturations_in_bounds=in_bounds,
    )
    return state, report


def _saturations_in_bounds(state: PhaseState) -> bool:
    # bilinear extrema sit at the corner nodes, so nodal bounds suffice
    return bool(
        state.sat_a.coeffs.min() > 0.0 and state.sat_a.coeffs.max() < 1.0
        and state.sat_v.coeffs.min() > 0.0 and state.sat_v.coeffs.max() < 1.0)

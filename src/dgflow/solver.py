"""Sparse linear solves and the sequential-implicit time loop.

Each step solves, in order: the pressure system, the RT0 velocity
projection, the aqueous saturation, the vapor saturation.  All three
solves are linear because the nonlinear coefficients are lagged; no
sub-iteration is performed.  Stored saturation fields are never clamped,
clamping happens only inside coefficient evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
    are nonsymmetric for theta in {0, 1}).  Its columns are ordered by
    minimum degree on the pattern of A + A^T: the DG matrices are
    structurally symmetric, so this ordering roughly halves the LU fill and
    the factorization time against SuperLU's default COLAMD.  Every
    system on a mesh shares one fixed sparsity pattern (see
    ``assembly._block_pattern``).  ``method="iterative"`` runs
    ILU-preconditioned GMRES to the same tolerance.
    """
    b = system.rhs
    bound = tolerance * (1.0 + np.linalg.norm(b))
    if method == "direct":
        try:
            lu = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
            x = lu.solve(b)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
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

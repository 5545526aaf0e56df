"""Sparse linear solves and the sequential-implicit time loop.

Each step solves, in order: the pressure system, the RT0 velocity
projection, the aqueous saturation, the vapor saturation.  All three
solves are linear because the nonlinear coefficients are lagged; no
sub-iteration is performed.  Stored saturation fields are never clamped,
clamping happens only inside coefficient evaluation.

What runs where.  Because the coefficients are lagged, the two saturation
matrices depend only on the previous state, tau and the Dirichlet DOFs;
only their right-hand sides need the new pressure.  So every step of
:func:`advance`, at any mesh size, builds and constrains both before it
assembles the pressure system and hands them to a helper process, which
factors them while this process solves the pressure system, then solves
them from their right-hand sides.  With one usable CPU, off POSIX, or if
the helper failed to start, they are solved here, in the serial order.

* The helper is a second interpreter, started at a process's first step
  (never at import) and waited for once, that lives as long as this
  process.  It exits when its pipe reaches EOF: when this process closes
  it at exit, or dies, even by SIGKILL.  If it dies, the next step starts
  another; a step that loses it builds its saturation matrices again and
  solves them here.
* Its costs (gravity case, single-threaded BLAS, 2 vCPUs; see the README
  and ``tools/helper_sweep.py``, ``tools/memory_phases.py``): a start of
  about 0.35 s on the first step (a three-level CLI ladder to 8x8: 1.0 s
  against 0.53 s); faster steps from 32x32 up (64x64: about 0.8 of the
  in-process step), no resolved gain below; and a peak of about 95 MB
  (145 MB at 64x64) beside this process's 104 (149) MB.
* Both processes factor and refine with the same code
  (:class:`_Factorization`): the single-precision factor, refinement to
  stagnation, the double-precision fallback, the non-finite check and the
  ``SOLVER_TOL`` residual check.  So the new state has the same bits
  wherever a system was solved.
* The helper, like the factor plan cache, is module state behind the stateless
  public calls; the time loop is not safe to run from several threads of
  one process at once.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import multiprocessing.connection
import os
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import (LaggedCoefficients, LinearSystem, NonPositiveCoefficientError,
                       SchemeConfig)
from .dg_core import DGField, coercivity_norm, l2_error, l2_project
from .manufactured import UNKNOWNS, NonFiniteFieldError
from .mesh import Mesh


class SingularSystemError(RuntimeError):
    """Direct factorization failed or produced a non-finite solution."""


class NonConvergenceError(RuntimeError):
    """An iterative solve missed the requested tolerance.  Nothing in the
    package raises it now that every solve is direct; it stays in
    :data:`STEP_ERRORS` because callers catch it by name."""


#: errors that ``advance`` prefixes with the step and ``convergence_study``
#: with the ladder level
STEP_ERRORS = (SingularSystemError, NonConvergenceError, NonPositiveCoefficientError,
               NonFiniteFieldError)

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


def solve_linear(system: LinearSystem) -> np.ndarray:
    """Solve one constrained system to the relative residual ``SOLVER_TOL``.

    The solve is a direct sparse LU factorization (the systems
    are nonsymmetric for theta in {0, 1}).  Everything that depends only on
    the sparsity pattern is kept in a plan, built at the first solve on a
    pattern and reused by every later one (every system on a mesh,
    constrained or not, has the mesh's pattern, see
    ``assembly._block_pattern``):

    * the symmetric order ``q``: minimum degree on the pattern of A + A^T
      (SuperLU's ``MMD_AT_PLUS_A``, whose ``perm_c`` is the inverse of
      ``q``).  The DG matrices are structurally symmetric, and this order
      roughly halves the LU fill against SuperLU's default COLAMD;
    * a map from the CSR ``data`` straight into the CSC arrays of
      ``A[q][:, q]``, which is then factored in its ``NATURAL`` order.

    The factor is single precision, and the solution is refined against
    the double-precision matrix until the residual stops halving.  A
    residual within ``SOLVER_TOL`` is not enough: stopping there moved the
    64x64 pressure error by 1.7e-7 relative after six steps, where the
    verification tables allow 1e-10; at stagnation x is as accurate as a
    double-precision factor gives it.  If the refined residual misses the
    bound (condition numbers above about 1e7) or the single-precision
    factorization fails, the same plan is factored in double precision.
    A solve that builds the plan returns the same bits as one that reuses
    it, and the saturation solves that :func:`advance` hands to its helper
    process run this same code (:class:`_Factorization`).
    """
    return _Factorization(system.matrix).solve(system.rhs)


#: factor plans kept: a plan serves every system on one mesh, so this holds
#: the meshes of a ladder with room to spare
PLAN_CACHE_SIZE = 12

#: ``((indptr, indices), plan)`` per sparsity pattern, most recently used first
_factor_plans: list[tuple[tuple, SimpleNamespace]] = []


def _plan_for(A: sps.csr_matrix) -> SimpleNamespace:
    """The factor plan of ``A``'s pattern, kept in :data:`_factor_plans`.
    Keys are compared element by element; a writable key array is copied,
    so that changing the caller's array later cannot re-label a plan."""
    key = (A.indptr, A.indices)
    for i, (k, plan) in enumerate(_factor_plans):
        if all(np.array_equal(a, b) for a, b in zip(k, key)):
            _factor_plans.insert(0, _factor_plans.pop(i))
            return plan
    plan = _factor_plan(A)
    kept = tuple(a if not a.flags.writeable else a.copy() for a in key)
    _factor_plans.insert(0, (kept, plan))
    del _factor_plans[PLAN_CACHE_SIZE:]
    return plan


class _Factorization:
    """A matrix with its plan and single-precision factor, made when the
    matrix is given; :meth:`solve` refines against it, falls back to double
    precision and checks the result.  A failed factorization is kept and
    reported by :meth:`solve`, so a system handed over early fails where
    it is solved."""

    def __init__(self, matrix):
        A = matrix.tocsr()
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        self.A, self.plan, self.solve32, self.error = A, None, None, None
        try:
            self.plan = _plan_for(A)
            self.solve32 = _factor(A, self.plan, np.float32)
        except RuntimeError as exc:
            self.error = exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        bound = SOLVER_TOL * (1.0 + np.linalg.norm(b))
        try:
            x = self._refined(b, bound)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("direct solve returned non-finite values")
        res = np.linalg.norm(self.A @ x - b)
        if res > bound:
            raise SingularSystemError(
                f"direct solve residual {res:.3e} exceeds {bound:.3e}")
        return x

    def _refined(self, b, bound):
        if self.plan is None:
            raise self.error
        if self.solve32 is not None:
            try:
                x, res = _refine(self.A, b, self.solve32)
                if res <= bound:
                    return x
            except RuntimeError:
                pass
        return _refine(self.A, b, _factor(self.A, self.plan, np.float64))[0]


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


def _factor(A, plan, dtype):
    """Factor ``A[q][:, q]`` in ``dtype``; returns ``r -> A^-1 r`` through
    that factor."""
    data = A.data.astype(dtype, copy=False)[plan.gather]
    lu = spla.splu(sps.csc_matrix((data, plan.indices, plan.indptr), shape=A.shape),
                   permc_spec="NATURAL")

    def solve(r):
        x = np.empty_like(r)
        x[plan.order] = lu.solve(r[plan.order].astype(dtype, copy=False))
        return x

    return solve


def _refine(A, b, solve):
    """Refine x against ``A`` until the residual ``b - A x`` stops halving;
    returns x and that residual's norm."""
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


# -- where the saturation systems are factored ------------------------------

#: how long a new helper may take to import the solver (about 0.35 s)
HELPER_START_S = 60.0


class _HelperLost(Exception):
    """The helper process died or its pipe broke; it has been shut down."""


class _Helper:
    """A helper interpreter that factors saturation systems as soon as it
    gets them and solves them on request (:func:`_serve`).

    It is a new interpreter, not a fork of this one: a fork is unsafe in a
    process with threads, and it leaves the forking process with about 10%
    more page faults in allocation-heavy calls for the rest of its life,
    even after the child has exited.  The caller waits for its imports,
    because a step run meanwhile would compete with them.

    A factor request sends every matrix of one batch before the helper
    factors the first; its own plan cache recognises a pattern it has
    seen.  Any failure while a request is in flight shuts the helper down,
    so no later request reads a stale reply.
    """

    def __init__(self):
        self.conn, child = multiprocessing.Pipe()
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # a terminal's ^C interrupts this process only; the helper ends at EOF
        code = (f"import signal; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                f"import sys; sys.path.insert(0, {package_root!r}); "
                f"from dgflow.solver import _serve; _serve({child.fileno()})")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", code], pass_fds=(child.fileno(),),
                stdin=subprocess.DEVNULL)
        except BaseException:
            self.conn.close()
            raise
        finally:
            child.close()
        self.owner = os.getpid()
        atexit.register(self.close)
        if not self._call(self.conn.poll, HELPER_START_S) or self._call(self.conn.recv) != "ready":
            self.close()
            raise _HelperLost("the helper did not start")

    def alive(self) -> bool:
        # a process forked from the owner inherits this object, not the helper
        return (self.owner == os.getpid() and not self.conn.closed
                and self.process.poll() is None)

    def factor(self, matrices: dict) -> None:
        # the arrays follow the header as raw bytes: a pickled batch is a
        # transient copy of both matrices, which at 64x64 raised this
        # process's peak memory by about 3 MB (2%)
        arrays = [np.ascontiguousarray(a) for A in matrices.values()
                  for a in (A.indptr, A.indices, A.data)]
        self._call(self.conn.send, ("factor", list(matrices), [a.dtype.str for a in arrays]))
        for a in arrays:
            self._call(self.conn.send_bytes, a)

    def solve(self, key, b: np.ndarray) -> np.ndarray:
        self._call(self.conn.send, ("solve", key, b))
        reply = self._call(self.conn.recv)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def _call(self, fn, *args):
        try:
            return fn(*args)
        except (OSError, EOFError) as exc:
            self.close()
            raise _HelperLost(str(exc)) from exc
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the pipe, which ends the helper, and reap it."""
        atexit.unregister(self.close)
        self.conn.close()
        if self.owner == os.getpid():
            try:
                self.process.wait(timeout=1)
            except subprocess.TimeoutExpired:   # busy with a request
                self.process.kill()
                self.process.wait()


def _serve(fd: int) -> None:
    """The helper's loop: factor batches and solve requests until EOF,
    which comes when the parent closes its end or exits, even by SIGKILL."""
    conn = multiprocessing.connection.Connection(fd)
    conn.send("ready")
    factors = {}
    while True:
        try:
            request = conn.recv()
            if request[0] == "factor":
                factors.clear()
                arrays = [np.frombuffer(conn.recv_bytes(), dtype=d) for d in request[2]]
        except EOFError:
            return
        if request[0] == "factor":
            for i, key in enumerate(request[1]):
                indptr, indices, data = arrays[3 * i:3 * i + 3]
                n = len(indptr) - 1
                factors[key] = _Factorization(
                    sps.csr_matrix((data, indices, indptr), shape=(n, n)))
            continue
        _, key, b = request
        try:
            reply = factors.pop(key).solve(b)
        except Exception as exc:   # relayed to the caller, which raises it
            reply = exc
        conn.send(reply)


_helper: _Helper | None = None
_helper_failed = False


def _helper_for() -> _Helper | None:
    """The helper, started or restarted here, if this machine can run it."""
    global _helper, _helper_failed
    if _helper_failed or not _can_run_helper():
        return None
    if _helper is not None and not _helper.alive():
        _helper.close()
        _helper = None
    if _helper is None:
        try:
            _helper = _Helper()
        except Exception:
            _helper_failed = True   # solve here, and do not try again at every step
    return _helper


def _can_run_helper() -> bool:
    return (os.name == "posix" and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class _SaturationSolves:
    """The saturation solves of one step.  With the helper, both matrices
    are built and handed over here, before the pressure solve, and this
    process keeps only what constrains each right-hand side; if the helper
    is lost, a matrix is built again and solved here.  Without it, nothing
    would run beside the pressure solve, so each matrix is built when it is
    solved, in the serial order: building both first made 16x16 steps 4%
    slower and their peak memory 0.5% higher."""

    def __init__(self, state, cfg, case, tau, t_next, coeffs: LaggedCoefficients):
        self.state, self.cfg, self.case, self.tau, self.t_next, self.coeffs = (
            state, cfg, case, tau, t_next, coeffs)
        self.helper = _helper_for()
        self.constraints = {}
        if self.helper is None:
            return
        matrices = {}
        for phase in "av":
            matrices[phase], *self.constraints[phase] = self._matrix(phase)
        try:
            self.helper.factor(matrices)
        except _HelperLost:
            self.helper = None

    def _matrix(self, phase):
        return assembly._saturation_matrix(phase, self.state.mesh, self.cfg, self.case,
                                           self.tau, self.t_next, self.coeffs)

    def solve(self, phase: str, p_new: DGField, velocity) -> DGField:
        state = self.state
        rhs = assembly._saturation_rhs(state.mesh, self.coeffs, self.case, self.t_next,
                                       self.tau, velocity, phase,
                                       getattr(state, "sat_" + phase), p_new)
        if self.helper is None:
            matrix, dofs, values = self._matrix(phase)
            rhs[dofs] = values
            x = _Factorization(matrix).solve(rhs)
        else:
            dofs, values = self.constraints.pop(phase)
            rhs[dofs] = values
            try:
                x = self.helper.solve(phase, rhs)
            except _HelperLost:
                x = _Factorization(self._matrix(phase)[0]).solve(rhs)
        return DGField.from_vector(state.mesh, x, "sat_" + phase)


def initialize(case, mesh: Mesh) -> PhaseState:
    """Starting state: elementwise L2 projections of the exact fields at t=0."""
    state = PhaseState(*(l2_project(functools.partial(getattr(case, u), 0.0), mesh, u)
                         for u in UNKNOWNS), step=0, time=0.0)
    for u in UNKNOWNS:
        bad = np.flatnonzero(~np.isfinite(getattr(state, u).coeffs).all(axis=1))
        if bad.size:
            raise NonFiniteFieldError(f"the initial {u} is not finite on element {bad[0]}")
    return state


def advance(state: PhaseState, tau: float, cfg: SchemeConfig, case) -> PhaseState:
    """One sequential-implicit step: pressure, velocity, aqueous, vapor.

    The saturation matrices are built first, from the lagged coefficients,
    and handed over to be factored.  Then come the pressure solve, the
    RT0 projection and the two saturation right-hand sides and solves.
    The new state has the same bits wherever the saturations are solved.
    Errors raised by the solves or the coefficient checks name the step.
    """
    mesh = state.mesh
    t_next = state.time + tau
    try:
        coeffs = LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
        saturations = _SaturationSolves(state, cfg, case, tau, t_next, coeffs)
        p_new = DGField.from_vector(mesh, solve_linear(assembly.assemble_pressure(
            state, mesh, cfg, case, t_next, coeffs)), "pressure")
        velocity = assembly.rt0_project(p_new, state, mesh, cfg, coeffs)
        sa_new = saturations.solve("a", p_new, velocity)
        sv_new = saturations.solve("v", p_new, velocity)
    except STEP_ERRORS as exc:
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
    errors = {}
    for u in UNKNOWNS:
        exact, field = getattr(case, u), getattr(state, u)
        proj = l2_project(functools.partial(exact, t_end), mesh)
        errors["l2_" + u] = l2_error(field, exact, t_end)
        errors["energy_" + u] = coercivity_norm(DGField(mesh, field.coeffs - proj.coeffs))
    return state, ErrorReport(h=mesh.dx, dofs=4 * mesh.n_elements,
                              saturations_in_bounds=in_bounds, **errors)


def _saturations_in_bounds(state: PhaseState) -> bool:
    # bilinear extrema sit at the corner nodes, so nodal bounds suffice
    return all(s.coeffs.min() > 0.0 and s.coeffs.max() < 1.0
               for s in (state.sat_a, state.sat_v))

"""Spans around public dgflow calls, recorded from outside the package.

The traced benchmark run wraps each layer it calls, or reaches through a
module attribute, in a :class:`Tracer` span.  Spans stay in memory and are
aggregated when the run ends.  A span's self time is its duration minus
the time its direct children cover, so ``assembly.aqueous`` excludes the
``manufactured.eval`` and ``physics.closure`` spans opened inside it.
"""

from __future__ import annotations

import functools
import itertools
import statistics
from contextlib import ExitStack, contextmanager
from time import perf_counter
from unittest import mock

import numpy as np

from dgflow import assembly, dg_core, harness, physics, solver
from dgflow.assembly import LinearSystem
from dgflow.dg_core import DGField
from dgflow.solver import NonConvergenceError, PhaseState, SingularSystemError

#: case callables evaluated during a step: three sources, three boundary data
CASE_CALLABLES = ("source_total", "source_aqueous", "source_vapor",
                  "boundary_pressure", "boundary_sat_a", "boundary_sat_v")

#: closures that ``assembly`` reaches through the ``physics`` module attribute
CLOSURES = ("clamp", "mobilities", "capillary_pressure_a", "capillary_pressure_v")

_NAME, _START, _END, _OP, _STEP, _CHILD = range(6)


class Tracer:
    """In-memory span recorder for one benchmark process.

    ``op`` and ``step`` identify the operation and time step a span belongs
    to; every span opened while they are set carries them.
    """

    def __init__(self):
        self.records: list[list] = []
        self._open: list[list] = []
        self.op = None
        self.step = None
        self.residual_max = 0.0
        self.nnz: dict[str, int] = {}
        self.failures = 0

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self.op, self.step, 0.0]
        self.records.append(rec)
        self._open.append(rec)
        try:
            yield
        finally:
            rec[_END] = perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][_CHILD] += rec[_END] - rec[_START]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- aggregation ----------------------------------------------------------

    def totals(self, name: str, per: str, count: bool = False) -> list[float]:
        """Self time in ms of the spans called ``name`` (or starting with
        it, if it ends in "."), summed per ``"step"`` or per ``"op"``; the
        number of those spans instead, if ``count``.  Every step or op that
        has any span gets a value."""
        out = {}
        for r in self.records:
            if r[_OP] is None or (per == "step" and r[_STEP] is None):
                continue
            key = r[_OP] if per == "op" else (r[_OP], r[_STEP])
            out.setdefault(key, 0)
            if r[_NAME].startswith(name) if name.endswith(".") else r[_NAME] == name:
                out[key] += 1 if count else _self_s(r) * 1e3
        return list(out.values())

    def last_durations_s(self, name: str) -> dict:
        """Duration of the last ``name`` span of each operation."""
        return {r[_OP]: r[_END] - r[_START] for r in self.records if r[_NAME] == name}


def _self_s(rec) -> float:
    return rec[_END] - rec[_START] - rec[_CHILD]


def median(values) -> float:
    return float(statistics.median(values))


# -- the traced step ----------------------------------------------------------

def replay_advance(state: PhaseState, tau: float, cfg, case, tracer: Tracer) -> PhaseState:
    """``solver.advance`` rebuilt from public calls, one span per layer.

    The order of calls and their arguments are those of ``advance``, so the
    new state is bit-identical to it; the benchmark checks that.
    """
    mesh = state.mesh
    t_next = state.time + tau
    with tracer.span("assembly.coeffs"):
        coeffs = assembly.LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    p_new = _solve(tracer, "pressure", assembly.assemble_pressure,
                   state, mesh, cfg, case, t_next, coeffs)
    p_new = DGField.from_vector(mesh, p_new, "pressure")
    with tracer.span("assembly.rt0"):
        velocity = assembly.rt0_project(p_new, state, mesh, cfg, coeffs)
    sa_new = _solve(tracer, "aqueous", assembly.assemble_aqueous, state, p_new,
                    velocity, mesh, cfg, case, tau, t_next, coeffs)
    sa_new = DGField.from_vector(mesh, sa_new, "sat_a")
    sv_new = _solve(tracer, "vapor", assembly.assemble_vapor, state, p_new, sa_new,
                    velocity, mesh, cfg, case, tau, t_next, coeffs)
    sv_new = DGField.from_vector(mesh, sv_new, "sat_v")
    return PhaseState(p_new, sa_new, sv_new, state.step + 1, t_next)


def _solve(tracer: Tracer, system: str, assemble, *args) -> np.ndarray:
    with tracer.span("assembly." + system):
        raw = assemble(*args, constrain=False)
    with tracer.span("assembly.dirichlet"):
        matrix, rhs = assembly.apply_dirichlet(
            raw.matrix, raw.rhs, raw.constrained_dofs, raw.constrained_values)
    constrained = LinearSystem(matrix, rhs, raw.constrained_dofs, raw.constrained_values)
    try:
        with tracer.span("solver." + system):
            x = solver.solve_linear(constrained)
    except (SingularSystemError, NonConvergenceError):
        tracer.failures += 1
        raise
    residual = np.linalg.norm(matrix @ x - rhs) / (1.0 + np.linalg.norm(rhs))
    tracer.residual_max = max(tracer.residual_max, float(residual))
    tracer.nnz[system] = matrix.nnz
    return x


# -- attribute patches for the traced run only --------------------------------

def trace_case(case, tracer: Tracer):
    """Route the case's per-step callables through ``manufactured.eval`` spans."""
    for name in CASE_CALLABLES:
        setattr(case, name, tracer.wrap("manufactured.eval", getattr(case, name)))
    return case


@contextmanager
def traced_closures(tracer: Tracer):
    """Time the closures that ``assembly`` calls as ``physics.<name>``."""
    with ExitStack() as stack:
        for name in CLOSURES:
            stack.enter_context(mock.patch.object(
                physics, name, tracer.wrap("physics.closure", getattr(physics, name))))
        yield


@contextmanager
def traced_ladder(tracer: Tracer):
    """Spans for ``harness.convergence_study``, reached through module attributes.

    ``solver.run`` marks one ladder level and ``solver.advance`` is replaced
    by :func:`replay_advance`, so every step carries the per-layer spans.
    """
    steps = itertools.count()

    def case_by_name(name):
        with tracer.span("manufactured.build"):
            case = harness_case_by_name(name)
        return trace_case(case, tracer)

    def build_uniform_mesh(nx, ny):
        with tracer.span("mesh.build"):
            mesh = harness_mesh(nx, ny)
        with tracer.span("dg_core.tables"):
            dg_core.tables(mesh)
        return mesh

    def advance(state, tau, cfg, case):
        tracer.step = next(steps)
        try:
            return replay_advance(state, tau, cfg, case, tracer)
        finally:
            tracer.step = None

    harness_case_by_name = harness.case_by_name
    harness_mesh = harness.build_uniform_mesh
    patches = [
        (harness, "case_by_name", case_by_name),
        (harness, "build_uniform_mesh", build_uniform_mesh),
        (solver, "run", tracer.wrap("harness.level", solver.run)),
        (solver, "advance", advance),
        (solver, "l2_project", tracer.wrap("dg_core.project", solver.l2_project)),
        (solver, "l2_error", tracer.wrap("dg_core.error", solver.l2_error)),
        (solver, "coercivity_norm", tracer.wrap("dg_core.error", solver.coercivity_norm)),
    ]
    with ExitStack() as stack:
        for module, name, new in patches:
            stack.enter_context(mock.patch.object(module, name, new))
        yield

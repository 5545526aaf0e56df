"""dgflow benchmark: fixed paper scenarios, end-to-end and per layer.

    python3 perfbench/run.py --workload march_64 --seed 1 --seconds 36 --trace 0

One invocation runs one workload in a fresh, single-threaded process as a
closed loop: a single caller starts the next operation when the previous
one has finished.  An operation is one verification run from set-up to
final L2 errors, which are checked against ``reference.json`` to 1e-10
relative.  Rounds of operations repeat while another round still fits in
``--seconds``; the seed shuffles the order of the operations inside each
round.  The inputs are the paper's fixed manufactured scenarios, because a
random case is not a verification case.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations, reports the per-layer metrics from the
traced ones and checks that the traced replay of ``advance`` reproduces
it bit for bit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy loads, so that BLAS runs on the calling thread only.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from unittest import mock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "dgflow" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dgflow sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
import sympy
from sympy.core.cache import clear_cache

from dgflow import dg_core, harness, solver
from dgflow.assembly import SchemeConfig
from dgflow.dg_core import l2_error
from dgflow.manufactured import case_by_name
from dgflow.mesh import build_uniform_mesh

import spans
from spans import Tracer, median

#: relative tolerance of the output check (ROADMAP's "same behaviour")
ERROR_RTOL = 1e-10
SOLVE_ERRORS = (solver.SingularSystemError, solver.NonConvergenceError)


@dataclass(frozen=True)
class March:
    """A fixed mesh stepped through ``solver.advance``."""

    case: str
    n: int
    tau: float
    steps: int

    def mesh_sizes(self):
        return [self.n]


@dataclass(frozen=True)
class Ladder:
    """A ``harness.convergence_study`` refinement table."""

    case: str
    h0: float
    levels: int
    tau_rule: str

    def mesh_sizes(self):
        return [max(1, round(2**level / self.h0)) for level in range(self.levels)]


# Why these three: see BENCHMARK.json and README.md.  march_64 is cut to six
# steps (T = 6/64) so that several operations fit in one run.
WORKLOADS = {
    "ladder_h": Ladder("constant_densities", h0=0.25, levels=4, tau_rule="h"),
    "march_64": March("constant_densities", n=64, tau=1 / 64, steps=6),
    "march_16_gravity_h2": March("gravity", n=16, tau=1 / 256, steps=256),
}


@dataclass
class OpResult:
    """What one operation measured; filled as it goes, so a failed one
    still tells how many solves it attempted."""

    wall_s: float = 0.0
    setup_s: float | None = None
    step_ms: list = field(default_factory=list)
    step_tau: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    final: tuple = ()
    peak_rss_mb: float = 0.0


class _NoSpan:
    """Stands in for a Tracer in untraced operations."""

    def span(self, name):
        return nullcontext()


_NO_SPAN = _NoSpan()


# -- operations ---------------------------------------------------------------

def set_up(spec, tracer=_NO_SPAN):
    """Case build (sympy), each mesh with its first tables, initial state."""
    with tracer.span("manufactured.build"):
        case = case_by_name(spec.case)
    for n in spec.mesh_sizes():
        with tracer.span("mesh.build"):
            mesh = build_uniform_mesh(n, n)
        with tracer.span("dg_core.tables"):
            dg_core.tables(mesh)
        with tracer.span("dg_core.project"):
            state = solver.initialize(case, mesh)
    return case, state


def setup_only(spec) -> float:
    clear_cache()  # every set-up expands the sources as a fresh process does
    t0 = perf_counter()
    set_up(spec)
    return perf_counter() - t0


def march_op(spec: March, res: OpResult, tracer: Tracer | None = None):
    sp = tracer or _NO_SPAN
    clear_cache()
    t0 = perf_counter()
    case, state = set_up(spec, sp)
    res.setup_s = perf_counter() - t0
    cfg = SchemeConfig()
    if tracer:
        spans.trace_case(case, tracer)
        step_fn = lambda s: spans.replay_advance(s, spec.tau, cfg, case, tracer)
    else:
        step_fn = lambda s: solver.advance(s, spec.tau, cfg, case)
    with sp.span("harness.level"):
        for k in range(spec.steps):
            if tracer:
                tracer.step = k
            t = perf_counter()
            state = step_fn(state)
            res.step_ms.append((perf_counter() - t) * 1e3)
            res.step_tau.append(spec.tau)
        if tracer:
            tracer.step = None
        with sp.span("dg_core.error"):
            res.errors = [l2_error(state.pressure, case.pressure, state.time),
                          l2_error(state.sat_a, case.sat_a, state.time),
                          l2_error(state.sat_v, case.sat_v, state.time)]
    res.final = (state.pressure.coeffs, state.sat_a.coeffs, state.sat_v.coeffs)
    res.wall_s = perf_counter() - t0


def ladder_op(spec: Ladder, res: OpResult, tracer: Tracer | None = None):
    config = harness.RunConfig(case=spec.case, levels=spec.levels, h0=spec.h0,
                               tau_rule=spec.tau_rule)
    if tracer:
        patch = spans.traced_ladder(tracer)
    else:
        def timed_advance(*args, _advance=solver.advance):
            t = perf_counter()
            out = _advance(*args)
            res.step_ms.append((perf_counter() - t) * 1e3)
            res.step_tau.append(args[1])
            return out
        patch = mock.patch.object(solver, "advance", timed_advance)
    clear_cache()
    t0 = perf_counter()
    with patch:
        report = harness.convergence_study(config)
    res.errors = [e for lvl in report.levels for e in (lvl.err_p, lvl.err_sa, lvl.err_sv)]
    res.final = tuple(res.errors)
    res.wall_s = perf_counter() - t0


def run_op(spec, res: OpResult, tracer: Tracer | None = None):
    op = march_op if isinstance(spec, March) else ladder_op
    if tracer is None:
        return op(spec, res)
    with spans.traced_closures(tracer), tracer.span("op"):
        return op(spec, res, tracer)


def errors_match(errors, reference) -> bool:
    return len(errors) == len(reference) and all(
        abs(e - r) <= ERROR_RTOL * abs(r) for e, r in zip(errors, reference))


def bitwise_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


# -- the measured loop --------------------------------------------------------

@dataclass
class Run:
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED: " + what)


def measure(spec, reference, seed: int, seconds: float, trace: bool,
            tracer: Tracer | None = None) -> Run:
    """Rounds of operations until another round would overrun ``seconds``."""
    rng = random.Random(seed)
    kinds = ["traced", "plain"] if trace else ["plain", "setup", "setup"]
    run = Run()
    # Warm the code paths (lazy imports, first sympy lambdify, first LU) on a
    # tiny mesh, so that the first measured operation pays no one-off cost.
    march_op(March(spec.case, n=2, tau=0.5, steps=1), OpResult())
    start = perf_counter()
    longest = 0.0
    n_op = 0
    while True:
        r0 = perf_counter()
        order = rng.sample(kinds, len(kinds))
        if not trace and not run.plain:
            # peak_rss_mb is read after the first operation: set-ups before
            # it would add their heap history to it
            order.remove("plain")
            order.insert(0, "plain")
        for kind in order:
            if kind == "setup":
                run.setups.append(setup_only(spec))
                continue
            res = OpResult()
            if kind == "traced":
                tracer.op = n_op
            try:
                run_op(spec, res, tracer if kind == "traced" else None)
            except SOLVE_ERRORS as exc:
                run.attempted += 3 * len(res.step_ms) + 1
                run.failed += 1
                run.notes.append(f"FAILED: {kind} operation: {exc}")
                continue
            finally:
                if tracer:
                    tracer.op = tracer.step = None
            n_op += 1
            res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            run.attempted += 3 * len(res.step_ms)
            run.check(errors_match(res.errors, reference),
                      f"{kind} errors {res.errors} differ from reference {reference}")
            (run.traced if kind == "traced" else run.plain).append(res)
        longest = max(longest, perf_counter() - r0)
        if perf_counter() - start + longest > seconds:
            break
    if trace and run.plain:
        for res in run.traced:
            run.check(bitwise_equal(res.final, run.plain[0].final),
                      "traced replay of advance differs from advance")
    return run


def finest_steps(res: OpResult) -> list:
    """Step times of the finest level (smallest tau): one mesh size, so the
    percentiles describe one distribution rather than where the boundary
    between two levels falls."""
    tau = min(res.step_tau)
    return [ms for ms, t in zip(res.step_ms, res.step_tau) if t == tau]


def end_to_end_metrics(run: Run) -> dict:
    steps = [ms for res in run.plain for ms in finest_steps(res)]
    setups = run.setups + [res.setup_s for res in run.plain if res.setup_s is not None]
    return {
        "wall_s": (median(res.wall_s for res in run.plain), "s"),
        "setup_s": (median(setups), "s"),
        "step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "step_ms_p95": (float(np.percentile(steps, 95)), "ms"),
        # after the first operation: the peak grows by a few MB with every
        # further one in the same process, so later ops would make it depend
        # on how many fitted in the run
        "peak_rss_mb": (run.plain[0].peak_rss_mb, "MB"),
    }


def per_layer_metrics(spec, run: Run, tracer: Tracer) -> dict:
    out = {}
    for name in ("solver.pressure", "solver.aqueous", "solver.vapor",
                 "assembly.coeffs", "assembly.pressure", "assembly.aqueous",
                 "assembly.vapor", "assembly.dirichlet", "assembly.rt0",
                 "manufactured.eval", "physics.closure"):
        out[name + "_ms"] = (median(tracer.totals(name, "step")), "ms")
    out["solver.solves"] = (median(tracer.totals("solver.", "op", count=True)), "count")
    out["solver.failures"] = (tracer.failures, "count")
    out["solver.residual_max"] = (tracer.residual_max, "ratio")
    out["assembly.nnz_pressure"] = (tracer.nnz.get("pressure", 0), "count")
    out["assembly.nnz_saturation"] = (tracer.nnz.get("aqueous", 0), "count")
    out["manufactured.eval_calls"] = (median(tracer.totals("manufactured.eval", "step", count=True)), "count")
    out["physics.closure_calls"] = (median(tracer.totals("physics.closure", "step", count=True)), "count")
    for name in ("manufactured.build", "mesh.build", "dg_core.tables",
                 "dg_core.project", "dg_core.error"):
        out[name + "_ms"] = (median(tracer.totals(name, "op")), "ms")
    levels = tracer.last_durations_s("harness.level")
    ops = tracer.last_durations_s("op")
    out["harness.level_s"] = (median(levels.values()), "s")
    out["harness.finest_share"] = (median(levels[k] / ops[k] for k in levels), "ratio")
    if isinstance(spec, March):
        traced = median(m for res in run.traced for m in res.step_ms)
        plain = median(m for res in run.plain for m in res.step_ms)
    else:
        traced = median(res.wall_s for res in run.traced)
        plain = median(res.wall_s for res in run.plain)
    out["trace_overhead_frac"] = (traced / plain - 1.0, "ratio")
    out["failed_frac"] = (run.failed / max(run.attempted, 1), "ratio")
    return out


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"sympy={sympy.__version__} blas={blas['name']} {blas['version']}")


def report(spec, reference, seed, seconds, trace) -> tuple[dict, Run]:
    """The result line as a dict, and the run it summarises."""
    tracer = Tracer() if trace else None
    run = measure(spec, reference, seed, seconds, trace, tracer)
    ok = run.failed == 0 and bool(run.plain) and (not trace or bool(run.traced))
    metrics = {}
    if ok:
        values = (per_layer_metrics(spec, run, tracer) if trace
                  else end_to_end_metrics(run))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {"correct": ok, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    return result, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {environment()}")
    result, run = report(spec, reference, args.seed, args.seconds, bool(args.trace))
    print(f"# operations: {len(run.plain)} untraced, {len(run.traced)} traced, "
          f"{len(run.setups)} extra set-ups; steps per untraced op: "
          f"{[len(r.step_ms) for r in run.plain]}")
    for note in run.notes:
        print("#", note)
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Main-process and helper memory after each stage of ``solver.advance``.

    python3 tools/memory_phases.py --n 64 --steps 6
    python3 tools/memory_phases.py --n 64 --warmup in-process
    python3 tools/memory_phases.py --n 32 --case gravity --tracemalloc

Marches ``--steps`` steps of ``--case`` on an n x n mesh at tau = 1/n, as
``perfbench/run.py``'s ``march_64`` does, after a one-step 2x2 warm-up run
as perfbench runs it (``--warmup helper``, the default: the saturations go
where ``advance`` sends them), in this process (``--warmup in-process``) or
not at all (``--warmup none``); ``in-process`` patches
``solver._can_run_helper`` to False for the warm-up only.

The real ``advance`` runs; the functions it calls are wrapped so that this
process's memory is read when each returns: the lagged coefficients
(``coefficients``), the saturation hand-over (``hand-over``), the pressure
assembly, the factor plan (first step on a mesh only), every LU
factorisation made here, the refined pressure solve, the RT0 projection
and each saturation solve.  For each it prints ``ru_maxrss`` (the peak
that perfbench reports as ``peak_rss_mb``), how much that peak rose during
the stage, and ``VmRSS``; and for the helper process, if one runs, its
``VmHWM`` and ``VmRSS`` from ``/proc/<pid>/status`` (Linux).  With
``--tracemalloc`` it also prints the bytes that Python's allocator traces
(numpy arrays among them): the live total when the stage ends and the
highest during the stage; tracing costs memory of its own, so the process
figures then read higher.  Single-threaded BLAS, as in perfbench.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dgflow import assembly, solver
from dgflow.assembly import SchemeConfig
from dgflow.manufactured import case_by_name
from dgflow.mesh import build_uniform_mesh

MB = 1024.0


def proc_status(pid) -> dict:
    """``VmHWM`` and ``VmRSS`` of a process in MB, or {} if it is gone."""
    try:
        lines = Path(f"/proc/{pid}/status").read_text().splitlines()
    except OSError:
        return {}
    out = {}
    for line in lines:
        key, _, value = line.partition(":")
        if key in ("VmHWM", "VmRSS"):
            out[key] = int(value.split()[0]) / MB
    return out


class Recorder:
    """Reads memory at named points and prints one row for each."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.step = 0
        self.peak = self._maxrss()

    @staticmethod
    def _maxrss() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB

    def header(self):
        extra = "  traced now/peak MB" if self.traced else ""
        print(f"{'step':>4} {'stage':<18} {'ru_maxrss':>9} {'rise':>6} {'VmRSS':>7}  "
              f"{'helper VmHWM':>12} {'VmRSS':>7}{extra}")

    def sample(self, stage: str):
        peak = self._maxrss()
        rss = proc_status("self").get("VmRSS", float("nan"))
        helper = solver._helper
        h = proc_status(helper.process.pid) if helper is not None and helper.alive() else {}
        line = (f"{self.step:4d} {stage:<18} {peak:9.1f} {peak - self.peak:+6.1f} {rss:7.1f}  "
                f"{h.get('VmHWM', float('nan')):12.1f} {h.get('VmRSS', float('nan')):7.1f}")
        if self.traced:
            now, top = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            line += f"  {now / 2**20:8.1f} {top / 2**20:6.1f}"
        print(line, flush=True)
        self.peak = peak

    def after(self, stage: str, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.sample(stage)
            return out
        return wrapped


def stage_patches(rec: Recorder) -> list:
    """Wrap what ``advance`` calls, where it looks each one up."""
    sat_solve = solver._SaturationSolves.solve

    def saturation_solve(self, phase, *args):
        return rec.after(f"{phase} solve", sat_solve)(self, phase, *args)

    return [
        mock.patch.object(solver, "LaggedCoefficients",
                          rec.after("coefficients", solver.LaggedCoefficients)),
        mock.patch.object(solver, "_SaturationSolves",
                          rec.after("hand-over", solver._SaturationSolves)),
        mock.patch.object(solver._SaturationSolves, "solve", saturation_solve),
        mock.patch.object(assembly, "assemble_pressure",
                          rec.after("pressure assembly", assembly.assemble_pressure)),
        mock.patch.object(solver, "_factor_plan", rec.after("plan", solver._factor_plan)),
        mock.patch.object(solver, "_factor", rec.after("factorisation", solver._factor)),
        mock.patch.object(solver, "solve_linear",
                          rec.after("pressure solve", solver.solve_linear)),
        mock.patch.object(assembly, "rt0_project", rec.after("RT0", assembly.rt0_project)),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", default="constant_densities")
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--warmup", choices=("helper", "in-process", "none"), default="helper")
    ap.add_argument("--tracemalloc", action="store_true")
    args = ap.parse_args(argv)

    case, cfg = case_by_name(args.case), SchemeConfig()
    if args.warmup != "none":
        with (mock.patch.object(solver, "_can_run_helper", lambda: False)
              if args.warmup == "in-process" else nullcontext()):
            solver.advance(solver.initialize(case, build_uniform_mesh(2, 2)), 0.5, cfg, case)
    if args.tracemalloc:
        tracemalloc.start()

    rec = Recorder(args.tracemalloc)
    print(f"# {args.case} {args.n}x{args.n}, tau=1/{args.n}, {args.steps} steps, "
          f"warm-up {args.warmup}")
    rec.header()
    state = solver.initialize(case, build_uniform_mesh(args.n, args.n))
    rec.sample("set-up")
    patches = stage_patches(rec)
    for p in patches:
        p.start()
    try:
        for k in range(args.steps):
            rec.step = k
            state = solver.advance(state, 1 / args.n, cfg, case)
    finally:
        for p in reversed(patches):
            p.stop()
    helper = solver._helper
    hwm = proc_status(helper.process.pid).get("VmHWM") if helper is not None else None
    print(f"# main ru_maxrss {Recorder._maxrss():.1f} MB; helper VmHWM "
          + (f"{hwm:.1f} MB" if hwm is not None else "none (no helper ran)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

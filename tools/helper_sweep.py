"""Step times with and without the saturation helper, over mesh sizes.

    python3 tools/helper_sweep.py --sizes 4 8 16 32 --reps 3

Measures what the saturation helper gains or costs at each mesh size.
For each size n, the gravity case is stepped at tau = 1/n^2 once as
``advance`` chooses (the helper, where the machine can run it) and once in
this process (``solver._can_run_helper`` patched to False), each run in a
new interpreter with single-threaded BLAS; the first ``--warmup`` steps
(the helper's start among them) are not timed.  Repetitions alternate which
mode runs first.  Prints, per size, each mode's median and 95th
percentile step per run, the ratio of the helper's to the in-process
median (taken over runs), in how many runs the helper had the lower 95th
percentile, and in how many the helper did run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def one_run(n: int, mode: str, steps: int, warmup: int) -> dict:
    import numpy as np

    from dgflow import solver
    from dgflow.assembly import SchemeConfig
    from dgflow.manufactured import gravity_case
    from dgflow.mesh import build_uniform_mesh

    if mode == "in-process":
        solver._can_run_helper = lambda: False
    case, cfg = gravity_case(), SchemeConfig()
    state = solver.initialize(case, build_uniform_mesh(n, n))
    ms = []
    for _ in range(warmup + steps):
        t = time.perf_counter()
        state = solver.advance(state, 1 / n**2, cfg, case)
        ms.append((time.perf_counter() - t) * 1e3)
    ms = ms[warmup:]
    return {"p50": float(np.percentile(ms, 50)), "p95": float(np.percentile(ms, 95)),
            "in_helper": solver._helper is not None}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 8, 16, 20, 24, 28, 32])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--warmup", type=int, default=3)
    ap.add_argument("--one", nargs=2, metavar=("N", "MODE"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(one_run(int(args.one[0]), args.one[1], args.steps, args.warmup)))
        return

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs: dict[tuple[int, str], list[dict]] = {}
    for rep in range(args.reps):
        for n in args.sizes:
            modes = ("helper", "in-process") if (rep + n) % 2 else ("in-process", "helper")
            for mode in modes:
                out = subprocess.run(
                    [sys.executable, __file__, "--one", str(n), mode,
                     "--steps", str(args.steps), "--warmup", str(args.warmup)],
                    env=env, check=True, capture_output=True, text=True).stdout
                runs.setdefault((n, mode), []).append(json.loads(out.splitlines()[-1]))
    for n in args.sizes:
        own, helper = runs[(n, "in-process")], runs[(n, "helper")]
        ratio = (statistics.median(r["p50"] for r in helper)
                 / statistics.median(r["p50"] for r in own))
        p95_won = sum(h["p95"] < o["p95"] for h, o in zip(helper, own))
        print(f"{n:3d}x{n:<3d} {4 * n * n:5d} unknowns  "
              f"in-process p50 {[round(r['p50'], 1) for r in own]} "
              f"p95 {[round(r['p95'], 1) for r in own]}  "
              f"helper p50 {[round(r['p50'], 1) for r in helper]} "
              f"p95 {[round(r['p95'], 1) for r in helper]}  "
              f"ratio {ratio:.3f}  p95 won {p95_won}/{len(helper)}  "
              f"in the helper {sum(r['in_helper'] for r in helper)}/{len(helper)}", flush=True)


if __name__ == "__main__":
    main()

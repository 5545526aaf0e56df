"""Write reference.json: the final L2 errors each workload must reproduce.

    python3 perfbench/make_reference.py

The errors come from the plain public entry points, ``solver.run`` for a
march and ``harness.convergence_study`` for a ladder, not from the
benchmark's own loop, so the benchmark's check compares two paths.
"""

import json

from run import HERE, WORKLOADS, March
from dgflow import harness, solver
from dgflow.assembly import SchemeConfig
from dgflow.manufactured import case_by_name
from dgflow.mesh import build_uniform_mesh


def reference_errors(spec) -> list[float]:
    if isinstance(spec, March):
        time = solver.TimeConfig(spec.tau, spec.steps * spec.tau, spec.steps)
        _, err = solver.run(case_by_name(spec.case), build_uniform_mesh(spec.n, spec.n),
                            time, SchemeConfig())
        return [err.l2_pressure, err.l2_sat_a, err.l2_sat_v]
    report = harness.convergence_study(harness.RunConfig(
        case=spec.case, levels=spec.levels, h0=spec.h0, tau_rule=spec.tau_rule))
    return [e for lvl in report.levels for e in (lvl.err_p, lvl.err_sa, lvl.err_sv)]


if __name__ == "__main__":
    ref = {name: reference_errors(spec) for name, spec in WORKLOADS.items()}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")

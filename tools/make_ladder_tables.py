"""Write tests/ladder_tables.json: the four acceptance tables the suite pins.

    PYTHONPATH=src python3 tools/make_ladder_tables.py

Runs the four refinement ladders of ``tests/test_acceptance.py`` (its
``ladder_t1`` .. ``ladder_t4`` fixtures: two scenarios times two time
rules, five levels each, to T = 1) through ``harness.convergence_study``
and writes, per ladder, each level's mesh size and final L2 errors of the
pressure and the two saturations, and the observed rates of the finest
pair of levels.  ``test_ladder_tables_are_pinned`` compares every error of
the fixtures with this file at 1e-10 relative; regenerate the file only
with a change that moves the tables on purpose, and say so where the
change is recorded.
"""

import json
from pathlib import Path

from dgflow import harness

OUT = Path(__file__).resolve().parent.parent / "tests" / "ladder_tables.json"

#: fixture name -> (scenario, time rule, coarsest h), as in test_acceptance.py
LADDERS = {
    "ladder_t1": ("constant_densities", "h", 0.25),
    "ladder_t2": ("constant_densities", "h2", 0.5),
    "ladder_t3": ("gravity", "h", 0.25),
    "ladder_t4": ("gravity", "h2", 0.5),
}


def table(case: str, tau_rule: str, h0: float) -> dict:
    report = harness.convergence_study(harness.RunConfig(
        case=case, levels=5, h0=h0, tau_rule=tau_rule, t_final=1.0))
    return {
        "case": case, "tau_rule": tau_rule, "h0": h0,
        "levels": [{"h": lvl.h, "p": lvl.err_p, "sa": lvl.err_sa, "sv": lvl.err_sv}
                   for lvl in report.levels],
        "final_rates": {key: getattr(report, "rates_" + key)[-1]
                        for key in ("p", "sa", "sv")},
    }


if __name__ == "__main__":
    tables = {name: table(*spec) for name, spec in LADDERS.items()}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1)
        fh.write("\n")

"""Smoke test of the benchmark itself, on tiny meshes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each kind of workload passes its output check against errors
from the public entry points, and emits exactly the metrics that
BENCHMARK.json names, in both the untraced and the traced mode.
"""

import json

import pytest

import run
from make_reference import reference_errors

TINY = {
    "ladder": run.Ladder("constant_densities", h0=0.5, levels=2, tau_rule="h"),
    "march": run.March("gravity", n=4, tau=0.25, steps=2),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_named_metric_is_emitted(kind, trace):
    spec = TINY[kind]
    result, _ = run.report(spec, reference_errors(spec), seed=0, seconds=0, trace=trace)
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}

    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert json.loads(json.dumps(result)) == result


def test_wrong_reference_fails_the_output_check():
    spec = TINY["march"]
    wrong = [e * (1 + 1e-8) for e in reference_errors(spec)]
    result, _ = run.report(spec, wrong, seed=0, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == 1 and result["metrics"] == {}

"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/ab_pairs.py --parent HEAD~1 --pairs 10 --seed0 7001 --label mychange

Runs ``perfbench/run.py`` of two source trees in turn: the parent, a
``git archive`` of ``--parent`` unpacked into a temporary directory, and the
change, this checkout as it stands on disk.  Pair ``i`` runs both sides on
seed ``seed0 + i``, the parent first on even pairs and the change first on
odd ones, so a drift of the host over the session falls on both sides.
Every run is started in its own session; after it exits, the processes
still in that session are counted (Linux, from ``/proc``), recorded and
killed.

Writes ``BENCH_<label>.json`` in this checkout: every run (seed, order,
exit code, metrics, processes left) and, per workload and end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the ratio
of the medians, the pairs the change won (ties count for neither side)
and whether the gain rule holds: at least nine tenths of the pairs won
and a gap between the medians wider than the parent's interquartile
range.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def export_tree(rev: str, dest: Path) -> str:
    """Unpack the files of ``rev`` into ``dest``; returns the commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def session_processes(sid: int) -> list[int]:
    """Live processes of session ``sid`` (exited ones awaiting a reaper do
    not count)."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # after the command name: state, ppid, pgrp, session
        if int(fields[3]) == sid and fields[0] not in ("Z", "X"):
            pids.append(int(stat.parent.name))
    return pids


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    out, err = proc.communicate()
    left = session_processes(proc.pid)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": err[-2000:]}
    return {"returncode": proc.returncode, "processes_left": len(left),
            "header": lines[0] if lines else "", **result}


def quartiles(values) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def summarise(runs: list, metrics: dict, workloads: list) -> dict:
    out = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        rows = {}
        for name, better in metrics.items():
            by_pair = {}
            for r in mine:
                m = r["metrics"].get(name)
                if m is not None:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = m["value"]
            complete = [p for p in pairs if len(by_pair.get(p, {})) == 2]
            if not complete:
                continue
            parent = [by_pair[p]["parent"] for p in complete]
            change = [by_pair[p]["change"] for p in complete]
            sign = 1.0 if better == "lower" else -1.0
            won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            ps, cs = quartiles(parent), quartiles(change)
            gap = sign * (ps["median"] - cs["median"])
            rows[name] = {
                "better": better, "parent": ps, "change": cs,
                "ratio": cs["median"] / ps["median"] if ps["median"] else None,
                "pairs": len(complete), "pairs_won": int(won), "pairs_lost": int(lost),
                "gain_rule_met": bool(won >= 0.9 * len(complete)
                                      and gap > ps["q3"] - ps["q1"]),
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append",
                        help="repeat to select; default: every workload")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_commit = export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = []
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.seed0 + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    rec = run_once(trees[side], workload, seed, seconds)
                    rec.update(workload=workload, pair=pair, seed=seed, side=side,
                               position=position)
                    runs.append(rec)
                    values = {k: round(v["value"], 4) for k, v in rec["metrics"].items()}
                    print(f"{workload} pair {pair} {side}: correct={rec.get('correct')} "
                          f"left={rec['processes_left']} {values}", flush=True)

    change_commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    result = {
        "label": args.label,
        "command": "python3 tools/ab_pairs.py " + " ".join(argv or sys.argv[1:]),
        "parent": parent_commit,
        "change": f"working tree on {change_commit}",
        "seconds": seconds,
        "environment": runs[0]["header"] if runs else "",
        "processes_left_max": max((r["processes_left"] for r in runs), default=0),
        "summary": summarise(runs, metrics, workloads),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    for workload, rows in result["summary"].items():
        for name, row in rows.items():
            print(f"{workload:22s} {name:12s} parent {row['parent']['median']:.4g} "
                  f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}] change "
                  f"{row['change']['median']:.4g} [{row['change']['q1']:.4g}, "
                  f"{row['change']['q3']:.4g}] ratio {row['ratio'] or float('nan'):.3f} won "
                  f"{row['pairs_won']}/{row['pairs']} rule {row['gain_rule_met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

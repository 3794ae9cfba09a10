#!/usr/bin/env python3
"""Benchmark history: one line per `dtask-bench` run, keyed by commit.

    python3 scripts/bench_history.py append RUN_JSON [--commit REV] [--note TEXT]
    python3 scripts/bench_history.py delta RUN_JSON

`RUN_JSON` is the summary `dtask-bench` writes (`--out PATH`, default
`<target>/dtask-bench/run.json`). `append` adds one entry to
`results/BENCH_history.jsonl`: the commit (default: `git rev-parse --short
HEAD`), every workload's end-to-end metrics, its per-layer metrics when the
run had a traced pass (`--traced`), and the run's CPU-only probes
`linalg.gflops` and `heat2d.step_us` as the box-speed covariate: the same
binary reads 2x apart on a shared box, and these two say how fast the box was
during the run. `delta` prints a run's end-to-end metrics against the last
entry, workload by workload, without writing anything.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HISTORY = Path(__file__).resolve().parent.parent / "results" / "BENCH_history.jsonl"
# Probes that time a fixed CPU-only kernel, not dtask: the box-speed covariate.
BOX_PROBES = ("linalg.gflops", "heat2d.step_us")


def metrics(workload_doc):
    """`{name: value}` of one workload's result document."""
    result = workload_doc["result"]
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    for count in ("correct", "attempted", "failed"):
        values[count] = result.get(count)
    return values


def entry(run, commit, note):
    end_to_end = {w: metrics(doc) for w, doc in run.get("end_to_end", {}).items()}
    per_layer = {w: metrics(doc) for w, doc in run.get("per_layer", {}).items()}
    box = {}
    for probe in BOX_PROBES:
        # A probe a workload does not run reads 0 in its document.
        seen = [m[probe] for m in per_layer.values() if m.get(probe)]
        box[probe] = statistics.median(seen) if seen else None
    return {
        "commit": commit,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": run.get("seed"),
        "seconds": run.get("seconds"),
        "smoke": run.get("smoke"),
        "note": note,
        "box": box,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def last_entry():
    if not HISTORY.exists():
        return None
    lines = [line for line in HISTORY.read_text().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def print_delta(run, base):
    print(f"delta against {base['commit']} (recorded {base['recorded']}, box {base['box']}):")
    for workload, now in entry(run, None, None)["end_to_end"].items():
        then = base["end_to_end"].get(workload)
        if then is None:
            print(f"  {workload:<20} not in the entry")
            continue
        for name, value in now.items():
            old = then.get(name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(old, (int, float)) and not isinstance(old, bool):
                was = f"{old:14.4f}"
                ratio = f"{value / old:6.2f}x" if old else "     -"
            else:
                was, ratio = f"{'-':>14}", "     -"
            print(f"  {workload:<20} {name:<18} {was} -> {value:<14.4f} {ratio}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("append", "delta"))
    parser.add_argument("run_json", type=Path)
    parser.add_argument("--commit", help="the commit the run measured (default: HEAD)")
    parser.add_argument("--note", help="free text stored with the entry")
    args = parser.parse_args()
    run = json.loads(args.run_json.read_text())
    if args.action == "delta":
        base = last_entry()
        if base is None:
            print(f"no history in {HISTORY}")
            return 0
        if run.get("smoke") and not base.get("smoke"):
            print("(a smoke run against a full one: about 1% of the units, so only")
            print(" failures and gross slowdowns mean anything)")
        print_delta(run, base)
        return 0
    commit = args.commit or subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a") as history:
        history.write(json.dumps(entry(run, commit, args.note), sort_keys=True) + "\n")
    print(f"appended {commit} to {HISTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload roundtrip --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed for BENCHMARK.json's ``run_seconds``,
one run at a time, and prints for each metric the median and the quartile
spread (Q3 - Q1) / median, the figure the benchmark's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()},
                     "correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"]})
        print(json.dumps(runs[-1]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--trace 0]

Runs `perfbench/run.py` once per seed, reads the result object on the
last line of each run, and prints for every metric its median and the
distance between its first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
`BENCHMARK.json`. Lines marked `WIDE` exceed a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", help="append each run's result object to this file")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    values: dict[str, list[float]] = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
               args.workload, "--seed", seed, "--seconds", seconds, "--trace", args.trace]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            print(f"{name:40s} median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = " WIDE" if bound is not None and spread > bound / 3 else ""
        print(f"{name:40s} median {med:.6g} spread {spread:.4f}"
              + (f" bound {bound}" if bound is not None else "") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over many seeds and summarise each metric's spread.

Usage (from the root of a checkout):

  python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] \
      [--out perfbench/baseline.json]

For every workload and seed it runs ``perfbench/run.py`` once, with the
run length from BENCHMARK.json, and keeps the result line.  Per metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  Runs are sequential; nothing else should run meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in declared["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    doc = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "machine": platform.machine(), "run_seconds": declared["run_seconds"],
           "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds",
                 str(declared["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout[-4000:] + proc.stderr[-4000:], file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["run_s"] = time.monotonic() - t0
            runs.append(line)
            print(f"{name} seed {seed}: {line['run_s']:.1f} s, " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in line["metrics"].items()),
                flush=True)
        metrics = {key: summarise([r["metrics"][key]["value"] for r in runs])
                   for key in runs[0]["metrics"]}
        doc["workloads"][name] = {
            "run_s_max": max(r["run_s"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}
        for key, m in metrics.items():
            print(f"{name} {key}: median {m['median']:.4g}, "
                  f"spread {m['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

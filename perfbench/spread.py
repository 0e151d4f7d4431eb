"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads battery,matrix-scale --seeds 1-10

Runs run.py once per (workload, seed), sequentially, and prints for every
end-to-end metric the median of the runs and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
that median, next to a third of the metric's bound.  Run from the
repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="battery,matrix-scale,fourier-lab")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"== {workload}: {len(runs)} runs")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            flag = "" if share <= m["bound"] / 3 else "  > bound/3"
            print(f"{m['name']:>20} median {med:12.6g} {m['unit']:<6} "
                  f"spread {share:7.4f} (bound/3 {m['bound'] / 3:.4f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

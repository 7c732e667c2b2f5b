"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads walk_uniform cli_roundtrip --seeds 1 2 3 4 5

For every workload and metric it prints the value from each seed side by
side, the median, and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json when it has one. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    worst = 0
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        elapsed = [r["elapsed"] for r in results]
        print(f"{workload}: seeds {args.seeds}, failed {failed}/{attempted}, "
              f"run seconds {min(elapsed):.1f}-{max(elapsed):.1f}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            share = spread(values) if len(values) > 1 and statistics.median(values) else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if share < bound / 3 else ("WITHIN" if share <= bound else "OVER")
                worst = max(worst, {"ok": 0, "WITHIN": 1, "OVER": 2}[flag])
            print(f"  {name:40s} median {statistics.median(values):12.6g}  "
                  f"spread {share:7.2%}  bound {bound}  {flag}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()
    return 1 if worst == 2 else 0


if __name__ == "__main__":
    sys.exit(main())

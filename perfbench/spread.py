#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads storm epoch-deck --seeds 1 2 3 4 5

Runs `perfbench/run.py` once per workload and seed (end-to-end metrics,
`--trace 0`) and prints, per metric, the median and the distance between
the first and third quartiles as a share of the median, next to a third
of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])

    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            third = bounds.get(name, 0.0) / 3
            flag = "" if name == "setup_s" or spread < third else "  <-- above a third of bound"
            print(f"  {name:<18} median {med:12.4f}  spread {spread:7.3f}  "
                  f"(bound/3 {third:.3f}){flag}")
            print("      " + " ".join(f"{v:.4g}" for v in vs))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())

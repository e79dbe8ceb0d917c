#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload storm --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
trains the pinned model fixture into `perfbench/cache/` on first use, then
runs the workload. The last line of standard output is the JSON result;
the exit code is non-zero when the build fails or a correctness check
fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE = BENCH_DIR / "cache" / "models.json"
WORKLOADS = ["storm", "flight-hostile", "epoch-deck"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        [
            "cargo", "build", "--offline", "--release", "--quiet",
            "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "adapt-perfbench"

    if not FIXTURE.exists():
        # trained outside every timed run; stdout stays free for the result
        train = subprocess.run(
            [str(binary), "train", "--out", str(FIXTURE)], stdout=sys.stderr
        )
        if train.returncode != 0:
            return train.returncode

    sys.stdout.flush()
    run = subprocess.run([
        str(binary), "run", "--fixture", str(FIXTURE),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

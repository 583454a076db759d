#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_fig12 --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the checkout),
and cargo's own bookkeeping to a directory beside it, so the benchmark writes
nothing outside the checkout. Traced runs (--trace 1) also write their host
spans there. The binary's output is passed through unchanged; its last line
is the JSON result. A failed build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), CARGO_HOME=str(target / "cargo-home"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = target / "perfbench-spans" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

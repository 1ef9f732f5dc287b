"""Run every workload once (bn_queries, engine_core, cli_mix) and print each
one's report.

usage: python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs through run.py, one after the other, with the same seed;
--seconds defaults to BENCHMARK.json's run_seconds.  Exits non-zero if any
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()

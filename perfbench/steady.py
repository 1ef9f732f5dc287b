"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

usage: python3 perfbench/steady.py [--runs 10] [--sides 2] [--workloads W ...]

Runs run.py untraced `runs` times per workload and side, each run with its
own seed, alternating the order of the sides from one round to the next.
For each side and metric it prints the median, the quartiles and their
distance as a share of the median (the spread), and flags a spread above a
third of the metric's bound.  With two sides it also prints how much worse
the second side's median is than the first's, the figure the bound limits.
Raw results go to perfbench/out/steady.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import spread  # noqa: E402


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sides", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    metrics = bench["end_to_end"]

    raw = {}
    for workload in args.workloads:
        sides = [[] for _ in range(args.sides)]
        for i in range(args.runs):
            order = range(args.sides) if i % 2 == 0 else reversed(range(args.sides))
            for side in order:
                seed = args.first_seed + 100 * side + i
                result = one_run(workload, seed, bench["run_seconds"])
                sides[side].append(result)
                print(f"{workload} side {side} seed {seed}: correct {result['correct']} "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
        raw[workload] = sides
        for m in metrics:
            medians = []
            for side, results in enumerate(sides):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, share = spread(values)
                medians.append(med)
                flag = "" if m["name"] == "setup_s" or share < m["bound"] / 3 else "  > bound/3"
                print(f"  {workload} {m['name']} side {side}: median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {share:.3f} "
                      f"(bound {m['bound']}){flag}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "" if worse <= m["bound"] else "  > bound"
                print(f"  {workload} {m['name']} second median worse by {worse:+.3f}{flag}")
        sys.stdout.flush()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as f:
        json.dump(raw, f)


if __name__ == "__main__":
    main()

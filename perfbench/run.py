"""frobinom benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload {bn_queries,engine_core,cli_mix}
                                --seed N --seconds S --trace {0,1}

Run it from the root of a frobinom checkout; it uses the sources in src/
as they are, with the standard library only.

--trace 0 measures the end-to-end metrics: one untraced run of the
workload in a fresh worker process, and the median time for a fresh
interpreter to import frobinom (setup_s), sampled before and after it.  The run executes the number of blocks
that takes about S seconds on the reference machine (workloads.blocks_for).
--trace 1 runs the blocks of S/2 seconds untraced, then the same blocks
traced, and reports the per-layer metrics of the traced pass together with
the tracing overhead (traced minus untraced ops_per_s).

Every metric is printed as a "name value unit" line, then every failed
operation with its reason, and last one JSON object
{"correct", "attempted", "failed", "metrics"}.  "correct" is false when a
call returned an answer that its independent check rejected; calls that
raised or exited with a code the README contract does not give for their
input are counted in "failed" (and in fail_ratio / success_ratio).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from measure import percentile  # noqa: E402
from workloads import WORKLOADS, blocks_for  # noqa: E402

SETUP_SAMPLES = 16       # fresh-interpreter imports per run; setup_s is their median
WORKER_TIMEOUT_S = 170   # a whole run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ops_per_s") or name.endswith("ops_per_s_delta"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


def _import_seconds():
    """Wall time of one fresh interpreter running `import frobinom`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import frobinom"], env=_env())
    # A plain wait() blocks in waitpid; wait(timeout) would poll on a 50 ms
    # schedule and round the time up to it, so a timer enforces the limit.
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise SystemExit(f"`import frobinom` exited with {code}")
    return time.perf_counter() - t0


def setup_samples(count):
    """Wall times of `count` fresh interpreters finishing `import frobinom`."""
    _import_seconds()  # writes the bytecode caches
    return [_import_seconds() for _ in range(count)]


def run_worker(workload, seed, blocks, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(blocks),
           "1" if trace else "0", OUTDIR]
    # Its own process group, so that a timeout also ends the CLI call it is waiting on.
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker for {workload} did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def summarize(record):
    """End-to-end figures of one worker record (setup_s aside)."""
    seconds = [op[1] for op in record["ops"]]
    ok = sum(op[2] == "ok" for op in record["ops"])
    attempted = len(seconds)
    return {
        "ops_per_s": ok / sum(seconds),
        "latency_p50_ms": 1000 * percentile(seconds, 50),
        "latency_p90_ms": 1000 * percentile(seconds, 90),
        "peak_rss_mb": record["peak_rss_mb"],
        "success_ratio": ok / attempted,
        "fail_ratio": (attempted - ok) / attempted,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "frobinom", "__init__.py")):
        sys.exit(f"no frobinom sources under {SRC}; run from the root of a checkout")
    os.makedirs(OUTDIR, exist_ok=True)

    if args.trace:
        blocks = blocks_for(args.workload, args.seconds / 2)
        plain = run_worker(args.workload, args.seed, blocks, False)
        record = run_worker(args.workload, args.seed, blocks, True)
        traced_rate = summarize(record)["ops_per_s"]
        metrics = dict(record["per_layer"])
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.ops_per_s_delta"] = traced_rate - summarize(plain)["ops_per_s"]
        units = {name: unit_of(name) for name in metrics}
        shown = metrics
    else:
        # Half the imports before the workload and half after it, so that
        # setup_s samples the same stretch of time as the other metrics.
        imports = setup_samples(SETUP_SAMPLES // 2)
        record = run_worker(args.workload, args.seed, blocks_for(args.workload, args.seconds), False)
        imports += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        shown = {"setup_s": statistics.median(imports), **summarize(record)}
        units = dict(END_TO_END, fail_ratio="ratio")
        metrics = {name: shown[name] for name in END_TO_END}

    ops = record["ops"]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations "
          f"in {record['blocks']} blocks, trace {args.trace}")
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, seconds, status, detail in ops:
        if status != "ok":
            print(f"FAILED [{status}] {name}: {detail}")
    failed = sum(op[2] != "ok" for op in ops)
    print(json.dumps({
        "correct": not any(op[2] == "wrong" for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()

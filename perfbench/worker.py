"""Run one workload as a single closed-loop client and print its record.

usage: python3 worker.py WORKLOAD SEED BLOCKS TRACE OUTDIR

Runs the first BLOCKS blocks of the workload's stream (see workloads.py).
bn_queries and engine_core call frobinom in this process; cli_mix starts one
CLI process at a time through cli_launch.py.  Output checks run outside the
timed calls.  The last stdout line is a JSON record of every operation
(label, seconds, status, detail), the peak RSS of the process that did the
work and, when TRACE is 1, the per-layer metrics; the spans go to OUTDIR.
"""

import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from measure import peak_rss_mb  # noqa: E402
from tracer import ROOT, STARTUP, Tracer, install, layer_metrics  # noqa: E402

OP_TIMEOUT_S = 120  # a CLI call that runs longer counts as a hang and is killed

OK, ERROR, WRONG = "ok", "error", "wrong"


def _verdict(problem):
    """(status, detail) of a completed operation from its check's finding."""
    return (OK, "") if problem is None else (WRONG, problem)


# --- in-process operations ------------------------------------------------------

def _engine(frobinom, gens):
    S = frobinom.NumericalSemigroup(gens)
    return (S.generators, S.multiplicity, S.frobenius(), S.genus(),
            S.pseudo_frobenius(), S.is_telescopic())


def _numerical_set(frobinom, gaps, origin):
    T = frobinom.NumericalSet(gaps)
    A = frobinom.a_set(T)
    lam = frobinom.partition_of(T)
    return A.gaps(), lam.parts, frobinom.hook_set(lam), frobinom.enumerate_admissible(T)


IN_PROCESS = {
    "decompose": lambda frobinom, n, m: frobinom.decompose(n, m),
    "algorithm1": lambda frobinom, n, s, p: frobinom.algorithm1(n, s, p, force_base=True),
    "exists_admissible_bn": lambda frobinom, n, p: frobinom.exists_admissible_bn(n, p),
    "engine": _engine,
    "numerical_set": _numerical_set,
}


def label(op):
    if op.kind == "cli":
        text = " ".join(op.args)
        return "frobinom " + (text if len(text) <= 120 else text[:117] + "...")
    if op.kind == "numerical_set":
        gaps, origin = op.args
        return f"numerical_set {origin} F={gaps[-1]} gaps={len(gaps)}"
    return f"{op.kind}{op.args}"


class InProcess:
    def __init__(self, tracer):
        self.tracer = tracer
        if tracer:
            install(tracer)
        import frobinom
        self.frobinom = frobinom
        self.peak_rss_mb = 0.0
        self.bytes_out = self.exit_mismatch = 0  # CLI-only counts

    def run(self, op, index):
        fn = IN_PROCESS[op.kind]
        t0 = time.perf_counter()
        try:
            if self.tracer:
                out = self.tracer.run_op(index, fn, self.frobinom, *op.args)
            else:
                out = fn(self.frobinom, *op.args)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            return time.perf_counter() - t0, ERROR, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        return (seconds, *_verdict(checks.CHECKS[op.kind](op.args, out)))

    def finish(self):
        self.peak_rss_mb = peak_rss_mb()


class CliProcesses:
    def __init__(self, tracer, outdir):
        self.tracer = tracer
        self.meta = os.path.join(outdir, f"cli-meta-{os.getpid()}.json")
        self.peak_rss_mb = 0.0
        self.bytes_out = 0
        self.exit_mismatch = 0
        src = os.path.join(os.path.dirname(HERE), "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def _spawn(self, argv):
        """(stdout, stderr, exit code, start, end) of one CLI call."""
        cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"), self.meta,
               "1" if self.tracer else "0", *argv]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        end = time.perf_counter()
        return out, err[0] if err else b"", proc.returncode, start, end

    def run(self, op, index):
        if os.path.exists(self.meta):
            os.remove(self.meta)
        out, err, code, start, end = self._spawn(op.args)
        self.bytes_out += len(out)
        meta = {}
        if os.path.exists(self.meta):
            with open(self.meta) as f:
                meta = json.load(f)
        self.peak_rss_mb = max(self.peak_rss_mb, meta.get("peak_rss_mb", 0.0))
        if self.tracer:
            self._adopt_spans(index, start, end, meta)
        seconds = end - start
        if code != op.expect:
            self.exit_mismatch += 1
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return seconds, ERROR, f"exit {code}, contract gives {op.expect}: {tail[0][:160]}"
        if code != checks.EXIT_OK:
            return seconds, OK, ""
        return (seconds, *_verdict(checks.check_cli(*_cli_parts(op.args), out.decode())))

    def _adopt_spans(self, index, start, end, meta):
        """Add the child's spans under a root span for this call."""
        spans = self.tracer.spans
        root = len(spans)
        spans.append([root, None, index, ROOT, start, end, None])
        if "main_start" in meta:
            spans.append([root + 1, root, index, STARTUP, start, meta["main_start"], None])
        base = len(spans)
        for sid, parent, _, name, t0, t1, counts in meta.get("spans", []):
            spans.append([base + sid, root if parent is None else base + parent,
                          index, name, t0, t1, counts])

    def finish(self):
        if os.path.exists(self.meta):
            os.remove(self.meta)


def _cli_parts(argv):
    """(command, parsed arguments, format) of a generated CLI argument list."""
    argv = list(argv)
    fmt = "text"
    if "--format" in argv:
        at = argv.index("--format")
        fmt = argv[at + 1]
        del argv[at:at + 2]
    command, rest = argv[0], [a for a in argv[1:] if not a.startswith("--")]
    nums = [int(a) for a in rest]
    if command == "report":
        args = {"n": nums[0]}
    elif command == "decompose":
        args = {"n": nums[0], "m": nums[1]}
    elif command == "admissible":
        args = {"n": nums[0], "s": nums[1], "p": nums[2]}
    elif command == "semigroup":
        args = {"generators": nums}
    elif command == "core":
        gaps = checks.Semigroup(nums).gaps() if "--semigroup" in argv else nums
        args = {"gaps": gaps}
    else:
        args = {}
    return command, args, fmt


def run(workload, seed, blocks, trace, outdir):
    tracer = Tracer() if trace else None
    runner = CliProcesses(tracer, outdir) if workload == "cli_mix" else InProcess(tracer)
    ops = []
    for _, block in zip(range(blocks), workloads.blocks(workload, seed)):
        for op in block:
            ops.append([label(op), *runner.run(op, len(ops))])
    runner.finish()
    record = {"ops": ops, "blocks": blocks, "peak_rss_mb": runner.peak_rss_mb}
    if tracer:
        metrics = layer_metrics(tracer.spans)
        metrics["cli.bytes_out"] = runner.bytes_out
        metrics["cli.exit_mismatch"] = runner.exit_mismatch
        metrics["trace.overhead_s"] = tracer.per_span_overhead_s() * metrics["trace.span_count"]
        record["per_layer"] = metrics
        with open(os.path.join(outdir, f"spans-{workload}-{seed}.json"), "w") as f:
            json.dump(tracer.spans, f)
    return record


if __name__ == "__main__":
    workload, seed, blocks, trace, outdir = sys.argv[1:6]
    print(json.dumps(run(workload, int(seed), int(blocks), trace == "1", outdir)))

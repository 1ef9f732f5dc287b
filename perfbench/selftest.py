"""Self-tests of the benchmark: its checks reject corrupted answers, and a
short run of each workload prints every metric with its unit.

usage: python3 perfbench/selftest.py   (from the root of a checkout)
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import frobinom  # noqa: E402
import worker  # noqa: E402
from workloads import Op  # noqa: E402


def _cli_json(*argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_launch.py"), os.devnull, "0",
                           *argv, "--format", "json"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    return json.loads(proc.stdout)


class CheckersRejectCorruptedAnswers(unittest.TestCase):
    def test_decompose_coefficient_off_by_one(self):
        rep = frobinom.decompose(30030, 10010)
        self.assertIsNone(checks.check_decompose((30030, 10010), rep))
        bad = rep.coefficients[:-1] + (rep.coefficients[-1] + 1,)
        self.assertIsNotNone(checks.check_decompose((30030, 10010), rep.__class__(
            rep.target, rep.basis, bad, rep.value, rep.scaled)))

    def test_engine_wrong_frobenius_or_pseudo_frobenius(self):
        gens = [211, 223, 250, 301]
        out = worker._engine(frobinom, gens)
        self.assertIsNone(checks.check_engine((gens,), out))
        generators, m, f, genus, pf, tele = out
        self.assertIsNotNone(checks.check_engine((gens,), (generators, m, f + 1, genus, pf, tele)))
        self.assertIsNotNone(checks.check_engine((gens,), (generators, m, f, genus, pf[1:], tele)))

    def test_hook_set_missing_one_element(self):
        gaps = checks.Semigroup([31, 37, 41]).gaps()
        a_gaps, parts, hooks, pairs = worker._numerical_set(frobinom, gaps, "semigroup")
        self.assertIsNone(checks.check_numerical_set((gaps, "semigroup"), (a_gaps, parts, hooks, pairs)))
        self.assertIsNotNone(checks.check_numerical_set(
            (gaps, "semigroup"), (a_gaps, parts, hooks[:5] + hooks[6:], pairs)))
        self.assertIsNotNone(checks.check_numerical_set(
            (gaps, "semigroup"), (a_gaps, parts, hooks, pairs[1:])))

    def test_algorithm1_triple_and_count(self):
        run = frobinom.algorithm1(50, 65, 6)
        self.assertIsNone(checks.check_algorithm1((50, 65, 6), run))
        t = run.triple
        for bad in (run.__class__((t[0], t[1], t[2] + 1), run.count),
                    run.__class__((t[0] - 1, t[1] - 1, t[2] - 1), run.count),
                    run.__class__(t, run.count + 1)):
            self.assertIsNotNone(checks.check_algorithm1((50, 65, 6), bad))

    def test_algorithm1_skipped_completion(self):
        # the class of s holds max(Ap) = 55 > F = 49: the representatives come back
        run = frobinom.algorithm1(6, 1, 2)
        self.assertIsNone(checks.check_algorithm1((6, 1, 2), run))
        t = run.triple
        self.assertIsNotNone(checks.check_algorithm1(
            (6, 1, 2), run.__class__((t[0] - 6, t[1], t[2]), run.count)))
        self.assertIsNotNone(checks.check_algorithm1(
            (6, 1, 2), run.__class__((t[0], t[1] + 6, t[2]), run.count)))
        self.assertIsNotNone(checks.check_algorithm1(
            (6, 1, 2), run.__class__((t[0] - 54, t[1], t[2]), run.count)))

    def test_exists_admissible_above_frobenius(self):
        s = frobinom.exists_admissible_bn(30030, 7)
        self.assertIsNone(checks.check_exists((30030, 7), s))
        self.assertIsNotNone(checks.check_exists((30030, 7), checks.bn_shape(30030)[3]))

    def test_cli_report_and_decompose_outputs(self):
        out = json.dumps(_cli_json("report", "30"))
        self.assertIsNone(checks.check_cli("report", {"n": 30}, "json", out))
        self.assertIsNotNone(checks.check_cli("report", {"n": 30}, "json",
                                              out.replace('"frobenius": "', '"frobenius": "1')))
        text = ("target       C(40,25) = 40225345056\n"
                "basis        [40, 780, 91390, 658008, 76904685]\n"
                "coefficients [1005600726, 0, 0, 2, 0]\n")
        self.assertIsNone(checks.check_cli("decompose", {"n": 40, "m": 25}, "text", text))
        self.assertIsNotNone(checks.check_cli("decompose", {"n": 40, "m": 25}, "text",
                                              text.replace("[1005600726,", "[1005600727,")))

    def test_cli_core_hook_set_missing_one_element(self):
        env = _cli_json("core", "--gaps", "2", "5", "6", "8")
        args = {"gaps": [2, 5, 6, 8]}
        self.assertIsNone(checks.check_cli("core", args, "json", json.dumps(env)))
        env["result"]["hook_set"] = env["result"]["hook_set"][1:]
        self.assertIsNotNone(checks.check_cli("core", args, "json", json.dumps(env)))

    def test_cli_wrong_exit_code_fails(self):
        outdir = os.path.join(HERE, "out")
        os.makedirs(outdir, exist_ok=True)
        runner = worker.CliProcesses(None, outdir)
        _, status, detail = runner.run(Op("cli", ("report", "7"), checks.EXIT_OK), 0)
        self.assertEqual(status, worker.ERROR, detail)
        _, status, _ = runner.run(Op("cli", ("report", "7"), checks.EXIT_DOMAIN), 1)
        self.assertEqual(status, worker.OK)
        self.assertEqual(runner.exit_mismatch, 1)


TRACE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install, self_times
tracer = Tracer()
install(tracer)
import frobinom
tracer.run_op(0, lambda: frobinom.decompose(30, 7))
tracer.run_op(1, lambda: frobinom.NumericalSemigroup([5, 7, 9]).pseudo_frobenius())
print(json.dumps([tracer.spans, self_times(tracer.spans)]))
"""


class Tracing(unittest.TestCase):
    def setUp(self):
        proc = subprocess.run([sys.executable, "-c", TRACE_PROBE, HERE], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.spans, own = json.loads(proc.stdout)
        self.own = {int(k): v for k, v in own.items()}

    def test_cross_layer_calls_are_spanned(self):
        names = {s[3] for s in self.spans}
        # binomial.decompose reaches exactmath.binomial through a from-import.
        self.assertIn("exactmath.binomial", names)
        self.assertIn("semigroup.minimal_generators", names)
        self.assertIn("semigroup.NumericalSemigroup.pseudo_frobenius", names)
        self.assertNotIn("semigroup.NumericalSemigroup.contains", names)

    def test_self_times_add_up_to_the_operation(self):
        for op in (0, 1):
            spans = [s for s in self.spans if s[2] == op]
            root = [s for s in spans if s[1] is None]
            self.assertEqual(len(root), 1)
            total = sum(self.own[s[0]] for s in spans)
            self.assertAlmostEqual(total, root[0][5] - root[0][4], places=9)


class SmokeRuns(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def _run(self, cwd, workload, trace):
        return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                              cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in self.bench["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self._run(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]
                               if len(line.split()) == 3}
                    expected = {m["name"]: m["unit"] for m in self.bench[key]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for name, unit in expected.items():
                        self.assertEqual(printed.get(name), unit, name)

    def test_fails_without_the_program(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = self._run(bare, "bn_queries", 0)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""CLI surface: exit codes, text output, and the JSON envelope contract."""

import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import frobinom.binomial
import frobinom.cli
import frobinom.exactmath
import frobinom.oracle
from frobinom.binomial import bn_apery_closed, bn_report
from frobinom.cli import _COMMANDS, ELIDE_ABOVE, ENGINE_BUDGET, MAX_N, main
from frobinom.corepartitions import SET_BOUND
from frobinom.exactmath import is_prime
from frobinom.oracle import bn_family
from frobinom.semigroup import NumericalSemigroup

from cli_contract import CASES, ORACLE_FIELDS, check


def run(capsys, *argv):
    """(exit code, stdout, stderr) of a call, a usage error's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), out


def bare_number(token):
    """A json.loads hook: envelope leaves are strings, bools or null, never numbers."""
    raise AssertionError(f"bare number {token} in the envelope")


class TestReport:
    def test_json_fields(self, capsys):
        code, env, _ = run_json(capsys, "report", "50")
        assert code == 0
        assert env["command"] == "report"
        assert env["input"] == {"n": "50"}
        assert env["result"]["frobenius"] == "505642434227223"
        assert env["result"]["genus"] == "252821217113612"
        assert env["result"]["symmetric"] is True


def text_line(out, label):
    (line,) = [x for x in out.splitlines() if x.startswith(label + " ")]
    return line[len(label):].strip()


def rebuild(box):
    """The Apery set from a JSON apery_box: every sum of c * value, 0 <= c < bound."""
    sums = [0]
    for value, bound in box["generators"]:
        sums = [s + c * int(value) for c in range(int(bound)) for s in sums]
    return sorted(sums)


class TestReportBox:
    @pytest.mark.parametrize("n", [2310, 4000, 15625, 30030])
    def test_elided_set_matches_the_listing(self, capsys, n):
        base, ap = bn_apery_closed(n)
        assert base > 1000
        code, out, _ = run(capsys, "report", str(n))
        assert code == 0
        assert text_line(out, "apery set") == \
            f"({len(ap)} elements; min {min(ap)}, max {max(ap)})"
        code, env, _ = run_json(capsys, "report", str(n))
        assert code == 0
        result = env["result"]
        assert "apery_set" not in result
        assert result["apery_set_elided"] == {
            "count": str(len(ap)), "min": str(min(ap)), "max": str(max(ap))}
        assert rebuild(result["apery_box"]) == list(ap)

    def test_box_rebuilds_the_set_up_to_200(self, capsys):
        for n in range(4, 201):
            if is_prime(n):
                continue
            code, env, _ = run_json(capsys, "report", str(n))
            assert code == 0, n
            result = env["result"]
            box = result["apery_box"]
            assert box["base"] == result["apery_base"], n
            assert [str(w) for w in rebuild(box)] == result["apery_set"], n
            if n <= 40:
                base = int(box["base"])
                engine = NumericalSemigroup(bn_family(n)).apery_set(base)
                assert rebuild(box) == sorted(engine.entries), n

    @pytest.mark.parametrize("n", [510510, 10**6])
    def test_largest_reports_list_no_apery_set(self, capsys, n):
        # 10^6 = 2^6 * 5^6 has 10^6 Apery elements of about 35000 digits;
        # its answers exceed the default int-to-str limit, which is lifted
        # here so that the report itself is checked (WORK in
        # tests/test_layering.py pins that report lists no Apery set)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run(capsys, "report", str(n))
            code_json, env, _ = run_json(capsys, "report", str(n))
            top = str(bn_report(n).frobenius + n)
            box = env["result"]["apery_box"]
            box_top = str(sum((int(b) - 1) * int(v) for v, b in box["generators"]))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == code_json == 0
        assert text_line(out, "apery set") == f"({n} elements; min 0, max {top})"
        result = env["result"]
        assert result["apery_set_elided"] == {"count": str(n), "min": "0", "max": top}
        assert "apery_set" not in result
        assert box["base"] == str(n)
        assert box_top == top


class TestSemigroup:
    def test_apery_base_flag(self, capsys):
        code, env, _ = run_json(capsys, "semigroup", "6", "15", "20", "--apery-base", "15")
        assert code == 0
        assert env["result"]["apery_base"] == "15"
        assert len(env["result"]["apery_set"]) == 15

    def test_gaps_listed_up_to_genus_1000(self, capsys):
        code, env, _ = run_json(capsys, "semigroup", "45", "46")
        assert code == 0
        result = env["result"]
        assert result["genus"] == "990"
        assert result["gaps"] == [str(g) for g in NumericalSemigroup([45, 46]).gaps()]
        assert "gaps_elided" not in result

    def test_gaps_elided_above_genus_1000(self, capsys):
        gaps = NumericalSemigroup([46, 47]).gaps()
        assert (len(gaps), min(gaps), max(gaps)) == (1035, 1, 2069)
        code, env, _ = run_json(capsys, "semigroup", "46", "47")
        assert code == 0
        assert env["result"]["gaps_elided"] == {"count": "1035", "min": "1", "max": "2069"}
        assert "gaps" not in env["result"]
        code, out, _ = run(capsys, "semigroup", "46", "47")
        assert code == 0
        assert text_line(out, "gaps") == "(1035 gaps; min 1, max 2069)"

    def test_engine_budget_exits_64_before_the_engine(self, capsys, monkeypatch):
        code, err, calls = engine_budget_calls(capsys, monkeypatch, "semigroup")
        assert code == 64
        assert OVER_BUDGET_MESSAGE in err
        assert calls == [AT_BUDGET, OVER_BUDGET[:1] + OVER_BUDGET[1:2] * 6]


def engine_forbidden(generators):
    raise AssertionError(f"engine built for {generators}")


# multiplicity 10^6: six distinct generators meet ENGINE_BUDGET, seven exceed it
AT_BUDGET = [str(10**6 + i) for i in range(6)]
OVER_BUDGET = [str(10**6 + i) for i in range(7)]
OVER_BUDGET_MESSAGE = ("multiplicity 1000000 x 7 distinct generators = 7000000 "
                       "exceeds the engine budget 6000000")


def engine_budget_calls(capsys, monkeypatch, *command):
    """Exit code and stderr of the command over budget, and the generators
    the engine was built for with the budget met exactly and with repeats."""
    calls = []

    def recording_engine(generators):
        calls.append(list(map(str, generators)))
        raise RuntimeError("engine stand-in")

    monkeypatch.setattr(frobinom.cli, "NumericalSemigroup", engine_forbidden)
    code, _, err = run(capsys, *command, *OVER_BUDGET)
    monkeypatch.setattr(frobinom.cli, "NumericalSemigroup", recording_engine)
    # repeated generators count once: 7 listed, 2 distinct
    for gens in (AT_BUDGET, OVER_BUDGET[:1] + OVER_BUDGET[1:2] * 6):
        assert run(capsys, *command, *gens)[0] == 3
    return code, err, calls


class TestDecompose:
    @pytest.mark.parametrize("n, m", [("15625", "5153"), ("16807", "4644")])
    def test_json_only_digit_limit_is_an_error_not_a_traceback(self, capsys, n, m):
        # value has 4300 digits, which str() still converts; the JSON-only
        # field binomial = value * p has 4301, one over the default limit
        code, _, _ = run(capsys, "decompose", n, m)
        assert code == 0
        code, out, err = run(capsys, "decompose", n, m, "--format", "json")
        assert code not in (1, 3)
        assert "Traceback" not in err
        if code:
            assert out == "" and err.startswith("frobinom: ") and err.count("\n") == 1


class TestCore:
    def test_engine_budget_exits_64_before_the_engine(self, capsys, monkeypatch):
        code, err, calls = engine_budget_calls(capsys, monkeypatch, "core", "--semigroup")
        assert code == 64
        assert OVER_BUDGET_MESSAGE in err
        assert calls == [AT_BUDGET, OVER_BUDGET[:1] + OVER_BUDGET[1:2] * 6]

    def test_text_elides_partition_and_a_set_above_1000(self, capsys):
        # <46, 47>: genus 1035 (one part each) and 1035 members below F = 2069
        S = NumericalSemigroup([46, 47])
        parts = [g - i for i, g in enumerate(S.gaps())][::-1]
        assert (len(parts), min(parts), max(parts)) == (1035, 1, 1035)
        code, out, _ = run(capsys, "core", "--semigroup", "46", "47")
        assert code == 0
        assert text_line(out, "partition") == "(1035 elements; min 1, max 1035)"
        assert text_line(out, "A(S)") == "(1036 elements; min 0, max 2070)"
        code, env, _ = run_json(capsys, "core", "--semigroup", "46", "47")
        assert code == 0
        assert env["result"]["frobenius"] == "2069"
        assert env["result"]["partition"] == [str(p) for p in parts]

    def test_text_lists_partition_and_a_set_up_to_1000(self, capsys):
        # <45, 46>: genus 990 and 990 members below F = 1979
        S = NumericalSemigroup([45, 46])
        parts = tuple([g - i for i, g in enumerate(S.gaps())][::-1])
        members = [x for x in range(1980) if x in S]
        code, out, _ = run(capsys, "core", "--semigroup", "45", "46")
        assert code == 0
        assert text_line(out, "partition") == str(parts)
        assert text_line(out, "A(S)") == "{" + ", ".join(map(str, members)) + ", 1980, ...}"

    @pytest.mark.parametrize("gens", [(5, 7, 9), (3, 28), (6, 15, 20), (12, 19, 24), (46, 47)])
    def test_semigroup_reads_a_set_as_s(self, capsys, gens):
        # the same output as the gap set of the semigroup (WORK in
        # tests/test_layering.py pins that no A(S) is computed)
        gaps = [str(g) for g in NumericalSemigroup(list(gens)).gaps()]
        by_gaps = run(capsys, "core", "--gaps", *gaps)
        _, by_gaps_json, _ = run_json(capsys, "core", "--gaps", *gaps)
        argv = ("core", "--semigroup", *map(str, gens))
        assert run(capsys, *argv) == by_gaps
        code, env, _ = run_json(capsys, *argv)
        assert code == 0
        assert env["result"] == by_gaps_json["result"]

    @pytest.mark.parametrize("seed", range(6))
    def test_hook_set_is_cell_by_cell(self, capsys, seed):
        rng = random.Random(seed)
        gaps = rng.sample(range(1, 60), rng.randint(1, 25))
        code, env, _ = run_json(capsys, "core", "--gaps", *map(str, gaps))
        assert code == 0
        rows = [int(p) for p in env["result"]["partition"]]
        cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
        hooks = sorted({rows[i] - j + cols[j] - i - 1
                        for i in range(len(rows)) for j in range(rows[i])})
        assert env["result"]["hook_set"] == [str(h) for h in hooks]


class TestVerify:
    def test_refused_exactly_over_the_engine_budget(self, capsys, monkeypatch):
        # the sweep's cost is the engine budget's measure, multiplicity times
        # distinct generators, of each composite n's family, summed up to max_n
        swept = []

        def closed_forms(n):
            swept.append(n)
            return n, None

        monkeypatch.setattr(frobinom.oracle, "_closed_forms", closed_forms)
        monkeypatch.setattr(frobinom.oracle, "_compare", lambda n, listing:
                            frobinom.oracle.OracleComparison(n, {"genus": (0, 0)}))
        monkeypatch.setattr(frobinom.oracle, "_arithmetic_checks", lambda: [])
        cost = 0
        for max_n in range(4, 401):
            if not is_prime(max_n):
                family = bn_family(max_n)
                cost += min(family) * len(set(family))
            swept.clear()
            code, out, err = run(capsys, "verify", "--max-n", str(max_n))
            over = cost > frobinom.cli.ENGINE_BUDGET
            assert code == (64 if over else 0), max_n
            assert swept == ([] if over else [n for n in range(4, max_n + 1) if not is_prime(n)])
            assert (out == "") == over and ("engine budget" in err) == over, max_n
        assert cost > frobinom.cli.ENGINE_BUDGET  # the range reaches past the budget

    def test_reach_354_passes_within_2_s(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--max-n", "354")
        assert time.perf_counter() - started < 2
        assert code == 0
        assert "FAIL" not in out and "PASS  n=354 genus" in out
        assert out.endswith("\nall checks passed\n")

    def test_a_raising_closed_form_is_one_failed_row(self, capsys, monkeypatch):
        real = frobinom.binomial.bn_report

        def report(n):
            if n == 6:
                raise ValueError("closed-form stand-in")
            return real(n)

        monkeypatch.setattr(frobinom.binomial, "bn_report", report)
        code, out, _ = run(capsys, "verify", "--max-n", "8")
        assert code == 1
        failed = [re.split(r" {2,}", line) for line in out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == [["FAIL", "n=6 closed forms", "ValueError: closed-form stand-in"]]
        assert {f"PASS  n={n} {field}" for n in (4, 8) for field in ORACLE_FIELDS} \
            <= set(out.splitlines())
        assert out.endswith("\nMISMATCHES FOUND\n")
        code, env, _ = run_json(capsys, "verify", "--max-n", "8")
        assert code == 1
        assert env["result"]["all_passed"] is False
        assert [c for c in env["result"]["checks"] if not c["passed"]] == [
            {"name": "n=6 closed forms", "passed": False,
             "detail": "ValueError: closed-form stand-in"}]

    @pytest.mark.parametrize("name", ["bn_family", "NumericalSemigroup"])
    def test_a_raising_engine_is_an_internal_error(self, capsys, monkeypatch, name):
        def broken(n):
            raise RuntimeError("engine stand-in")

        monkeypatch.setattr(frobinom.oracle, name, broken)
        code, out, err = run(capsys, "verify", "--max-n", "8")
        assert (code, out) == (3, "")
        assert err == "frobinom: internal error: RuntimeError: engine stand-in\n"


class TestClosedStdout:
    # the read end of the pipe is closed before the child writes, so even a
    # few bytes of output meet a closed pipe
    @pytest.mark.parametrize("argv", [
        ["report", "6"],
        ["core", "--semigroup", "46", "47", "--format", "json"],
        ["verify", "--max-n", "6"],
        ["-h"],
        ["report", "--help"],
    ])
    def test_exits_3_in_one_line(self, argv):
        src = os.path.dirname(os.path.dirname(frobinom.binomial.__file__))
        probe = (f"import sys; sys.path.insert(0, {src!r}); from frobinom.cli import main; "
                 f"sys.exit(main({argv!r}))")
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-S", "-c", probe], stdout=write,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert done.returncode == 3
        assert done.stderr == ("frobinom: internal error: BrokenPipeError: "
                               "[Errno 32] Broken pipe\n")


class TestInternalError:
    def test_stray_exception_exits_3_in_one_line(self, capsys, monkeypatch):
        def broken(n):
            raise ZeroDivisionError("integer division or modulo by zero")

        monkeypatch.setattr(frobinom.binomial, "bn_report", broken)
        code, out, err = run(capsys, "report", "30")
        assert (code, out) == (3, "")
        assert err == ("frobinom: internal error: ZeroDivisionError: "
                       "integer division or modulo by zero\n")
        assert "Traceback" not in err

    def test_invariant_violation_exits_3_in_one_line(self, capsys, monkeypatch):
        # a RuntimeError takes the same path as any other stray exception
        def broken(n):
            raise RuntimeError("closed-form genus for n = 30 is not an integer")

        monkeypatch.setattr(frobinom.binomial, "bn_report", broken)
        code, out, err = run(capsys, "report", "30")
        assert (code, out) == (3, "")
        assert err == ("frobinom: internal error: RuntimeError: "
                       "closed-form genus for n = 30 is not an integer\n")


class TestEnvelope:
    def test_stringify_renders_a_shared_list_once_and_keeps_bools(self):
        shared = [0, 7, 10**30]
        out = frobinom.cli._stringify(
            {"a": shared, "b": shared, "c": [True, 4, (5, False)], "d": (), "e": None})
        assert out == {"a": ["0", "7", str(10**30)], "b": ["0", "7", str(10**30)],
                       "c": [True, "4", ["5", False]], "d": [], "e": None}
        assert out["a"] is out["b"]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["argv"])
def test_contract_row(capsys, case):
    # the table that CI also runs through the installed console script
    assert check(case, *run(capsys, *case["argv"].split())) == []


class TestParse:
    """The argument contract: where options may go, and how bad usage exits."""

    @pytest.mark.parametrize("argv, named", [
        (("--format", "xml", "report", "6"), "xml"),
        (("report", "6", "--format", "xml"), "xml"),
        (("report", "6", "--format"), "--format"),
        ((), "command"),
        (("frob", "6"), "frob"),
        (("decompose", "50"), "m"),
        (("admissible", "50", "65"), "p"),
        (("semigroup",), "generators"),
        (("report", "6", "7"), "7"),
        (("semigroup", "5", "--apery-base", "5", "7"), "7"),
        (("report", "fifty"), "fifty"),
        (("decompose", "50", "7.5"), "7.5"),
        (("semigroup", "5", "7", "--apery-base", "x"), "x"),
        (("verify", "--max-n"), "--max-n"),
        (("report", "6", "--force-base"), "--force-base"),
        (("admissible", "8", "1", "2", "--force-base=1"), "1"),
        (("core", "--semigroup"), "--semigroup"),
    ])
    def test_usage_error_exits_64_and_names_the_culprit(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err.startswith("usage: ")
        last = err.splitlines()[-1]
        assert last.startswith("frobinom") and "error: " in last
        assert re.search(rf"(?<![\w-]){re.escape(named)}(?![\w-])", last.split("error: ", 1)[1])

    @pytest.mark.parametrize("argv", [
        ("semigroup", "5", "7", "--apery-base", "-5"),
        ("core", "--gaps", "-3", "2"),
    ])
    def test_negative_option_values_reach_the_handler(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("argv", [("core",), ("core", "--gaps", "1", "--semigroup", "3", "4"),
                                      ("core", "--semigroup", "3", "4", "--gaps")])
    def test_core_takes_exactly_one_source(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64
        last = err.splitlines()[-1]
        assert "--gaps" in last and "--semigroup" in last

    @pytest.mark.parametrize("argv", [("core", "--gaps"), ("core", "--gaps=3")])
    def test_list_option_forms(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--format", "json", "-h")])
    def test_top_level_help_names_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ")
        assert captured.err == ""
        for command in ("report", "semigroup", "decompose", "core", "admissible", "verify"):
            assert command in captured.out

    @pytest.mark.parametrize("argv", [("report", "-h"), ("semigroup", "5", "--help"),
                                      ("core", "-h"), ("admissible", "--help")])
    def test_command_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ")
        assert argv[0] in captured.out.splitlines()[0]
        assert captured.err == ""


# Labels of the text rows, longest first, read into field names as
# perfbench/checks.py reads them: spaces and hyphens become underscores.
TEXT_LABELS = sorted((
    "n", "factorization", "scale", "minimal generators", "embedding dimension",
    "apery base", "apery set", "frobenius", "genus", "pseudo-frobenius", "type",
    "symmetric", "telescopic", "multiplicity", "gaps", "target", "basis",
    "coefficients", "identity", "triple", "count", "partition", "hook set", "A(S)",
), key=len, reverse=True)
ELIDED = re.compile(r"\((\d+) (?:elements|gaps); min (-?\d+), max (-?\d+)\)")


def text_rows(out):
    """(field name, value text) of each text row."""
    for line in out.splitlines():
        label = next((label for label in TEXT_LABELS if line.startswith(label + " ")), None)
        assert label, line
        yield label.replace(" ", "_").replace("-", "_"), line[len(label):].strip()


def read_text(value):
    """A row's value as the checker reads it; an elided list as (count, min, max)."""
    if value.lstrip("-").isdigit():
        return int(value)
    if value in ("true", "false"):
        return value == "true"
    if elided := ELIDED.fullmatch(value):
        return tuple(map(int, elided.groups()))
    if value[:1] in "[(":
        return [int(v) for v in value[1:-1].split(",") if v.strip()]
    return value


def read_json(node):
    if isinstance(node, list):
        return [read_json(v) for v in node]
    if isinstance(node, dict):
        return {k: read_json(v) for k, v in node.items()}
    return int(node) if isinstance(node, str) else node


# --- the exit-code contract as one property over argv ----------------------
# One checker runs an argv as a text call, as a JSON call and as variants that
# must answer alike, and asserts every clause on each.  It runs on fixed argv
# and on seeded draws built from `_COMMANDS`, so a new command or option is
# drawn without editing this test.

EDGES = (MAX_N, MAX_N + 1, ENGINE_BUDGET, ELIDE_ABOVE, ELIDE_ABOVE + 1, SET_BOUND, SET_BOUND + 1)
ODD_TOKENS = ("+5", "-0", "10_000", "٣", "1e3", "2.5", "0x10", "-")
# verify runs ~30 ms of arithmetic self-checks on every call, the others well
# under 1 ms at these sizes, so verify is drawn a tenth as often
WEIGHTS = [0.1 if name == "verify" else 1 for name in _COMMANDS]
USAGE_ERROR = re.compile(r"(usage: frobinom .*\n)?frobinom: error: .*\n")
DOMAIN_ERROR = re.compile(r"frobinom: (?!error:).*\n")


def draw_argv(rng):
    """A command of `_COMMANDS`, each positional filled and each option added
    at random, with values by their nargs: mostly ints in [-5, 60], now and
    then an odd token, and at most one edge of the bounds."""
    command = rng.choices(list(_COMMANDS), WEIGHTS)[0]
    _, positionals, options, _ = _COMMANDS[command]
    edge = [rng.choice(EDGES)]

    def value():
        roll = rng.random()
        if roll < 0.05:
            return rng.choice(ODD_TOKENS)
        if roll < 0.1 and edge:
            return str(edge.pop())
        return str(rng.randint(-5, 60))

    def values(nargs):
        count = {0: 0, 1: 1, "*": rng.randint(0, 3), "+": rng.randint(1, 3)}[nargs]
        return [value() for _ in range(count)]

    argv = [command]
    for nargs in positionals.values():
        argv += values(nargs)
    for option, (nargs, _) in options.items():
        if rng.random() < 0.5:
            argv += [option, *values(nargs)]
    return argv


def equals_form(argv, command):
    """argv with each `--name value` of an option that takes values written `--name=value`."""
    valued = {"--format", *(name for name, (nargs, _) in _COMMANDS[command][2].items() if nargs)}
    joined = list(argv)
    for i in reversed(range(len(joined) - 1)):
        if joined[i] in valued and not joined[i + 1].startswith("--"):
            joined[i:i + 2] = [joined[i] + "=" + joined[i + 1]]
    return joined


def check_rows(command, text, result):
    """Each text row equals the JSON field it shows."""
    if command == "verify":
        *rows, verdict = text.splitlines()
        assert [row[:4] for row in rows] == ["PASS" if c["passed"] else "FAIL"
                                             for c in result["checks"]]
        assert verdict == ("all checks passed" if result["all_passed"] else "MISMATCHES FOUND")
        return
    result = read_json(result)
    rows = list(text_rows(text))
    assert rows
    for name, value in rows:
        shown = read_text(value)
        if name == "factorization":
            assert [[int(p), int(k or 1)] for p, _, k in
                    (f.partition("^") for f in value.split(" * "))] == result[name]
        elif name in result and isinstance(shown, tuple):
            field = result[name]
            assert shown == (len(field), min(field), max(field)), name
        elif name in result:
            assert shown == result[name], name
        elif name + "_elided" in result:
            elided = result[name + "_elided"]
            assert shown == (elided["count"], elided["min"], elided["max"]), name
        else:
            # the rows that show more than one field
            assert name in ("target", "identity", "A(S)"), name


def check_argv(capsys, argv, variants):
    """Every clause of the exit-code contract on argv's text call, its JSON
    call and the named variants; the exit code they share."""
    command = next(token for token in argv if token in _COMMANDS)
    at = argv.index(command)
    text = run(capsys, *argv)
    # --format may go anywhere: the JSON call names it right after the
    # command, the "format first" variant before it, the contract rows last
    as_json = run(capsys, *argv[:at + 1], "--format", "json", *argv[at + 1:])
    code = text[0]
    for got, out, err in (text, as_json):
        assert got in (0, 1, 2, 64), (argv, got, err)
        assert got != 1 or command == "verify", argv
        if got == 64:
            assert out == "" and USAGE_ERROR.fullmatch(err), (argv, out, err)
        elif got == 2:
            assert out == "" and DOMAIN_ERROR.fullmatch(err), (argv, out, err)
        elif got == 0:
            assert err == "", (argv, err)
    assert as_json[0] == code, (argv, text, as_json)
    if code == 0:
        out = as_json[1]
        envelope = json.loads(out, parse_int=bare_number, parse_float=bare_number,
                              parse_constant=bare_number)
        assert out.count("\n") == 1 and json.dumps(envelope, sort_keys=True) + "\n" == out, argv
        assert set(envelope) == {"command", "input", "result", "timing_ms"}, argv
        assert envelope["command"] == command, argv
        check_rows(command, text[1], envelope["result"])
    for variant in variants:
        if variant == "equals":
            joined = equals_form(argv, command)
            assert run(capsys, *joined) == text, (argv, joined)
        elif variant == "format first":
            got, out, _ = run(capsys, *argv[:at], "--format", "json", *argv[at:])
            assert got == code, argv
            if code == 0:
                assert json.loads(out)["result"] == envelope["result"], argv
        else:  # the last --format wins
            assert run(capsys, *argv, "--format", "json", "--format", "text") == text, argv
    return code


VARIANTS = ("equals", "format first", "last format")


@pytest.mark.parametrize("argv", [
    # each command
    "report 6", "report 9", "report 50", "semigroup 5 7 9", "decompose 50 7",
    "core --gaps 2 5 6 8", "admissible 70 12 11", "verify --max-n 6",
    # an elided Apery set, elided gaps and a partition of over 1000 parts
    "report 2310", "semigroup 46 47", "core --semigroup 46 47",
    # options whose equals forms must answer alike; the leading text format
    # must lose to the JSON call's later json
    "semigroup 6 15 20 --apery-base 15", "core --semigroup 5 7",
    "--format text core --semigroup 5 7",
])
def test_fixed_argv_keep_the_exit_code_contract(capsys, argv):
    assert check_argv(capsys, argv.split(), VARIANTS) == 0


# at this seed no draw puts MAX_N in --gaps or --apery-base, whose answers
# span a table of 10^6 entries at ~1.5 s a draw (seeds 4 and 5 draw one)
DRAWS, SEED = 400, 0


def test_seeded_argv_keep_the_exit_code_contract(capsys):
    rng = random.Random(SEED)
    answered, codes = set(), set()
    for _ in range(DRAWS):
        argv = draw_argv(rng)
        code = check_argv(capsys, argv, [rng.choice(VARIANTS)])
        codes.add(code)
        if code == 0:  # in text and in JSON
            answered.update(token for token in argv if not token.lstrip("-").isdigit())
    # every command and every option answered in both formats at this seed,
    # and the refusals were reached
    assert answered >= {*_COMMANDS, *(name for spec in _COMMANDS.values() for name in spec[2])}
    assert codes >= {0, 2, 64}

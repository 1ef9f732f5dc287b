"""CLI surface: exit codes, text output, and the JSON envelope contract."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import frobinom.binomial
import frobinom.cli
import frobinom.corepartitions
import frobinom.exactmath
from frobinom.binomial import bn_apery_closed, bn_family, bn_report
from frobinom.cli import main
from frobinom.exactmath import is_prime
from frobinom.semigroup import NumericalSemigroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), out


def no_bare_numbers(node):
    """Envelope leaves must be strings, bools or null - never int/float."""
    if isinstance(node, dict):
        return all(no_bare_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(no_bare_numbers(v) for v in node)
    return not isinstance(node, (int, float)) or isinstance(node, bool)


class TestReport:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "report", "50")
        assert code == 0
        assert "505642434227223" in out

    def test_json_fields(self, capsys):
        code, env, _ = run_json(capsys, "report", "50")
        assert code == 0
        assert env["command"] == "report"
        assert env["input"] == {"n": "50"}
        assert env["result"]["frobenius"] == "505642434227223"
        assert env["result"]["genus"] == "252821217113612"
        assert env["result"]["symmetric"] is True

    def test_json_result_at_30(self, capsys):
        code, env, _ = run_json(capsys, "report", "30")
        assert code == 0
        assert env["result"] == {
            "n": "30", "factorization": [["2", "1"], ["3", "1"], ["5", "1"]], "scale": "1",
            "minimal_generators": ["30", "435", "4060", "142506"],
            "embedding_dimension": "4", "apery_base": "30",
            "apery_box": {"base": "30",
                          "generators": [["435", "2"], ["4060", "3"], ["142506", "5"]]},
            "apery_set": [
                "0", "435", "4060", "4495", "8120", "8555", "142506", "142941", "146566",
                "147001", "150626", "151061", "285012", "285447", "289072", "289507",
                "293132", "293567", "427518", "427953", "431578", "432013", "435638",
                "436073", "570024", "570459", "574084", "574519", "578144", "578579"],
            "frobenius": "578549", "genus": "289275", "pseudo_frobenius": ["578549"],
            "type": "1", "symmetric": True, "telescopic": True,
        }

    def test_scaled_case(self, capsys):
        # every key of the result, so no field of the record comes or goes unseen
        code, env, _ = run_json(capsys, "report", "9")
        assert code == 0
        assert env["result"] == {
            "n": "9", "factorization": [["3", "2"]], "scale": "3",
            "minimal_generators": ["3", "28"], "embedding_dimension": "2",
            "apery_base": "3", "apery_box": {"base": "3", "generators": [["28", "3"]]},
            "apery_set": ["0", "28", "56"], "frobenius": "53", "genus": "27",
            "pseudo_frobenius": ["53"], "type": "1", "symmetric": True, "telescopic": True,
        }

    def test_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "report", "7")
        assert code == 2
        assert "prime" in err

    def test_parse_error_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "fifty"])
        assert exc.value.code == 64

    def test_oversized_n_exits_64(self, capsys):
        code, _, err = run(capsys, "report", str(10**6 + 1))
        assert code == 64


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
    def test_largest_reports_list_no_apery_set(self, capsys, monkeypatch, n):
        # 10^6 = 2^6 * 5^6 has 10^6 Apery elements of about 35000 digits;
        # its answers exceed the default int-to-str limit, which is lifted
        # here so that the report itself is checked
        def listing_forbidden(n):
            raise AssertionError(f"bn_apery_closed({n}) called by report")

        monkeypatch.setattr(frobinom.binomial, "bn_apery_closed", listing_forbidden)
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


def test_cli_import_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(frobinom.binomial.__file__))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import frobinom.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


class TestSemigroup:
    def test_example_5_7_9(self, capsys):
        code, env, _ = run_json(capsys, "semigroup", "5", "7", "9")
        assert code == 0
        assert env["result"]["frobenius"] == "13"
        assert env["result"]["gaps"] == ["1", "2", "3", "4", "6", "8", "11", "13"]

    def test_whole_numbers(self, capsys):
        code, env, _ = run_json(capsys, "semigroup", "1")
        assert code == 0
        assert env["result"]["frobenius"] == "-1"

    def test_gcd_error_exits_2(self, capsys):
        code, _, err = run(capsys, "semigroup", "4", "6")
        assert code == 2
        assert "gcd" in err

    def test_apery_base_flag(self, capsys):
        code, env, _ = run_json(capsys, "semigroup", "6", "15", "20", "--apery-base", "15")
        assert code == 0
        assert env["result"]["apery_base"] == "15"
        assert len(env["result"]["apery_set"]) == 15

    def test_big_semigroup_elides_gaps_in_text(self, capsys):
        code, out, _ = run(capsys, "semigroup", "50", "1225", "2118760", "126410606437752")
        assert code == 0
        assert "252821217113612 gaps" in out

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

    def test_multiplicity_above_max_n_exits_64(self, capsys, monkeypatch):
        monkeypatch.setattr(frobinom.cli, "NumericalSemigroup", engine_forbidden)
        code, _, err = run(capsys, "semigroup", str(10**6 + 1), str(10**6 + 2))
        assert code == 64
        assert "multiplicity 1000001 exceeds" in err

    def test_apery_base_above_max_n_exits_64(self, capsys, monkeypatch):
        monkeypatch.setattr(frobinom.cli, "NumericalSemigroup", engine_forbidden)
        code, _, err = run(capsys, "semigroup", "5", "7", "--apery-base", str(10**6 + 1))
        assert code == 64
        assert "--apery-base 1000001 exceeds" in err

    def test_engine_budget_exits_64_before_the_engine(self, capsys, monkeypatch):
        code, err, calls = engine_budget_calls(capsys, monkeypatch, "semigroup")
        assert code == 64
        assert OVER_BUDGET_MESSAGE in err
        assert calls == [AT_BUDGET, OVER_BUDGET[:1] + OVER_BUDGET[1:2] * 6]

    def test_apery_base_counts_against_the_engine_budget(self, capsys, monkeypatch):
        # a table at --apery-base 10^6 costs as much as one at multiplicity 10^6
        monkeypatch.setattr(frobinom.cli, "NumericalSemigroup", engine_forbidden)
        code, _, err = run(capsys, "semigroup", *map(str, range(5, 12)), "--apery-base", str(10**6))
        assert code == 64
        assert ("--apery-base 1000000 x 7 distinct generators = 7000000 "
                "exceeds the engine budget 6000000") in err


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
    def test_canonical(self, capsys):
        code, env, _ = run_json(capsys, "decompose", "10", "3")
        assert code == 0
        assert env["result"]["basis"] == ["10", "45", "252"]
        assert env["result"]["coefficients"] == ["12", "0", "0"]

    def test_unit_coefficient(self, capsys):
        code, env, _ = run_json(capsys, "decompose", "6", "3")
        assert code == 0
        assert env["result"]["coefficients"] == ["0", "0", "1"]

    def test_big_case_sound(self, capsys):
        code, env, _ = run_json(capsys, "decompose", "50", "7")
        assert code == 0
        basis = [int(x) for x in env["result"]["basis"]]
        coeffs = [int(x) for x in env["result"]["coefficients"]]
        assert sum(c * b for c, b in zip(coeffs, basis)) == int(env["result"]["value"])

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "decompose", "10", "10")
        assert code == 2

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
    def test_from_semigroup(self, capsys):
        code, env, _ = run_json(capsys, "core", "--semigroup", "5", "7", "9")
        assert code == 0
        assert env["result"]["partition"] == ["6", "5", "3", "2", "1", "1", "1", "1"]
        assert env["result"]["hook_set"] == ["1", "2", "3", "4", "6", "8", "11", "13"]

    def test_from_gaps(self, capsys):
        code, env, _ = run_json(capsys, "core", "--gaps", "2", "5", "6", "8")
        assert code == 0
        assert env["result"]["partition"] == ["5", "4", "4", "2"]
        assert env["result"]["a_set_gaps"] == [str(x) for x in range(1, 9)]

    def test_empty_gaps(self, capsys):
        code, env, _ = run_json(capsys, "core", "--gaps")
        assert code == 0
        assert env["result"]["partition"] == []
        assert env["result"]["frobenius"] == "-1"

    def test_zero_gap_exits_2(self, capsys):
        code, _, _ = run(capsys, "core", "--gaps", "0", "3")
        assert code == 2

    def test_multiplicity_above_max_n_exits_64(self, capsys, monkeypatch):
        monkeypatch.setattr(frobinom.cli, "NumericalSemigroup", engine_forbidden)
        code, _, err = run(capsys, "core", "--semigroup", str(10**6 + 1), str(10**6 + 2))
        assert code == 64
        assert "multiplicity 1000001 exceeds" in err

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
        assert env["result"]["partition"] == [str(p) for p in parts]

    def test_text_lists_partition_and_a_set_up_to_1000(self, capsys):
        # <45, 46>: genus 990 and 990 members below F = 1979
        S = NumericalSemigroup([45, 46])
        parts = tuple([g - i for i, g in enumerate(S.gaps())][::-1])
        members = [x for x in range(1980) if S.contains(x)]
        code, out, _ = run(capsys, "core", "--semigroup", "45", "46")
        assert code == 0
        assert text_line(out, "partition") == str(parts)
        assert text_line(out, "A(S)") == "{" + ", ".join(map(str, members)) + ", 1980, ...}"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_semigroup_lists_the_gaps_once(self, capsys, monkeypatch, fmt):
        calls = []
        gaps = frobinom.corepartitions.NumericalSet.gaps

        def counted(S):
            calls.append(S.frobenius)
            return gaps(S)

        monkeypatch.setattr(frobinom.corepartitions.NumericalSet, "gaps", counted)
        code, _, _ = run(capsys, "core", "--semigroup", "46", "47", "--format", fmt)
        assert code == 0
        assert calls == [2069]

    @pytest.mark.parametrize("argv, lines", [
        (("--semigroup", "5", "7", "9"), [
            "frobenius  13",
            "gaps       [1, 2, 3, 4, 6, 8, 11, 13]",
            "partition  (6, 5, 3, 2, 1, 1, 1, 1)",
            "hook set   [1, 2, 3, 4, 6, 8, 11, 13]",
            "A(S)       {0, 5, 7, 9, 10, 12, 14, ...}"]),
        (("--gaps", "2", "5", "6", "8"), [
            "frobenius  8",
            "gaps       [2, 5, 6, 8]",
            "partition  (5, 4, 4, 2)",
            "hook set   [1, 2, 3, 4, 5, 6, 7, 8]",
            "A(S)       {0, 9, ...}"]),
        (("--semigroup", "1"), [
            "frobenius  -1", "gaps       []", "partition  ()", "hook set   []",
            "A(S)       {0, ...}"]),
    ])
    def test_text_lines(self, capsys, argv, lines):
        code, out, _ = run(capsys, "core", *argv)
        assert code == 0
        assert out.splitlines() == lines

    @pytest.mark.parametrize("argv, frobenius", [
        (("--semigroup", "46", "47"), "2069"), (("--gaps", "2", "5", "6", "8"), "8")])
    def test_json_builds_no_text(self, capsys, monkeypatch, argv, frobenius):
        def forbidden(*args):
            raise AssertionError("text line built in JSON mode")

        monkeypatch.setattr(frobinom.corepartitions.NumericalSet,
                            "members_below_frobenius", forbidden)
        monkeypatch.setattr(frobinom.cli, "_fmt_list", forbidden)
        code, env, _ = run_json(capsys, "core", *argv)
        assert code == 0
        assert env["result"]["frobenius"] == frobenius

    def test_a_set_computed_once(self, capsys, monkeypatch):
        calls = []
        a_set_gaps = frobinom.corepartitions._a_set_gaps

        def counted(mask):
            calls.append(mask)
            return a_set_gaps(mask)

        monkeypatch.setattr(frobinom.corepartitions, "_a_set_gaps", counted)
        code, _, _ = run_json(capsys, "core", "--gaps", "2", "5", "6", "8")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("gens", [(5, 7, 9), (3, 28), (6, 15, 20), (12, 19, 24), (46, 47)])
    def test_semigroup_reads_a_set_as_s(self, capsys, monkeypatch, gens):
        # the same output as the gap set of the semigroup, with no A(S) computed
        gaps = [str(g) for g in NumericalSemigroup(list(gens)).gaps()]
        by_gaps = run(capsys, "core", "--gaps", *gaps)
        _, by_gaps_json, _ = run_json(capsys, "core", "--gaps", *gaps)

        def a_set_forbidden(mask):
            raise AssertionError("A(S) computed for core --semigroup")

        monkeypatch.setattr(frobinom.corepartitions, "_a_set_gaps", a_set_forbidden)
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


class TestAdmissible:
    def test_golden_n50(self, capsys):
        code, env, _ = run_json(capsys, "admissible", "50", "65", "6")
        assert code == 0
        assert env["result"] == {
            "triple": ["379231827789565", "379231827789566", "379231827789571"],
            "count": "126410606437653",
        }

    def test_golden_n70(self, capsys):
        code, env, _ = run_json(capsys, "admissible", "70", "12", "11")
        assert code == 0
        assert env["result"]["count"] == "2409654789"

    def test_prime_power_needs_flag(self, capsys):
        code, _, err = run(capsys, "admissible", "8", "1", "2")
        assert code == 2
        code, env, _ = run_json(capsys, "admissible", "8", "1", "2", "--force-base")
        assert code == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prime_power_refusal_names_the_flag(self, capsys, fmt):
        code, out, err = run(capsys, "admissible", "8", "1", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("frobinom: n = 8 is a prime power; its Apery base is 2**2, not n. "
                       "Pass force_base=True (--force-base) to run against that base\n")

    def test_residue_collision_exits_2(self, capsys):
        code, _, _ = run(capsys, "admissible", "6", "1", "6")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_p_below_two_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "admissible", "10", "1", "-5", "--format", fmt)
        assert (code, out, err) == (2, "", "frobinom: need p >= 2, got -5\n")


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out

    def test_default_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.count("PASS") > 170

    def test_json_shape(self, capsys):
        code, env, _ = run_json(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert env["result"]["all_passed"] is True
        assert all(c["passed"] for c in env["result"]["checks"])

    def test_bound_exits_64(self, capsys):
        code, _, _ = run(capsys, "verify", "--max-n", "100")
        assert code == 64

    def test_cap_is_40(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "41")
        assert (code, out) == (64, "")
        assert err == "frobinom: error: --max-n 41 exceeds the cap 40\n"

    @pytest.mark.parametrize("max_n", [3, 0, -5])
    def test_max_n_below_4_exits_64(self, capsys, max_n):
        # no composite n below 4: such a sweep would check no closed form
        code, out, err = run(capsys, "verify", "--max-n", str(max_n))
        assert (code, out) == (64, "")
        assert err == f"frobinom: error: --max-n {max_n} is below 4; it takes 4..40\n"

    def test_wrong_binomial_fails_its_arithmetic_rows(self, capsys, monkeypatch):
        real = frobinom.exactmath.binomial
        monkeypatch.setattr(frobinom.exactmath, "binomial",
                            lambda n, k: real(n, k) + ((n, k) == (10, 3)))
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 1
        failed = [line.split("  ")[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == [
            "pascal recurrence and symmetry, n <= 60",
            "carry count = divide-out valuation = floor-sum formula, n <= 60",
            "prime-power quotient congruence (a >= 1 for p = 2), p in 2..7, m <= 12",
        ]
        assert out.endswith("\nMISMATCHES FOUND\n")
        code, env, _ = run_json(capsys, "verify", "--max-n", "4")
        assert code == 1
        assert env["result"]["all_passed"] is False
        assert sum(not c["passed"] for c in env["result"]["checks"]) == 3

    def test_wrong_closed_genus_fails_only_the_genus_rows(self, capsys, monkeypatch):
        real = frobinom.binomial.bn_report
        monkeypatch.setattr(frobinom.binomial, "bn_report",
                            lambda n: real(n)._replace(genus=real(n).genus + 1))
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split()[1:3] for line in failed] == [["n=4", "genus"], ["n=6", "genus"]]
        assert failed[0].endswith("closed=2 oracle=1")
        assert failed[1].endswith("closed=26 oracle=25")
        assert out.endswith("\nMISMATCHES FOUND\n")


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


class TestFactorizeOncePerCall:
    # the spec stage is cached, so the CLI and the box it builds share one factorization
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [("report", "30030"), ("decompose", "30030", "7")])
    def test_one_factorization(self, capsys, monkeypatch, argv, fmt):
        real, calls = frobinom.binomial.factorize, []

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(frobinom.binomial, "factorize", counted)
        frobinom.binomial.bn_spec.cache_clear()
        frobinom.binomial._box.cache_clear()
        code, _, _ = run(capsys, "--format", fmt, *argv)
        assert code == 0
        assert calls == [30030]


class TestEnvelope:
    @pytest.mark.parametrize("argv", [
        ("report", "50"),
        ("report", "9"),
        ("semigroup", "5", "7", "9"),
        ("decompose", "50", "7"),
        ("core", "--gaps", "2", "5", "6", "8"),
        ("admissible", "70", "12", "11"),
        ("verify", "--max-n", "6"),
    ])
    def test_roundtrip_and_no_bare_numbers(self, capsys, argv):
        code, env, raw = run_json(capsys, *argv)
        assert code == 0
        assert json.dumps(env, sort_keys=True) + "\n" == raw
        assert no_bare_numbers(env)
        assert set(env) == {"command", "input", "result", "timing_ms"}

    def test_stringify_renders_a_shared_list_once_and_keeps_bools(self):
        shared = [0, 7, 10**30]
        out = frobinom.cli._stringify(
            {"a": shared, "b": shared, "c": [True, 4, (5, False)], "d": (), "e": None})
        assert out == {"a": ["0", "7", str(10**30)], "b": ["0", "7", str(10**30)],
                       "c": [True, "4", ["5", False]], "d": [], "e": None}
        assert out["a"] is out["b"]

    def test_global_format_flag_position(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "report", "6")
        assert code == 0
        assert json.loads(out)["result"]["frobenius"] == "49"

    @pytest.mark.parametrize("argv", [
        ("--max-n", "4", "verify"),
        ("--force-base", "admissible", "8", "1", "2"),
    ])
    def test_subcommand_options_before_the_subcommand_exit_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 64


def run_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a call, a usage error's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    """The argument contract: where options may go, and how bad usage exits."""

    @pytest.mark.parametrize("argv", [
        ("report", "6", "--format", "json"),
        ("report", "--format", "json", "6"),
        ("report", "--format=json", "6"),
        ("--format", "text", "report", "6", "--format", "json"),
        ("--format", "json", "--format", "text", "report", "--format", "json", "6"),
    ])
    def test_format_anywhere_and_the_last_wins(self, capsys, argv):
        code, out, _ = run_exit(capsys, *argv)
        assert code == 0
        assert json.loads(out)["result"]["frobenius"] == "49"

    @pytest.mark.parametrize("argv", [
        ("report", "6", "--format", "json", "--format", "text"),
        ("--format", "json", "report", "6", "--format", "text"),
    ])
    def test_a_later_text_format_wins(self, capsys, argv):
        code, out, _ = run_exit(capsys, *argv)
        assert code == 0
        assert text_line(out, "frobenius") == "49"

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
        code, out, err = run_exit(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err.startswith("usage: ")
        last = err.splitlines()[-1]
        assert last.startswith("frobinom") and "error: " in last
        assert re.search(rf"(?<![\w-]){re.escape(named)}(?![\w-])", last.split("error: ", 1)[1])

    def test_negative_positionals_reach_the_handler(self, capsys):
        code, _, err = run_exit(capsys, "admissible", "10", "1", "-5")
        assert code == 2
        assert "p >= 2" in err

    @pytest.mark.parametrize("argv", [
        ("semigroup", "5", "7", "--apery-base", "-5"),
        ("core", "--gaps", "-3", "2"),
    ])
    def test_negative_option_values_reach_the_handler(self, capsys, argv):
        assert run_exit(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("argv", [("core",), ("core", "--gaps", "1", "--semigroup", "3", "4"),
                                      ("core", "--semigroup", "3", "4", "--gaps")])
    def test_core_takes_exactly_one_source(self, capsys, argv):
        code, _, err = run_exit(capsys, *argv)
        assert code == 64
        last = err.splitlines()[-1]
        assert "--gaps" in last and "--semigroup" in last

    @pytest.mark.parametrize("argv", [("core", "--gaps"), ("core", "--gaps=3")])
    def test_list_option_forms(self, capsys, argv):
        assert run_exit(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("spaced, joined", [
        (("semigroup", "6", "15", "20", "--apery-base", "15"),
         ("semigroup", "6", "15", "20", "--apery-base=15")),
        (("verify", "--max-n", "6"), ("verify", "--max-n=6")),
        (("core", "--semigroup", "5", "7"), ("--format=text", "core", "--semigroup", "5", "7")),
    ])
    def test_equals_form_equals_the_spaced_form(self, capsys, spaced, joined):
        first = run_exit(capsys, *spaced)
        assert first[0] == 0
        assert run_exit(capsys, *joined) == first

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


SMALL = st.integers(-5, 60)


@st.composite
def small_argv(draw):
    """One argument vector for any of the six commands, small integers only."""
    def ints(lo, hi):
        return [str(x) for x in draw(st.lists(SMALL, min_size=lo, max_size=hi))]

    command = draw(st.sampled_from(
        ("report", "semigroup", "decompose", "core", "admissible", "verify")))
    if command == "report":
        args = ints(1, 1)
    elif command == "semigroup":
        args = ints(1, 4)
        if draw(st.booleans()):
            args += ["--apery-base", str(draw(SMALL))]
    elif command == "decompose":
        args = ints(2, 2)
    elif command == "core":
        args = ["--gaps", *ints(0, 6)] if draw(st.booleans()) else ["--semigroup", *ints(1, 3)]
    elif command == "admissible":
        args = ints(3, 3) + draw(st.sampled_from([[], ["--force-base"]]))
    else:
        args = ["--max-n", str(draw(st.integers(-5, 12)))]
    return [command, *args, "--format", draw(st.sampled_from(("text", "json")))]


@given(small_argv())
@settings(max_examples=300, deadline=None)
def test_every_small_call_exits_with_a_documented_code(argv):
    # exit codes are the contract: 0/1/2/3/64, never an escaped exception
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # parse errors exit 64 through SystemExit
            code = exc.code
    assert code in (0, 1, 2, 3, 64), argv


GOLDEN_TEXT = {
    ("report", "12"): """\
n                   12
factorization       2^2 * 3
scale               1
minimal generators  [12, 66, 220, 495]
embedding dimension 4
apery base          12
apery set           [0, 66, 220, 286, 440, 495, 506, 561, 715, 781, 935, 1001]
frobenius           989
genus               495
pseudo-frobenius    [989]
type                1
symmetric           true
telescopic          true
""",
    ("report", "9"): """\
n                   9
factorization       3^2
scale               3
minimal generators  [3, 28]
embedding dimension 2
apery base          3
apery set           [0, 28, 56]
frobenius           53
genus               27
pseudo-frobenius    [53]
type                1
symmetric           true
telescopic          true
""",
    ("semigroup", "5", "7", "9"): """\
minimal generators  [5, 7, 9]
multiplicity        5
apery base          5
apery set           [0, 7, 9, 16, 18]
frobenius           13
genus               8
gaps                [1, 2, 3, 4, 6, 8, 11, 13]
pseudo-frobenius    [11, 13]
type                2
symmetric           false
telescopic          false
""",
    ("decompose", "50", "7"): """\
target       C(50,7) = 99884400
basis        [50, 1225, 2118760, 126410606437752]
coefficients [1997688, 0, 0, 0]
identity     1997688*50 = 99884400
""",
    ("admissible", "50", "65", "6"): """\
triple  (379231827789565, 379231827789566, 379231827789571)
count   126410606437653
""",
    ("verify", "--max-n", "6"): """\
PASS  n=4 apery_set
PASS  n=4 embedding_dimension
PASS  n=4 frobenius
PASS  n=4 genus
PASS  n=4 minimal_generators
PASS  n=4 pseudo_frobenius
PASS  n=4 symmetric
PASS  n=4 telescopic
PASS  n=4 type
PASS  n=6 apery_set
PASS  n=6 embedding_dimension
PASS  n=6 frobenius
PASS  n=6 genus
PASS  n=6 minimal_generators
PASS  n=6 pseudo_frobenius
PASS  n=6 symmetric
PASS  n=6 telescopic
PASS  n=6 type
PASS  pascal recurrence and symmetry, n <= 60
PASS  carry count = divide-out valuation = floor-sum formula, n <= 60
PASS  product tree = math.comb at the dispatch thresholds, n <= 10^4
PASS  binomial residue congruence on its provable domain, n <= 300
PASS  prime-power quotient congruence (a >= 1 for p = 2), p in 2..7, m <= 12
PASS  gcd of binomial family: p for prime powers else 1, n <= 200
all checks passed
""",
}


@pytest.mark.parametrize("argv", list(GOLDEN_TEXT), ids="-".join)
def test_full_text_output(capsys, argv):
    assert run(capsys, *argv) == (0, GOLDEN_TEXT[argv], "")


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


COMPOSITE = st.integers(4, 300).filter(lambda n: not is_prime(n))
GENERATORS = st.lists(st.integers(1, 40), min_size=1, max_size=4).filter(lambda g: gcd(*g) == 1)


@st.composite
def valid_call(draw):
    """A small call of report, semigroup, decompose, core or admissible that exits 0."""
    command = draw(st.sampled_from(("report", "semigroup", "decompose", "core", "admissible")))
    if command == "report":
        args = [draw(COMPOSITE)]
    elif command == "semigroup":
        args = draw(GENERATORS)
    elif command == "decompose":
        n = draw(COMPOSITE)
        args = [n, draw(st.integers(1, n - 1))]
    elif command == "core":
        args = (["--gaps", *draw(st.sets(st.integers(1, 40), max_size=12))]
                if draw(st.booleans()) else ["--semigroup", *draw(GENERATORS)])
    else:
        args = [draw(COMPOSITE), draw(st.integers(0, 400)), draw(st.integers(2, 400)),
                "--force-base"]
    return [command, *map(str, args)]


@given(valid_call())
@example(["report", "2310"])                    # apery_set_elided
@example(["semigroup", "46", "47"])             # gaps_elided
@example(["core", "--semigroup", "46", "47"])   # partition over 1000 parts
@settings(max_examples=150, deadline=None)
def test_text_rows_are_the_json_fields(argv):
    with contextlib.redirect_stdout(io.StringIO()) as text, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assume(code == 0)  # e.g. a residue collision in admissible
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--format", "json"]) == 0
    result = read_json(json.loads(out.getvalue())["result"])
    rows = list(text_rows(text.getvalue()))
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

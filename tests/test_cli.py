"""CLI surface: exit codes, text output, and the JSON envelope contract."""

import json

import pytest

from frobinom.cli import main


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

    def test_scaled_case(self, capsys):
        code, env, _ = run_json(capsys, "report", "9")
        assert code == 0
        assert env["result"]["minimal_generators"] == ["3", "28"]

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


class TestAdmissible:
    def test_golden_n50(self, capsys):
        code, env, _ = run_json(capsys, "admissible", "50", "65", "6")
        assert code == 0
        assert env["result"]["triple"] == [
            "379231827789565", "379231827789566", "379231827789571"]
        assert env["result"]["count"] == "126410606437653"

    def test_golden_n70(self, capsys):
        code, env, _ = run_json(capsys, "admissible", "70", "12", "11")
        assert code == 0
        assert env["result"]["count"] == "2409654789"

    def test_prime_power_needs_flag(self, capsys):
        code, _, err = run(capsys, "admissible", "8", "1", "2")
        assert code == 2
        code, env, _ = run_json(capsys, "admissible", "8", "1", "2", "--force-base")
        assert code == 0

    def test_residue_collision_exits_2(self, capsys):
        code, _, _ = run(capsys, "admissible", "6", "1", "6")
        assert code == 2


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

    def test_global_format_flag_position(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "report", "6")
        assert code == 0
        assert json.loads(out)["result"]["frobenius"] == "49"

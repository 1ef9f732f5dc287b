"""Import layering of the package, read from its source with ast."""

import ast
import subprocess
import sys
from pathlib import Path

import frobinom

PACKAGE = Path(frobinom.__file__).parent


def parsed(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def test_engine_and_arithmetic_import_no_frobinom_module():
    # the generic engine and the closed forms share no code
    for name in ("semigroup.py", "exactmath.py"):
        for node in ast.walk(parsed(name)):
            if isinstance(node, ast.ImportFrom):
                # a relative import is one of the package's own modules
                modules = [node.module] if node.level == 0 else ["frobinom"]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "frobinom", (name, ast.unparse(node))


def private_reads(owner, private):
    """Imports and attribute reads of the `private` names outside `owner`."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == owner:
            continue
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & private:
                yield path.name, ast.unparse(node)


PUBLIC_API = [
    "AdmissiblePairResult", "AperyTable", "BinomialSemigroupReport",
    "BinomialSemigroupSpec", "DegenerateSemigroupError", "NotANumericalSemigroup",
    "NumericalSemigroup", "NumericalSet", "Partition", "Representation",
    "a_set", "algorithm1", "binom_residue_lemma", "binomial_valuation_kummer",
    "bn_apery_closed", "bn_family", "bn_report", "bn_spec",
    "decompose", "enumerate_admissible", "exists_admissible_bn", "factorize",
    "hook_set", "identity_pm_check", "identity_pq_check", "is_admissible",
    "is_prime", "is_s_core", "is_triple_core", "minimal_generators",
    "p_adic_valuation", "partition_of", "sun_congruence_holds",
    "verify_closed_vs_oracle",
]


def test_public_api_is_pinned():
    # one public route per fact: a name added or dropped is a decision
    assert sorted(frobinom.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(frobinom, name), name


def test_private_imports_between_modules():
    # the only private names one module imports from another are the
    # closed-form lookups the triple completion reads
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported |= {(path.name, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_")}
    assert imported == {("corepartitions.py", "binomial", "_coordinates"),
                        ("corepartitions.py", "binomial", "_proper_box")}


def test_only_binomial_reads_the_box_record():
    assert list(private_reads("binomial.py", {"_box", "_Box"})) == []


def test_only_corepartitions_reads_the_set_bitmap():
    # the encoding of a NumericalSet lives in one module
    assert list(private_reads("corepartitions.py", {"_member"})) == []


def test_oracle_family_shares_no_arithmetic_with_the_closed_forms():
    # the engine's input is built from Pascal's rule, not from the closed
    # forms' binomials, factorization or per-n record
    tree = parsed("binomial.py")
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "bn_family")
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert named & {"binomial", "factorize", "bn_spec", "_box", "_proper_box"} == set()


def test_no_cli_handler_builds_text():
    # a handler returns (input_echo, result, exit_code), and one renderer
    # makes the text view from the result
    handlers = [node for node in parsed("cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    assert len(handlers) == 6
    for handler in handlers:
        for node in ast.walk(handler):
            assert not isinstance(node, ast.JoinedStr), (handler.name, ast.unparse(node))
            if isinstance(node, ast.Call):
                assert ast.unparse(node.func) != "_fmt_list", handler.name
            if isinstance(node, ast.Return):
                assert isinstance(node.value, ast.Tuple) and len(node.value.elts) == 3, \
                    (handler.name, ast.unparse(node))


def test_a_cli_call_loads_no_argparse():
    # argv is read from one command table: importing argparse and building
    # its parsers cost more than a small command's own work
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import frobinom.cli; "
             "code = frobinom.cli.main(['report', '6']); "
             "print(code, 'argparse' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stderr == "0 False\n"

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


def imports(name):
    """Each import in module `name`, with the words it names: the parts of
    the module path and the imported names."""
    for node in ast.walk(parsed(name)):
        if isinstance(node, ast.ImportFrom):
            # `from . import oracle` names the module as an imported name
            yield node, {*(node.module or "").split("."), *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            yield node, {word for alias in node.names for word in alias.name.split(".")}


def test_set_layer_imports_no_closed_form():
    # the numerical-set layer is generic, like the engine: the triple
    # completion of S(B_n) lives beside its record in binomial
    for node, words in imports("corepartitions.py"):
        assert "binomial" not in words, ast.unparse(node)


def test_set_layer_tests_import_no_closed_form():
    # the same rule for the set layer's tests and the helpers they share: the
    # triple completion and the S(B_n) references are tested beside binomial
    for name in ("test_corepartitions.py", "shared.py"):
        tree = ast.parse((Path(__file__).parent / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[:2] not in (["frobinom", "binomial"],
                                                     ["frobinom", "oracle"]), \
                    (name, ast.unparse(node))


def test_closed_forms_import_neither_engine_nor_oracle():
    # below the CLI, only `oracle` brings the closed forms and the engine together
    for name in ("exactmath.py", "binomial.py", "corepartitions.py"):
        for node, words in imports(name):
            assert words.isdisjoint({"semigroup", "oracle"}), (name, ast.unparse(node))


def private_reads(owner, private):
    """Imports, attribute reads and bare names of the `private` names outside
    `owner`."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == owner:
            continue
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
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


def test_one_route_per_engine_fact():
    # membership is `x in S`, and the type is len(S.pseudo_frobenius())
    for cls in (frobinom.NumericalSemigroup, frobinom.NumericalSet):
        assert not hasattr(cls, "contains"), cls
    assert not hasattr(frobinom.NumericalSemigroup, "type")


def test_private_imports_between_modules():
    # the only private name one module imports from another is the message
    # rendering of long ints (semigroup keeps its own copy, as it imports
    # nothing from the package)
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported |= {(path.name, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_")}
    assert imported == {("binomial.py", "exactmath", "_int_text"),
                        ("corepartitions.py", "exactmath", "_int_text"),
                        ("oracle.py", "exactmath", "_int_text")}


def test_only_binomial_names_the_box_record():
    # the per-n record and the lookups over it are built and read in one module
    record = {"_box", "_Box", "_coordinates", "_triple", "_check_p"}
    assert list(private_reads("binomial.py", record)) == []


def test_only_corepartitions_reads_the_set_bitmap():
    # the encoding of a NumericalSet lives in one module
    assert list(private_reads("corepartitions.py", {"_member"})) == []


def test_oracle_family_shares_no_arithmetic_with_the_closed_forms():
    # the engine's input is built from Pascal's rule, not from the closed
    # forms' binomials, factorization or per-n record
    tree = parsed("oracle.py")
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "bn_family")
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert named & {"binomial", "factorize", "bn_spec", "_box"} == set()


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

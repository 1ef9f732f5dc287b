"""Import layering of the package, read from its source with ast, and the
rules every public entry keeps."""

import ast
import subprocess
import sys
from functools import reduce
from itertools import product
from pathlib import Path

import pytest

import frobinom
from frobinom import AperyTable, NotANumericalSemigroup
from shared import Index, semigroup_set

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


# the names of __all__ that take no integer: the records, the exceptions and
# the set layer's functions of a NumericalSet alone
NO_INTEGERS = {"AdmissiblePairResult", "AperyTable", "BinomialSemigroupReport",
               "BinomialSemigroupSpec", "Representation", "DegenerateSemigroupError",
               "NotANumericalSemigroup", "a_set", "enumerate_admissible", "partition_of"}
S35 = frobinom.NumericalSemigroup([3, 5])

# One row per call of an entry that takes integers: its name under frobinom,
# its arguments and, where the row pins it, the ints' outcome.  An int
# argument, or an int element of a list or tuple argument, is an integer
# position; a bool (force_base) is not.
INTEGER_ENTRIES = [
    ("exactmath.binomial", (1000, 500)),
    ("exactmath.binomial", (100000, 50000)),  # the product tree
    ("factorize", (30,), [(2, 1), (3, 1), (5, 1)]),
    ("is_prime", (7,), True),
    ("p_adic_valuation", (2, 8), 3),
    ("binomial_valuation_kummer", (2, 8, 4), 1),
    ("sun_congruence_holds", (3, 1, 4, 2), True),
    ("sun_congruence_holds", (4, 1, 4, 2), (ValueError, "4 is not prime")),
    ("binom_residue_lemma", (9, 3, 1), (3, 3)),
    ("binom_residue_lemma", (50, 5, 3), (ValueError, "5^3 does not divide 50")),
    ("binom_residue_lemma", (0, 2, 1), (ValueError, "need n >= 1, got 0")),
    ("bn_spec", (30,)),
    ("bn_report", (30,)),
    ("bn_report", (13,)),  # prime
    ("bn_apery_closed", (30,)),
    ("decompose", (50, 7)),
    ("decompose", (100000, 50000)),  # the product tree
    ("algorithm1", (30, 1, 7)),
    ("algorithm1", (8, 1, 3)),  # a prime power without force_base
    ("algorithm1", (8, 1, 3, True)),
    ("algorithm1", (100, 5, 7), ((970077078881348634642105, 970077078881348634642106,
                                  970077078881348634642112), 154496060)),
    ("algorithm1", (6, 0, 2)),
    ("exists_admissible_bn", (30, 7)),
    ("exists_admissible_bn", (9, 2)),  # no pair
    ("exists_admissible_bn", (6, 2), 44),
    ("exists_admissible_bn", (100, 7)),
    ("identity_pq_check", (3, 5, 2), -1085),
    ("identity_pq_check", (3, 3, 2), (ValueError, "need two distinct primes, got 3, 3")),
    ("identity_pm_check", (3, 4, 2)),
    ("identity_pm_check", (3, 3, 2)),  # not an integer, as 3 does not divide 3 - 1
    ("identity_pm_check", (2, 3, 1), (ValueError, "p = 2 must be an odd prime")),
    ("bn_family", (30,)),
    ("oracle.engine_cost", (30,)),
    ("oracle.verify_rows", (4,)),
    ("verify_closed_vs_oracle", (30,)),
    ("minimal_generators", ([6, 10, 15, 12],), [6, 10, 15]),
    ("minimal_generators", ([4, 6],),
     (NotANumericalSemigroup, "generators have gcd 2; a numerical semigroup requires gcd 1")),
    ("NumericalSemigroup", ([3, 5],)),
    ("NumericalSemigroup.apery_set", (S35, 3), S35.apery),  # the multiplicity
    ("NumericalSemigroup.apery_set", (S35, 5), AperyTable(5, (0, 6, 12, 3, 9))),
    ("NumericalSemigroup.apery_set", (S35, 4),
     (ValueError, "4 is not a nonzero element of NumericalSemigroup([3, 5])")),
    *(("NumericalSemigroup.__contains__", (S35, x)) for x in range(-1, 9)),
    ("NumericalSet", ([2, 5],)),
    *(("NumericalSet.__contains__", (frobinom.NumericalSet([1, 2]), x)) for x in range(-1, 5)),
    ("Partition", ((2, 1),)),
    ("Partition", ((3, 1),)),
    ("hook_set", ((3, 1),), [1, 2, 4]),
    ("is_s_core", ((3, 1), 1), False),  # the hooks 1, 2 and 4: 1.5 and 2.5 divide none
    ("is_s_core", ((3, 1), 2), False),
    ("is_s_core", ((3, 1), 3), True),
    ("is_triple_core", (frobinom.NumericalSet([1, 2, 3, 5, 7]), 8, 2), True),
    ("is_triple_core", (frobinom.NumericalSet([1, 2, 3, 5, 7]), 1, 2), False),
    ("is_admissible", (semigroup_set(5, 7, 9), 9, 3), True),  # its one admissible pair
]


def rebuilt(args, value):
    """args with value(x, (i, j)) in place of each int x that is argument i
    (j None) or element j of a list or tuple argument i."""
    def each(i, arg):
        if isinstance(arg, (list, tuple)):
            return type(arg)(value(x, (i, j)) if type(x) is int else x for j, x in enumerate(arg))
        return value(arg, (i, None)) if type(arg) is int else arg
    return [each(i, arg) for i, arg in enumerate(args)]


def outcome(call, args):
    """The result, or the exception's type and message.  The engine compares
    by identity, so its attributes stand for it."""
    try:
        result = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return vars(result) if isinstance(result, frobinom.NumericalSemigroup) else result


@pytest.mark.parametrize("row", INTEGER_ENTRIES, ids=[row[0] for row in INTEGER_ENTRIES])
def test_integers_are_read_through_index(row):
    name, args, *pinned = row
    call = reduce(getattr, name.split("."), frobinom)
    expected = outcome(call, args)
    assert pinned in ([], [expected])
    # an Index equals no int, so one kept in a result or printed in a message shows
    assert outcome(call, rebuilt(args, lambda x, at: Index(x))) == expected
    spots = []  # the integer positions, as rebuilt visits them
    rebuilt(args, lambda x, at: spots.append(at))
    for spot, number in product(spots, (float, lambda x: x + 0.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(*rebuilt(args, lambda x, at: number(x) if at == spot else x))


def test_every_public_entry_reads_integers_or_takes_none():
    # a new public name gets a row above, or is listed as taking no integer
    rows = {row[0] for row in INTEGER_ENTRIES}
    assert NO_INTEGERS.isdisjoint(rows)
    assert sorted({name for name in rows if "." not in name} | NO_INTEGERS) == \
        sorted(frobinom.__all__)


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

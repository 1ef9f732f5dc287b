"""The package's architecture, read from its source with ast, and the rules
every public entry keeps.  The table LAYERS is the architecture: a new
layering decision is a row of it, checked by the same two rules.  The table
REFUSALS lists every refusal of the library: a new one is a row of it, with
its exact class and message.  The table WORK pins the work a call may do: a
new rule about what a call computes, or must not, is a row of it.  The table
FAULTS plants one fault per row under `verify` and names the rows it fails:
a new kind of `verify` row needs a fault that fails it.  The table LOADS
pins the package modules each entry loads in a fresh interpreter."""

import ast
import importlib
import inspect
import subprocess
import sys
from collections import Counter, defaultdict
from functools import reduce
from itertools import product
from pathlib import Path

import pytest

import frobinom
import frobinom.cli
from cli_contract import CASES
from frobinom import (AdmissiblePairResult, AperyTable, DegenerateSemigroupError,
                      NotANumericalSemigroup, Representation)
from frobinom.cli import MAX_N  # 2^6 5^6, whose Apery set has 10^6 elements of ~35000 digits
from shared import Index, outcome, semigroup_set

PACKAGE = Path(frobinom.__file__).parent


def parsed(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


SOURCES = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
LIBRARY = {"exactmath", "semigroup", "binomial", "corepartitions", "oracle"}

# Each module, and each test file held to a module's layer, with the package
# modules it may import.  Below the CLI only `oracle` imports both the engine
# and the closed forms.
LAYERS = {
    "exactmath": set(),
    "semigroup": set(),
    "binomial": {"exactmath"},
    "corepartitions": {"exactmath"},
    "oracle": {"exactmath", "binomial", "semigroup"},
    "cli": LIBRARY - {"exactmath"},
    # the package imports no module as it loads: the first read of a name
    # imports its home module, named in `frobinom._HOME` (all in LIBRARY)
    "__init__": set(),
    # the set layer's tests and shared helpers; S(B_n) is tested beside binomial
    "tests/test_corepartitions.py": {"corepartitions", "semigroup"},
    "tests/shared.py": {"corepartitions", "semigroup"},
}

# The one private name that leaves its module, with the modules that define it
# and those that import it: long ints in messages (the engine keeps a copy)
SHARED_PRIVATE = {"_int_text": ({"exactmath", "semigroup"}, {"binomial", "corepartitions", "oracle"})}


def reached(node):
    """The package modules that an import statement reaches."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    elif node.level:  # a relative import is the module it names
        return {node.module or alias.name for alias in node.names}
    elif node.module == "frobinom":  # a name of the package is the module defining it
        return {inspect.getmodule(getattr(frobinom, alias.name)).__name__.removeprefix("frobinom.")
                for alias in node.names}
    else:
        paths = [node.module]
    # `import frobinom.x` is x, and a bare `import frobinom` every module
    return {module for path in paths if path.split(".")[0] == "frobinom"
            for module in path.split(".")[1:2] or SOURCES}


def import_escapes(sources):
    """Each import of a package module outside the importer's row of LAYERS,
    as (file, line, module reached)."""
    return [(name, node.lineno, module) for name, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for module in sorted(reached(node)) if module not in LAYERS[name]]


def private_escapes(sources):
    """Each use of a private name (one leading underscore, so neither a dunder
    nor `_`) outside the one module that defines it, as (module, line, name).
    A def, a class, an assignment, an import's `as` or an attribute store such
    as `self._member` defines a name; an import, an attribute read or a bare
    name reads it."""
    uses = []  # (module, line, name, whether the use defines the name)
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses.append((module, node.lineno, node.name, True))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                uses += [(module, node.lineno, alias.name, False) for alias in node.names]
                uses += [(module, node.lineno, alias.asname, True) for alias in node.names
                         if alias.asname]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.append((module, node.lineno, name, isinstance(node.ctx, ast.Store)))
    homes = defaultdict(set)
    for module, _, name, defines in uses:
        if defines and len(name) > 1 and name[0] == "_" and name[1] != "_":
            homes[name].add(module)
    # (definers, importers); a name that two modules define has no home
    allowed = {name: SHARED_PRIVATE.get(name, (modules if len(modules) == 1 else set(), set()))
               for name, modules in homes.items()}
    return [(module, line, name) for module, line, name, defines in uses
            if name in allowed and module not in allowed[name][0]
            and (defines or module not in allowed[name][1])]


def test_every_import_is_in_its_row_of_layers():
    root = Path(__file__).parents[1]
    assert import_escapes(SOURCES | {name: (root / name).read_text() for name in LAYERS if "/" in name}) == []


def test_no_private_name_leaves_its_module():
    assert private_escapes(SOURCES) == []


@pytest.mark.parametrize("module, probe, rule, named", [
    # the engine reached through the package rather than through `.semigroup`
    ("binomial", "from frobinom import NumericalSemigroup", import_escapes, "semigroup"),
    # a private name read through a module alias rather than imported
    ("oracle", "em._legendre_valuation(2, 8, 1)", private_escapes, "_legendre_valuation"),
])
def test_each_rule_names_the_escape(module, probe, rule, named):
    line = SOURCES[module].count("\n") + 1
    assert rule(SOURCES | {module: SOURCES[module] + probe + "\n"}) == [(module, line, named)]


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


def test_each_public_name_is_the_object_its_home_module_defines():
    assert set(frobinom._HOME.values()) <= LIBRARY
    for name, home in frobinom._HOME.items():
        module = importlib.import_module(f"frobinom.{home}")
        assert getattr(frobinom, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name


def test_the_package_namespace_is_its_table():
    assert set(frobinom.__all__) <= set(dir(frobinom))
    namespace = {}
    exec("from frobinom import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == frobinom.__all__
    with pytest.raises(AttributeError, match="module 'frobinom' has no attribute 'no_such_name'"):
        frobinom.no_such_name


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
    ("sun_congruence_holds", (4, 1, 4, 2)),
    ("binom_residue_lemma", (9, 3, 1), (3, 3)),
    ("binom_residue_lemma", (50, 5, 3)),
    ("binom_residue_lemma", (0, 2, 1)),
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
    ("identity_pq_check", (3, 3, 2)),
    ("identity_pm_check", (3, 4, 2)),
    ("identity_pm_check", (3, 3, 2)),  # not an integer, as 3 does not divide 3 - 1
    ("identity_pm_check", (2, 3, 1)),
    ("bn_family", (30,)),
    ("oracle.engine_cost", (30,)),
    ("oracle.verify_rows", (4,)),
    ("verify_closed_vs_oracle", (30,)),
    ("minimal_generators", ([6, 10, 15, 12],), [6, 10, 15]),
    ("minimal_generators", ([4, 6],)),
    ("NumericalSemigroup", ([3, 5],)),
    ("NumericalSemigroup.apery_set", (S35, 3), S35.apery),  # the multiplicity
    ("NumericalSemigroup.apery_set", (S35, 5), AperyTable(5, (0, 6, 12, 3, 9))),
    ("NumericalSemigroup.apery_set", (S35, 4)),
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


def entry(name):
    """The public entry a row names under frobinom."""
    return reduce(getattr, name.split("."), frobinom)


def shown(x):
    """x as a row's id shows it: an int as a message shows it (by its bit
    length past the int-to-str limit), a list or tuple item by item, and
    anything else by its repr."""
    if type(x) is int:
        return frobinom.exactmath._int_text(x)
    if type(x) in (list, tuple):
        items = ", ".join(map(shown, x))
        return f"[{items}]" if type(x) is list else f"({items})"
    return repr(x)


def call_id(name, args):
    """A row's id, read off its content: the entry and its arguments, so a
    row added or removed renames no other."""
    return f"{name}({', '.join(map(shown, args))})"


INTEGER_IDS = [call_id(name, args) for name, args, *_ in INTEGER_ENTRIES]


@pytest.mark.parametrize("row", INTEGER_ENTRIES, ids=INTEGER_IDS)
def test_integers_are_read_through_index(row):
    name, args, *pinned = row
    call = entry(name)
    expected = outcome(call, *args)
    assert pinned in ([], [expected])
    # an Index equals no int, so one kept in a result or printed in a message shows
    assert outcome(call, *rebuilt(args, lambda x, at: Index(x))) == expected
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


LONG = 10**5000  # 5001 digits, over the interpreter's 4300-digit int-to-str limit
BITS = "<16610-bit integer>"  # LONG in a message
S57, S61520 = frobinom.NumericalSemigroup([5, 7]), frobinom.NumericalSemigroup([6, 15, 20])
NS = frobinom.NumericalSet
GCD = "generators have gcd {}; a numerical semigroup requires gcd 1".format
TABLE = "Apery table base <{}-bit integer> has more classes than a list can index".format
PRIME = ("n = {} is prime: the scaled binomial family generates all of N, "
         "so the closed forms do not apply").format
COLLIDE = "residues of (s, s+1, s+{}) collide mod {} for every s".format
GAPS = "gaps must be positive (0 always belongs to the set)"

# Every refusal of the library, one row per call: its name under frobinom,
# its arguments, the exception's exact class and its exact message.  Each
# raise of a ValueError in the library is reached by some row, and each row's
# error is raised by one of them, not by Python inside the library.
REFUSALS = [
    ("exactmath.binomial", (5, 7), ValueError, "binomial(5, 7) requires 0 <= k <= n"),
    ("exactmath.binomial", (5, -1), ValueError, "binomial(5, -1) requires 0 <= k <= n"),
    ("exactmath.binomial", (-2, 0), ValueError, "binomial(-2, 0) requires 0 <= k <= n"),
    ("exactmath.binomial", (10, LONG), ValueError, f"binomial(10, {BITS}) requires 0 <= k <= n"),
    *(("factorize", (n,), ValueError, f"cannot factor {n}: need n >= 2") for n in (1, 0, -5)),
    ("factorize", (-LONG,), ValueError, f"cannot factor -{BITS}: need n >= 2"),
    ("p_adic_valuation", (5, 0), ValueError, "p-adic valuation of 0 is undefined here"),
    ("p_adic_valuation", (2, -LONG), ValueError, f"p-adic valuation of -{BITS} is undefined here"),
    ("p_adic_valuation", (4, 8), ValueError, "4 is not prime"),
    ("binomial_valuation_kummer", (2, 5, 6), ValueError,
     "binomial_valuation_kummer(2, 5, 6) requires 0 <= k <= n"),
    ("binomial_valuation_kummer", (2, 5, LONG), ValueError,
     f"binomial_valuation_kummer(2, 5, {BITS}) requires 0 <= k <= n"),
    ("binomial_valuation_kummer", (4, 8, 2), ValueError, "4 is not prime"),
    ("sun_congruence_holds", (4, 1, 3, 1), ValueError, "4 is not prime"),
    ("sun_congruence_holds", (4, 1, 4, 2), ValueError, "4 is not prime"),
    ("sun_congruence_holds", (2, 1, 3, 5), ValueError,
     "need m >= n2 >= 0 and a >= 0, got a=1, m=3, n2=5"),
    ("sun_congruence_holds", (2, -LONG, 1, 0), ValueError,
     f"need m >= n2 >= 0 and a >= 0, got a=-{BITS}, m=1, n2=0"),
    # the residue lemma's own domain, checked before any binomial
    ("binom_residue_lemma", (0, 2, 1), ValueError, "need n >= 1, got 0"),
    ("binom_residue_lemma", (-6, 3, 1), ValueError, "need n >= 1, got -6"),
    ("binom_residue_lemma", (50, 5, 0), ValueError, "exponent k must be at least 1"),
    ("binom_residue_lemma", (12, 4, 1), ValueError, "4 is not prime"),
    ("binom_residue_lemma", (50, 3, 1), ValueError, "3^1 does not divide 50"),
    ("binom_residue_lemma", (50, 5, 3), ValueError, "5^3 does not divide 50"),
    ("binom_residue_lemma", (8, 2, 4), ValueError, "2^4 does not divide 8"),  # by the division
    ("binom_residue_lemma", (8, 2, 5), ValueError, "2^5 does not divide 8"),  # by the bit length
    ("binom_residue_lemma", (6, 2, LONG), ValueError, f"2^{BITS} does not divide 6"),
    ("minimal_generators", ([],), ValueError, "need at least one generator"),
    ("minimal_generators", ([0, 3],), ValueError, "generators must be positive integers"),
    ("minimal_generators", ([4, 6],), NotANumericalSemigroup, GCD(2)),
    ("NumericalSemigroup", ([4, 6],), NotANumericalSemigroup, GCD(2)),
    ("NumericalSemigroup", ([LONG, 2 * LONG],), NotANumericalSemigroup, GCD(BITS)),
    # bases of 2^63 or more, which no list can index, are refused before the
    # table is allocated; a base a list could index is never tried here
    ("NumericalSemigroup", ([2**63, 2**63 + 1],), ValueError, TABLE(64)),
    ("NumericalSemigroup.apery_set", (S57, 2**63), ValueError, TABLE(64)),
    ("NumericalSemigroup.apery_set", (S57, LONG + 1), ValueError, TABLE(16610)),
    ("NumericalSemigroup.apery_set", (S61520, 7), ValueError,
     "7 is not a nonzero element of NumericalSemigroup([6, 15, 20])"),
    ("NumericalSemigroup.apery_set", (S35, 4), ValueError,
     "4 is not a nonzero element of NumericalSemigroup([3, 5])"),
    ("NumericalSemigroup.apery_set", (S57, -LONG), ValueError,
     f"-{BITS} is not a nonzero element of NumericalSemigroup([5, 7])"),
    ("NumericalSemigroup.apery_set", (frobinom.NumericalSemigroup([2, LONG + 1]), 3), ValueError,
     f"3 is not a nonzero element of NumericalSemigroup([2, {BITS}])"),
    # positivity is checked before the bound
    *(("NumericalSet", (gaps,), ValueError, GAPS) for gaps in ([0, 3], [3, 0], [10**7, 0])),
    ("NumericalSet", ([10**7],), ValueError, "Frobenius number 10000000 exceeds the bound 1000000"),
    ("NumericalSet", ([LONG],), ValueError, f"Frobenius number {BITS} exceeds the bound 1000000"),
    ("NumericalSet.from_semigroup", (frobinom.NumericalSemigroup([1001, 1002]),), ValueError,
     "Frobenius number 1000999 exceeds the bound 1000000"),
    ("NumericalSet.from_semigroup", (frobinom.NumericalSemigroup([2, 10 * LONG + 1]),),
     ValueError, "Frobenius number <16613-bit integer> exceeds the bound 1000000"),
    # positivity is checked before the order
    *(("Partition", (parts,), ValueError, "partition parts must be positive")
      for parts in ((2, 0), (0, 3), (3, -1, 2))),
    ("Partition", ((3, 4),), ValueError, "partition parts must be weakly decreasing"),
    ("is_s_core", (frobinom.Partition((2, 1)), 0), ValueError, "need s >= 1, got 0"),
    ("is_s_core", (frobinom.Partition((1,)), -LONG), ValueError, f"need s >= 1, got -{BITS}"),
    ("is_triple_core", (NS([1]), 0, 2), ValueError, "need s >= 1 and p >= 2, got s=0, p=2"),
    ("is_triple_core", (NS([1]), 3, 1), ValueError, "need s >= 1 and p >= 2, got s=3, p=1"),
    ("is_triple_core", (NS([1]), -LONG, 2), ValueError,
     f"need s >= 1 and p >= 2, got s=-{BITS}, p=2"),
    ("enumerate_admissible", (NS([10**5]),), ValueError,
     "Frobenius number 100000 exceeds the enumeration bound 10000"),
    ("enumerate_admissible", (NS(range(1, 10**4 + 2)),), ValueError,  # F = ENUM_BOUND + 1
     "Frobenius number 10001 exceeds the enumeration bound 10000"),
    # <100, 101> (F = 9899) has 11,920,524 pairs: counted and refused
    ("enumerate_admissible", (semigroup_set(100, 101),), ValueError,
     "11920524 admissible pairs exceed the pair bound 5000000"),
    *(("bn_family", (n,), ValueError, f"need n >= 2, got {n}") for n in (1, 0, -3)),
    ("bn_family", (-LONG,), ValueError, f"need n >= 2, got -{BITS}"),
    ("bn_spec", (1,), ValueError, "need n >= 2, got 1"),
    ("bn_spec", (-LONG,), ValueError, f"need n >= 2, got -{BITS}"),
    *(("bn_report", (p,), DegenerateSemigroupError, PRIME(p)) for p in (2, 3, 7, 13, 97)),
    ("bn_apery_closed", (11,), DegenerateSemigroupError, PRIME(11)),
    ("decompose", (7, 3), DegenerateSemigroupError, PRIME(7)),
    ("decompose", (2, 1), DegenerateSemigroupError, PRIME(2)),  # the least n, and prime
    # a prime is p^1: its family generates all of N, with no base to force
    ("algorithm1", (7, 1, 2), DegenerateSemigroupError, PRIME(7)),
    ("decompose", (10, 0), ValueError, "decompose(10, 0) requires n >= 2 and 1 <= m <= n-1"),
    ("decompose", (10, 10), ValueError, "decompose(10, 10) requires n >= 2 and 1 <= m <= n-1"),
    ("decompose", (30, -10), ValueError, "decompose(30, -10) requires n >= 2 and 1 <= m <= n-1"),
    ("decompose", (10, LONG), ValueError,
     f"decompose(10, {BITS}) requires n >= 2 and 1 <= m <= n-1"),
    # the triple's domain: p >= 2 first, then the residue-collision rule
    *(("algorithm1", (10, 1, p), ValueError, f"need p >= 2, got {p}") for p in (-10, -5, 0, 1)),
    ("algorithm1", (10, 1, -LONG), ValueError, f"need p >= 2, got -{BITS}"),
    ("exists_admissible_bn", (6, 1), ValueError, "need p >= 2, got 1"),
    ("algorithm1", (6, 1, 6), ValueError, COLLIDE(6, 6)),
    ("algorithm1", (6, 1, 7), ValueError, COLLIDE(7, 6)),
    ("algorithm1", (25, 1, 16, True), ValueError, COLLIDE(16, 5)),
    ("exists_admissible_bn", (10, LONG), ValueError, COLLIDE(BITS, 10)),
    ("algorithm1", (8, 1, 2), ValueError, "n = 8 is a prime power; its Apery base is 2**2, not n. "
     "Pass force_base=True (--force-base) to run against that base"),
    ("identity_pq_check", (4, 5, 3), ValueError, "need two distinct primes, got 4, 5"),
    ("identity_pq_check", (3, 3, 2), ValueError, "need two distinct primes, got 3, 3"),
    ("identity_pq_check", (LONG, 5, 1), ValueError, f"need two distinct primes, got {BITS}, 5"),
    ("identity_pq_check", (3, 5, 6), ValueError, "r = 6 must lie in [0, 15] and be coprime to 15"),
    ("identity_pq_check", (3, 5, LONG + 1), ValueError,
     f"r = {BITS} must lie in [0, 15] and be coprime to 15"),
    ("identity_pm_check", (2, 3, 1), ValueError, "p = 2 must be an odd prime"),
    ("identity_pm_check", (3, 1, 1), ValueError, "need m >= 2, got 1"),
    ("identity_pm_check", (3, -LONG, 1), ValueError, f"need m >= 2, got -{BITS}"),
    ("identity_pm_check", (3, 2, 6), ValueError,
     "r = 6 must lie in [0, 9] and not be a multiple of 3"),
    ("identity_pm_check", (3, 2, LONG + 1), ValueError,
     f"r = {BITS} must lie in [0, 9] and not be a multiple of 3"),
]


REFUSAL_IDS = [call_id(name, args) for name, args, *_ in REFUSALS]


@pytest.mark.parametrize("row", REFUSALS, ids=REFUSAL_IDS)
def test_each_refusal_is_its_row(row):
    name, args, cls, message = row
    assert outcome(entry(name), *args) == (cls, message)


def refusal_sites():
    """Each raise statement of the library whose class, resolved in its
    module's namespace, is ValueError or a subclass, as (module, first line,
    last line)."""
    sites = []
    for module in sorted(LIBRARY):
        namespace = vars(importlib.import_module(f"frobinom.{module}"))
        for node in ast.walk(ast.parse(SOURCES[module])):
            if isinstance(node, ast.Raise) and node.exc:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if issubclass(eval(ast.unparse(raised), namespace), ValueError):
                    sites.append((module, node.lineno, node.end_lineno))
    return sites


def raised_at(call, args):
    """The module (or file) and line of the last frame of the call's traceback."""
    try:
        call(*args)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        path = Path(tb.tb_frame.f_code.co_filename)
        return path.stem if path.parent == PACKAGE else str(path), tb.tb_lineno


def test_every_refusal_site_has_a_row_and_every_row_a_site():
    sites, reached, unsited = refusal_sites(), set(), []
    for name, args, *_ in REFUSALS:
        module, line = raised_at(entry(name), args)
        site = [site for site in sites if site[0] == module and site[1] <= line <= site[2]]
        reached.update(site)
        if not site:  # Python raised inside the library, not a refusal
            unsited.append((name, module, line))
    assert unsited == []
    assert [site for site in sites if site not in reached] == []  # a refusal with no row


def test_each_cli_domain_error_is_a_refusal():
    # exit 2 comes only from a documented refusal, printed as it is
    messages = {f"frobinom: {message}\n" for *_, message in REFUSALS}
    assert [case["argv"] for case in CASES if case["exit"] == 2
            and case["stderr"] not in messages] == []


def oracle_mismatches(*ns):
    """The oracle's mismatches at each n, as one call."""
    return [frobinom.verify_closed_vs_oracle(n).mismatches for n in ns]


def seeded(n, p, seeds):
    """algorithm1 at n and p from each seed below seeds, as one call."""
    return [frobinom.algorithm1(n, s, p) for s in range(seeds)]


BN, CLI, CORE, EM = frobinom.binomial, frobinom.cli, frobinom.corepartitions, frobinom.exactmath
ENGINE = frobinom.NumericalSemigroup
F30030 = frobinom.bn_report(30030).frobenius
NO_WALK = "no admissible s for n=30030, p={}: s >= 1 and s + p < F = {} cannot both hold".format
FIRST = lambda first, *rest: first  # n, for the per-n functions
ANY = lambda *args: args  # a binding that must not be called
# the CLI contract's usage refusals: the CLI bound and the engine budget among them
REFUSED = [case["argv"] for case in CASES if case["exit"] == 64]

# One row per rule about the work a call may do: the call (an argv run
# through the CLI's main, or a function with its arguments); its outcome
# (the exit code, or the result, or the result's class where the result is
# too long to write, or the exception's class and message); the watched
# binding as (owner, attribute); the key read off each call of the binding;
# and the keys, in order, that the call makes.  [] means the binding must not
# be called, and the outcome shows that the call ran past where it would be.
WORK = [
    # the oracle scans pseudo-Frobenius once per n, at the engine's
    # multiplicity, and reads the engine's own table, asking for no other
    ((oracle_mismatches, (6, 9, 30, 4096)), [[]] * 4, (ENGINE, "pseudo_frobenius"),
     lambda S: S.multiplicity, [6, 3, 30, 2048]),
    ((oracle_mismatches, (6, 9, 30, 4096)), [[]] * 4, (ENGINE, "apery_set"), ANY, []),
    # each prefix's membership is read off one table pass: no prefix semigroup
    ((S61520.is_telescopic, ()), True, (frobinom.semigroup, "minimal_generators"), ANY, []),
    # the spec stage is cached, so each call shares one factorization per n
    ((seeded, (30030, 7, 100)), list, (BN, "factorize"), FIRST, [30030]),
    *((argv + fmt, 0, (BN, "factorize"), FIRST, [30030])
      for argv in ("report 30030", "decompose 30030 7") for fmt in ("", " --format json")),
    # a prime power is refused from the spec stage, before any binomial
    ((frobinom.algorithm1, (2**19, 1, 2)), (ValueError, (
        "n = 524288 is a prime power; its Apery base is 2**18, not n. Pass force_base=True "
        "(--force-base) to run against that base")), (BN, "binomial"), ANY, []),
    # p > F - 2 is refused before any walk; p = 5 walks its first seed's classes
    *(((frobinom.exists_admissible_bn, (30030, p)), (RuntimeError, NO_WALK(p, F30030)),
       (BN, "_coordinates"), ANY, []) for p in (F30030 - 1, F30030)),
    ((frobinom.exists_admissible_bn, (30030, 5)), int, (BN, "_coordinates"),
     lambda box, r: r, [0, 1, 5]),
    # point queries, and report above a base of 1000, list no Apery set; at
    # MAX_N, report's answers exceed the 4300-digit int-to-str limit
    ((frobinom.decompose, (MAX_N, 7)), Representation, (BN, "bn_apery_closed"), ANY, []),
    ((frobinom.algorithm1, (MAX_N, 1, 2)), AdmissiblePairResult, (BN, "bn_apery_closed"),
     ANY, []),
    ((frobinom.exists_admissible_bn, (MAX_N, 7)), int, (BN, "bn_apery_closed"), ANY, []),
    ("report 510510", 0, (BN, "bn_apery_closed"), ANY, []),
    (f"report {MAX_N}", 2, (BN, "bn_apery_closed"), ANY, []),
    # the CLI bound and the engine budget are checked before the engine runs
    *((argv, 64, (CLI, "NumericalSemigroup"), ANY, [])
      for argv in REFUSED if argv.startswith(("semigroup", "core"))),
    *((argv, 64, (frobinom.oracle, "NumericalSemigroup"), ANY, [])
      for argv in REFUSED if argv.startswith("verify")),
    # verify reads each closed form once per n
    *(("verify --max-n 9", 0, (BN, name), FIRST, [4, 6, 8, 9])
      for name in ("bn_report", "bn_apery_closed")),
    # core lists a semigroup's gaps once and reads A(S) as S, as a semigroup
    # is closed under addition; a gap set's A(S) is computed once
    *((f"core --semigroup 46 47{fmt}", 0, (NS, "gaps"), lambda S: S.frobenius, [2069])
      for fmt in ("", " --format json")),
    *((f"core --semigroup {gens}", 0, (CORE, "_a_set_bitmap"), ANY, [])
      for gens in ("5 7 9", "3 28", "6 15 20", "12 19 24", "46 47 --format json")),
    ("core --gaps 2 5 6 8 --format json", 0, (CORE, "_a_set_bitmap"),
     lambda member: len(member) - 1, [8]),
    # JSON builds no text line
    *((f"core {source} --format json", 0, binding, ANY, [])
      for source in ("--semigroup 46 47", "--gaps 2 5 6 8")
      for binding in ((NS, "members_below_frobenius"), (CLI, "_fmt_list"))),
]


def work_id(row):
    """The call, as argv or as its function and arguments, and the watched binding."""
    call, _, (_, name), *_ = row
    return f"{call if isinstance(call, str) else call_id(call[0].__name__, call[1])}-{name}"


WORK_IDS = list(map(work_id, WORK))


@pytest.mark.parametrize("row", WORK, ids=WORK_IDS)
def test_each_call_does_only_its_work(row, monkeypatch):
    call, expected, (owner, name), key, keys = row
    real, seen = getattr(owner, name), []

    def recorded(*args, **kwargs):
        seen.append(key(*args))
        if len(seen) > len(keys):  # at once, so a refused call starts no long run
            raise AssertionError(f"{name} called with {seen[-1]!r} after {keys}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    BN.bn_spec.cache_clear()
    BN._box.cache_clear()
    got = CLI.main(call.split()) if isinstance(call, str) else outcome(call[0], *call[1])
    assert seen == keys
    assert got == expected or type(got) is expected


def faulty(edit, where=lambda *args: True):
    """A fault: wraps the real function so that its result is edited at the
    arguments where `where` holds."""
    def wrap(real):
        def planted(*args):
            result = real(*args)
            return edit(result) if where(*args) else result
        return planted
    return wrap


def report_with(**edits):
    """A fault of bn_report: each named field is its edit of the real record."""
    return faulty(lambda report: report._replace(
        **{field: edit(report) for field, edit in edits.items()}))


PASCAL = "pascal recurrence and symmetry, n <= 60"
CARRIES = "carry count = divide-out valuation = floor-sum formula, n <= 60"
QUOTIENT = "prime-power quotient congruence (a >= 1 for p = 2), p in 2..7, m <= 12"

# One row per fault planted under `verify`: the binding as (owner, attribute),
# the wrapper that makes the fault from the real function, the max_n of
# `oracle.verify_rows`, and each row that must fail, by name, with its
# detail.  A row of `verify` that no fault fails checks nothing, so each kind
# of row is failed by some fault here: a new kind of row needs a fault row.
FAULTS = [
    # no fault: every row passes
    ((BN, "bn_report"), lambda real: real, 6, {}),
    # each field of the report against the engine, at each n of the sweep
    ((BN, "bn_report"), report_with(genus=lambda r: r.genus + 1), 6,
     {"n=4 genus": "closed=2 oracle=1", "n=6 genus": "closed=26 oracle=25"}),
    ((BN, "bn_report"), report_with(frobenius=lambda r: r.frobenius + 1), 6,
     {"n=4 frobenius": "closed=2 oracle=1", "n=6 frobenius": "closed=50 oracle=49"}),
    ((BN, "bn_report"), report_with(pseudo_frobenius=lambda r: (r.frobenius + 1,)), 6,
     {"n=4 pseudo_frobenius": "closed=(2,) oracle=(1,)",
      "n=6 pseudo_frobenius": "closed=(50,) oracle=(49,)"}),
    ((BN, "bn_report"), report_with(type=lambda r: 2), 6,
     {"n=4 type": "closed=2 oracle=1", "n=6 type": "closed=2 oracle=1"}),
    ((BN, "bn_report"), report_with(symmetric=lambda r: False), 6,
     {"n=4 symmetric": "closed=False oracle=True", "n=6 symmetric": "closed=False oracle=True"}),
    ((BN, "bn_report"), report_with(telescopic=lambda r: False), 6,
     {"n=4 telescopic": "closed=False oracle=True",
      "n=6 telescopic": "closed=False oracle=True"}),
    ((BN, "bn_report"), report_with(embedding_dimension=lambda r: r.embedding_dimension + 1), 6,
     {"n=4 embedding_dimension": "closed=3 oracle=2",
      "n=6 embedding_dimension": "closed=4 oracle=3"}),
    # a closed base off by one is a reported mismatch, not an engine error
    # about a base that is no element: the listing is compared with the
    # engine's own table, at its multiplicity
    ((BN, "bn_report"), report_with(
        minimal_generators=lambda r: (r.minimal_generators[0] + 1, *r.minimal_generators[1:]),
        apery_base=lambda r: r.apery_base + 1), 6,
     {"n=4 minimal_generators": "closed=(3, 3) oracle=(2, 3)",
      "n=6 minimal_generators": "closed=(7, 15, 20) oracle=(6, 15, 20)"}),
    # the Apery listing is compared with its base: a wrong element or a
    # wrong base as `bn_apery_closed` returns them fails the `apery_set` row
    ((BN, "bn_apery_closed"), faulty(lambda out: (out[0], (*out[1][:-1], out[1][-1] + 1))), 6,
     {"n=4 apery_set": "closed=(2, (0, 4)) oracle=(2, (0, 3))",
      "n=6 apery_set":
          "closed=(6, (0, 15, 20, 35, 40, 56)) oracle=(6, (0, 15, 20, 35, 40, 55))"}),
    ((BN, "bn_apery_closed"), faulty(lambda out: (out[0] + 1, out[1])), 6,
     {"n=4 apery_set": "closed=(3, (0, 3)) oracle=(2, (0, 3))",
      "n=6 apery_set":
          "closed=(7, (0, 15, 20, 35, 40, 55)) oracle=(6, (0, 15, 20, 35, 40, 55))"}),
    # a record that drops its last generator and counts one fewer agrees with
    # itself, so only the engine's system fails it
    ((BN, "bn_report"), report_with(
        minimal_generators=lambda r: r.minimal_generators[:-1],
        embedding_dimension=lambda r: r.embedding_dimension - 1), 6,
     {"n=4 minimal_generators": "closed=(2,) oracle=(2, 3)",
      "n=4 embedding_dimension": "closed=1 oracle=2",
      "n=6 minimal_generators": "closed=(6, 15) oracle=(6, 15, 20)",
      "n=6 embedding_dimension": "closed=2 oracle=3"}),
    # the comparison holds the engine to the closed forms too: a wrong engine
    # fails its field, and each field the engine derives from it
    ((ENGINE, "frobenius"), faulty(lambda f: f + 1), 6,
     {"n=4 frobenius": "closed=1 oracle=2", "n=4 symmetric": "closed=True oracle=False",
      "n=6 frobenius": "closed=49 oracle=50", "n=6 symmetric": "closed=True oracle=False"}),
    ((ENGINE, "genus"), faulty(lambda g: g + 1), 6,
     {"n=4 genus": "closed=1 oracle=2", "n=4 symmetric": "closed=True oracle=False",
      "n=6 genus": "closed=25 oracle=26", "n=6 symmetric": "closed=True oracle=False"}),
    ((ENGINE, "pseudo_frobenius"), faulty(lambda pf: [pf[0] - 1, *pf]), 6,
     {"n=4 pseudo_frobenius": "closed=(1,) oracle=(0, 1)", "n=4 type": "closed=1 oracle=2",
      "n=6 pseudo_frobenius": "closed=(49,) oracle=(48, 49)", "n=6 type": "closed=1 oracle=2"}),
    ((ENGINE, "is_telescopic"), faulty(lambda t: False), 6,
     {"n=4 telescopic": "closed=True oracle=False", "n=6 telescopic": "closed=True oracle=False"}),
    # exactmath's arithmetic against the oracle's own references
    ((EM, "binomial"), faulty(lambda b: b + 1, lambda n, k: (n, k) == (10, 3)), 4,
     {PASCAL: "", CARRIES: "", QUOTIENT: ""}),
    ((EM, "_binomial_from_primes"), faulty(lambda b: 3 * b), 4,
     {"product tree = math.comb at the dispatch thresholds, n <= 10^4": ""}),
    ((EM, "binom_residue_lemma"), faulty(lambda out: (out[0] + 1, out[1]), lambda n, p, k: n == 12),
     4, {"binomial residue congruence on its provable domain, n <= 300": ""}),
    ((EM, "factorize"), faulty(lambda out: [(2, 1), (3, 0)], lambda n: n == 8), 4,
     {"gcd of binomial family: p for prime powers else 1, n <= 200": ""}),
    # a fault at one point of one routine fails only the row that reads it
    ((EM, "sun_congruence_holds"), faulty(lambda holds: False,
                                          lambda p, a, m, n2: (p, a, m, n2) == (3, 1, 5, 2)),
     4, {QUOTIENT: ""}),
    ((EM, "binomial_valuation_kummer"), faulty(lambda v: v + 1,
                                               lambda p, n, k: (p, n, k) == (2, 10, 3)),
     4, {CARRIES: ""}),
    # v_13(C(10, 3)): no p of the quotient row, whose routine reads valuations too
    ((EM, "p_adic_valuation"), faulty(lambda v: v + 1, lambda p, x: (p, x) == (13, 120)),
     4, {CARRIES: ""}),
]


def kind(name):
    """A verify row's kind: its name without the n."""
    return name.split(" ", 1)[1] if name.startswith("n=") else name


def fault_id(row):
    """The faulty binding, the kinds of verify row it fails and the detail of
    the first failed row, which tells apart two faults failing the same rows."""
    (_, name), *_, failed = row
    kinds = "+".join(sorted({kind(check).split()[0] for check in failed})) or "none"
    detail = failed[min(failed)] if failed else ""
    return f"{name}-{kinds}" + (f"-{detail}" if detail else "")


FAULT_IDS = list(map(fault_id, FAULTS))


@pytest.mark.parametrize("row", FAULTS, ids=FAULT_IDS)
def test_each_fault_fails_exactly_its_verify_rows(row, monkeypatch):
    (owner, name), wrap, max_n, failed = row
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    BN.bn_spec.cache_clear()
    BN._box.cache_clear()
    try:
        rows = frobinom.oracle.verify_rows(max_n)
    finally:  # no record built under the fault outlives the row
        monkeypatch.undo()
        BN.bn_spec.cache_clear()
        BN._box.cache_clear()
    assert {check["name"]: check["detail"] for check in rows if not check["passed"]} == failed


def test_each_table_row_has_its_own_id():
    # pytest numbers a repeated id by its place, so a row inserted above it
    # would rename it
    for ids in (INTEGER_IDS, REFUSAL_IDS, WORK_IDS, FAULT_IDS, LOAD_IDS):
        assert [i for i, count in Counter(ids).items() if count > 1] == []


def test_every_kind_of_verify_row_is_failed_by_a_fault():
    kinds = {kind(check["name"]) for check in frobinom.oracle.verify_rows(4)}
    assert len(kinds) == 15  # the nine fields and the six arithmetic checks
    assert kinds - {kind(name) for *_, failed in FAULTS for name in failed} == set()


def test_one_route_per_engine_fact():
    # membership is `x in S`, and the type is len(S.pseudo_frobenius())
    for cls in (frobinom.NumericalSemigroup, frobinom.NumericalSet):
        assert not hasattr(cls, "contains"), cls
    assert not hasattr(frobinom.NumericalSemigroup, "type")


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


# The package modules each entry loads in a fresh interpreter: `import
# frobinom` none, a public name its home module and what that imports, and
# the CLI the four library layers that perfbench's tracer reads from
# sys.modules after `import frobinom.cli` (a layer it imported later would
# be missing there), with `oracle` for verify alone.
CLI_LAYERS = {"cli", "exactmath", "semigroup", "binomial", "corepartitions"}
LOADS = [
    ("import frobinom", set()),
    ("import frobinom; frobinom.decompose", {"exactmath", "binomial"}),
    ("import frobinom; frobinom.NumericalSemigroup", {"semigroup"}),
    ("import frobinom; frobinom.a_set", {"exactmath", "corepartitions"}),
    ("import frobinom.cli", CLI_LAYERS),
    ("import frobinom.cli; assert frobinom.cli.main(['report', '30']) == 0", CLI_LAYERS),
    ("import frobinom.cli; assert frobinom.cli.main(['verify', '--max-n', '20']) == 0",
     CLI_LAYERS | {"oracle"}),
]
LOAD_IDS = [code for code, _ in LOADS]


@pytest.mark.parametrize("code, loads", LOADS, ids=LOAD_IDS)
def test_each_entry_loads_only_what_it_uses(code, loads):
    # the records are namedtuples, argv is read from one command table, and
    # only a JSON call imports json: importing argparse, dataclasses, inspect
    # or json costs more than a small command's own work
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {code}; "
             "loaded = sorted(m.removeprefix('frobinom.') for m in sys.modules "
             "if m.startswith('frobinom.')); "
             "unused = {'argparse', 'dataclasses', 'inspect', 'json'} & set(sys.modules); "
             "print(loaded, sorted(unused), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stderr == f"{sorted(loads)} []\n"

"""Import layering of the package, read from its source with ast."""

import ast
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


def test_only_binomial_reads_the_box_record():
    assert list(private_reads("binomial.py", {"_box", "_Box"})) == []


def test_only_corepartitions_reads_the_set_bitmap():
    # the encoding of a NumericalSet lives in one module
    assert list(private_reads("corepartitions.py", {"_member"})) == []

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


def test_only_binomial_reads_the_box_record():
    private = {"_box", "_Box"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "binomial.py":
            continue
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            assert not names & private, (path.name, ast.unparse(node))

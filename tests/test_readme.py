"""README examples run: the command-line examples are rows of the CLI
contract table, and the library quick tour passes as a doctest."""

import doctest
from pathlib import Path

from cli_contract import CASES

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading):
    """The first fenced block under a `## heading` of README.md, without its fences."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_command_line_examples_are_contract_rows():
    examples = [line.split("#")[0].split() for line in readme_block("Command line").splitlines()]
    assert examples and all(words[0] == "frobinom" for words in examples)
    rows = {tuple(case["argv"].split()) for case in CASES}
    assert [words for words in examples if tuple(words[1:]) not in rows] == []


def test_library_quick_tour_runs():
    test = doctest.DocTestParser().get_doctest(
        readme_block("Library quick tour"), {}, "README quick tour", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted and not failed

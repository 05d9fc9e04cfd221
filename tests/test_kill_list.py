"""The kill list of tests/mutants.py stays runnable, checked without running it.

Running the mutants takes minutes, so a fragment that a change rewrote, or a
named test that was renamed, would only show there.  These checks read the
list: every fragment occurs exactly once in its file, and every named test is
a function defined at the top level of its test file, or one case of it.
"""

import ast
from pathlib import Path

from mutants import MUTANTS, mutated

ROOT = Path(__file__).resolve().parent.parent


def test_every_fragment_occurs_once_in_its_file():
    stale = []
    for mutant in MUTANTS:
        try:
            mutated(mutant)
        except ValueError as error:
            stale.append(str(error))
    assert stale == []


def test_every_named_test_is_defined_in_its_file():
    defined: dict[str, set[str]] = {}
    missing = []
    for test in dict.fromkeys(t for m in MUTANTS for t in m.tests):
        path, name = test.split("::")
        name = name.partition("[")[0]  # a parametrized case names its function first
        if path not in defined:
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if name not in defined[path]:
            missing.append(test)
    assert missing == []

"""The mutation register of ``mutants.py`` matches the source and the tests."""

import ast
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def _test_functions(path):
    return {node.name for node in ast.parse((ROOT / path).read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_mutant_plants_once_and_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert name in _test_functions(path), test

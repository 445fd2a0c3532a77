"""Every name a library module imports is used in that module.

A stdlib-only scan: each module under src/tropform is parsed with ``ast``
and an imported name counts as used when it appears as a name anywhere in
the module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tropform"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nsys.exit()\n"
    assert _unused_imports(source) == [(2, "os")]


def test_library_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = ["%s:%d %s" % (path.name, line, name)
              for path in modules
              for line, name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []

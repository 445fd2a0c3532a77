"""Every name a library module imports is used in that module, every
definition of the library is referenced somewhere, and every function the
perfbench tracer wraps by name is defined.

Stdlib-only scans with ``ast``.  An imported name counts as used when it
appears as a name anywhere in its module.  A top-level function or class,
or a method of a top-level class, under src/tropform counts as referenced
when its name appears as a name, an attribute or a string anywhere in
src/, tests/ or perfbench/; dunder methods are called implicitly and are
not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tropform"


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


def _definitions(source):
    """(line, qualified name, name) of the scanned definitions."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((m.lineno, "%s.%s" % (node.name, m.name), m.name)
                       for m in node.body if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def _references(sources):
    names = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def test_checker_flags_an_unreferenced_definition():
    source = ("class A:\n    def __init__(self):\n        pass\n"
              "    def used(self):\n        pass\n    def spare(self):\n        pass\n"
              "def helper():\n    return A().used()\n"
              "def orphan():\n    pass\n")
    used = _references([source, "helper()"])
    assert [(line, qual) for line, qual, name in _definitions(source)
            if name not in used] == [(6, "A.spare"), (10, "orphan")]


def test_library_has_no_unreferenced_definitions():
    files = sorted(p for d in ("src", "tests", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    used = _references(p.read_text(encoding="utf-8") for p in files)
    unreferenced = ["%s:%d %s" % (path.name, line, qual)
                    for path in sorted(PACKAGE.glob("*.py"))
                    for line, qual, name in _definitions(path.read_text(encoding="utf-8"))
                    if name not in used]
    assert unreferenced == []


def test_traced_names_are_library_functions():
    """perfbench/tracer.py wraps the functions named in its TRACED table by
    looking them up in their module, so each must stay a top-level function
    of that tropform module; a deleted one would break ``--trace 1``."""
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    missing = []
    for module, names in traced.items():
        tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        missing += ["%s.%s" % (module, name) for name in names if name not in defined]
    assert missing == []

"""Every name a library module imports is used in that module, no library
module imports inside a function body, every definition of the library is
referenced somewhere, a public one that the library and perfbench do not
reference is named in README as user API, every function the perfbench
tracer wraps by name is defined, and every ``functools`` cache that lives
as long as the process and takes arguments is bounded.

Stdlib-only scans with ``ast``.  An imported name counts as used when it
appears as a name anywhere in its module.  A top-level function, class or
assigned name, or a method of a top-level class, under src/tropform counts
as referenced when its name is read as a name or appears as an attribute
anywhere in src/, tests/ or perfbench/, or appears as a string in src/ or
perfbench/ (the tracer names functions by string); a string in tests/ and
an assignment alone are no reference.  A private definition, one whose
name starts with an underscore, must be referenced from src/ itself, so a
helper only tests use lives in tests/.  A public definition must be
referenced from src/ or perfbench/, or be user API: README names it by its
qualified name (``Class.method`` for a method) at the start of a code span.
Dunder names are read implicitly and are not scanned.
"""

import ast
import re
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


def _nested_imports(source):
    """(line, function name) of every import statement inside a function
    body, nested functions included."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((node.lineno, fn.name) for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_checker_flags_an_import_inside_a_function():
    source = ("import os\n"
              "def top():\n    import sys\n    return sys\n"
              "class A:\n    from math import pi\n"
              "    def method(self):\n        def inner():\n"
              "            from math import tau\n        return inner\n")
    assert _nested_imports(source) == [(3, "top"), (9, "inner"), (9, "method")]


def test_library_imports_only_at_module_level():
    nested = ["%s:%d in %s" % (path.name, line, name)
              for path in sorted(PACKAGE.glob("*.py"))
              for line, name in _nested_imports(path.read_text(encoding="utf-8"))]
    assert nested == []


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(source):
    """(line, qualified name, name) of the scanned definitions."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((m.lineno, "%s.%s" % (node.name, m.name), m.name)
                       for m in node.body if isinstance(m, ast.FunctionDef)
                       and not _dunder(m.name))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((node.lineno, t.id, t.id) for target in targets
                       for t in ast.walk(target)
                       if isinstance(t, ast.Name) and not _dunder(t.id))
    return out


def _references(sources, strings=True):
    """The names read, the attributes and, with strings, the string
    constants in the given sources."""
    names = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                if not isinstance(n.ctx, ast.Store):
                    names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
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


def test_checker_flags_an_unreferenced_assignment():
    source = ('__all__ = ["TABLE"]\nTABLE = (1, 2)\nSPARE_KINDS = ("a", "b")\n'
              "SPARE_LIMIT: int = 3\nSPARE_LO, HI = 0, 1\n"
              "def helper():\n    return TABLE, HI\n")
    used = _references([source, "helper()"])
    assert [(line, qual) for line, qual, name in _definitions(source)
            if name not in used] == [(3, "SPARE_KINDS"), (4, "SPARE_LIMIT"), (5, "SPARE_LO")]


def test_checker_ignores_a_string_in_a_test():
    source = "def spare():\n    pass\ndef traced():\n    pass\n"
    test = 'from tropform import lattice\ngetattr(lattice, "spare")\n'
    used = _references(["TRACED = ('traced',)\n"]) | _references([test], strings=False)
    assert [(line, qual) for line, qual, name in _definitions(source)
            if name not in used] == [(1, "spare")]


def _sources(*dirs):
    return [p.read_text(encoding="utf-8") for d in dirs
            for p in sorted((ROOT / d).rglob("*.py"))]


def test_library_has_no_unreferenced_definitions():
    used = _references(_sources("src", "perfbench")) \
        | _references(_sources("tests"), strings=False)
    unreferenced = ["%s:%d %s" % (path.name, line, qual)
                    for path in sorted(PACKAGE.glob("*.py"))
                    for line, qual, name in _definitions(path.read_text(encoding="utf-8"))
                    if name not in used]
    assert unreferenced == []


def _private_unreferenced(source, used):
    """(line, qualified name) of the private definitions in source whose
    names are not in used."""
    return [(line, qual) for line, qual, name in _definitions(source)
            if name.startswith("_") and name not in used]


def test_checker_flags_a_private_definition_only_a_test_reads():
    source = ("def _helper():\n    pass\ndef _oracle():\n    pass\n"
              "class A:\n    def run(self):\n        return _helper()\n"
              "    def _spare(self):\n        pass\n")
    test = "from tropform.m import _oracle\n_oracle()\nA()._spare()\n"
    assert _private_unreferenced(source, _references([source])) == [(3, "_oracle"),
                                                                    (8, "A._spare")]
    assert _private_unreferenced(source, _references([source, test])) == []


def test_library_private_definitions_are_referenced_in_the_library():
    used = _references(_sources("src"))
    unreferenced = ["%s:%d %s" % (path.name, line, qual)
                    for path in sorted(PACKAGE.glob("*.py"))
                    for line, qual in _private_unreferenced(path.read_text(encoding="utf-8"),
                                                            used)]
    assert unreferenced == []


def _readme_names(text):
    """The dotted names that open a code span in README text."""
    return set(re.findall(r"`([A-Za-z_][\w.]*)", text))


def _public_unnamed(source, used, named):
    """(line, qualified name) of the public definitions in source whose
    names are not in used and whose qualified names are not in named."""
    return [(line, qual) for line, qual, name in _definitions(source)
            if not name.startswith("_") and name not in used and qual not in named]


def test_checker_flags_an_unused_undocumented_public_definition():
    source = ("def run():\n    return helper()\ndef helper():\n    pass\n"
              "def planted():\n    pass\nclass A:\n    def api(self):\n        pass\n")
    readme = "Call `run`, or `A.api(x)` for the\n`api` of an `A`.\n"
    used = _references([source])
    assert _public_unnamed(source, used, set()) == [
        (1, "run"), (5, "planted"), (7, "A"), (8, "A.api")]
    assert _public_unnamed(source, used, _readme_names(readme)) == [(5, "planted")]


def test_library_public_definitions_are_referenced_or_documented():
    used = _references(_sources("src", "perfbench"))
    named = _readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    unnamed = ["%s:%d %s" % (path.name, line, qual)
               for path in sorted(PACKAGE.glob("*.py"))
               for line, qual in _public_unnamed(path.read_text(encoding="utf-8"),
                                                 used, named)]
    assert unnamed == []


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


def _maxsize(decorator, constants):
    """The maxsize of a functools cache decorator: an int, None for an
    unbounded cache or a maxsize that is not an int constant, and False
    when the decorator is no functools cache.  ``lru_cache`` keeps 128
    entries unless told otherwise."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "id", getattr(target, "attr", None))
    if name == "cache":
        return None
    if name != "lru_cache":
        return False
    if call is None:
        return 128
    args = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    if not args:
        return 128
    value = args[0]
    if isinstance(value, ast.Name):
        value = constants.get(value.id)
    return value.value if isinstance(value, ast.Constant) and type(value.value) is int \
        else None


def _unbounded_caches(source):
    """(line, name) of each function at module level or in a top-level
    class that takes arguments and has a functools cache of no finite
    maxsize.  A module-level name bound to an int literal counts as that
    int.  Such a cache lives as long as the process; a cache on a function
    nested in another is made anew by each call and freed when it returns,
    so the call's own work bounds it, and it is not scanned."""
    tree = ast.parse(source)
    constants = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)}
    scanned = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    scanned += [m for node in tree.body if isinstance(node, ast.ClassDef)
                for m in node.body if isinstance(m, ast.FunctionDef)]
    out = []
    for fn in scanned:
        a = fn.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for d in fn.decorator_list:
            size = _maxsize(d, constants)
            if size is None:
                out.append((fn.lineno, fn.name))
    return out


def test_checker_flags_an_unbounded_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n_SIZE = 64\n"
              "@cache\ndef parser():\n    pass\n"
              "@cache\ndef a(x):\n    pass\n"
              "@functools.lru_cache(maxsize=None)\ndef b(x):\n    pass\n"
              "@lru_cache(None)\ndef c(*xs):\n    pass\n"
              "@lru_cache(maxsize=_SIZE)\ndef d(x):\n    pass\n"
              "@lru_cache\ndef e(x):\n    pass\n"
              "@functools.lru_cache(1 << 10)\ndef f(x):\n    pass\n"
              "class A:\n    @functools.cache\n    def g(self):\n        pass\n"
              "def h(x):\n    @cache\n    def inner(y):\n        pass\n    return inner\n")
    assert _unbounded_caches(source) == [(8, "a"), (11, "b"), (14, "c"), (23, "f"),
                                         (27, "g")]


def test_library_caches_are_bounded():
    unbounded = ["%s:%d %s" % (path.name, line, name)
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in _unbounded_caches(path.read_text(encoding="utf-8"))]
    assert unbounded == []

#!/usr/bin/env python3
"""Run the mutation register of ``mutants.py`` against copies of the tree.

    python tests/run_mutants.py [NAME ...]

For each mutant, or each one named, in turn: copy ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, plant the mutant there, and run
its tests in one pytest subprocess with that copy's ``src/`` on the path.
The mutant is killed when every one of its tests fails.  Each verdict goes
to standard error as it comes; standard output is one JSON object:
``killed``, the names of the killed mutants; ``survived``, each other
mutant with the tests that passed on it; ``errors``, each mutant whose
pytest run ended in neither pass nor failure, with the end of its output;
and ``seconds``, the wall time.  The exit status is 0 when every mutant
run was killed, else 1.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from mutants import MUTANTS  # noqa: E402

# pytest's short summary line of a failed test: the node id up to any
# parameters, e.g. "FAILED tests/test_x.py::test_y[2-4] - AssertionError"
FAILED = re.compile(r"^(?:FAILED|ERROR) ([^\s\[]+)", re.M)


def run(mutant):
    """(return code, output, failed test ids) of the mutant's tests run on
    a copy of the tree with the mutant planted."""
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            sys.exit("error: %s: old text does not occur exactly once in %s"
                     % (mutant.name, mutant.path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr, set(FAILED.findall(proc.stdout))


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit("error: no mutant named %s" % ", ".join(sorted(unknown)))
    start = time.perf_counter()
    report = {"killed": [], "survived": {}, "errors": {}}
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        code, output, failed = run(mutant)
        passed = [t for t in mutant.tests if t not in failed]
        if code not in (0, 1):
            status, report["errors"][mutant.name] = "error", output[-2000:]
        elif passed:
            status, report["survived"][mutant.name] = "survived", passed
        else:
            status = "killed"
            report["killed"].append(mutant.name)
        print("%-45s %s" % (mutant.name, status), file=sys.stderr, flush=True)
    report["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps(report))
    return 1 if report["survived"] or report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

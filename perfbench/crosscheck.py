#!/usr/bin/env python3
"""Cross-check the tracer's attribution against cProfile on one workload.

    python3 perfbench/crosscheck.py --workload calculus --seed 1

Runs the trace group of the workload once under cProfile and once under
the span tracer, and prints the inclusive share of wall time of
``superform.compose_affine`` and ``polyhedra.from_halfspaces`` in each.
The two attributions agree when they rank the two functions the same way.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
import time

import run
from tracer import Tracer
from workloads import WORKLOADS

NAMES = ("superform.compose_affine", "polyhedra.from_halfspaces")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="calculus", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    tf = run.import_library()
    os.makedirs(os.path.join(run.HERE, "work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(run.HERE, "work")) as workdir:
        workload = WORKLOADS[args.workload](tf, args.seed, workdir)
        run.run_ops(workload.warm_up())
        ops = workload.trace_ops

        profiler = cProfile.Profile()
        start = time.perf_counter()
        failed = run.run_ops(ops, wrap=lambda label, op: lambda: profiler.runcall(op))
        profiled_wall = time.perf_counter() - start
        cumulative = {}
        for (path, _, func), (_, _, _, ct, _) in pstats.Stats(profiler).stats.items():
            name = "%s.%s" % (os.path.splitext(os.path.basename(path))[0], func)
            if name in NAMES and os.sep + "tropform" + os.sep in path:
                cumulative[name] = cumulative.get(name, 0.0) + ct

        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            failed += run.run_ops(ops)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        table = tracer.table()

    print("%-28s %10s %10s" % ("inclusive share", "cProfile", "tracer"))
    for name in NAMES:
        print("%-28s %9.1f%% %9.1f%%" % (name, 100 * cumulative.get(name, 0.0) / profiled_wall,
                                         100 * table.get(name, [0, 0.0])[1] / traced_wall))
    rank_p = sorted(NAMES, key=lambda n: -cumulative.get(n, 0.0))
    rank_t = sorted(NAMES, key=lambda n: -table.get(n, [0, 0.0])[1])
    print("ranks agree: %s (%s)" % (rank_p == rank_t, " > ".join(rank_t)))
    if failed:
        print("check failed: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0 if rank_p == rank_t else 1


if __name__ == "__main__":
    sys.exit(main())

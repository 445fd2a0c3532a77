#!/usr/bin/env python3
"""Closed-loop, single-client benchmark of tropform.

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout.  Every input comes from ``--seed``; every operation's result
is checked exactly.  With ``--trace 0`` the end-to-end metrics listed in
``BENCHMARK.json`` are measured; with ``--trace 1`` the per-layer metrics,
from alternating untraced and traced passes over the workload's trace
group.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
PASSES = 2
MIN_POOL = 100         # distinct operations: ten or more lie beyond p90
CALIBRATION_REF_S = 0.005  # calibration() time on the reference machine
MIN_TRACE_PASSES = 2   # counts of two traced passes must agree
clock = time.perf_counter


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tropform", "__init__.py")):
        sys.exit("error: no tropform package under %s" % src)
    sys.path.insert(0, src)
    import tropform
    import tropform.cli
    import tropform.cycle
    import tropform.hypersurface
    import tropform.integrate
    import tropform.io
    import tropform.lattice
    import tropform.polyhedra
    import tropform.superform
    if os.path.dirname(os.path.dirname(os.path.abspath(tropform.__file__))) != src:
        sys.exit("error: tropform was not imported from %s" % src)
    return tropform


def run_ops(ops, latencies=None, wrap=None, speed=None):
    """Run (label, op) pairs in order; returns the labels that failed.  An
    exception is a failed check: its traceback goes to stderr.  With
    ``speed``, the calibration is timed before every op and once after the
    last, and appended there."""
    failed = []
    for label, op in ops:
        if speed is not None:
            speed.append(calibration())
        call = wrap(label, op) if wrap else op
        start = clock()
        try:
            ok = call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if latencies is not None:
            latencies.append(clock() - start)
        if not ok:
            failed.append(label)
    if speed is not None:
        speed.append(calibration())
    return failed


def calibration():
    """Seconds taken by a fixed piece of pure-Python work in the library's
    style (small Fractions, tuples, dicts).  Its time tracks how fast the
    shared machine runs at the moment."""
    start = clock()
    table = {}
    for i in range(1, 1000):
        x = Fraction(i, 7) + Fraction(3, i + 1)
        table[(i & 63, i & 7)] = x * x
    return clock() - start


def measure(workload, seconds):
    """PASSES timed passes over the pool.  Each latency is scaled to the
    reference speed by the calibration times around it, and an operation's
    latency is the least over the timed passes.  If those end before
    ``seconds``, further passes run until then; they are checked but not
    timed, so every run's figures rest on the same number of samples.
    Returns the scaled and the raw least latencies, the failures and the
    number of passes; see README.md."""
    pool = workload.pool
    best = [float("inf")] * len(pool)
    raw = [float("inf")] * len(pool)
    failed = []
    gc.collect()
    start = clock()
    for _ in range(PASSES):
        latencies, speed = [], []
        failed += run_ops(pool, latencies, speed=speed)
        scaled = [t * 2 * CALIBRATION_REF_S / (a + b)
                  for t, a, b in zip(latencies, speed, speed[1:])]
        best = [min(x, y) for x, y in zip(best, scaled)]
        raw = [min(x, y) for x, y in zip(raw, latencies)]
    passes = PASSES
    while clock() - start < seconds:
        failed += run_ops(pool)
        passes += 1
    return best, raw, failed, passes


def end_to_end(best, setup_s):
    if len(best) < MIN_POOL:
        raise ValueError("pool of %d operations is too small for p90" % len(best))
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "throughput_ops_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def trace_passes(workload, seconds, tracer):
    """Alternate untraced and traced passes over the trace group, at least
    MIN_TRACE_PASSES of each.  Returns the failures, op count, per-pass wall
    times, the tables and counts of the traced passes, and whether those
    counts agreed."""
    ops = workload.trace_ops
    failed, attempted = [], 0
    untraced, traced, tables, counts = [], [], [], []
    start = clock()
    while clock() - start < seconds or len(traced) < MIN_TRACE_PASSES:
        gc.collect()
        t = clock()
        failed += run_ops(ops)
        untraced.append(clock() - t)
        tracer.reset()
        tracer.install()
        try:
            gc.collect()
            t = clock()
            failed += run_ops(ops, wrap=lambda label, op: tracer.wrap("bench.op", op))
            traced.append(clock() - t)
        finally:
            tracer.uninstall()
        attempted += 2 * len(ops)
        tables.append(tracer.table())
        counts.append(tracer.extra_counts())
    calls = [{name: row[0] for name, row in table.items()} for table in tables]
    steady = all(c == calls[0] for c in calls) and all(c == counts[0] for c in counts)
    return failed, attempted, untraced, traced, tables, counts, steady


def per_layer(names, tables, counts, untraced, traced):
    """Each per-layer metric, resolved from its name: ``<span>.calls``,
    ``<span>.self_s``, ``<layer>.self_s``, an extra count, or the overhead."""
    from tracer import EXTRA_COUNTS, FRACTIONS_NEW, TRACED, layer_self
    spans = {"%s.%s" % (layer, f) for layer, fs in TRACED.items() for f in fs}
    spans.add("superform.compose_affine")
    extra = {key for key, _ in EXTRA_COUNTS.values()} | {FRACTIONS_NEW}
    layers = [layer_self(t) for t in tables]
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(untraced)
        elif name in extra:
            value = counts[0].get(name, 0)
        elif name.endswith(".calls") and name[:-6] in spans:
            value = tables[0].get(name[:-6], [0])[0]
        elif name.endswith(".self_s") and name[:-7] in spans:
            value = statistics.median(t.get(name[:-7], [0, 0.0, 0.0])[2] for t in tables)
        elif name.endswith(".self_s") and name[:-7] in TRACED:
            value = statistics.median(layer.get(name[:-7], 0.0) for layer in layers)
        else:
            raise ValueError("per-layer metric %r names no traced span or count" % name)
        out[name] = value
    return out


def write_trace(path, workload, seed, tracer, tables, counts, untraced, traced, metrics):
    """Span dump of the last traced pass plus the per-layer table."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    table = {name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
             for name, row in sorted(tables[-1].items())}
    doc = {
        "workload": workload, "seed": seed,
        "untraced_pass_s": untraced, "traced_pass_s": traced,
        "metrics": metrics, "counts": counts[-1], "table": table,
        "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                  for n, s, e, p in tracer.spans],
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def print_table(tables, traced):
    from tracer import layer_self
    wall = statistics.median(traced)
    last = tables[-1]
    print("%-44s %8s %10s %7s" % ("span", "calls", "self_s", "share"))
    for name, (calls, _, self_s) in sorted(last.items(), key=lambda kv: -kv[1][2]):
        print("%-44s %8d %10.4f %6.1f%%" % (name, calls, self_s, 100 * self_s / wall))
    for layer, self_s in sorted(layer_self(last).items(), key=lambda kv: -kv[1]):
        print("layer %-38s %8s %10.4f %6.1f%%" % (layer, "", self_s, 100 * self_s / wall))


def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    t = clock()
    tf = import_library()
    import_s = clock() - t
    speed = [calibration()]

    workdir_root = os.path.join(HERE, "work")
    os.makedirs(workdir_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=workdir_root)
    try:
        setups, warm_failed = [], []
        for _ in range(SETUP_REPEATS):
            t = clock()
            workload = WORKLOADS[args.workload](tf, args.seed, workdir)
            warm_failed += run_ops(workload.warm_up())
            setups.append(clock() - t)
            speed.append(calibration())
        setups = [t * 2 * CALIBRATION_REF_S / (a + b)
                  for t, a, b in zip(setups, speed, speed[1:])]
        setup_s = import_s * CALIBRATION_REF_S / speed[0] + statistics.median(setups)

        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            failed, attempted, untraced, traced, tables, counts, steady = \
                trace_passes(workload, args.seconds, tracer)
            wanted = spec["per_layer"]
            values = per_layer([m["name"] for m in wanted], tables, counts, untraced, traced)
            print_table(tables, traced)
            path = os.path.join(HERE, "out", "trace-%s-seed%d.json"
                                % (args.workload, args.seed))
            write_trace(path, args.workload, args.seed, tracer, tables, counts,
                        untraced, traced, values)
            print("span dump: %s" % os.path.relpath(path, ROOT))
            if not steady:
                print("error: call counts differ between traced passes", file=sys.stderr)
        else:
            t = clock()
            best, raw, failed, passes = measure(workload, args.seconds)
            elapsed = clock() - t
            attempted = passes * len(best)
            wanted = spec["end_to_end"]
            values = end_to_end(best, setup_s)
            steady = True
            unscaled = end_to_end(raw, setup_s)
            del unscaled["peak_rss_mb"], unscaled["setup_s"]
            print("%s seed %d: %d distinct ops x %d passes in %.2f s, fail_ratio %s"
                  % (args.workload, args.seed, len(best), passes, elapsed,
                     len(failed) / attempted))
            print("unscaled: %s" % ", ".join("%s %.4f" % kv for kv in unscaled.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label in sorted(set(failed + warm_failed)):
        print("check failed: %s" % label, file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print("%-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": not failed and not warm_failed and steady,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

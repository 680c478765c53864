"""Benchmark of the lipeq command paths, run from the repository root.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``certify``, ``verify``, ``decide`` (the
``analyze`` path) and ``partition``.  Each one builds its inputs in
set-up, then makes whole seeded-order passes over its corpus in this
process until ``--seconds`` of timed work are done, checking the outputs
outside the timed region.  bench/design.json records the design.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes, reports the per-layer metrics
per traced pass with the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

The package is imported from ``./src``; without it the run exits 2.
Input files live in a work directory under ``.bench_out/``, removed at
the end of the run.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=("certify", "verify", "decide", "partition"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_sources():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lipeq", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import lipeq
    return os.path.dirname(os.path.abspath(lipeq.__file__)) == \
        os.path.join(src, "lipeq")


def result_line(run, metrics):
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    args = parse_args(argv)
    if not import_sources():
        sys.stderr.write("bench: no lipeq package under ./src; run from "
                         "the repository root\n")
        return 2
    os.makedirs(".bench_out", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=".bench_out")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir)


def measure(args, workdir):
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    ops, setup_s, reps = harness.timed_setup(workload, args.seed, workdir)
    run = harness.Run(workload, ops, args.seed)
    if args.trace:
        import tracer
        tr = tracer.Tracer(clock=run.probe.clock)
        traced, overhead = harness.traced_passes(run, args.seconds, tr)
        metrics = harness.per_layer(tr, traced, overhead)
        path = os.path.join(".bench_out", "trace-%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        tr.write_spans(path)
        print("%s: %d passes, %d traced, %d spans in %s"
              % (args.workload, len(run.pass_times), traced, len(tr.spans),
                 path))
        notes = {}
    else:
        run.passes(args.seconds, harness.MIN_PASSES)
        metrics, notes = harness.end_to_end(run, setup_s)
        print("%s: set-up repeated %d times" % (args.workload, reps))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-40s %14.6g %-6s%s" % (name, value, unit,
                                       "  (%s)" % note if note else ""))
    for op_id, reasons in sorted(run.failures.items()):
        print("FAILED %s: %s" % (op_id, "; ".join(dict.fromkeys(reasons))))
    print(result_line(run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

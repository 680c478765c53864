"""Run the benchmark over several seeds and record the figures.

    python3 bench/collect.py --seeds 1-10 --out bench/results/NAME.json

Run from the repository root.  Runs ``bench/run.py`` once per workload
and seed, one process at a time, with ``--trace 0``, then once per
workload with ``--trace 1`` on the first seed (skip with ``--no-trace``).
For each end-to-end metric it records the values, their median and
quartiles, and the spread: the distance between the quartiles as a share
of the median.  A later change quotes its before and after from two such
files made with the same settings.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else None}


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(prog="bench/collect.py")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    doc = {"date": datetime.datetime.now(datetime.timezone.utc)
           .isoformat(timespec="seconds"),
           "python": platform.python_version(),
           "nproc": os.cpu_count(),
           "machine": platform.machine(),
           "seconds": args.seconds, "seeds": args.seeds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, 0)
            runs.append(res)
            print(workload, seed, json.dumps(res["metrics"]), flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"]
                                         for r in runs]),
                                unit=m["unit"], bound=m["bound"])
                for m in spec["end_to_end"]},
        }
        if not args.no_trace:
            res = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in res["metrics"].items()}
        doc["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["end_to_end"].items():
            flag = "" if m["spread"] is None or m["spread"] <= m["bound"] \
                else "  OVER BOUND"
            print("%-10s %-12s median %12.6g %-6s spread %.4f bound %.3f%s"
                  % (workload, name, m["median"], m["unit"],
                     m["spread"] or 0.0, m["bound"], flag))


if __name__ == "__main__":
    main()

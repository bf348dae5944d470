#!/usr/bin/env python3
"""Benchmark of the fgv compiler and its compile service.

Builds bin/fgvc.exe from the source tree this directory sits in, runs one
workload against it for a fixed time, checks every output, and prints
each metric with its unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload large --trace 1 --trace-file large.json
    python3 perfbench/run.py --workload svc-hot --json runs.jsonl
    python3 perfbench/run.py --smoke

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace).  See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

from harness.fgvc import BenchError, build, c_compiler, tool_version  # noqa: E402
from harness.measure import Run  # noqa: E402
from harness.workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", ".out")
EXACT = ("model_speedup_geomean", "code_size_ratio_geomean")


def run_one(exe, workload, seed, seconds, trace, trace_file=None, smoke=False):
    workdir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(exe, WORKLOADS[workload], seed, seconds, workdir, smoke)
    try:
        if trace:
            trace_file = trace_file or os.path.join(OUT, "trace-%s-s%d.json" % (workload, seed))
            units = run.traced(trace_file)
            run.info["trace_file"] = trace_file
        else:
            units = run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for name, unit in units.items():
        v = run.metrics[name]
        metrics[name] = {"value": v if math.isfinite(v) else None, "unit": unit}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "failures": run.tally.messages,
        "metrics": metrics,
        "info": run.info,
    }


def provenance(exe, seed):
    cc = c_compiler()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cc": tool_version([cc, "--version"], first_only=True) if cc else None,
        "ocaml": tool_version(["ocamlfind", "ocamlopt", "-version"])
        or tool_version(["ocamlopt", "-version"]),
        "fgvc": tool_version([exe, "--version"]),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def report(r):
    n = r["info"].get("requests")
    print("workload %s  seed %d  %s s  requests %s" % (r["workload"], r["seed"], r["seconds"], n))
    for name, m in r["metrics"].items():
        print("  %-32s %14.6g %s" % (name, m["value"] if m["value"] is not None else float("nan"), m["unit"]))
    print("  attempted %d, failed %d" % (r["attempted"], r["failed"]))
    for msg in r["failures"]:
        print("  FAILED: " + msg)


def smoke(exe):
    """Tiny runs of every workload: names and units match BENCHMARK.json,
    nothing fails, exact metrics and input digests repeat at one seed and
    the digests change with the seed."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        t0 = time.monotonic()
        a = run_one(exe, name, 1, 0.2, 0, smoke=True)
        b = run_one(exe, name, 1, 0.2, 0, smoke=True)
        c = run_one(exe, name, 2, 0.2, 0, smoke=True)
        t = run_one(exe, name, 1, 0.2, 1, os.path.join(OUT, "smoke-trace.json"), smoke=True)
        for r in (a, b, c, t):
            got = {k: m["unit"] for k, m in r["metrics"].items()}
            if got != want[r["trace"]]:
                problems.append("%s: emitted %s, BENCHMARK.json has %s" % (name, got, want[r["trace"]]))
            if r["failed"]:
                problems.append("%s: %d failed: %s" % (name, r["failed"], r["failures"]))
        for k in EXACT:
            if a["metrics"][k]["value"] != b["metrics"][k]["value"]:
                problems.append("%s: %s differs between two seed-1 runs" % (name, k))
        if a["info"]["digest"] != b["info"]["digest"]:
            problems.append("%s: input digest differs between two seed-1 runs" % name)
        if a["info"]["digest"] == c["info"]["digest"]:
            problems.append("%s: input digest does not change with the seed" % name)
        print("smoke %-9s %.1fs" % (name, time.monotonic() - t0))
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0, help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", help="Chrome trace written by --trace 1")
    ap.add_argument("--json", help="append the run, with its provenance, to this JSON-lines file")
    ap.add_argument("--smoke", action="store_true", help="quick self-check of every workload")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    os.chdir(ROOT)
    try:
        exe = build(".")
        if args.smoke:
            return smoke(exe)
        r = run_one(exe, args.workload, args.seed, args.seconds, args.trace, args.trace_file)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    report(r)
    if args.json:
        record = dict(r, provenance=provenance(exe, args.seed))
        with open(args.json, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": r["metrics"],
            }
        )
    )
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

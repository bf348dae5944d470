#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds run records appended by `run.py --json FILE`, usually
ten untraced runs per workload.  For every workload and end-to-end
metric it prints each side's median and quartiles and a verdict against
the metric's bound in BENCHMARK.json:

  worse       the new median is worse than the old by more than the bound
  better      the new side wins at least 9 in 10 runs paired by seed (in run
              order within a seed), and the medians differ by more than the
              old side's quartile spread
  unresolved  a side's quartile spread is wider than the bound, and not
              every new run beats every old run
  same        none of the above

A metric that repeats exactly on each side (the model speedup and the
code-size ratio) must stay equal; any move is better or worse.  Runs
whose input digests differ at the same workload and seed measure
different inputs, and the files are refused.

Exit status: 0 no regression, 1 a regression or more failed operations,
2 the files cannot be compared.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r.get("trace") == 0:
                    runs.append(r)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(metric, old, new):
    """old and new are lists of (seed, value) in run order; returns
    (verdict, relative change of the median)."""
    higher = metric["better"] == "higher"
    ov, nv = [v for _, v in old], [v for _, v in new]
    o1, om, o3 = quartiles(ov)
    n1, nm, n3 = quartiles(nv)
    change = (nm - om) / om if om else 0.0
    worse_by = -change if higher else change

    def beats(a, b):
        return a > b if higher else a < b

    if len(ov) >= 2 and len(set(ov)) == 1 and len(set(nv)) == 1:
        if nm == om:
            return "equal", change
        return ("better" if beats(nm, om) else "worse"), change
    spread = max((o3 - o1) / om if om else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > metric["bound"]:
        if all(beats(n, o) for n in nv for o in ov):
            return "better", change
        return "unresolved", change
    if worse_by > metric["bound"]:
        return "worse", change
    pairs = []
    for seed in sorted(set(s for s, _ in old) & set(s for s, _ in new)):
        pairs += zip([v for s, v in old if s == seed], [v for s, v in new if s == seed])
    wins = sum(1 for o, n in pairs if beats(n, o))
    if pairs and wins >= 0.9 * len(pairs) and abs(nm - om) > o3 - o1:
        return "better", change
    return "same", change


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        old, new = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 2
    digests = {}
    for r in old:
        digests[(r["workload"], r["seed"])] = r["info"]["digest"]
    for r in new:
        d = digests.get((r["workload"], r["seed"]))
        if d is not None and d != r["info"]["digest"]:
            print(
                "compare: refused: %s seed %d has different inputs on the two sides"
                % (r["workload"], r["seed"]),
                file=sys.stderr,
            )
            return 2
    regressions = 0
    workloads = [w["name"] for w in bench["workloads"]]
    print("%-9s %-24s %28s %28s %8s  %s" % ("workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict"))
    for w in workloads:
        o = [r for r in old if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        if not o or not n:
            continue
        for m in bench["end_to_end"]:
            ov = [(r["seed"], r["metrics"][m["name"]]["value"]) for r in o if m["name"] in r["metrics"]]
            nv = [(r["seed"], r["metrics"][m["name"]]["value"]) for r in n if m["name"] in r["metrics"]]
            if not ov or not nv or any(v is None for _, v in ov + nv):
                continue
            v, change = verdict(m, ov, nv)
            regressions += v == "worse"
            q = [quartiles([x for _, x in side]) for side in (ov, nv)]
            print(
                "%-9s %-24s %28s %28s %+7.1f%%  %s"
                % (
                    w,
                    m["name"],
                    "%.4g [%.4g, %.4g]" % (q[0][1], q[0][0], q[0][2]),
                    "%.4g [%.4g, %.4g]" % (q[1][1], q[1][0], q[1][2]),
                    100 * change,
                    v,
                )
            )
        of, nf = sum(r["failed"] for r in o), sum(r["failed"] for r in n)
        na = sum(r["attempted"] for r in n)
        oa = sum(r["attempted"] for r in o)
        print("%-9s %-24s %28s %28s" % (w, "failed/attempted", "%d/%d" % (of, oa), "%d/%d" % (nf, na)))
        if nf / max(1, na) > of / max(1, oa):
            print("%-9s more operations failed on the new side" % w)
            regressions += 1
    print("regressions: %d" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

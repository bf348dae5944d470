"""Output checks and code-quality numbers, run after the timed window.

- `quality` runs each (program, pipeline) and its unoptimized program
  through `fgvc --run --dump-cfg`: the cost-model ratio gives the model
  speedup and the CFG instruction count gives the code size.
- `native_diff` asks the service for the checked-mode C of the optimized
  and the unoptimized program, compiles both with the system C compiler
  and runs them: their final memory and call trace must be identical.
  That checks the optimizer against a reference it does not produce.
"""

import json
import math
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor

from .fgvc import c_compiler
from .inputs import Op

WORKERS = 2


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def _cli_run(exe, src, pipeline, no_restrict, prog):
    """Cost-model cost and CFG instruction count of one compile, or None."""
    cmd = [
        exe,
        src,
        "-p",
        pipeline,
        "--run",
        "--dump-cfg",
        "-a",
        ",".join(str(a) for a in prog.args),
        "--heap",
        str(prog.heap),
    ]
    if no_restrict:
        cmd.append("--no-restrict")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        return None
    cost = None
    size = 0
    for line in r.stdout.splitlines():
        if line.startswith("cost="):
            cost = float(line.split()[0][5:])
        elif line.startswith("  "):
            size += 1
    if cost is None or cost <= 0 or size == 0:
        return None
    return cost, size


def quality(exe, ops, workdir):
    """Geomean model speedup and code-size ratio of [ops] over their
    unoptimized programs.  Returns (speedup, size_ratio, attempted,
    failures)."""
    progs = {}
    for op in ops:
        progs.setdefault(op.program.name, op.program)
    srcs = {}
    for i, (name, p) in enumerate(sorted(progs.items())):
        srcs[name] = os.path.join(workdir, "q%d.c" % i)
        _write(srcs[name], p.source)
    jobs = [(name, "none", False) for name in sorted(progs)]
    jobs += [(op.program.name, op.pipeline, op.no_restrict) for op in ops]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(
            pool.map(lambda j: _cli_run(exe, srcs[j[0]], j[1], j[2], progs[j[0]]), jobs)
        )
    res = dict(zip(jobs, results))
    failures = ["%s/%s" % (j[0], j[1]) for j, r in res.items() if r is None]
    speed = []
    size = []
    for op in ops:
        base = res[(op.program.name, "none", False)]
        opt = res[(op.program.name, op.pipeline, op.no_restrict)]
        if base and opt:
            speed.append(base[0] / opt[0])
            size.append(opt[1] / base[1])
    return geomean(speed), geomean(size), len(jobs), failures


def native_diff(svc, ops, workdir):
    """Differential-run each op against its unoptimized program.  Returns
    (attempted, failures, c_bytes); attempted is 0 without a C compiler."""
    c_bytes = []
    failures = []
    units = []
    for i, op in enumerate(ops):
        pair = []
        for tag, line in (("opt", op.line(emit_c=True)), ("ref", _ref_line(op))):
            reply = _json(svc.call(line))
            if not reply or not reply.get("ok") or "c" not in reply:
                failures.append(op.label() + ": no C in the reply")
                pair = None
                break
            c_bytes.append(len(reply["c"]))
            path = os.path.join(workdir, "n%d_%s" % (i, tag))
            _write(path + ".c", reply["c"])
            pair.append(path)
        if pair:
            units.append((op, pair))
    cc = c_compiler()
    if cc is None:
        return 0, failures, c_bytes

    def compile_and_run(path, args):
        r = subprocess.run(
            [cc, "-O0", "-w", path + ".c", "-o", path, "-lm"],
            capture_output=True,
            timeout=300,
        )
        if r.returncode != 0:
            return None
        r = subprocess.run([path] + ["i:%d" % a for a in args], capture_output=True, timeout=300)
        return r.stdout if r.returncode == 0 else None

    jobs = [(path, op.program.args) for op, pair in units for path in pair]
    with ThreadPoolExecutor(WORKERS) as pool:
        outs = list(pool.map(lambda j: compile_and_run(*j), jobs))
    for k, (op, _) in enumerate(units):
        got, want = outs[2 * k], outs[2 * k + 1]
        if got is None or want is None:
            failures.append(op.label() + ": native build or run failed")
        elif got != want:
            failures.append(op.label() + ": optimized result differs from unoptimized")
    return len(ops), failures, c_bytes


def _ref_line(op):
    return Op(op.program, "none", op.no_restrict).line(emit_c=True)


def _json(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


def geomean(xs):
    if not xs:
        return float("nan")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))

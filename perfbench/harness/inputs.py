"""Workload inputs, made from the seed alone.

Every workload is a stream of compile requests in the service protocol
plus the programs behind them.  The programs are the 78 paper kernels
(snapshotted in kernels.json, so the inputs do not move when the repo's
own kernel tables change) and, for `large`, generated programs from a
fixed pool of shapes.  The seed reorders, renames and rotates; it never
changes how much work a request is, which keeps runs at different seeds
comparable.
"""

import hashlib
import json
import os
import random
import re

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_kernels = None


def kernels():
    """The 53 TSVC, 18 PolyBench and 7 SPECfp-surrogate kernels."""
    global _kernels
    if _kernels is None:
        with open(os.path.join(HERE, "kernels.json")) as f:
            _kernels = [Program(**k) for k in json.load(f)]
    return _kernels


class Program:
    """One kernel source plus the arguments and heap it runs with."""

    def __init__(self, name, source, args, heap, family=""):
        self.name = name
        self.source = source
        self.args = args
        self.heap = heap
        self.family = family

    def ident(self):
        return re.search(r"kernel\s+(\w+)", self.source).group(1)


class Op:
    """One compile request: a program through a pipeline."""

    def __init__(self, program, pipeline, no_restrict=False):
        self.program = program
        self.pipeline = pipeline
        self.no_restrict = no_restrict

    def label(self):
        return "%s/%s%s" % (
            self.program.name,
            self.pipeline,
            "/norestrict" if self.no_restrict else "",
        )

    def line(self, emit_c=False):
        return request_line(
            self.program.source,
            self.pipeline,
            no_restrict=self.no_restrict,
            emit_c=emit_c,
            heap=self.program.heap if emit_c else None,
        )


def request_line(source, pipeline, no_restrict=False, emit_c=False, heap=None):
    rq = {"source": source, "pipeline": pipeline}
    if no_restrict:
        rq["no_restrict"] = True
    if emit_c:
        rq["emit_c"] = True
    if heap is not None:
        rq["heap"] = heap
    return (json.dumps(rq, separators=(",", ":")) + "\n").encode()


def digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode())
        h.update(b"\x00")
    return h.hexdigest()


# ------------------------------------------------------------------ suite

CLIENT_OPS = [
    ("s222", "dse"),
    ("s222", "dse-static"),
    ("s222", "distribute"),
    ("s222", "distribute-static"),
    ("s2251", "distribute"),
    ("s2251", "distribute-static"),
    ("s222", "combined"),
    ("s2251", "combined"),
]


def suite_ops():
    """The paper's pipeline pairs over its kernels: TSVC and PolyBench
    through o3 and sv+v with restrict on and off, the SPECfp surrogates
    through rle-static and rle, and the clients figure's pairs (compiled
    without restrict, as that figure does)."""
    ks = kernels()
    ops = []
    for k in ks:
        if k.family == "specfp":
            ops += [Op(k, "rle-static"), Op(k, "rle")]
        else:
            for nr in (False, True):
                ops += [Op(k, "o3", nr), Op(k, "sv+v", nr)]
    by_name = {k.name: k for k in ks}
    ops += [Op(by_name[n], p, True) for n, p in CLIENT_OPS]
    return ops


# ------------------------------------------------------------------ large
#
# Generated multi-loop kernels over six possibly-aliasing float pointers.
# Compile time on these grows faster than linearly in the size of a loop
# body (dependence graphs, plan inference and the query engine's
# per-query fingerprints all scale with it), which is the regime the
# paper kernels never reach.  A shape fixes everything that steers the
# compiler or the cost model: which pointer each statement writes and
# reads, at which offsets, the operators, the literals and the guards.
# The run's seed draws the identifiers and the order, so it changes the
# programs' text and cache keys but never the work.

NPTR = 6
LARGE_N = 32  # trip count passed as n
LARGE_HEAP = 512
LARGE_LAYOUTS = [
    [0, 48, 96, 144, 192, 240],  # disjoint: the versioned fast path runs
    [0, 24, 48, 72, 96, 120],  # half-overlapping: the checks fail over
]
LARGE_LOOPS = 4
LARGE_STMTS = 2
# Picked among shape seeds 1..30 as shapes of about 100-150 ms of sv+v
# compile time each on a 2-core 2.1 GHz Xeon (one round of all twelve is
# about 1.6 s there).
SHAPE_SEEDS = [2, 4, 5, 7, 14, 15, 16, 18, 21, 24, 25, 27]


def _make_shape(rng, loops, stmts):
    def index(kind):
        # i (+ j in a nest) plus an offset <= 5: the largest index is
        # n - 1 + 2 + 5, inside each pointer's 48-cell stride.
        iv = "i + j" if kind == "nest" and rng.random() < 0.5 else "i"
        off = rng.randint(0, 5)
        return iv if off == 0 else "%s + %d" % (iv, off)

    def lit():
        return "%.2f" % (rng.randint(1, 15) * 0.25)

    def tree(kind, depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.75:
                return ("load", rng.randrange(NPTR), index(kind))
            return ("lit", lit())
        return ("op", rng.choice("+-*"), tree(kind, depth - 1), tree(kind, depth - 1))

    shape = []
    for li in range(loops):
        kind = ("flat", "nest", "cond")[li % 3]
        body = []
        for s in range(stmts):
            guard = None
            if kind == "cond" and s == stmts - 1:
                guard = (rng.randrange(NPTR), index(kind), lit())
            body.append((rng.randrange(NPTR), index(kind), tree(kind, 2), guard))
        shape.append((kind, body))
    return shape


SHAPES = [_make_shape(random.Random(s), LARGE_LOOPS, LARGE_STMTS) for s in SHAPE_SEEDS]


def _instantiate(shape, name, ptrs):
    out = ["kernel %s(%s, int n) {" % (name, ", ".join("float* " + p for p in ptrs))]

    def expr(t):
        if t[0] == "load":
            return "%s[%s]" % (ptrs[t[1]], t[2])
        if t[0] == "lit":
            return t[1]
        return "(%s %s %s)" % (expr(t[2]), t[1], expr(t[3]))

    for kind, body in shape:
        pad = "    " if kind == "nest" else "  "
        if kind == "nest":
            out.append("  for (int j = 0; j < 3; j = j + 1) {")
        out.append(pad + "for (int i = 0; i < n; i = i + 1) {")
        for w, widx, t, guard in body:
            st = "%s[%s] = %s;" % (ptrs[w], widx, expr(t))
            if guard is not None:
                st = "if (%s[%s] > %s) { %s }" % (ptrs[guard[0]], guard[1], guard[2], st)
            out.append(pad + "  " + st)
        out.append(pad + "}")
        if kind == "nest":
            out.append("  }")
    out.append("}")
    return "\n".join(out)


def large_programs(seed):
    rng = random.Random(seed)
    progs = []
    for s, shape in enumerate(SHAPES):
        name = "big%d_%s" % (s, "".join(rng.choice("abcdefghkmnpqrstuvwxyz") for _ in range(6)))
        ptrs = ["%s%d" % (c, rng.randrange(10)) for c in rng.sample("abcdefghkmpqrsuvwxyz", NPTR)]
        progs.append(
            Program(
                name,
                _instantiate(shape, name, ptrs),
                LARGE_LAYOUTS[s % len(LARGE_LAYOUTS)] + [LARGE_N],
                LARGE_HEAP,
                "generated",
            )
        )
    rng.shuffle(progs)
    return progs


# ------------------------------------------------------------- svc-edit
#
# Eight translation units, each a renamed copy of one fixed mix of eight
# kernels: the median-length kernel of each of eight source-size bands.
# Every unit then costs the same to recompile, so Zipf popularity
# decides which unit a request hits but not how much work it is; the
# seed draws the names.

UNITS = 8
UNIT_SIZE = 8


def unit_mix():
    ks = sorted(kernels(), key=lambda k: (len(k.source), k.name))
    bands = [[] for _ in range(UNIT_SIZE)]
    for i, k in enumerate(ks):
        bands[i * UNIT_SIZE // len(ks)].append(k)
    return [band[len(band) // 2] for band in bands]


def edit_units(seed):
    rng = random.Random(seed)
    mix = unit_mix()
    units = []
    for u in range(UNITS):
        tag = "".join(rng.choice("abcdefghkmnpqrstuvwxyz") for _ in range(4))
        members = [rename(k, "%s_u%d%s" % (k.ident(), u, tag)) for k in mix]
        units.append((members, "sv+v" if u % 2 == 0 else "dse"))
    return units


def rename(k, ident):
    src = re.sub(r"kernel\s+\w+", "kernel " + ident, k.source, count=1)
    return Program(k.name, src, k.args, k.heap, k.family)


def with_edit(source, version):
    """Insert a dead local after the kernel's opening brace; DCE removes
    it, so the edit changes the cache key but not the optimized code."""
    at = source.index("{") + 1
    return "%s float edit_%d = %d.0;%s" % (source[:at], version, version, source[at:])


def zipf_quotas(n, total):
    """How often each of n ranks appears among [total] draws under
    Zipf(1), rounded by largest remainder so the quotas sum to [total]."""
    w = [1.0 / r for r in range(1, n + 1)]
    exact = [total * x / sum(w) for x in w]
    q = [int(x) for x in exact]
    for i in sorted(range(n), key=lambda i: q[i] - exact[i])[: total - sum(q)]:
        q[i] += 1
    return q

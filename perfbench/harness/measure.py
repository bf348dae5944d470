"""One benchmark run of one workload: set-up, the timed window, the
checks, and the metrics.

An untraced run reports the end-to-end metrics.  A traced run reports
the per-layer metrics; it splits its time in three: a window with
tracing off (the reference for the tracing overhead), a window against
`fgvc --serve --trace` with the benchmark's own spans on, and a probe
that compiles the workload's programs one `fgvc --trace` process at a
time, which is where per-pass times come from (the service's trace
carries no pass spans).
"""

import gc
import json
import math
import os
import statistics
import subprocess
import time

from . import checks
from .spans import Recorder, chrome_events, load_chrome, union_length, write_chrome

SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "req/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "model_speedup_geomean": "x",
    "code_size_ratio_geomean": "x",
}

# per-artifact telemetry counters carried in every compile reply
COUNTERS = [
    "depcond.compute_calls",
    "depgraph.pairs_pruned",
    "plan.requests",
    "plan.inferred",
    "plan.infeasible",
    "cut.queries",
    "cut.maxflow_augmenting",
    "condopt.eliminated",
    "condopt.coalesced",
    "materialize.checks_emitted",
    "materialize.cloned_insts",
    "incremental.queries_asked",
    "pass.dce.removed",
    "pass.gvn.deleted",
    "pass.licm.hoisted",
    "pass.slp.vectors",
]

# the stages of sv+v, which every workload compiles
PASSES = ["constfold", "gvn", "licm", "dce", "ifconv", "unroll", "slp"]
SUBSPANS = ["slp.seeds", "slp.pack", "slp.codegen", "materialize.run"]
PROBE_TIMES = (
    ["pass.%s_ms" % p for p in PASSES]
    + ["%s_ms" % s for s in SUBSPANS]
    + ["pipeline.self_ms", "cli.process_ms", "cli.unspanned_ms"]
)

PER_LAYER = dict(
    [
        ("wire.ping_rtt_us", "us"),
        ("service.lookup_us", "us"),
        ("service.compile_ms", "ms"),
        ("service.unspanned_us", "us"),
        ("protocol.reply_kb", "KiB"),
        ("cache.hit_ratio", "ratio"),
        ("cache.evictions_per_req", "count/req"),
        ("unit.reuse_ratio", "ratio"),
    ]
    + [(c, "count/unit") for c in COUNTERS]
    + [
        ("pred.hashcons_hit_ratio", "ratio"),
        ("incremental.memo_hit_ratio", "ratio"),
    ]
    + [(m, "ms") for m in PROBE_TIMES]
    + [
        ("emit.c_kb", "KiB"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.messages += failures[: max(0, 20 - len(self.messages))]


def percentile(sorted_xs, p):
    """Exact order statistic (nearest rank) of an ascending list."""
    return sorted_xs[max(1, math.ceil(len(sorted_xs) * p / 100)) - 1]


class Run:
    def __init__(self, exe, cls, seed, seconds, workdir, smoke=False):
        self.exe = exe
        self.cls = cls
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.smoke = smoke
        self.tally = Tally()
        self.metrics = {}
        self.info = {}

    # ------------------------------------------------------------ pieces

    def setup(self, trace_path=None):
        wl = self.cls(self.seed, self.smoke)
        svc = wl.start(self.exe, self.workdir, trace_path)
        try:
            self.tally.check(svc.control("ping").get("ok") is True, "ping failed")
            wl.prime(svc, self.tally)
        except BaseException:
            svc.kill()
            raise
        return wl, svc

    def window(self, wl, svc, seconds, rec=None):
        """Closed loop over one connection, in whole rounds, until
        [seconds] have passed.  Returns each round's latencies (ns) and,
        when traced, per-request (seq, t0, t1, reply hash) plus one copy
        of each distinct reply by hash."""
        rounds = []
        traced = []
        replies = {}
        stream = wl.requests()
        call = svc.call
        clock = time.perf_counter_ns
        check = wl.check
        tally = self.tally
        gc.disable()
        try:
            end = clock() + int(seconds * 1e9)
            while not rounds or clock() < end:
                lat = []
                for _ in range(wl.round_size):
                    key, line = next(stream)
                    if rec is None:
                        t0 = clock()
                        reply = call(line)
                        t1 = clock()
                    else:
                        with rec.span("request", seq=svc.seq + 1):
                            t0 = clock()
                            reply = call(line)
                            t1 = clock()
                        h = hash(reply)
                        replies.setdefault(h, reply)
                        traced.append((svc.seq, t0, t1, h))
                    lat.append(t1 - t0)
                    ok = check(key, line, reply)
                    tally.check(ok, "" if ok else "%s: bad reply %r" % (wl.name, reply[:160]))
                rounds.append(lat)
        finally:
            gc.enable()
        return rounds, traced, replies

    def native_check(self, wl, svc, rec):
        with rec.span("check.native"):
            attempted, failures, c_bytes = checks.native_diff(svc, wl.native_ops(), self.workdir)
        self.tally.add(attempted, failures)
        self.info["native_checked"] = attempted
        return c_bytes

    def final_checks(self, wl, rec):
        with rec.span("check.after_window"):
            wl.after_window(self.exe, self.workdir, self.tally)
        with rec.span("check.quality"):
            speed, size, attempted, failures = checks.quality(self.exe, wl.quality_ops(), self.workdir)
        self.tally.add(attempted, failures)
        return speed, size

    # -------------------------------------------------------- end to end

    def untraced(self):
        rec = Recorder()
        setups = []
        n = 1 if self.smoke else SETUPS
        for k in range(n):
            t0 = time.perf_counter_ns()
            wl, svc = self.setup()
            setups.append((time.perf_counter_ns() - t0) / 1e9)
            if k < n - 1:
                svc.close()
        try:
            rounds = self.window(wl, svc, self.seconds)[0]
            rss = svc.peak_rss_mb()
            self.native_check(wl, svc, rec)
        finally:
            svc.close()
        speed, size = self.final_checks(wl, rec)
        # Neighbours on a shared host slow it by up to half for seconds at
        # a time, and contention only ever adds time: each request's
        # latency is its best over the rounds, and throughput and
        # percentiles are taken over those.
        best = sorted(min(r[i] for r in rounds) for i in range(len(rounds[0])))
        m = self.metrics
        m["setup_s"] = statistics.median(setups)
        m["req_per_s"] = len(best) / (sum(best) / 1e9)
        m["req_p50_ms"] = percentile(best, 50) / 1e6
        m["req_p90_ms"] = percentile(best, 90) / 1e6
        m["peak_rss_mb"] = rss
        m["model_speedup_geomean"] = speed
        m["code_size_ratio_geomean"] = size
        self.info.update(
            requests=sum(len(lat) for lat in rounds),
            rounds=len(rounds),
            setups=setups,
            digest=wl.digest(),
        )
        return END_TO_END

    # --------------------------------------------------------- per layer

    def traced(self, trace_file):
        third = self.seconds / 3.0
        rec = Recorder()

        with rec.span("phase.untraced"):
            wl, svc = self.setup()
            try:
                lat_off = sum(self.window(wl, svc, third)[0], [])
            finally:
                svc.close()

        serve_trace = os.path.join(self.workdir, "serve-trace.json")
        with rec.span("phase.traced_service"):
            with rec.span("setup"):
                wl, svc = self.setup(serve_trace)
            spawned_us = (svc.spawned_ns - rec.origin_ns) / 1000.0
            try:
                pings = []
                for _ in range(20 if self.smoke else 200):
                    with rec.span("ping") as s:
                        self.tally.check(svc.control("ping").get("ok") is True, "ping failed")
                    pings.append(s.dur)
                before = svc.control("stats")
                rounds, traced, replies = self.window(wl, svc, third, rec)
                lat_on = sum(rounds, [])
                after = svc.control("stats")
                c_bytes = self.native_check(wl, svc, rec)
            finally:
                svc.close()
        serve_spans = load_chrome(serve_trace)

        with rec.span("phase.cli_probe"):
            probes = self.probe(wl, third, rec)
        self.final_checks(wl, rec)

        m = self.metrics
        pings.sort()
        m["wire.ping_rtt_us"] = percentile(pings, 50)
        self.service_layers(serve_spans, traced, replies, before, after)
        self.counter_layers(traced, replies)
        self.pass_layers(probes)
        m["emit.c_kb"] = sum(c_bytes) / max(1, len(c_bytes)) / 1024.0
        m["trace.overhead_ratio"] = (sum(lat_on) / len(lat_on)) / (sum(lat_off) / len(lat_off))
        self.info.update(requests=len(lat_on), probes=len(probes), digest=wl.digest())

        probe_events = []
        for start_us, spans, _ in probes:
            probe_events += chrome_events(spans, 3, start_us)
        write_chrome(
            trace_file,
            [
                (1, "perfbench", chrome_events(rec.spans, 1)),
                (2, "fgvc --serve", chrome_events(serve_spans, 2, spawned_us)),
                (3, "fgvc (probe compiles)", probe_events),
            ],
        )
        return PER_LAYER

    def probe(self, wl, seconds, rec):
        """Compile the workload's programs one `fgvc --trace` process at a
        time for [seconds]; returns (start_us, spans, wall_us) per compile."""
        ops = wl.probe_ops()
        srcs = {}
        out = []
        tmp = os.path.join(self.workdir, "probe-trace.json")
        end = time.perf_counter_ns() + int(seconds * 1e9)
        i = 0
        while i == 0 or time.perf_counter_ns() < end:
            op = ops[i % len(ops)]
            i += 1
            src = srcs.get(op.program.name)
            if src is None:
                src = srcs[op.program.name] = os.path.join(self.workdir, "p%d.c" % len(srcs))
                with open(src, "w") as f:
                    f.write(op.program.source)
            cmd = [self.exe, src, "-p", op.pipeline, "--trace", tmp]
            if op.no_restrict:
                cmd.append("--no-restrict")
            with rec.span("cli.compile", op=op.label()) as s:
                r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
            self.tally.check(r.returncode == 0, "probe compile failed: " + op.label())
            if r.returncode == 0:
                spans = load_chrome(tmp)
                out.append((s.ts, spans, s.dur))
        return out

    def service_layers(self, spans, traced, replies, before, after):
        m = self.metrics
        lookups = [s for s in spans if s.name == "service.lookup"]
        compiles = [s for s in spans if s.name == "service.compile"]
        m["service.lookup_us"] = sum(s.self_time() for s in lookups) / max(1, len(lookups))
        m["service.compile_ms"] = sum(s.dur for s in compiles) / max(1, len(compiles)) / 1000.0
        by_seq = {}
        for s in spans:
            if s.depth == 0 and "seq" in s.args:
                by_seq.setdefault(s.args["seq"], []).append((s.ts, s.ts + s.dur))
        gaps = [(t1 - t0) / 1000.0 - union_length(by_seq.get(seq, [])) for seq, t0, t1, _ in traced]
        m["service.unspanned_us"] = sum(gaps) / max(1, len(gaps))
        m["protocol.reply_kb"] = sum(len(replies[h]) for _, _, _, h in traced) / max(1, len(traced)) / 1024.0

        def delta(key, sub=None):
            a, b = (before, after) if sub is None else (before[sub], after[sub])
            return b[key] - a[key]

        requests = max(1, delta("requests"))
        m["cache.hit_ratio"] = delta("hits") / requests
        m["cache.evictions_per_req"] = delta("evictions") / requests
        m["unit.reuse_ratio"] = delta("memo_hits", "incremental") / max(
            1, delta("queries_asked", "incremental")
        )

    def counter_layers(self, traced, replies):
        totals = dict.fromkeys(COUNTERS + ["pred.hashcons_hits", "pred.hashcons_misses", "incremental.memo_hits"], 0)
        parsed = {h: json.loads(r) for h, r in replies.items()}
        artifacts = 0
        for _, _, _, h in traced:
            r = parsed[h]
            for a in r.get("functions", [r]):
                artifacts += 1
                counters = a.get("counters", {})
                for k in totals:
                    totals[k] += counters.get(k, 0)
        m = self.metrics
        for c in COUNTERS:
            m[c] = totals[c] / max(1, artifacts)
        hc = totals["pred.hashcons_hits"] + totals["pred.hashcons_misses"]
        m["pred.hashcons_hit_ratio"] = totals["pred.hashcons_hits"] / max(1, hc)
        m["incremental.memo_hit_ratio"] = totals["incremental.memo_hits"] / max(
            1, totals["incremental.queries_asked"]
        )

    def pass_layers(self, probes):
        sums = dict.fromkeys(PROBE_TIMES, 0.0)
        for _, spans, wall in probes:
            pipeline = 0.0
            for s in spans:
                if s.cat == "pass" and s.name in PASSES:
                    sums["pass.%s_ms" % s.name] += s.self_time()
                elif s.name in SUBSPANS:
                    sums[s.name + "_ms"] += s.self_time()
                elif s.cat == "pipeline":
                    sums["pipeline.self_ms"] += s.self_time()
                    pipeline += s.dur
            sums["cli.process_ms"] += wall
            sums["cli.unspanned_ms"] += wall - pipeline
        for name, total in sums.items():
            self.metrics[name] = total / max(1, len(probes)) / 1000.0

#!/usr/bin/env python3
"""Serving benchmark for epgc_serve / epgc_cluster.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the servers and servebench_probe from this checkout's sources, then
drives the built binaries over their Unix sockets. Workloads (see
servebench/README.md for why each exists):

  warm_hits   open loop over 4 connections against `epgc_cluster --workers 3`:
              metrics-only compiles of a hit set that set-up compiled once
  cold_paper  closed loop, 1 client, `epgc_cluster --workers 3` with a fresh
              store: distinct Section V.A graphs with "lc":4 and circuits
  cold_scale  closed loop, 1 client, `epgc_serve --inner-threads 3`:
              distinct ~1000-vertex graphs with the multilevel strategy
              (run by hand; BENCHMARK.json lists the first two)

Every response is checked; compiled circuits are re-verified against their
graphs outside the timed path. With --trace 0 the last stdout line carries
the end-to-end metrics, with --trace 1 the per-layer ones. Progress goes to
stderr. Exit status is 0 only when a result line was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import serving  # noqa: E402
import stats  # noqa: E402
import workload  # noqa: E402

RUN_DIR = ".bench_run"           # servers' sockets, stores, scratch files
CLUSTER = ["--workers", "3"]
REF_RATE = 2000.0                # warm_hits reference rate, req/s
P99_LIMIT_MS = 20.0              # warm_hits latency limit for the ladder
LADDER_START = 8000.0            # first ladder rate, req/s
LADDER_FACTOR = 1.25             # ladder growth between steps
LADDER_STEP_S = 0.5
TAIL_CHUNK = 1000                # requests per tail sample
SETUP_REPEATS = 3
# cold_paper sizes: Section V.A families at every size from 12 to 24
# vertices. From 28 up, Waxman graphs take 1-7 s per compile at lc 4, so a
# handful of them would decide a run's throughput. Every size, not every
# fourth: with four sizes the compile times fall into clumps and the run's
# median sat in the gap between two of them, jumping by a quarter from
# seed to seed.
COLD_SIZES = tuple(range(12, 25))
COLD_WARMUP = 6                  # untimed 12-vertex compiles per fresh server
SPECS = {
    "warm_hits": {"lc": 4},
    "cold_paper": {"lc": 4},
    "cold_scale": {"strategy": "multilevel"},
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build servebench/ (CMake); returns the binary dir."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "servebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.abspath(out)


class Bench:
    def __init__(self, args, bin_dir):
        self.args = args
        self.bin = bin_dir
        self.probe = os.path.join(bin_dir, "servebench_probe")
        self.spec = SPECS[args.workload]
        self.dir = os.path.join(RUN_DIR, args.workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.servers = []
        self.starts = 0        # servers started so far: names fresh dirs
        self.errors = []       # correctness failures, reported in the log
        self.attempted = 0
        self.failed = 0

    # ---- plumbing -----------------------------------------------------------

    def check(self, cond, what):
        if not cond:
            self.errors.append(what)
            log("CHECK FAILED:", what)
        return cond

    def start(self, kind, extra=(), tag="srv"):
        run_dir = os.path.join(self.dir, f"{tag}{self.starts}")
        self.starts += 1
        srv = serving.Server(self.bin, run_dir, kind, extra)
        self.servers.append(srv)
        return srv

    def stop_all(self):
        while self.servers:
            self.servers.pop().stop()

    def request(self, rid, g6, circuit):
        req = {"op": "compile", "id": rid, "graph": g6, **self.spec}
        if circuit:
            req["circuit"] = True
        return req

    def reverify(self, graphs, replies):
        """Replay every returned circuit against its graph (untimed)."""
        path = os.path.join(self.dir, "circuits.ndjson")
        with open(path, "w") as f:
            for g6, r in zip(graphs, replies):
                f.write(json.dumps({"graph": g6,
                                    "circuit": (r or {}).get("circuit", "")}) + "\n")
        out = subprocess.run([self.probe, "verify", path], check=True,
                             capture_output=True, text=True, timeout=170)
        verdicts = out.stdout.split("\n")[:len(graphs)]
        bad = [v for v in verdicts if v != "ok"]
        self.check(len(verdicts) == len(graphs) and not bad,
                   f"circuit re-verification: {bad[:3]}")
        return len(bad)

    def compile_ok(self, reply, tier):
        return (reply is not None and reply.get("ok") is True
                and reply.get("verified") is True and reply.get("tier") == tier)

    @staticmethod
    def quality(replies):
        """The paper's quality metrics over a set of compile replies."""
        return {
            "ee_cnot_total": sum(r["ee_cnot_count"] for r in replies),
            "duration_tau_total": sum(r["duration_tau"] for r in replies),
            # per-photon survival, so graphs of any size weigh alike
            "survival_geomean": stats.geomean(
                [r["state_survival"] ** (1.0 / r["num_qubits"])
                 for r in replies]),
            "cap_use_mean": sum(r["emitters_used"] / r["ne_limit"]
                                for r in replies) / len(replies),
        }

    def check_repeatable(self, quality):
        """Quality is a pure function of (seed, sources): compare with any
        earlier run of this seed on the same program and benchmark sources."""
        digest = hashlib.sha256()
        for sub in ("src", "apps", "servebench"):
            for base, dirs, files in sorted(os.walk(os.path.join(ROOT, sub))):
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(files):
                    with open(os.path.join(base, name), "rb") as f:
                        digest.update(name.encode() + f.read())
        key = f"{self.args.workload}-{self.args.seed}-{self.args.seconds}"
        path = os.path.join(RUN_DIR, "quality", digest.hexdigest()[:16], key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            with open(path) as f:
                self.check(json.load(f) == quality,
                           "quality differs from an earlier run of this seed")
        else:
            with open(path, "w") as f:
                json.dump(quality, f)

    @staticmethod
    def counters(srv):
        c = srv.metrics()["counters"]
        return {"jobs": c["epgc_jobs_total"],
                "compiled": c["epgc_jobs_compiled_total"],
                "memory": c['epgc_tier_hits_total{tier="memory"}']}

    # ---- closed loop (cold workloads, set-up compiles) -----------------------

    def closed(self, srv, graphs, clients, circuit, tier):
        reqs = [self.request(i, g, circuit)
                for i, g in enumerate(graphs)]
        rows = serving.closed_loop(srv.socket, reqs, clients)
        replies = [r[2] for r in rows]
        bad = [i for i, r in enumerate(replies) if not self.compile_ok(r, tier)]
        self.check(not bad, f"{len(bad)} compile replies not ok/verified/{tier}"
                   f" (first: {replies[bad[0]] if bad else None})")
        spans = [(r[0], r[1]) for r in rows]
        lat = [(r[1] - r[0]) * 1e3 for r in rows]
        return replies, lat, spans, len(bad)

    # ---- warm_hits ----------------------------------------------------------

    def warm_setup(self, hits, traced=False):
        """Fresh cluster, hit set compiled once (with circuits)."""
        extra = list(CLUSTER)
        if traced:
            extra += ["--trace-dir", os.path.join(self.dir, "traces"),
                      "--trace-slow-ms", "1e9"]
        t0 = time.perf_counter()
        srv = self.start("epgc_cluster", extra)
        replies, _, _, bad = self.closed(srv, hits, 3, True, "compiled")
        return srv, replies, time.perf_counter() - t0, bad

    def hit_lines(self, srv, hits, compiled):
        """Request templates and the exact replies each hit must get; each
        reference reply is checked against the compile that produced it."""
        templates, expected = [], []
        with serving.Conn(srv.socket) as c:
            for g6, comp in zip(hits, compiled):
                line = json.dumps(self.request(0, g6, False),
                                  separators=(",", ":"))
                templates.append(line.replace('"id":0', '"id":{id}', 1))
                c.send_raw(line.encode() + b"\n")
                reply = c.recv(30)
                same = all(reply.get(k) == comp.get(k) for k in (
                    "ee_cnot_count", "duration_tau", "emitters_used",
                    "ne_limit", "state_survival", "makespan_ticks"))
                self.check(self.compile_ok(reply, "memory") and same,
                           f"hit reply differs from its compile: {reply}")
                raw = json.dumps(reply, separators=(",", ":"))
                expected.append(raw[len('{"id":0'):])
        return templates, expected

    def step(self, srv, templates, expected, rate, seconds, conns=4):
        sched = workload.arrival_schedule(self.args.seed, rate, seconds,
                                          len(templates))
        rows = serving.open_loop(self.probe, srv.socket, templates, expected,
                                 sched, self.dir, conns)
        s = serving.summarize_step(rows, P99_LIMIT_MS)
        self.check(s["wrong"] == 0, f"{s['wrong']} wrong hit replies at {rate}")
        log(f"  step {rate:8.0f}/s: {s['requests']} req, p50 {s['p50_ms']:.3f}"
            f" p99 {s['p99_ms']:.3f} ms, late p99 {s['late_p99_ms']:.3f} ms,"
            f" refused {s['failed']}, backlog {s['backlog']}")
        return rows, s

    def reference(self, srv, templates, expected, seconds):
        """One step at the fixed reference rate: the p50 and the p90 of each
        run of 1000 consecutive requests, so a scheduling stall of the host
        moves one run's figures instead of the step's. Not the p99: for
        sub-ms hits it tracks the host's scheduling noise (two of ten runs
        read 3x the rest), which no change to this program could be judged
        against."""
        rows, s = self.step(srv, templates, expected, REF_RATE, seconds)
        self.attempted += s["requests"]
        self.failed += s["failed"]
        lat = [r[2] if r[3] == 0 else float("inf") for r in rows]
        chunks = [lat[i:i + TAIL_CHUNK]
                  for i in range(0, len(lat) - TAIL_CHUNK + 1, TAIL_CHUNK)]
        return ([stats.percentile(c, 50.0) for c in chunks],
                [stats.percentile(c, 90.0) for c in chunks],
                s["late_p99_ms"])

    def climb(self, srv, templates, expected, start, budget_s):
        """One climb: geometric steps from `start` up to the first miss,
        then bisection down to 3%. A miss is retried twice, so the host's
        scheduling stalls (which on a shared machine can break the p99 limit
        of two 0.5 s steps in a row) cannot end the climb. Returns the best
        passing step (or None)."""
        def passes(rate):
            for _ in range(3):
                _, s = self.step(srv, templates, expected, rate, LADDER_STEP_S)
                if s["meets"]:
                    return s
            return None

        deadline = time.perf_counter() + budget_s
        best, lo, hi, rate = None, None, None, start
        while time.perf_counter() < deadline:
            s = passes(rate)
            if s is not None:
                best, lo = s, rate
            else:
                hi = rate
            if hi is None:
                rate *= LADDER_FACTOR
            elif lo is None:
                rate /= 2
            elif hi / lo < 1.03:
                break
            else:
                rate = (lo * hi) ** 0.5
        return best

    def measure_warm(self, srv, templates, expected):
        """Three rounds of a reference step and a ladder climb. Reported:
        the medians over all rounds' 1000-request p50s and p90s, and the
        median climb's knee (the highest rate whose p99 meets the limit
        without a growing backlog, as ok replies per second). The first
        climb starts at LADDER_START with half the ladder time, the others
        just below the knee found so far; one busy stretch of the machine
        moves one round, not the result."""
        a = self.args
        p50s, tails, knees, start = [], [], [], LADDER_START
        for share in (0.5, 0.25, 0.25):
            chunk_p50s, chunk_tails, _ = self.reference(
                srv, templates, expected, 0.1 * a.seconds)
            p50s += chunk_p50s
            tails += chunk_tails
            best = self.climb(srv, templates, expected, start,
                              share * 0.6 * a.seconds)
            if not self.check(best is not None,
                              "no ladder rate met the latency limit"):
                return stats.median(p50s), stats.median(tails), 1.0
            self.attempted += best["requests"]
            knees.append(best["achieved"])
            start = 0.8 * stats.median(knees)
        log(f"  max rate {stats.median(knees):.0f}/s (climbs {knees})")
        return stats.median(p50s), stats.median(tails), stats.median(knees)

    def run_warm(self):
        a = self.args
        # The hit set is the same for every seed (the seed drives the
        # arrivals): hits cost the same whatever graph they name, and a
        # fixed set makes its quality totals an exact regression check.
        hits = [g for _, g in workload.paper_set(0, 27, "hit",
                                                 sizes=(12, 16, 20))]
        setups, first = [], None
        for _ in range(SETUP_REPEATS):
            self.stop_all()
            srv, compiled, secs, bad = self.warm_setup(hits)
            setups.append(secs)
            self.attempted += len(hits)
            self.failed += bad
            q = self.quality(compiled)
            self.check(first is None or q == first,
                       "set-up compiles differ between repeats")
            first = q
        self.failed += self.reverify(hits, compiled)
        templates, expected = self.hit_lines(srv, hits, compiled)
        if a.trace:
            return self.trace_warm(srv, hits, templates, expected)
        before = self.counters(srv)
        p50, tail, rate = self.measure_warm(srv, templates, expected)
        after = self.counters(srv)
        jobs = after["jobs"] - before["jobs"]
        memory_share = (after["memory"] - before["memory"]) / max(jobs, 1)
        self.check(memory_share >= 0.999, f"memory-tier share {memory_share}")
        log(f"  memory-tier share {memory_share:.5f} of {jobs} jobs")
        self.check_repeatable(first)
        return {"setup_s": (stats.median(setups), "s"),
                "latency_p50_ms": (p50, "ms"),
                "latency_tail_ms": (tail, "ms"),
                "throughput_rps": (rate, "req/s"),
                **self.quality_metrics(first),
                "peak_rss_mb": (srv.peak_rss_mb(), "MiB")}

    # ---- cold workloads -----------------------------------------------------

    def cold_graphs(self, seconds):
        a = self.args
        if a.workload == "cold_paper":
            mix = len(workload.PAPER_FAMILIES) * len(COLD_SIZES)
            count = mix * max(1, round(seconds / 6))
            return [g for _, g in workload.paper_set(a.seed, count, "cold",
                                                     sizes=COLD_SIZES,
                                                     shapes=0, blocks=True)]
        count = max(3, 3 * round(0.1 * seconds))
        return [g for _, g in workload.scale_set(a.seed, count)]

    def cold_server(self, traced=False):
        if self.args.workload == "cold_paper":
            kind, extra = "epgc_cluster", list(CLUSTER)
        else:
            kind, extra = "epgc_serve", ["--inner-threads", "3"]
        tag = f"cold{self.starts}-"
        if kind == "epgc_cluster":
            extra += ["--store-dir", os.path.join(self.dir, tag + "store")]
        if traced:
            extra += ["--trace-dir", os.path.join(self.dir, tag + "traces")]
        return self.start(kind, extra, tag)

    def cold_block(self, n):
        """Requests per block of a cold run: cold_paper's graphs come in
        blocks of one per family and size (workload.paper_set), cold_scale's
        few graphs form one block."""
        if self.args.workload == "cold_paper":
            return len(workload.PAPER_FAMILIES) * len(COLD_SIZES)
        return n

    def cold_pass(self, graphs, srv):
        """Every graph compiled once on fresh servers (and store), after
        untimed warm-up compiles of other graphs. Returns the ok replies,
        per-graph latencies in input order, (ok replies per second, p50)
        of each block, the wall time and the servers' peak RSS."""
        taken = set(graphs)
        warm = [g for _, g in workload.paper_set(
            self.args.seed, COLD_WARMUP, "warmup", sizes=(12,))
            if g not in taken]
        _, _, _, bad = self.closed(srv, warm, 1, False, "compiled")
        replies, lat, spans, bad_timed = self.closed(srv, graphs, 1, True,
                                                     "compiled")
        self.attempted += len(warm) + len(graphs)
        self.failed += bad + bad_timed
        c = self.counters(srv)
        self.check(c["compiled"] == len(warm) + len(graphs)
                   and c["memory"] == 0, f"cold tiers: {c}")
        ok = [r for r in replies if r is not None and r.get("ok")]
        self.failed += self.reverify(graphs, replies)
        size = self.cold_block(len(graphs))
        blocks = []
        for i in range(0, len(graphs), size):
            j = min(i + size, len(graphs))
            n_ok = sum(1 for r in replies[i:j] if r is not None and r.get("ok"))
            blocks.append((n_ok / (spans[j - 1][1] - spans[i][0]),
                           stats.median(lat[i:j])))
        wall = spans[-1][1] - spans[0][0]
        log(f"  {len(graphs)} graphs in {wall:.2f} s,"
            f" p50 {stats.median(lat):.1f} ms; blocks (req/s, p50 ms):"
            f" {[(round(r, 3), round(p, 1)) for r, p in blocks]}")
        return ok, lat, blocks, wall, srv.peak_rss_mb()

    def run_cold(self):
        """Closed loop over the cold set. The p50 and the throughput are
        medians over the run's blocks, each a full mix of families and
        sizes, so a stretch in which the shared host runs slow moves one
        block's figures, not the run's; the tail is over the whole run, to
        keep ten samples beyond it."""
        a = self.args
        if a.trace:
            return self.trace_cold()
        graphs = self.cold_graphs(a.seconds)
        setups = []
        for _ in range(SETUP_REPEATS):
            self.stop_all()
            t0 = time.perf_counter()
            srv = self.cold_server()
            setups.append(time.perf_counter() - t0)
        ok, lat, blocks, _, rss = self.cold_pass(graphs, srv)
        tail_p = stats.tail_percentile(len(lat)) or 90.0
        quality = self.quality(ok) if len(ok) == len(graphs) else None
        self.check(quality is not None, "some cold compiles failed")
        self.check_repeatable(quality)
        return {"setup_s": (stats.median(setups), "s"),
                "latency_p50_ms": (stats.median([p for _, p in blocks]), "ms"),
                "latency_tail_ms": (stats.percentile(lat, tail_p), "ms"),
                "throughput_rps": (stats.median([r for r, _ in blocks]),
                                   "req/s"),
                **self.quality_metrics(quality or self.quality(ok)),
                "peak_rss_mb": (rss, "MiB")}

    @staticmethod
    def quality_metrics(q):
        units = {"ee_cnot_total": "count", "duration_tau_total": "tau",
                 "survival_geomean": "fraction", "cap_use_mean": "ratio"}
        return {k: (v, units[k]) for k, v in q.items()}

    # ---- traced run: per-layer attribution ----------------------------------

    def layers(self, graphs):
        """In-process timings around each layer's public calls."""
        path = os.path.join(self.dir, "layer_graphs.txt")
        with open(path, "w") as f:
            f.write("\n".join(graphs) + "\n")
        out = subprocess.run(
            [self.probe, "layers", json.dumps(self.spec, separators=(",", ":")),
             path, self.dir], check=True, capture_output=True, text=True,
            timeout=170)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def hit_probe(self, g6):
        """Unloaded hit latency through a cluster front and straight to its
        worker's socket: one connection each, open loop at a rate that keeps
        it under ~20% busy (at most 500 req/s), for 2 s."""
        srv = self.start("epgc_cluster", ["--workers", "1"], "hitprobe")
        with serving.Conn(srv.socket) as c:
            compiled = c.call(self.request(0, g6, False), 170)
            t0 = time.perf_counter()
            for _ in range(5):
                c.call(self.request(0, g6, False))
            hit_s = (time.perf_counter() - t0) / 5
        templates, expected = self.hit_lines(srv, [g6], [compiled])
        rate = min(500.0, 0.2 / hit_s)
        p50 = {}
        for name, path in (("front", srv.socket),
                           ("direct", srv.worker_socket(0))):
            sched = workload.arrival_schedule(self.args.seed, rate, 2.0, 1)
            rows = serving.open_loop(self.probe, path, templates, expected,
                                     sched, self.dir, 1)
            s = serving.summarize_step(rows, P99_LIMIT_MS)
            self.check(s["wrong"] == 0 and s["failed"] == 0,
                       f"hit probe via {name}: {s}")
            p50[name] = s["p50_ms"]
        srv.stop()
        self.servers.remove(srv)
        return p50

    def per_layer(self, srv, layer_graphs, overhead_pct, late_p99_ms):
        m = srv.metrics()
        c = self.counters(srv)
        wait = m["histograms"]["epgc_queue_wait_ms"]
        L = self.layers(layer_graphs)
        hit = self.hit_probe(layer_graphs[0])
        L.update({
            "cluster.front_overhead_ms": hit["front"] - hit["direct"],
            "service.socket_overhead_ms":
                hit["direct"] - L["service.hit_handle_us"] / 1e3,
            "service.queue_wait_ms": wait["sum"] / max(wait["count"], 1),
            "runtime.tier_hits.memory": c["memory"],
            "runtime.tier_hits.compiled": c["compiled"],
            "trace.overhead_pct": overhead_pct,
            "loadgen.late_p99_ms": late_p99_ms,
        })
        return {name: (L[name], unit) for name, unit in LAYERS.items()}

    def trace_warm(self, srv, hits, templates, expected):
        seconds = 0.3 * self.args.seconds
        p50_off, _, late = self.reference(srv, templates, expected, seconds)
        self.stop_all()
        srv_on, compiled, _, bad = self.warm_setup(hits, traced=True)
        self.failed += bad
        templates_on, expected_on = self.hit_lines(srv_on, hits, compiled)
        self.check(expected_on == expected, "traced servers answer differently")
        p50_on, _, late_on = self.reference(srv_on, templates, expected, seconds)
        overhead = (stats.median(p50_on) / stats.median(p50_off) - 1.0) * 100.0
        return self.per_layer(srv_on, hits[:4], overhead, max(late, late_on))

    def trace_cold(self):
        graphs = self.cold_graphs(self.args.seconds / 2)
        srv_off = self.cold_server()
        ok_off, _, _, wall_off, _ = self.cold_pass(graphs, srv_off)
        ok_on, _, _, wall_on, _ = self.cold_pass(
            graphs, self.cold_server(traced=True))
        self.check([self.quality(ok_off)] == [self.quality(ok_on)],
                   "quality differs between the untraced and traced passes")
        overhead = (wall_on / wall_off - 1.0) * 100.0
        layer_graphs = (graphs[:6] if self.args.workload == "cold_paper"
                        else [graphs[0], graphs[2]])
        return self.per_layer(srv_off, layer_graphs, overhead, 0.0)


# Per-layer metrics of the traced run, with their units (README.md).
LAYERS = {
    "cluster.front_overhead_ms": "ms",
    "service.hit_handle_us": "us",
    "service.socket_overhead_ms": "ms",
    "service.queue_wait_ms": "ms",
    "runtime.hit_us": "us",
    "runtime.tier_hits.memory": "count",
    "runtime.tier_hits.compiled": "count",
    "runtime.lane_speedup": "x",
    "graph.height_ms": "ms",
    "partition.strategy_ms": "ms",
    "partition.stems": "count",
    "subgraph.searches": "count",
    "subgraph.ms": "ms",
    "subgraph.nodes": "count",
    "subgraph.exhausted_ratio": "ratio",
    "subgraph.distinct_part_ratio": "ratio",
    "schedule.call_ms": "ms",
    "schedule.stage_calls_equiv": "calls",
    "schedule.peak_over_cap": "ratio",
    "schedule.cap_overshoot_ratio": "ratio",
    "verify.ms": "ms",
    "store.put_ms": "ms",
    "store.get_ms": "ms",
    "pipeline.stage_ms.partition": "ms",
    "pipeline.stage_ms.subgraph": "ms",
    "pipeline.stage_ms.schedule": "ms",
    "pipeline.stage_ms.correction": "ms",
    "pipeline.stage_ms.verify": "ms",
    "trace.overhead_pct": "%",
    "loadgen.late_p99_ms": "ms",
}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    os.chdir(ROOT)
    try:
        bin_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    bench = Bench(args, bin_dir)
    try:
        if args.workload == "warm_hits":
            metrics = bench.run_warm()
        else:
            metrics = bench.run_cold()
    except Exception as e:  # noqa: BLE001 - any failure means no result
        log(f"run failed: {type(e).__name__}: {e}")
        return 1
    finally:
        bench.stop_all()
    result = {
        "correct": not bench.errors,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

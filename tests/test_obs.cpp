// Observability layer: span recording + nesting under a multi-threaded
// Executor, histogram bucket (`le`) semantics, registry snapshot merging,
// Chrome trace JSON well-formedness, and trace_id round-trips through the
// cluster front — including across a worker SIGKILL + respawn.
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/json_value.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "runtime/executor.hpp"
#include "service/service.hpp"

namespace epg {
namespace {

// ---- spans -----------------------------------------------------------------

TEST(Trace, SpanWithoutRecorderIsInactiveAndRecordsNothing) {
  ASSERT_EQ(current_trace_recorder(), nullptr);
  Span span("orphan", "test");
  EXPECT_FALSE(span.active());
  span.arg("k", std::uint64_t{1});  // must be a no-op, not a crash
}

TEST(Trace, ScopedInstallRestoresThePreviousRecorder) {
  TraceRecorder outer_rec, inner_rec;
  ScopedTraceInstall outer(&outer_rec);
  EXPECT_EQ(current_trace_recorder(), &outer_rec);
  {
    ScopedTraceInstall inner(&inner_rec);
    EXPECT_EQ(current_trace_recorder(), &inner_rec);
    Span span("inner", "test");
  }
  EXPECT_EQ(current_trace_recorder(), &outer_rec);
  EXPECT_EQ(inner_rec.event_count(), 1u);
  EXPECT_EQ(outer_rec.event_count(), 0u);
}

// Spans opened inside pool tasks must land in the submitting thread's
// recorder (ThreadPool forwards it), and per thread the recorded intervals
// must nest properly — that time containment is how chrome://tracing (and
// this test) reconstructs the span tree without parent links.
TEST(Trace, SpansNestUnderMultiThreadedExecutor) {
  TraceRecorder rec;
  {
    ScopedTraceInstall install(&rec);
    Executor ex(8);
    Span outer("outer", "test");
    ex.parallel_for(64, [](std::size_t i) {
      Span inner("inner", "test");
      inner.arg("index", static_cast<std::uint64_t>(i));
      // Enough work that inner spans get nonzero, overlapping-in-time
      // durations across threads.
      volatile std::uint64_t sink = 0;
      for (std::uint64_t k = 0; k < 20000; ++k) sink = sink + k;
    });
  }
  const std::vector<TraceEvent> events = rec.events();
  // 64 inner + 1 outer land in ONE recorder despite running on 8+1 lanes;
  // the executor adds its own executor_chunk spans on top.
  ASSERT_GE(events.size(), 65u);

  const TraceEvent* outer = nullptr;
  std::size_t inner_count = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") ++inner_count;
  }
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner_count, 64u);

  // The outer span contains every inner span in time (it closes only
  // after parallel_for returned).
  for (const TraceEvent& e : events) {
    if (e.name != "inner") continue;
    EXPECT_GE(e.ts_us, outer->ts_us);
    EXPECT_LE(e.ts_us + e.dur_us, outer->ts_us + outer->dur_us);
  }

  // Per tid, intervals are stack-like: any two are nested or disjoint —
  // never partially overlapping (that would be an unparseable trace).
  for (std::size_t i = 0; i < events.size(); ++i)
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const TraceEvent& a = events[i];
      const TraceEvent& b = events[j];
      if (a.tid != b.tid) continue;
      const double a_end = a.ts_us + a.dur_us;
      const double b_end = b.ts_us + b.dur_us;
      const bool disjoint = a_end <= b.ts_us || b_end <= a.ts_us;
      const bool a_in_b = b.ts_us <= a.ts_us && a_end <= b_end;
      const bool b_in_a = a.ts_us <= b.ts_us && b_end <= a_end;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << a.name << " and " << b.name << " partially overlap on tid "
          << a.tid;
    }
}

// Regression: Service::handle_line destroys its per-request recorder as
// soon as the request is answered, while the shared pool may still hold
// late-scheduled helper tasks from a parallel_for inside that request.
// Those helpers must never dereference the dead recorder — the drain
// closes its span and uninstalls the recorder before publishing the
// completions that release the caller (ASan catches the old
// use-after-free here).
TEST(Trace, RecorderMayBeDestroyedImmediatelyAfterParallelFor) {
  Executor ex(8);
  for (int iter = 0; iter < 200; ++iter) {
    TraceRecorder rec;
    {
      ScopedTraceInstall install(&rec);
      // count << helper fan-out: most submitted helpers lose the race
      // for an index and run (harmlessly) after this iteration's
      // recorder is gone.
      ex.parallel_for(3, [](std::size_t) { Span s("work", "test"); });
    }
    EXPECT_GE(rec.event_count(), 3u);
  }
}

TEST(Trace, RecorderDropsPastTheCapInsteadOfGrowing) {
  TraceRecorder rec(/*max_events=*/8);
  ScopedTraceInstall install(&rec);
  for (int i = 0; i < 20; ++i) Span span("s", "test");
  EXPECT_EQ(rec.event_count(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  TraceRecorder rec;
  {
    ScopedTraceInstall install(&rec);
    Span outer("outer", "pipeline");
    outer.arg("note", "quote\"and\\slash");
    outer.arg("parts", std::uint64_t{4});
    Span inner("inner", "pipeline");
    inner.arg("ratio", 0.5);
  }
  std::ostringstream os;
  rec.write_chrome_trace(os);

  const JsonValue doc = JsonValue::parse(os.str());  // throws if malformed
  EXPECT_EQ(doc.get_string("displayTimeUnit", ""), "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  for (const JsonValue& e : events->items()) {
    EXPECT_EQ(e.get_string("ph", ""), "X");
    EXPECT_FALSE(e.get_string("name", "").empty());
    EXPECT_FALSE(e.get_string("cat", "").empty());
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("dur"), nullptr);
    EXPECT_EQ(e.get_u64("pid", 0), 1u);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  // The escaped string arg survives a strict parse round-trip.
  const JsonValue* args = events->items()[0].find("args");
  if (args == nullptr) args = events->items()[1].find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->get_string("note", ""), "quote\"and\\slash");
}

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, HistogramHonorsLeBucketBoundaries) {
  Histogram h({1.0, 10.0, 100.0});
  // Prometheus `le` semantics: a value equal to a bound lands IN that
  // bucket, the next representable value above it in the next one.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.5);
  h.observe(10.0);
  h.observe(10.5);
  h.observe(100.0);
  h.observe(101.0);  // overflow (+Inf) bucket
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 10.5 + 100.0 + 101.0);
}

TEST(Metrics, RegistryIsIdempotentByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("epgc_x_total", "help");
  Counter& b = reg.counter("epgc_x_total");
  EXPECT_EQ(&a, &b);
  a.inc(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(Metrics, MergedSnapshotsSumAcrossRegistries) {
  MetricsRegistry r1, r2;
  r1.counter("epgc_requests_total").inc(3);
  r2.counter("epgc_requests_total").inc(4);
  r2.counter("epgc_only_on_two_total").inc(5);
  r1.gauge("epgc_depth").set(7);
  r2.gauge("epgc_depth").set(-2);
  Histogram& h1 = r1.histogram("epgc_lat_ms", {1.0, 10.0});
  Histogram& h2 = r2.histogram("epgc_lat_ms", {1.0, 10.0});
  h1.observe(0.5);
  h1.observe(5.0);
  h2.observe(5.0);
  h2.observe(50.0);
  // A histogram whose bucket shape disagrees must keep the first copy
  // and skip the rest — never throw (mixed-build clusters degrade).
  r1.histogram("epgc_mismatch_ms", {1.0}).observe(0.5);
  r2.histogram("epgc_mismatch_ms", {1.0, 2.0}).observe(0.5);

  const JsonValue s1 = JsonValue::parse(r1.json());
  const JsonValue s2 = JsonValue::parse(r2.json());
  const JsonValue merged =
      JsonValue::parse(merge_metric_snapshots({&s1, &s2}));

  const JsonValue* counters = merged.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_u64("epgc_requests_total", 0), 7u);
  EXPECT_EQ(counters->get_u64("epgc_only_on_two_total", 0), 5u);
  const JsonValue* gauges = merged.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->get_number("epgc_depth", 0), 5.0);

  const JsonValue* hist = merged.find("histograms");
  ASSERT_NE(hist, nullptr);
  const JsonValue* lat = hist->find("epgc_lat_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->get_u64("count", 0), 4u);
  EXPECT_DOUBLE_EQ(lat->get_number("sum", 0), 60.5);
  const JsonValue* buckets = lat->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items().size(), 3u);
  EXPECT_EQ(buckets->items()[0].as_number(), 1.0);  // 0.5
  EXPECT_EQ(buckets->items()[1].as_number(), 2.0);  // 5.0 twice
  EXPECT_EQ(buckets->items()[2].as_number(), 1.0);  // 50.0 overflow
  const JsonValue* mismatch = hist->find("epgc_mismatch_ms");
  ASSERT_NE(mismatch, nullptr);
  ASSERT_NE(mismatch->find("le"), nullptr);
  EXPECT_EQ(mismatch->find("le")->items().size(), 1u);  // first copy wins
}

TEST(Metrics, MergeKeepsCountersExactPast2To53AndSkipsJunk) {
  // 2^53 + 1 is the first uint64 a double cannot represent; summing via
  // as_number would silently round. Fractional / negative "counters" are
  // malformed and must be skipped, not truncated into the sum.
  const JsonValue s1 = JsonValue::parse(
      R"({"counters":{"epgc_big_total":9007199254740993,)"
      R"("epgc_frac_total":1.5,"epgc_neg_total":-2},)"
      R"("gauges":{},"histograms":{}})");
  const JsonValue s2 = JsonValue::parse(
      R"({"counters":{"epgc_big_total":2},"gauges":{},"histograms":{}})");
  const JsonValue merged =
      JsonValue::parse(merge_metric_snapshots({&s1, &s2}));
  const JsonValue* counters = merged.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_u64("epgc_big_total", 0), 9007199254740995u);
  EXPECT_EQ(counters->find("epgc_frac_total"), nullptr);
  EXPECT_EQ(counters->find("epgc_neg_total"), nullptr);
}

TEST(Metrics, PrometheusTypeLinesAreUniquePerFamily) {
  // Members of a labeled family registered NON-contiguously (another
  // metric in between) must still yield exactly one TYPE line — strict
  // Prometheus parsers reject duplicates.
  MetricsRegistry reg;
  reg.counter("epgc_tier_hits_total{tier=\"memory\"}", "tier hits").inc(1);
  reg.counter("epgc_other_total", "other").inc(2);
  reg.counter("epgc_tier_hits_total{tier=\"store\"}").inc(3);
  const std::string text = reg.prometheus_text();
  const std::string type_line = "# TYPE epgc_tier_hits_total counter";
  const std::size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos)
      << "duplicate TYPE line for a non-contiguous family:\n" << text;
  // Both samples still present.
  EXPECT_NE(text.find("epgc_tier_hits_total{tier=\"memory\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("epgc_tier_hits_total{tier=\"store\"} 3"),
            std::string::npos);
}

TEST(Metrics, PrometheusTextExposesEveryFamily) {
  MetricsRegistry reg;
  reg.counter("epgc_a_total", "a help").inc(1);
  reg.gauge("epgc_b", "b help").set(2);
  reg.histogram("epgc_c_ms", {1.0}, "c help").observe(0.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE epgc_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("epgc_a_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE epgc_b gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE epgc_c_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("epgc_c_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("epgc_c_ms_count 1"), std::string::npos);
}

// ---- trace dumps -----------------------------------------------------------

TEST(ServiceTraceDump, DeterministicSlowTracesGetDistinctFileNames) {
  ServiceConfig cfg;
  cfg.batch.threads = 1;
  cfg.batch.deterministic = true;
  cfg.trace_dir = (std::filesystem::temp_directory_path() /
                   ("epgc-obs-tracedir-" + std::to_string(::getpid())))
                      .string();
  std::filesystem::remove_all(cfg.trace_dir);
  Service service(cfg);
  // Deterministic mode suppresses trace_ids on the wire, but each slow
  // anonymous request must still dump to its own file — a shared
  // trace-anon.json would overwrite (and race with) earlier dumps.
  const JsonValue a =
      JsonValue::parse(service.handle_line(R"({"op":"ping","id":1})"));
  const JsonValue b =
      JsonValue::parse(service.handle_line(R"({"op":"ping","id":2})"));
  EXPECT_EQ(a.find("trace_id"), nullptr);
  EXPECT_EQ(b.find("trace_id"), nullptr);
  std::size_t dumps = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg.trace_dir)) {
    ++dumps;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonValue doc = JsonValue::parse(ss.str());  // well-formed dump
    EXPECT_NE(doc.find("traceEvents"), nullptr);
  }
  EXPECT_EQ(dumps, 2u);
  std::filesystem::remove_all(cfg.trace_dir);
}

// ---- cluster trace_id round-trip -------------------------------------------

// ctest runs with CWD = the build tree, where the worker binary lives.
constexpr const char* kWorkerBin = "./epgc_serve";

#define REQUIRE_WORKER_BIN()                                        \
  do {                                                              \
    if (!std::filesystem::exists(kWorkerBin))                       \
      GTEST_SKIP() << "worker binary not in CWD (run under ctest)"; \
  } while (0)

ClusterConfig trace_cluster_config(const std::string& tag) {
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = kWorkerBin;
  cfg.runtime_dir =
      (std::filesystem::temp_directory_path() /
       ("epgc-obs-test-" + tag + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(cfg.runtime_dir);
  // Deliberately NOT deterministic: trace_id generation is live, exactly
  // the production cluster default.
  return cfg;
}

TEST(ClusterTraceId, RoundTripsThroughWorkerKillAndRespawn) {
  REQUIRE_WORKER_BIN();
  const std::string graph = write_graph6(make_waxman(10, 3));
  const std::string line =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" + graph +
      "\",\"trace_id\":\"client-abc\"}";

  ClusterFront front(trace_cluster_config("traceid"));
  front.start();

  // A client-supplied trace_id is echoed verbatim by the owning worker.
  const JsonValue before = JsonValue::parse(front.handle_line(line));
  EXPECT_TRUE(before.get_bool("ok", false));
  EXPECT_EQ(before.get_string("trace_id", ""), "client-abc");

  // SIGKILL every worker; the front must respawn the owner and redeliver
  // with the trace_id intact.
  for (std::size_t i = 0; i < front.workers(); ++i) {
    const pid_t pid = front.worker_pid(i);
    ASSERT_GT(pid, 0);
    ::kill(pid, SIGKILL);
  }
  const JsonValue after = JsonValue::parse(front.handle_line(line));
  EXPECT_TRUE(after.get_bool("ok", false));
  EXPECT_EQ(after.get_string("trace_id", ""), "client-abc");
  EXPECT_GE(front.respawns(), 1u);

  // Without a client id the (non-deterministic) front generates one and
  // it comes back non-empty on both front-answered and routed ops.
  const JsonValue ping =
      JsonValue::parse(front.handle_line(R"({"op":"ping","id":2})"));
  EXPECT_FALSE(ping.get_string("trace_id", "").empty());
  const JsonValue compiled = JsonValue::parse(front.handle_line(
      "{\"op\":\"compile\",\"id\":3,\"graph\":\"" + graph + "\"}"));
  EXPECT_TRUE(compiled.get_bool("ok", false));
  EXPECT_FALSE(compiled.get_string("trace_id", "").empty());
  front.shutdown_workers();
}

TEST(ClusterMetrics, FrontAggregatesWorkerRegistries) {
  REQUIRE_WORKER_BIN();
  const std::string graph = write_graph6(make_ring(6));
  const std::string compile =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" + graph + "\"}";

  ClusterFront front(trace_cluster_config("metrics"));
  front.start();
  front.handle_line(compile);
  front.handle_line(compile);  // second hit lands in the memory tier

  const JsonValue resp = JsonValue::parse(
      front.handle_line(R"({"op":"metrics","id":2,"prometheus":true})"));
  EXPECT_TRUE(resp.get_bool("ok", false));
  EXPECT_EQ(resp.get_string("role", ""), "front");
  EXPECT_EQ(resp.get_u64("workers_configured", 0), front.workers());

  const JsonValue* workers = resp.find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->items().size(), front.workers());

  // Aggregate request count == sum of the per-worker counts (the metrics
  // probe itself counts on each worker, which the sum must reflect too).
  const JsonValue* aggregate = resp.find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  const JsonValue* agg_counters = aggregate->find("counters");
  ASSERT_NE(agg_counters, nullptr);
  std::uint64_t worker_sum = 0;
  for (const JsonValue& w : workers->items()) {
    const JsonValue* m = w.find("metrics");
    ASSERT_NE(m, nullptr);
    const JsonValue* c = m->find("counters");
    ASSERT_NE(c, nullptr);
    worker_sum += c->get_u64("epgc_requests_total", 0);
    // prometheus:true propagates to the workers.
    EXPECT_NE(w.find("prometheus"), nullptr);
  }
  EXPECT_EQ(agg_counters->get_u64("epgc_requests_total", 0), worker_sum);
  EXPECT_GE(worker_sum, 3u);  // two compiles + at least one metrics probe
  EXPECT_EQ(agg_counters->get_u64("epgc_cache_hits_total", 0), 1u);
  // The aggregate stays worker-only: every counter is the workers' sum.
  for (const auto& [name, value] : agg_counters->members()) {
    std::uint64_t sum = 0;
    for (const JsonValue& w : workers->items())
      sum += w.find("metrics")->find("counters")->get_u64(name, 0);
    EXPECT_EQ(value.as_u64(), sum) << name;
  }

  // The front's own registry: the lines it answered (two compiles and
  // this metrics request), its respawns, and its queue wait.
  const JsonValue* own = resp.find("front");
  ASSERT_NE(own, nullptr);
  const JsonValue* own_counters = own->find("counters");
  ASSERT_NE(own_counters, nullptr);
  EXPECT_EQ(own_counters->get_u64("epgc_requests_total", 0), 3u);
  EXPECT_EQ(own_counters->get_u64("epgc_worker_respawns_total", 9),
            front.respawns());
  ASSERT_NE(own->find("histograms")->find("epgc_queue_wait_ms"), nullptr);

  // The front's stats aggregate has exactly the service's counter fields.
  const JsonValue stats =
      JsonValue::parse(front.handle_line(R"({"op":"stats","id":3})"));
  const JsonValue* stats_agg = stats.find("aggregate");
  ASSERT_NE(stats_agg, nullptr);
  std::set<std::string> agg_fields;
  for (const auto& member : stats_agg->members())
    agg_fields.insert(member.first);
  const JsonValue single = JsonValue::parse(
      Service(ServiceConfig{}).handle_line(R"({"op":"stats","id":4})"));
  std::set<std::string> service_fields;
  for (const auto& [name, value] : single.members())
    if (value.type() == JsonValue::Type::number && name != "id" &&
        name != "parallelism")
      service_fields.insert(name);
  EXPECT_EQ(agg_fields, service_fields);
  front.shutdown_workers();
}

}  // namespace
}  // namespace epg

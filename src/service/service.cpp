#include "service/service.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "circuit/serialize.hpp"
#include "obs/trace.hpp"

namespace epg {

namespace {

std::string circuit_text_of(const JobResult& r) {
  if (r.framework_result)
    return serialize_circuit(r.framework_result->schedule.circuit);
  if (r.baseline_result) return serialize_circuit(r.baseline_result->circuit);
  return {};
}

const char* op_name(ServiceOp op) {
  switch (op) {
    case ServiceOp::compile: return "compile";
    case ServiceOp::batch: return "batch";
    case ServiceOp::stats: return "stats";
    case ServiceOp::health: return "health";
    case ServiceOp::metrics: return "metrics";
    case ServiceOp::ping: return "ping";
    case ServiceOp::shutdown: return "shutdown";
  }
  return "?";
}

/// trace_ids become file names; anything outside [A-Za-z0-9_-] flattens
/// to '_' so a hostile id cannot escape the trace dir.
std::string sanitize_trace_id(const std::string& id) {
  std::string out = id.substr(0, 80);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? "anon" : out;
}

}  // namespace

RequestMetrics::RequestMetrics(MetricsRegistry& registry)
    : requests(registry.counter("epgc_requests_total",
                                "request lines received (incl. malformed)")),
      ok(registry.counter("epgc_requests_ok_total", "requests answered ok")),
      errors(registry.counter("epgc_requests_error_total",
                              "malformed or failed requests")),
      rejected(registry.counter("epgc_requests_rejected_total",
                                "admission-queue overflow rejections")),
      expired(registry.counter("epgc_requests_expired_total",
                               "deadline exceeded while queued")),
      latency_ms(registry.histogram("epgc_request_latency_ms",
                                    default_latency_buckets_ms(),
                                    "per-request handling time (ms)")),
      queue_wait_ms(registry.histogram("epgc_queue_wait_ms",
                                       default_latency_buckets_ms(),
                                       "admission-queue wait (ms)")) {}

ServiceCounters RequestMetrics::counters() const {
  return {requests.value(), ok.value(), errors.value(), rejected.value(),
          expired.value()};
}

ServingCore::ServingCore(const char* name,
                         std::shared_ptr<MetricsRegistry> registry,
                         std::size_t max_queue, std::size_t max_frame_bytes,
                         double default_deadline_ms, std::size_t executors,
                         InlineAnswer answer_inline)
    : registry_(registry ? std::move(registry)
                         : std::make_shared<MetricsRegistry>()),
      requests_(*registry_),
      name_(name),
      max_queue_(max_queue),
      max_frame_bytes_(max_frame_bytes),
      default_deadline_ms_(default_deadline_ms),
      executors_(executors),
      answer_inline_(std::move(answer_inline)) {}

std::string ServingCore::expire(const std::string& id_json,
                                double deadline_ms, double queued_ms,
                                const std::string& trace_id) {
  const double deadline =
      deadline_ms > 0.0 ? deadline_ms : default_deadline_ms_;
  if (deadline <= 0.0 || queued_ms <= deadline) return {};
  requests_.expired.inc();
  requests_.errors.inc();
  return deadline_response(id_json, queued_ms, deadline, trace_id);
}

std::string ServingCore::handle_line(const std::string& line,
                                     double queued_ms) {
  requests_.requests.inc();
  requests_.queue_wait_ms.observe(queued_ms);
  const Stopwatch watch;
  std::string response = answer(line, queued_ms);
  requests_.latency_ms.observe(watch.elapsed_ms());
  return response;
}

std::uint64_t ServingCore::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::size_t ServingCore::queue_depth() const {
  const LineServer* server = server_.load();
  return server != nullptr ? server->queue_depth() : 0;
}

int ServingCore::serve_listener(int listen_fd) {
  LineServerConfig scfg;
  scfg.max_queue = max_queue_;
  scfg.max_frame_bytes = max_frame_bytes_;
  scfg.executors = executors_;
  scfg.handler = [this](const std::string& line, double queued_ms) {
    return handle_line(line, queued_ms);
  };
  scfg.inline_handler = answer_inline_;
  scfg.reject_response = [this](const std::string& line) {
    requests_.rejected.inc();  // called once per overflow
    return queue_full_response(line, max_queue_);
  };
  scfg.oversize_response = [this](const std::string& line) {
    return oversized_frame_response(line, max_frame_bytes_);
  };
  LineServer server(scfg);
  server_.store(&server);
  const int rc = server.serve(listen_fd, stop_);
  server_.store(nullptr);
  return rc;
}

int ServingCore::serve_socket(const std::string& path) {
  std::string err;
  const int listen_fd = listen_unix(path, err);
  if (listen_fd < 0) {
    std::cerr << name_ << ": " << err << '\n';
    return 1;
  }
  const int rc = serve_listener(listen_fd);
  ::unlink(path.c_str());
  return rc;
}

int ServingCore::serve_tcp(const std::string& host, std::uint16_t port) {
  std::string err;
  std::uint16_t bound = 0;
  const int listen_fd = listen_tcp(host, port, bound, err);
  if (listen_fd < 0) {
    std::cerr << name_ << ": " << err << '\n';
    return 1;
  }
  tcp_port_.store(bound);
  // Port 0 binds an ephemeral port; this line is how scripts learn it.
  std::cerr << name_ << ": listening on " << host << ':' << bound << '\n';
  return serve_listener(listen_fd);
}

Service::Service(ServiceConfig cfg)
    : ServingCore("epgc_serve", cfg.metrics, cfg.max_queue,
                  cfg.max_frame_bytes, cfg.default_deadline_ms,
                  1,  // one BatchCompiler; ordering = admission order
                  [this](const std::string& line) {
                    return answer_hit(line);
                  }),
      cfg_(std::move(cfg)),
      inline_answers_(registry_->counter(
          "epgc_requests_inline_total",
          "memory-tier hits answered on the connection's reader thread")) {
  // Responses may embed the compiled circuit, so full results must be
  // retained; the cache is the service's reason to exist.
  cfg_.batch.keep_results = true;
  cfg_.batch.use_cache = true;
  if (!cfg_.store.dir.empty())
    store_ = std::make_shared<CompileResultStore>(cfg_.store);
  cfg_.batch.store = store_;
  // One registry spans the service's request counters and the compiler's
  // job/tier counters — the stats/health/metrics verbs all read from it.
  cfg_.batch.metrics = registry_;
  batch_ = std::make_unique<BatchCompiler>(cfg_.batch);
  if (!cfg_.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.trace_dir, ec);
    if (ec)
      std::cerr << "epgc_serve: cannot create trace dir '" << cfg_.trace_dir
                << "': " << ec.message() << '\n';
  }
}

std::string Service::resolve_trace_id(const ServiceRequest& req) {
  // A client-supplied id is always echoed (it is part of the request, so
  // deterministic-mode responses stay reproducible). Self-generated ids
  // exist only in non-deterministic mode — they would otherwise break
  // bit-identical response replay.
  if (!req.trace_id.empty()) return req.trace_id;
  if (cfg_.batch.deterministic) return {};
  return generate_trace_id(trace_seq_.fetch_add(1));
}

template <class Respond>
std::string Service::traced(ServiceOp op, const std::string& trace_id,
                            const Stopwatch& compute_watch,
                            Respond&& respond) {
  // Per-request recorder: requests on one thread never share span
  // buffers, and an untraced service keeps the null-recorder fast path
  // everywhere below.
  std::unique_ptr<TraceRecorder> recorder;
  if (!cfg_.trace_dir.empty())
    recorder = std::make_unique<TraceRecorder>();
  ScopedTraceInstall install(recorder.get());
  std::string response;
  {
    Span root("request", "service");
    root.arg("op", op_name(op));
    if (!trace_id.empty()) root.arg("trace_id", trace_id);
    response = respond();
  }
  const double compute_ms = compute_watch.elapsed_ms();
  if (recorder && compute_ms >= cfg_.trace_slow_ms &&
      recorder->event_count() > 0) {
    // Deterministic mode suppresses self-generated trace_ids on the wire,
    // but dump files still need distinct names — otherwise every slow
    // anonymous request would overwrite (and race on) trace-anon.json.
    // The sequence is process-local and never leaves this machine, so it
    // cannot break response reproducibility.
    const std::string file_id =
        trace_id.empty()
            ? "local-" + std::to_string(trace_seq_.fetch_add(1))
            : sanitize_trace_id(trace_id);
    const std::string path =
        cfg_.trace_dir + "/trace-" + file_id + ".json";
    std::ofstream out(path);
    if (out) recorder->write_chrome_trace(out);
  }
  return response;
}

std::string Service::answer(const std::string& line, double queued_ms) {
  const Stopwatch compute_watch;
  ServiceRequest req;
  try {
    req = parse_service_request(line);
  } catch (const UnsupportedProtoError& e) {
    requests_.errors.inc();
    return error_response(extract_request_id(line), kErrUnsupportedProto,
                          e.what());
  } catch (const std::exception& e) {
    requests_.errors.inc();
    return error_response(extract_request_id(line), kErrBadRequest,
                          e.what());
  }
  const std::string trace_id = resolve_trace_id(req);
  const std::string expired =
      expire(req.id_json, req.deadline_ms, queued_ms, trace_id);
  if (!expired.empty()) return expired;
  return traced(req.op, trace_id, compute_watch, [&] {
    return handle_request(req, trace_id, queued_ms, compute_watch);
  });
}

std::string Service::answer_hit(const std::string& line) {
  const Stopwatch compute_watch;
  ServiceRequest req;
  try {
    req = parse_service_request(line);
  } catch (const std::exception&) {
    return {};  // the executor answers the error
  }
  // A batch reply needs a run summary, so batches stay on the executor.
  if (req.op != ServiceOp::compile) return {};
  // A miss leaves no trace here: no trace_id drawn, no recorder, nothing
  // counted. The hit's trace is its rendering; compute_watch covers the
  // lookup too, so a slow hit is still dumped.
  const std::optional<JobResult> hit = batch_->lookup(req.jobs.front());
  if (!hit) return {};
  // No queue wait: a deadline cannot have expired.
  const std::string trace_id = resolve_trace_id(req);
  std::string response = traced(req.op, trace_id, compute_watch, [&] {
    return compile_reply(req, *hit, trace_id, 0.0, compute_watch);
  });
  // handle_line's counting, for a request that never queued.
  requests_.requests.inc();
  requests_.queue_wait_ms.observe(0.0);
  requests_.latency_ms.observe(compute_watch.elapsed_ms());
  inline_answers_.inc();
  return response;
}

std::string Service::handle_request(const ServiceRequest& req,
                                    const std::string& trace_id,
                                    double queued_ms,
                                    const Stopwatch& compute_watch) {
  const bool include_wall = !cfg_.batch.deterministic;
  // Render-time timing split; passed to the compile/batch renderers only
  // when wall-clock fields are allowed at all.
  ResponseTiming timing;
  timing.queued_ms = queued_ms;
  switch (req.op) {
    case ServiceOp::ping:
      requests_.ok.inc();
      return pong_response(req.id_json, trace_id);
    case ServiceOp::shutdown:
      requests_.ok.inc();
      stop_.store(true);
      return shutdown_response(req.id_json, trace_id);
    case ServiceOp::stats: {
      requests_.ok.inc();
      StoreStats store_stats;
      if (store_) store_stats = store_->stats();
      return stats_response(req.id_json, counters(), batch_->totals(),
                            batch_->parallelism(),
                            store_ ? &store_stats : nullptr, trace_id);
    }
    case ServiceOp::health:
      requests_.ok.inc();
      return health_response(req.id_json,
                             {uptime_ms(), queue_depth(), max_queue(),
                              counters(), batch_->totals()},
                             trace_id);
    case ServiceOp::metrics:
      requests_.ok.inc();
      return metrics_response(
          req.id_json, registry_->json(),
          req.want_prometheus ? registry_->prometheus_text() : std::string(),
          trace_id);
    case ServiceOp::compile:
      return compile_reply(req, batch_->run(req.jobs).front(), trace_id,
                           queued_ms, compute_watch);
    case ServiceOp::batch: {
      const std::vector<JobResult> results = batch_->run(req.jobs);
      const BatchSummary summary = batch_->summary();
      if (summary.failures == 0) requests_.ok.inc();
      else requests_.errors.inc();
      timing.compute_ms = compute_watch.elapsed_ms();
      return batch_response(req.id_json, results, summary, include_wall,
                            trace_id, include_wall ? &timing : nullptr);
    }
  }
  requests_.errors.inc();
  return error_response(req.id_json, kErrBadRequest, "unhandled op",
                        trace_id);
}

std::string Service::compile_reply(const ServiceRequest& req,
                                   const JobResult& r,
                                   const std::string& trace_id,
                                   double queued_ms,
                                   const Stopwatch& compute_watch) {
  if (r.ok) requests_.ok.inc();
  else requests_.errors.inc();
  const bool include_wall = !cfg_.batch.deterministic;
  ResponseTiming timing;
  timing.queued_ms = queued_ms;
  timing.compute_ms = compute_watch.elapsed_ms();
  return compile_response(
      req.id_json, r,
      req.want_circuit && r.ok ? circuit_text_of(r) : std::string(),
      include_wall, trace_id, include_wall ? &timing : nullptr);
}

int Service::serve_stream(std::istream& in, std::ostream& out) {
  std::string line;
  while (!stop_.load() && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handle_line(line) << '\n' << std::flush;
    if (cfg_.once) break;
  }
  return 0;
}

}  // namespace epg

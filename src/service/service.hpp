// Long-lived compilation service on top of BatchCompiler + the persistent
// result store.
//
// Three transports, one execution path:
//   * stream mode — NDJSON requests on an istream, responses on an
//     ostream, strictly in order. Backpressure is natural: the service
//     does not read the next line until the current one is answered.
//   * Unix-socket mode — concurrent clients; per-connection reader
//     threads feed a bounded admission queue, one executor thread drains
//     it (service/transport.hpp). A full queue rejects the request
//     immediately with a structured "queue_full" error (explicit
//     backpressure), and a request whose `deadline_ms` elapses while it
//     is still queued is answered with a deadline error instead of being
//     compiled late. A compile that is a memory-tier hit, on a connection
//     with nothing pending, is answered on its reader thread and never
//     queues behind another connection's compile.
//   * TCP mode — the same admission discipline over an AF_INET listener,
//     for external clients, load balancers, and multi-host fan-out.
//
// All compiles go through one BatchCompiler, so the service accumulates a
// warm in-memory cache across requests, and — when a store directory is
// configured — a persistent tier shared with the CLIs. Compiled results
// are the same in either mode and match what `epgc_compile` prints for the
// same graph and knobs; deterministic mode only leaves out wall-clock
// fields and generated trace ids, so its responses are bit-stable.
//
// The listener, the request metrics and the stop flag live in
// ServingCore, which the epgc_cluster front shares. `stop()` is
// async-signal-safe (an atomic store), so a SIGTERM handler may call it.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "runtime/batch_compiler.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "store/result_store.hpp"

namespace epg {

struct ServiceConfig {
  /// Threads / inner lanes for the shared BatchCompiler, and the
  /// deterministic response mode (`batch.deterministic`). keep_results is forced on (responses may embed the
  /// compiled circuit); use_cache stays on — the warm cache is the point.
  BatchConfig batch;
  /// Persistent tier; an empty dir disables it.
  StoreConfig store;
  /// Admission-queue capacity in socket/TCP mode; a full queue rejects.
  std::size_t max_queue = 64;
  /// Per-frame byte cap on socket/TCP requests (oversized_frame error).
  std::size_t max_frame_bytes = std::size_t{64} << 20;
  /// Applied to requests that carry no deadline_ms of their own (0 = no
  /// default deadline).
  double default_deadline_ms = 0.0;
  /// Stream mode: answer exactly one request, then return.
  bool once = false;
  /// Registry the request counters/histograms live in, shared with the
  /// BatchCompiler's job counters. Null = the service creates a private
  /// one (what tests want); the apps pass `global_metrics()`.
  std::shared_ptr<MetricsRegistry> metrics;
  /// Record a span tree per request and dump Chrome trace JSON here
  /// (trace-<id>.json) for requests whose compute time reaches
  /// trace_slow_ms. Empty = tracing off (zero-cost hot path).
  std::string trace_dir;
  double trace_slow_ms = 0.0;
};

/// The request counters and histograms of one server, registered in its
/// registry (catalog in docs/observability.md). Counters are thread-safe.
struct RequestMetrics {
  explicit RequestMetrics(MetricsRegistry& registry);
  ServiceCounters counters() const;

  Counter& requests;
  Counter& ok;
  Counter& errors;
  Counter& rejected;  ///< inc'd live from the listener's reader threads
  Counter& expired;
  Histogram& latency_ms;     ///< per-request handling time
  Histogram& queue_wait_ms;  ///< admission-queue wait
};

/// The serving core epgc_serve and the epgc_cluster front share: one
/// registry holding the request metrics, the draining stop flag, and one
/// listen-and-serve path (Unix socket or TCP) whose bounded admission
/// queue feeds handle_line. Owners answer requests; the core admits them.
class ServingCore {
 public:
  virtual ~ServingCore() = default;
  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  /// One request line in, one response line out (no trailing newline),
  /// counted in the request metrics. `queued_ms` is how long the request
  /// waited for admission — the per-request deadline is charged against
  /// it.
  std::string handle_line(const std::string& line, double queued_ms = 0.0);

  /// Listen on a Unix domain socket until a shutdown request. Returns 0
  /// on clean shutdown, 1 when the socket cannot be created.
  int serve_socket(const std::string& path);

  /// Listen on TCP host:port (port 0 = ephemeral; read the bound port
  /// from tcp_port() once it is nonzero). Returns 0 on clean shutdown,
  /// 1 when the listener cannot be created.
  int serve_tcp(const std::string& host, std::uint16_t port);

  /// The TCP port actually bound by serve_tcp (0 until bound).
  std::uint16_t tcp_port() const { return tcp_port_.load(); }

  /// Request a draining shutdown (async-signal-safe): the listener stops
  /// accepting, already-admitted requests are answered, then the serve
  /// call returns.
  void stop() { stop_.store(true); }
  bool shutdown_requested() const { return stop_.load(); }

  /// Request counters, read from the registry (one source of truth for
  /// the stats/health/metrics verbs).
  ServiceCounters counters() const { return requests_.counters(); }

 protected:
  /// An owner's take on a frame on its connection's reader thread
  /// (LineServerConfig::reader_hook); it counts what it answers.
  using ReaderHook =
      std::function<bool(const std::string& line, const ReplySink& reply)>;

  /// `name` prefixes listener diagnostics on stderr; a null `registry`
  /// makes the core own a private one. One executor drains the admission
  /// queue of `max_queue` lines of at most `max_frame_bytes`. A null
  /// `reader_hook` admits every frame.
  ServingCore(const char* name, std::shared_ptr<MetricsRegistry> registry,
              std::size_t max_queue, std::size_t max_frame_bytes,
              double default_deadline_ms, ReaderHook reader_hook = nullptr);

  /// The owner's answer to one request line. It counts the request ok or
  /// failed; handle_line counts its arrival, queue wait and latency.
  virtual std::string answer(const std::string& line, double queued_ms) = 0;

  /// A request that waited `queued_ms` past its `deadline_ms` (0 = the
  /// configured default) is counted expired and failed, and answered with
  /// the returned deadline error; empty when it is still in time.
  std::string expire(const std::string& id_json, double deadline_ms,
                     double queued_ms, const std::string& trace_id);
  /// The queue_full answer to `line`, counted as a rejection.
  std::string reject(const std::string& line);
  std::uint64_t uptime_ms() const;
  /// Requests admitted but not yet picked up (0 outside a serve call).
  std::size_t queue_depth() const;
  std::size_t max_queue() const { return max_queue_; }

  std::shared_ptr<MetricsRegistry> registry_;
  RequestMetrics requests_;
  std::atomic<bool> stop_{false};

 private:
  int serve_listener(int listen_fd);

  const char* name_;
  std::size_t max_queue_;
  std::size_t max_frame_bytes_;
  double default_deadline_ms_;
  ReaderHook reader_hook_;
  std::atomic<std::uint16_t> tcp_port_{0};
  /// Live only while serve_listener runs.
  std::atomic<LineServer*> server_{nullptr};
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

class Service : public ServingCore {
 public:
  explicit Service(ServiceConfig cfg);

  /// Serve NDJSON until EOF, a shutdown request, or (cfg.once) the first
  /// answered request. Returns 0 always (malformed requests are answered,
  /// not fatal).
  int serve_stream(std::istream& in, std::ostream& out);

  BatchCompiler& batch() { return *batch_; }

 private:
  std::string answer(const std::string& line, double queued_ms) override;
  /// The reader hook: a compile whose job is a memory-tier hit is
  /// answered through `reply` at once and counted as handle_line counts a
  /// request with no queue wait; false (nothing counted) for any other
  /// frame.
  bool answer_hit(const std::string& line, const ReplySink& reply);
  /// Run `respond` under the request's root span, on a per-request
  /// recorder when tracing; dump the trace when its compute time reaches
  /// trace_slow_ms.
  template <class Respond>
  std::string traced(ServiceOp op, const std::string& trace_id,
                     const Stopwatch& compute_watch, Respond&& respond);
  std::string handle_request(const ServiceRequest& req,
                             const std::string& trace_id, double queued_ms,
                             const Stopwatch& compute_watch);
  /// The compile response for `r`, counted ok or failed.
  std::string compile_reply(const ServiceRequest& req, const JobResult& r,
                            const std::string& trace_id, double queued_ms,
                            const Stopwatch& compute_watch);
  /// Non-empty only when this request should be traced/correlated.
  std::string resolve_trace_id(const ServiceRequest& req);

  ServiceConfig cfg_;
  Counter& inline_answers_;  ///< requests answered by answer_hit
  std::shared_ptr<CompileResultStore> store_;  ///< null when disabled
  std::unique_ptr<BatchCompiler> batch_;
  std::atomic<std::uint64_t> trace_seq_{0};  ///< generated trace_id suffix
};

}  // namespace epg

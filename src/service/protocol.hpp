// NDJSON request/response protocol of the epgc_serve compilation service
// (and the epgc_cluster front, which speaks the same wire format).
//
// One JSON object per line in, one JSON object per line out (spec in
// docs/service.md). Requests:
//
//   {"op":"compile", "id":1, "graph":"<graph6>", "seed":7, ...}
//   {"op":"batch",   "id":2, "jobs":[{...compile spec...}, ...]}
//   {"op":"stats",   "id":3}
//   {"op":"health",  "id":4}
//   {"op":"metrics", "id":5, "prometheus":true}
//   {"op":"ping",    "id":6}
//   {"op":"shutdown","id":7}
//
// Any request may carry "trace_id" (a client-chosen correlation string);
// the response echoes it. Servers started with --trace-dir additionally
// self-generate one per request in non-deterministic mode.
//
// Compile specs are CompileSpec keys (common/compile_spec.hpp) — the same
// knobs and defaults as epgc_compile flags, so a service response
// reproduces an epgc_compile run of the same graph bit-for-bit. The graph
// is a graph6 string ("graph") or an explicit edge list ("n" +
// "edges":[[u,v],...]).
//
// Versioning: every response carries "proto":"<major>.<minor>"
// (build_info().proto_major/minor). Requests may carry "proto" — a number
// (major) or a "major[.minor]" string; a major the server does not speak
// is answered with a structured "unsupported_proto" error instead of a
// parse failure, so old servers and new clients fail loudly and
// debuggably. Minors are additive and never rejected.
//
// Errors: every failure response carries "ok":false, a stable machine-
// readable "code" (bad_request, unsupported_proto, queue_full, deadline,
// worker_failed, oversized_frame) and a human "error" message. The
// cluster front keys its backpressure handling on "code", never on
// message text. Every response echoes the request's "id" verbatim;
// malformed requests produce an error response, never a dropped line or a
// dead connection.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "runtime/batch_compiler.hpp"

namespace epg {

struct StoreStats;

enum class ServiceOp { compile, batch, stats, health, metrics, ping, shutdown };

struct ServiceRequest {
  ServiceOp op = ServiceOp::ping;
  std::string id_json = "null";  ///< request "id" re-rendered, for echoing
  std::vector<CompileJob> jobs;  ///< compile: exactly one; batch: many
  bool want_circuit = false;     ///< compile only: embed the epgc text
  double deadline_ms = 0.0;      ///< max queue wait; 0 = no deadline
  /// Request "trace_id", echoed in the response; empty = none supplied
  /// (the service generates one only in non-deterministic mode, so
  /// deterministic responses stay bit-stable).
  std::string trace_id;
  /// metrics op: also embed the Prometheus text exposition.
  bool want_prometheus = false;
};

/// A request that named a protocol major this build does not speak.
/// Thrown by parse_service_request; answered with code
/// "unsupported_proto" (never treated as a parse failure).
class UnsupportedProtoError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parse one request line. Throws UnsupportedProtoError on a protocol-
/// major mismatch and std::invalid_argument on malformed JSON, unknown
/// ops, keys of the wrong type, or undecodable graphs.
ServiceRequest parse_service_request(const std::string& line);

class JsonValue;

/// Enforce a parsed request's optional "proto" pin against this build
/// (same contract as parse_service_request). Exposed for the cluster
/// front's locally-answered ops; forwarded ops are checked by the worker.
void check_request_proto(const JsonValue& request);

/// Best-effort id extraction from a (possibly malformed) request line, so
/// even parse-error responses can echo the id when one is readable.
std::string extract_request_id(const std::string& line);

/// Fresh request correlation id ("t" + 16 hex digits), mixed from the
/// clock, the pid, and a caller-provided sequence number. Both the serve
/// worker and the cluster front use it — only in non-deterministic mode,
/// since a generated id in the response would break bit-stable replay.
std::string generate_trace_id(std::uint64_t seq);

// ---- response rendering (single line, no trailing newline) ---------------

/// Every response opens with this head: `{"id":<id>,"proto":"<rev>"` and,
/// when `trace_id` is non-empty, `,"trace_id":"..."` — one renderer so no
/// op (nor the cluster front's own envelopes) can drift from the others.
std::string response_head(const std::string& id_json,
                          const std::string& trace_id = {});

// Stable error codes (the wire contract; the cluster front dispatches on
// these).
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnsupportedProto = "unsupported_proto";
inline constexpr const char* kErrQueueFull = "queue_full";
inline constexpr const char* kErrDeadline = "deadline";
inline constexpr const char* kErrWorkerFailed = "worker_failed";
inline constexpr const char* kErrOversizedFrame = "oversized_frame";

/// The admission errors of both servers' listeners, each echoing the id
/// read from the request `line` (empty for a lineless over-cap stream).
std::string queue_full_response(const std::string& line,
                                std::size_t max_queue);
std::string oversized_frame_response(const std::string& line,
                                     std::size_t max_frame_bytes);
/// A request that waited `queued_ms` for admission, past `deadline_ms`.
std::string deadline_response(const std::string& id_json, double queued_ms,
                              double deadline_ms,
                              const std::string& trace_id);

/// Queue-wait vs compute split for a served request (milliseconds).
/// Rendered only when the renderer gets a non-null pointer — the service
/// passes one exactly when `include_wall` (i.e. never in deterministic
/// mode, where responses must be bit-stable).
struct ResponseTiming {
  double queued_ms = 0.0;   ///< admission-queue wait before work started
  double compute_ms = 0.0;  ///< parse + compile + render
};

// Every renderer takes an optional trailing `trace_id`; non-empty emits
// `"trace_id":"..."` in the response head so clients can correlate a
// response with a dumped trace file.
std::string error_response(const std::string& id_json,
                           const std::string& code,
                           const std::string& message,
                           const std::string& trace_id = {});
std::string pong_response(const std::string& id_json,
                          const std::string& trace_id = {});
std::string shutdown_response(const std::string& id_json,
                              const std::string& trace_id = {});

/// `include_wall` = false keeps deterministic-mode responses bit-stable
/// across service restarts. `circuit_text` non-empty embeds the compiled
/// circuit in the native epgc format.
std::string compile_response(const std::string& id_json, const JobResult& r,
                             const std::string& circuit_text,
                             bool include_wall,
                             const std::string& trace_id = {},
                             const ResponseTiming* timing = nullptr);
std::string batch_response(const std::string& id_json,
                           const std::vector<JobResult>& results,
                           const BatchSummary& summary, bool include_wall,
                           const std::string& trace_id = {},
                           const ResponseTiming* timing = nullptr);

/// The `metrics` verb payload: `metrics_json` is a registry (or merged)
/// JSON snapshot embedded verbatim; a non-empty `prometheus` adds the text
/// exposition as an escaped string field.
std::string metrics_response(const std::string& id_json,
                             const std::string& metrics_json,
                             const std::string& prometheus = {},
                             const std::string& trace_id = {});

struct ServiceCounters {
  std::size_t requests = 0;  ///< lines received (including malformed)
  std::size_t ok = 0;
  std::size_t errors = 0;    ///< malformed/failed requests
  std::size_t rejected = 0;  ///< admission-queue overflow
  std::size_t expired = 0;   ///< deadline exceeded while queued
};

/// One `"name":value` counter field of a `stats` response.
using StatsField = std::pair<const char*, std::uint64_t>;

/// The request-counter fields of a `stats` response, in wire order.
std::vector<StatsField> request_counter_fields(const ServiceCounters& c);
/// Every summable counter field of a `stats` response, in wire order: the
/// request counters, then the job counters. The cluster front's `stats`
/// aggregate sums exactly these over its workers.
std::vector<StatsField> stats_counter_fields(const ServiceCounters& c,
                                             const BatchSummary& totals);
/// `fields` as `"name":value` pairs joined by commas.
std::string json_fields(const std::vector<StatsField>& fields);

std::string stats_response(const std::string& id_json,
                           const ServiceCounters& counters,
                           const BatchSummary& totals,
                           std::size_t parallelism, const StoreStats* store,
                           const std::string& trace_id = {});

/// The `health` snapshot: what a load balancer or the cluster front needs
/// to probe a worker uniformly — liveness, uptime, queue pressure, and
/// the per-tier hit breakdown (how warm this worker's caches are).
struct ServiceHealth {
  std::uint64_t uptime_ms = 0;
  std::size_t queue_depth = 0;  ///< admission queue, socket mode (else 0)
  std::size_t max_queue = 0;
  ServiceCounters counters;
  BatchSummary totals;  ///< per-tier hits: compiled/memory/store/dedup
};

std::string health_response(const std::string& id_json,
                            const ServiceHealth& health,
                            const std::string& trace_id = {});

}  // namespace epg

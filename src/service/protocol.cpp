#include "service/protocol.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/build_info.hpp"
#include "common/compile_spec.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "metrics/report.hpp"
#include "store/result_store.hpp"

namespace epg {

namespace {

// One spec -> one CompileJob through the shared CompileSpec path, so the
// service can never drift from the epgc_compile / epgc_batch knob set.
CompileJob job_from_spec(const JsonValue& spec, std::size_t index) {
  CompileSpec cs;
  apply_compile_spec_json(cs, spec);
  return make_compile_job(
      cs, spec.get_string("label", "req" + std::to_string(index)),
      graph_from_json_spec(spec));
}

void timing_fields(std::ostringstream& os, const ResponseTiming* timing) {
  if (timing == nullptr) return;
  os << ",\"queued_ms\":" << json_number(timing->queued_ms)
     << ",\"compute_ms\":" << json_number(timing->compute_ms);
}

}  // namespace

// "proto" may be a number (major) or a "major[.minor]" string. A missing
// field means "whatever the server speaks" — the pre-versioning clients.
void check_request_proto(const JsonValue& v) {
  const JsonValue* proto = v.find("proto");
  if (proto == nullptr) return;
  long major = -1;
  if (proto->type() == JsonValue::Type::number) {
    major = static_cast<long>(proto->as_number());
    if (static_cast<double>(major) != proto->as_number()) major = -1;
  } else if (proto->type() == JsonValue::Type::string) {
    const std::string& s = proto->as_string();
    try {
      std::size_t used = 0;
      major = std::stol(s, &used);
      if (used != s.size() && s[used] != '.') major = -1;
    } catch (const std::exception&) {
      major = -1;
    }
  }
  if (major < 0)
    throw std::invalid_argument(
        "\"proto\" must be a major number or a \"major.minor\" string");
  if (major != build_info().proto_major)
    throw UnsupportedProtoError(
        "unsupported protocol major " + std::to_string(major) +
        " (server speaks " + proto_string() + ")");
}

std::string generate_trace_id(std::uint64_t seq) {
  std::uint64_t z = static_cast<std::uint64_t>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch()
                            .count()) +
                    0x9e3779b97f4a7c15ULL * (seq + 1) +
                    static_cast<std::uint64_t>(::getpid());
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  char buf[20];
  std::snprintf(buf, sizeof buf, "t%016llx",
                static_cast<unsigned long long>(z ^ (z >> 31)));
  return buf;
}

std::string extract_request_id(const std::string& line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    const JsonValue* id = v.find("id");
    return id == nullptr ? "null" : id->dump();
  } catch (const std::exception&) {
    return "null";
  }
}

ServiceRequest parse_service_request(const std::string& line) {
  const JsonValue v = JsonValue::parse(line);
  if (v.type() != JsonValue::Type::object)
    throw std::invalid_argument("request must be a JSON object");

  ServiceRequest req;
  const JsonValue* id = v.find("id");
  req.id_json = id == nullptr ? "null" : id->dump();
  check_request_proto(v);
  req.deadline_ms = v.get_number("deadline_ms", 0.0);
  req.trace_id = v.get_string("trace_id", "");

  const std::string op = v.get_string("op", "");
  if (op == "compile") {
    req.op = ServiceOp::compile;
    req.want_circuit = v.get_bool("circuit", false);
    req.jobs.push_back(job_from_spec(v, 0));
  } else if (op == "batch") {
    req.op = ServiceOp::batch;
    const JsonValue* jobs = v.find("jobs");
    if (jobs == nullptr || jobs->items().empty())
      throw std::invalid_argument("batch request needs a \"jobs\" array");
    for (std::size_t i = 0; i < jobs->items().size(); ++i)
      req.jobs.push_back(job_from_spec(jobs->items()[i], i));
  } else if (op == "stats") {
    req.op = ServiceOp::stats;
  } else if (op == "health") {
    req.op = ServiceOp::health;
  } else if (op == "metrics") {
    req.op = ServiceOp::metrics;
    req.want_prometheus = v.get_bool("prometheus", false);
  } else if (op == "ping") {
    req.op = ServiceOp::ping;
  } else if (op == "shutdown") {
    req.op = ServiceOp::shutdown;
  } else if (op.empty()) {
    throw std::invalid_argument("request has no \"op\"");
  } else {
    throw std::invalid_argument("unknown op '" + op + "'");
  }
  return req;
}

std::string response_head(const std::string& id_json,
                          const std::string& trace_id) {
  std::string head =
      "{\"id\":" + id_json + ",\"proto\":\"" + proto_string() + "\"";
  if (!trace_id.empty())
    head += ",\"trace_id\":\"" + json_escape(trace_id) + "\"";
  return head;
}

std::string queue_full_response(const std::string& line,
                                std::size_t max_queue) {
  return error_response(extract_request_id(line), kErrQueueFull,
                        "queue full (" + std::to_string(max_queue) +
                            " pending); retry later");
}

std::string oversized_frame_response(const std::string& line,
                                     std::size_t max_frame_bytes) {
  return error_response(extract_request_id(line), kErrOversizedFrame,
                        "request line exceeds " +
                            std::to_string(max_frame_bytes) + " bytes");
}

std::string deadline_response(const std::string& id_json, double queued_ms,
                              double deadline_ms,
                              const std::string& trace_id) {
  return error_response(id_json, kErrDeadline,
                        "deadline exceeded: request queued " +
                            std::to_string(queued_ms) + " ms, deadline " +
                            std::to_string(deadline_ms) + " ms",
                        trace_id);
}

std::string error_response(const std::string& id_json,
                           const std::string& code,
                           const std::string& message,
                           const std::string& trace_id) {
  return response_head(id_json, trace_id) + ",\"ok\":false,\"code\":\"" +
         code + "\",\"error\":\"" + json_escape(message) + "\"}";
}

std::string pong_response(const std::string& id_json,
                          const std::string& trace_id) {
  return response_head(id_json, trace_id) + ",\"ok\":true,\"op\":\"ping\"}";
}

std::string shutdown_response(const std::string& id_json,
                              const std::string& trace_id) {
  return response_head(id_json, trace_id) +
         ",\"ok\":true,\"op\":\"shutdown\"}";
}

std::string compile_response(const std::string& id_json, const JobResult& r,
                             const std::string& circuit_text,
                             bool include_wall, const std::string& trace_id,
                             const ResponseTiming* timing) {
  std::ostringstream os;
  os << response_head(id_json, trace_id) << ",\"op\":\"compile\",";
  job_result_json_fields(os, r, include_wall);
  timing_fields(os, timing);
  if (!circuit_text.empty())
    os << ",\"circuit\":\"" << json_escape(circuit_text) << '"';
  os << '}';
  return os.str();
}

std::string batch_response(const std::string& id_json,
                           const std::vector<JobResult>& results,
                           const BatchSummary& summary, bool include_wall,
                           const std::string& trace_id,
                           const ResponseTiming* timing) {
  std::ostringstream os;
  os << response_head(id_json, trace_id) << ",\"op\":\"batch\",\"ok\":true,"
     << "\"jobs\":" << results.size() << ",\"compiled\":"
     << summary.compiled << ",\"cache_hits\":" << summary.cache_hits
     << ",\"memory_hits\":" << summary.memory_hits << ",\"store_hits\":"
     << summary.store_hits << ",\"dedup_hits\":" << summary.dedup_hits
     << ",\"failures\":" << summary.failures;
  timing_fields(os, timing);
  os << ",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i) os << ',';
    os << '{';
    job_result_json_fields(os, results[i], include_wall);
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::vector<StatsField> request_counter_fields(const ServiceCounters& c) {
  return {{"requests", c.requests}, {"ok_count", c.ok},
          {"errors", c.errors},     {"rejected", c.rejected},
          {"expired", c.expired}};
}

std::vector<StatsField> stats_counter_fields(const ServiceCounters& c,
                                             const BatchSummary& totals) {
  std::vector<StatsField> fields = request_counter_fields(c);
  fields.insert(fields.end(), {{"jobs", totals.jobs},
                               {"compiled", totals.compiled},
                               {"cache_hits", totals.cache_hits},
                               {"memory_hits", totals.memory_hits},
                               {"store_hits", totals.store_hits},
                               {"dedup_hits", totals.dedup_hits},
                               {"failures", totals.failures}});
  return fields;
}

std::string json_fields(const std::vector<StatsField>& fields) {
  std::string out;
  for (const auto& [name, value] : fields)
    out += (out.empty() ? "\"" : ",\"") + std::string(name) + "\":" +
           std::to_string(value);
  return out;
}

std::string stats_response(const std::string& id_json,
                           const ServiceCounters& counters,
                           const BatchSummary& totals,
                           std::size_t parallelism, const StoreStats* store,
                           const std::string& trace_id) {
  std::ostringstream os;
  os << response_head(id_json, trace_id)
     << ",\"op\":\"stats\",\"ok\":true,\"parallelism\":" << parallelism << ','
     << json_fields(stats_counter_fields(counters, totals));
  if (store != nullptr) {
    os << ",\"store\":{\"hits\":" << store->hits << ",\"misses\":"
       << store->misses << ",\"puts\":" << store->puts << ",\"evictions\":"
       << store->evictions << ",\"corrupt_skipped\":"
       << store->corrupt_skipped << ",\"bytes\":" << store->bytes
       << ",\"entries\":" << store->entries << '}';
  }
  os << '}';
  return os.str();
}

std::string health_response(const std::string& id_json,
                            const ServiceHealth& health,
                            const std::string& trace_id) {
  std::ostringstream os;
  os << response_head(id_json, trace_id) << ",\"op\":\"health\",\"ok\":true"
     << ",\"uptime_ms\":" << health.uptime_ms << ",\"queue_depth\":"
     << health.queue_depth << ",\"max_queue\":" << health.max_queue
     << ",\"requests\":" << health.counters.requests << ",\"errors\":"
     << health.counters.errors << ",\"rejected\":"
     << health.counters.rejected << ",\"expired\":"
     << health.counters.expired << ",\"compiled\":"
     << health.totals.compiled << ",\"memory_hits\":"
     << health.totals.memory_hits << ",\"store_hits\":"
     << health.totals.store_hits << ",\"dedup_hits\":"
     << health.totals.dedup_hits << '}';
  return os.str();
}

std::string metrics_response(const std::string& id_json,
                             const std::string& metrics_json,
                             const std::string& prometheus,
                             const std::string& trace_id) {
  std::string out = response_head(id_json, trace_id) +
                    ",\"op\":\"metrics\",\"ok\":true,\"metrics\":" +
                    metrics_json;
  if (!prometheus.empty())
    out += ",\"prometheus\":\"" + json_escape(prometheus) + "\"";
  out += "}";
  return out;
}

}  // namespace epg

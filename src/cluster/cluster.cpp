#include "cluster/cluster.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/assert.hpp"
#include "common/compile_spec.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "runtime/graph_hash.hpp"

namespace epg {

namespace {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
}

/// True when `resp` is a structured queue-full rejection. The substring
/// pre-check is exact: a raw '"' cannot occur inside a JSON string value,
/// so "queue_full" as a code can only be the code field.
bool is_queue_full_response(const std::string& resp) {
  if (resp.find(kErrQueueFull) == std::string::npos) return false;
  try {
    return JsonValue::parse(resp).get_string("code", "") == kErrQueueFull;
  } catch (const std::exception&) {
    return false;
  }
}

/// Compile/batch requests route by labelled-graph hash — the same graph
/// always lands on the same worker, preserving single-process cache
/// progression per graph. nullopt when the request names no decodable
/// graph.
std::optional<std::uint64_t> graph_route_key(const JsonValue& request) {
  try {
    const std::string op = request.get_string("op", "");
    if (op == "compile")
      return labelled_graph_hash(graph_from_json_spec(request));
    const JsonValue* jobs = request.find("jobs");
    if (op == "batch" && jobs != nullptr && !jobs->items().empty()) {
      // One batch = one worker (its summary is a per-run contract); the
      // combined hash keeps equal batches on equal workers.
      HashStream h;
      for (const JsonValue& job : jobs->items())
        h.mix(labelled_graph_hash(graph_from_json_spec(job)));
      return h.digest();
    }
  } catch (const std::exception&) {
    // unroutable: the caller falls back to line-hash routing
  }
  return std::nullopt;
}

}  // namespace

/// Virtual nodes per worker on the consistent-hash ring.
constexpr std::size_t kRingReplicas = 64;

ClusterFront::ClusterFront(ClusterConfig cfg)
    // One executor per worker: independent workers make progress in
    // parallel, while the per-worker mutex keeps each worker serving one
    // request at a time (admission order per worker == response order).
    : ServingCore("epgc_cluster", nullptr, cfg.max_queue, cfg.max_frame_bytes,
                  cfg.default_deadline_ms, cfg.workers),
      cfg_(std::move(cfg)),
      ring_(cfg_.workers, kRingReplicas),
      respawns_(registry_->counter("epgc_worker_respawns_total",
                                   "worker processes respawned")),
      queue_full_retries_(registry_->counter(
          "epgc_front_queue_full_retries_total",
          "requests re-sent after a worker answered queue_full")),
      redeliveries_(registry_->counter(
          "epgc_front_redeliveries_total",
          "delivery attempts after a worker died or dropped its "
          "connection mid-request")) {
  EPG_REQUIRE(cfg_.workers > 0, "cluster needs at least one worker");
  EPG_REQUIRE(!cfg_.worker_bin.empty(), "cluster needs a worker binary");
}

ClusterFront::~ClusterFront() {
  stop();
  if (started_.load()) shutdown_workers();
}

// ---- worker lifecycle ------------------------------------------------------

/// How long to wait for a freshly spawned worker's socket.
constexpr long kSpawnWaitMs = 10000;

bool ClusterFront::spawn_locked(Worker& w, std::string& err) {
  ::unlink(w.socket_path.c_str());
  std::vector<std::string> arg_strings = {cfg_.worker_bin, "--socket",
                                          w.socket_path};
  arg_strings.insert(arg_strings.end(), cfg_.worker_args.begin(),
                     cfg_.worker_args.end());
  std::vector<char*> argv;
  argv.reserve(arg_strings.size() + 1);
  for (std::string& s : arg_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    err = std::string("fork(): ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: workers own no stdin; stdout/stderr are inherited so worker
    // diagnostics surface in the front's log.
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 0);
      ::close(devnull);
    }
    ::execvp(argv[0], argv.data());
    std::perror("epgc_cluster: exec worker");
    ::_exit(127);
  }

  // Parent: the worker is up once its socket accepts a connection.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kSpawnWaitMs);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      err = "worker " + std::to_string(w.index) + " exited during startup";
      return false;
    }
    std::string connect_err;
    const int fd = connect_unix(w.socket_path, connect_err);
    if (fd >= 0) {
      w.pid = pid;
      w.conn = LineConn(fd);
      return true;
    }
    sleep_ms(10.0);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  err = "worker " + std::to_string(w.index) + " did not bind " +
        w.socket_path + " within " + std::to_string(kSpawnWaitMs) + " ms";
  return false;
}

void ClusterFront::respawn_locked(Worker& w) {
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
  }
  w.pid = -1;
  w.conn.close();
  w.last_health.clear();
  if (workers_down_.load()) return;  // draining: stay down
  std::string err;
  if (spawn_locked(w, err)) {
    respawns_.inc();
  } else {
    std::cerr << "epgc_cluster: respawn failed: " << err << '\n';
  }
}

void ClusterFront::start() {
  if (started_.exchange(true)) return;
  std::filesystem::create_directories(cfg_.runtime_dir);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->socket_path =
        cfg_.runtime_dir + "/worker-" + std::to_string(i) + ".sock";
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    std::string err;
    if (!spawn_locked(*w, err)) throw std::runtime_error(err);
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

/// Monitor cadence and per-probe response timeout.
constexpr double kProbeIntervalMs = 250.0;
constexpr int kProbeTimeoutMs = 5000;

void ClusterFront::monitor_loop() {
  // Liveness supervision: reap + respawn dead workers, and ride the same
  // `health` verb external load balancers use. try_lock everywhere — a
  // worker whose mutex is held is mid-request, which is proof of life,
  // and probing must never stall the request path.
  while (!workers_down_.load()) {
    sleep_ms(kProbeIntervalMs);
    if (workers_down_.load()) break;
    for (auto& wp : workers_) {
      Worker& w = *wp;
      std::unique_lock<std::mutex> lock(w.mutex, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      if (w.pid > 0) {
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          w.pid = -1;  // already reaped; respawn must not re-kill
          respawn_locked(w);
        }
      }
      if (w.pid < 0 || !w.conn.valid()) {
        respawn_locked(w);
        if (w.pid < 0) continue;
      }
      if (!w.conn.write_line(R"({"op":"health","id":"__probe__"})")) {
        respawn_locked(w);
        continue;
      }
      std::string resp;
      if (!w.conn.read_line(resp, kProbeTimeoutMs)) {
        respawn_locked(w);
        continue;
      }
      w.last_health = resp;
    }
  }
}

void ClusterFront::shutdown_workers() {
  if (workers_down_.exchange(true)) return;
  if (monitor_.joinable()) monitor_.join();
  for (auto& wp : workers_) {
    Worker& w = *wp;
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.pid > 0) {
      // Polite first: the protocol shutdown drains the worker cleanly.
      if (w.conn.valid() &&
          w.conn.write_line(R"({"op":"shutdown","id":"__drain__"})")) {
        std::string resp;
        w.conn.read_line(resp, 2000);
      }
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5000);
      bool exited = false;
      while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          exited = true;
          break;
        }
        sleep_ms(20.0);
      }
      if (!exited) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
      }
    }
    w.conn.close();
    ::unlink(w.socket_path.c_str());
    w.pid = -1;
  }
}

pid_t ClusterFront::worker_pid(std::size_t i) const {
  if (i >= workers_.size()) return -1;
  std::lock_guard<std::mutex> lock(workers_[i]->mutex);
  return workers_[i]->pid;
}

// ---- request path ----------------------------------------------------------

/// Worker said queue_full: retry up to this many times, backing off
/// between tries, then pass the rejection through to the client.
constexpr std::size_t kQueueFullRetries = 3;
constexpr double kRetryBackoffMs = 25.0;

std::string ClusterFront::forward(std::size_t worker,
                                  const std::string& line,
                                  const std::string& id_json) {
  Worker& w = *workers_[worker];
  std::lock_guard<std::mutex> lock(w.mutex);
  for (std::size_t attempt = 0; attempt < cfg_.delivery_attempts;
       ++attempt) {
    if (attempt > 0) {
      sleep_ms(kRetryBackoffMs);
      redeliveries_.inc();
    }
    if (w.pid < 0 || !w.conn.valid()) {
      respawn_locked(w);
      if (w.pid < 0) continue;
    }
    if (!w.conn.write_line(line)) {
      respawn_locked(w);
      continue;
    }
    std::string resp;
    if (!w.conn.read_line(resp)) {
      // Worker died mid-request (the CI kill leg exercises exactly this):
      // respawn and redeliver. Compiles are pure functions of the request,
      // so redelivery can change at most the result's cache tier.
      respawn_locked(w);
      continue;
    }
    // Worker-side backpressure: bounded retry with backoff, then pass the
    // rejection through so the client sees the pressure.
    bool broken = false;
    for (std::size_t retry = 0;
         retry < kQueueFullRetries && is_queue_full_response(resp);
         ++retry) {
      sleep_ms(kRetryBackoffMs * static_cast<double>(retry + 1));
      queue_full_retries_.inc();
      if (!w.conn.write_line(line) || !w.conn.read_line(resp)) {
        broken = true;
        break;
      }
    }
    if (broken) {
      respawn_locked(w);
      continue;
    }
    return resp;
  }
  return error_response(id_json, kErrWorkerFailed,
                        "worker " + std::to_string(worker) +
                            " unavailable after " +
                            std::to_string(cfg_.delivery_attempts) +
                            " delivery attempts");
}

std::string ClusterFront::answer(const std::string& line, double queued_ms) {
  std::string op;
  std::string id_json = "null";
  std::string trace_id;
  bool want_prometheus = false;
  double deadline_ms = 0.0;
  std::optional<JsonValue> parsed;
  try {
    parsed = JsonValue::parse(line);
  } catch (const std::exception&) {
    // forwarded below; the worker's parser answers
  }
  const bool object = parsed && parsed->type() == JsonValue::Type::object;
  if (object) {
    const JsonValue* id = parsed->find("id");
    if (id != nullptr) id_json = id->dump();
    try {
      op = parsed->get_string("op", "");
      trace_id = parsed->get_string("trace_id", "");
      want_prometheus = parsed->get_bool("prometheus", false);
      deadline_ms = parsed->get_number("deadline_ms", 0.0);
    } catch (const std::exception&) {
      op.clear();  // wrong-typed op/deadline: the worker renders the error
    }
  }

  // The deadline is charged against the front's queue wait, exactly like
  // a single epgc_serve charges it against its own admission queue.
  const std::string expired =
      expire(id_json, deadline_ms, queued_ms, trace_id);
  if (!expired.empty()) return expired;

  const bool front_op = op == "ping" || op == "stats" || op == "health" ||
                        op == "metrics" || op == "shutdown";
  // The front originates a trace_id when the client supplied none —
  // non-deterministic mode only, since a generated id in the response
  // would break byte-identity with a single-process run.
  const bool routable = op == "compile" || op == "batch";
  if (trace_id.empty() && !cfg_.deterministic && (front_op || routable))
    trace_id = generate_trace_id(trace_seq_.fetch_add(1));
  if (front_op) {
    try {
      check_request_proto(*parsed);
    } catch (const UnsupportedProtoError& e) {
      requests_.errors.inc();
      return error_response(id_json, kErrUnsupportedProto, e.what(),
                            trace_id);
    } catch (const std::exception& e) {
      requests_.errors.inc();
      return error_response(id_json, kErrBadRequest, e.what(), trace_id);
    }
    requests_.ok.inc();  // before rendering, so stats counts itself
    if (op == "ping") return pong_response(id_json, trace_id);
    if (op == "shutdown") {
      stop_.store(true);
      return shutdown_response(id_json, trace_id);
    }
    if (op == "stats") return stats_response_line(id_json, trace_id);
    if (op == "metrics")
      return metrics_response_line(id_json, want_prometheus, trace_id);
    return health_response_line(id_json, trace_id);
  }

  // Propagate a front-generated trace_id to the worker by splicing it
  // into the forwarded line; the worker echoes it like a client-supplied
  // one. Client-supplied ids are already in the line (pass-through).
  std::string forwarded = line;
  if (routable && !trace_id.empty() && parsed->find("trace_id") == nullptr) {
    const std::size_t close = forwarded.rfind('}');
    if (close != std::string::npos)
      forwarded.insert(close,
                       ",\"trace_id\":\"" + json_escape(trace_id) + "\"");
  }
  // Anything without a graph key (malformed JSON, unknown op, undecodable
  // graph) routes by line hash and is answered by the worker's parser,
  // which renders exactly the bytes a single-process epgc_serve would.
  const std::optional<std::uint64_t> key =
      object ? graph_route_key(*parsed) : std::nullopt;
  const std::string resp =
      forward(ring_.route(key ? *key : HashStream().mix(forwarded).digest()),
              forwarded, id_json);
  // A raw '"' cannot occur inside a JSON string value, so this substring
  // test reads the response's actual ok field.
  if (resp.find("\"ok\":false") == std::string::npos)
    requests_.ok.inc();
  else
    requests_.errors.inc();
  return resp;
}

// ---- aggregated observability ---------------------------------------------

std::string ClusterFront::stats_response_line(const std::string& id_json,
                                              const std::string& trace_id) {
  // Live per-worker snapshots, summed into a cluster view; a worker that
  // cannot answer contributes a failure placeholder instead of stalling
  // the whole snapshot.
  std::vector<StatsField> aggregate = stats_counter_fields({}, {});
  std::vector<std::string> per_worker(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    per_worker[i] = forward(i, R"({"op":"stats","id":"__stats__"})",
                            R"("__stats__")");
    try {
      const JsonValue v = JsonValue::parse(per_worker[i]);
      for (auto& [name, value] : aggregate) value += v.get_u64(name, 0);
    } catch (const std::exception&) {
      // placeholder already carries the error response
    }
  }
  std::ostringstream os;
  os << response_head(id_json, trace_id)
     << ",\"op\":\"stats\",\"ok\":true,\"role\":\"front\""
     << ",\"workers_configured\":" << workers_.size() << ",\"respawns\":"
     << respawns_.value() << ','
     << json_fields(request_counter_fields(counters()))
     << ",\"aggregate\":{" << json_fields(aggregate) << "},\"workers\":[";
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    if (i) os << ',';
    os << per_worker[i];
  }
  os << "]}";
  return os.str();
}

std::string ClusterFront::health_response_line(const std::string& id_json,
                                               const std::string& trace_id) {
  std::ostringstream os;
  os << response_head(id_json, trace_id)
     << ",\"op\":\"health\",\"ok\":true,\"role\":\"front\""
     << ",\"uptime_ms\":" << uptime_ms() << ",\"queue_depth\":"
     << queue_depth() << ",\"max_queue\":" << max_queue()
     << ",\"respawns\":" << respawns_.value() << ",\"workers\":[";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    if (i) os << ',';
    std::unique_lock<std::mutex> lock(w.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      // Mid-request: the mutex holder is talking to a live worker.
      os << "{\"worker\":" << i << ",\"busy\":true,\"up\":true}";
      continue;
    }
    os << "{\"worker\":" << i << ",\"busy\":false,\"up\":"
       << (w.pid > 0 ? "true" : "false") << ",\"pid\":" << w.pid;
    if (!w.last_health.empty()) os << ",\"probe\":" << w.last_health;
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string ClusterFront::metrics_response_line(const std::string& id_json,
                                                bool want_prometheus,
                                                const std::string& trace_id) {
  // One live snapshot per worker; the aggregate merges the workers'
  // "metrics" objects (counters/gauges sum, matching histograms merge
  // bucket-wise). A worker that cannot answer still appears verbatim in
  // "workers" — as its error response — and contributes nothing to the
  // aggregate. The front's own registry is reported apart, under "front".
  std::string probe = R"({"op":"metrics","id":"__metrics__")";
  if (want_prometheus) probe += R"(,"prometheus":true)";
  probe += "}";
  std::vector<std::string> per_worker(workers_.size());
  std::vector<JsonValue> parsed;
  parsed.reserve(workers_.size());
  std::vector<const JsonValue*> snaps;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    per_worker[i] = forward(i, probe, R"("__metrics__")");
    try {
      JsonValue v = JsonValue::parse(per_worker[i]);
      const JsonValue* m = v.find("metrics");
      if (m != nullptr && m->type() == JsonValue::Type::object) {
        parsed.push_back(std::move(v));
        snaps.push_back(parsed.back().find("metrics"));
      }
    } catch (const std::exception&) {
      // error placeholder stays in per_worker[i]
    }
  }
  std::ostringstream os;
  os << response_head(id_json, trace_id)
     << ",\"op\":\"metrics\",\"ok\":true,\"role\":\"front\""
     << ",\"workers_configured\":" << workers_.size()
     << ",\"front\":" << registry_->json()
     << ",\"aggregate\":" << merge_metric_snapshots(snaps)
     << ",\"workers\":[";
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    if (i) os << ',';
    os << per_worker[i];
  }
  os << "]}";
  return os.str();
}

}  // namespace epg

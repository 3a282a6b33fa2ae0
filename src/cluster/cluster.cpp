#include "cluster/cluster.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
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

/// The member the front splices into a forwarded line that carries no
/// trace_id of its own.
std::string trace_id_member(const std::string& trace_id) {
  return ",\"trace_id\":\"" + json_escape(trace_id) + "\"";
}

/// Bucket bounds of epgc_front_in_flight.
std::vector<double> in_flight_buckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

}  // namespace

/// Virtual nodes per worker on the consistent-hash ring.
constexpr std::size_t kRingReplicas = 64;

struct ClusterFront::Request {
  std::string op;
  std::string id_json = "null";
  std::string trace_id;
  bool want_prometheus = false;
  double deadline_ms = 0.0;
  std::optional<JsonValue> parsed;  ///< set when the line is a JSON object

  bool front_op() const {
    return op == "ping" || op == "stats" || op == "health" ||
           op == "metrics" || op == "shutdown";
  }
  bool routable() const { return op == "compile" || op == "batch"; }
};

ClusterFront::ClusterFront(ClusterConfig cfg)
    : ServingCore("epgc_cluster", nullptr, cfg.max_queue, cfg.max_frame_bytes,
                  cfg.default_deadline_ms,
                  [this](const std::string& line, const ReplySink& reply) {
                    return take_frame(line, reply);
                  }),
      cfg_(std::move(cfg)),
      ring_(cfg_.workers, kRingReplicas),
      respawns_(registry_->counter("epgc_worker_respawns_total",
                                   "worker processes respawned")),
      redeliveries_(registry_->counter(
          "epgc_front_redeliveries_total",
          "delivery attempts after a worker died or dropped its "
          "connection mid-request")),
      in_flight_seen_(registry_->histogram(
          "epgc_front_in_flight", in_flight_buckets(),
          "requests in flight on a worker's connection, seen by its relay "
          "at each reply")) {
  EPG_REQUIRE(cfg_.workers > 0, "cluster needs at least one worker");
  EPG_REQUIRE(cfg_.max_queue > 0, "cluster needs an in-flight cap");
  EPG_REQUIRE(!cfg_.worker_bin.empty(), "cluster needs a worker binary");
}

ClusterFront::~ClusterFront() {
  stop();
  if (started_.load()) shutdown_workers();
}

// ---- worker lifecycle ------------------------------------------------------

/// How long to wait for a freshly spawned worker's socket.
constexpr long kSpawnWaitMs = 10000;
/// Monitor cadence and per-probe response timeout; a worker that is down
/// with nothing to deliver is respawned after one cadence.
constexpr auto kProbeInterval = std::chrono::milliseconds(250);
constexpr int kProbeTimeoutMs = 5000;
/// Pause after a failed respawn before the next one.
constexpr auto kRespawnBackoff = std::chrono::milliseconds(25);

bool ClusterFront::spawn_locked(Worker& w, std::string& err) {
  ::unlink(w.socket_path.c_str());
  std::vector<std::string> arg_strings = {cfg_.worker_bin, "--socket",
                                          w.socket_path};
  arg_strings.insert(arg_strings.end(), cfg_.worker_args.begin(),
                     cfg_.worker_args.end());
  // The worker's admission queue holds every request the front may have
  // in flight on it, so it never answers queue_full; a forwarded request
  // waits in that queue, so the default deadline is charged there.
  arg_strings.insert(arg_strings.end(),
                     {"--max-queue", std::to_string(cfg_.max_queue)});
  // Likewise its frame cap holds every frame the front forwards, plus the
  // trace_id the front may add, so it never answers oversized_frame: that
  // answer would overtake the replies to the requests ahead of it.
  const std::size_t frame_cap =
      cfg_.max_frame_bytes + trace_id_member(generate_trace_id(0)).size();
  arg_strings.insert(arg_strings.end(),
                     {"--max-frame-bytes", std::to_string(frame_cap)});
  if (cfg_.default_deadline_ms > 0.0) {
    std::ostringstream deadline;
    deadline.precision(17);
    deadline << cfg_.default_deadline_ms;
    arg_strings.insert(arg_strings.end(), {"--deadline-ms", deadline.str()});
  }
  std::vector<char*> argv;
  argv.reserve(arg_strings.size() + 1);
  for (std::string& s : arg_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t front_pid = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    err = std::string("fork(): ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: a worker gets a draining SIGTERM when the thread that spawned
    // it ends, so a front that dies, even by SIGKILL, leaves no worker
    // behind. (A worker whose spawning thread ends while the front lives
    // on is respawned like any other that exits.)
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != front_pid) ::_exit(1);  // the front died already
    // Workers own no stdin; stdout/stderr are inherited so worker
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
  for (auto& w : workers_)
    w->relay = std::thread([this, &w = *w] { relay_loop(w); });
  monitor_ = std::thread([this] { monitor_loop(); });
}

void ClusterFront::relay_loop(Worker& w) {
  std::vector<std::string_view> replies;
  std::vector<InFlight> answered;
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(w.mutex);
      if (!w.conn.valid() && !reconnect_locked(w, lock)) return;
      fd = w.conn.fd();
    }
    // The worker answers in the order it reads, so each reply belongs to
    // the oldest entry in flight. One lock per recv pops them all.
    FrameBuffer frames;
    while (frames.refill(fd) > 0) {
      std::string_view reply;
      while (frames.next(reply))
        if (!reply.empty()) replies.push_back(reply);
      if (replies.empty()) continue;
      {
        std::lock_guard<std::mutex> lock(w.mutex);
        for (std::size_t i = 0; i < replies.size() && !w.in_flight.empty();
             ++i) {
          in_flight_seen_.observe(static_cast<double>(w.in_flight.size()));
          answered.push_back(std::move(w.in_flight.front()));
          w.in_flight.pop_front();
        }
      }
      for (std::size_t i = 0; i < answered.size(); ++i)
        deliver(answered[i], replies[i]);
      replies.clear();
      answered.clear();
    }
    // The connection ended: the worker died, or the front shut the
    // connection down after a failed write. During a shutdown
    // shutdown_workers reaps the process.
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.pid > 0 && !workers_down_.load()) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    w.conn.close();
    w.last_health.clear();
  }
}

bool ClusterFront::reconnect_locked(Worker& w,
                                    std::unique_lock<std::mutex>& lock) {
  while (!w.conn.valid()) {
    if (workers_down_.load()) {
      w.closed = true;
      for (InFlight& entry : w.in_flight) fail(w, entry);
      w.in_flight.clear();
      return false;
    }
    if (w.in_flight.empty()) {
      // Nothing to deliver: respawn after one probe interval, or as soon
      // as a request arrives.
      w.wake.wait_for(lock, kProbeInterval, [&] {
        return !w.in_flight.empty() || workers_down_.load();
      });
      if (workers_down_.load()) continue;
    }
    // Each request in flight spends one more delivery attempt on this
    // respawn, or is answered worker_failed when it has none left.
    for (auto it = w.in_flight.begin(); it != w.in_flight.end();) {
      if (it->attempts >= cfg_.delivery_attempts) {
        fail(w, *it);
        it = w.in_flight.erase(it);
      } else {
        ++it->attempts;
        redeliveries_.inc();
        ++it;
      }
    }
    std::string err;
    if (!spawn_locked(w, err)) {
      std::cerr << "epgc_cluster: respawn failed: " << err << '\n';
      w.wake.wait_for(lock, kRespawnBackoff,
                      [&] { return workers_down_.load(); });
      continue;
    }
    respawns_.inc();
    // Redeliver in order. Compiles are pure functions of the request, so
    // redelivery can change at most a result's cache tier.
    for (const InFlight& entry : w.in_flight) {
      if (!w.conn.write_line(entry.line)) {
        ::shutdown(w.conn.fd(), SHUT_RDWR);
        break;
      }
    }
  }
  return true;
}

void ClusterFront::monitor_loop() {
  // Liveness supervision rides the same `health` verb external load
  // balancers use. Only an idle worker is probed: one with requests in
  // flight is busy, which is proof of life, and a probe behind them would
  // time out on a long compile. A worker that does not answer its probe
  // in time is killed; its relay respawns it.
  while (!workers_down_.load()) {
    std::this_thread::sleep_for(kProbeInterval);
    if (workers_down_.load()) break;
    for (auto& wp : workers_) {
      Worker& w = *wp;
      pid_t pid = -1;
      {
        std::lock_guard<std::mutex> lock(w.mutex);
        if (!w.conn.valid() || !w.in_flight.empty()) continue;
        pid = w.pid;
      }
      InFlight probe;
      probe.line = R"({"op":"health","id":"__probe__"})";
      probe.id_json = R"("__probe__")";
      probe.waiter = std::make_shared<std::promise<std::string>>();
      std::future<std::string> reply = probe.waiter->get_future();
      if (!submit(w, std::move(probe))) continue;  // busy after all
      const bool answered =
          reply.wait_for(std::chrono::milliseconds(kProbeTimeoutMs)) ==
          std::future_status::ready;
      std::lock_guard<std::mutex> lock(w.mutex);
      if (answered)
        w.last_health = reply.get();
      else if (w.pid == pid)
        ::kill(pid, SIGKILL);  // hung: the relay sees the end and respawns
    }
  }
}

void ClusterFront::shutdown_workers() {
  if (workers_down_.exchange(true)) return;
  if (monitor_.joinable()) monitor_.join();
  for (auto& wp : workers_) {
    std::lock_guard<std::mutex> lock(wp->mutex);
    wp->wake.notify_all();  // a relay waiting to respawn gives up
    // Polite first: the protocol shutdown drains the worker cleanly. The
    // worker answers it after every request in flight, and the relay
    // drops that last reply, which no entry waits for.
    if (wp->conn.valid())
      wp->conn.write_line(R"({"op":"shutdown","id":"__drain__"})");
  }
  for (auto& wp : workers_) {
    Worker& w = *wp;
    pid_t pid = -1;
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      pid = w.pid;
    }
    if (pid > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5000);
      bool exited = false;
      while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          exited = true;
          break;
        }
        sleep_ms(20.0);
      }
      if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      if (w.conn.valid()) ::shutdown(w.conn.fd(), SHUT_RDWR);
    }
    if (w.relay.joinable()) w.relay.join();
    std::lock_guard<std::mutex> lock(w.mutex);
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

ClusterFront::Request ClusterFront::read_request(const std::string& line) {
  Request req;
  try {
    JsonValue v = JsonValue::parse(line);
    if (v.type() == JsonValue::Type::object) req.parsed = std::move(v);
  } catch (const std::exception&) {
    // forwarded; the worker's parser answers
  }
  if (!req.parsed) return req;
  const JsonValue* id = req.parsed->find("id");
  if (id != nullptr) req.id_json = id->dump();
  try {
    req.op = req.parsed->get_string("op", "");
    req.trace_id = req.parsed->get_string("trace_id", "");
    req.want_prometheus = req.parsed->get_bool("prometheus", false);
    req.deadline_ms = req.parsed->get_number("deadline_ms", 0.0);
  } catch (const std::exception&) {
    req.op.clear();  // wrong-typed op/deadline: the worker renders the error
  }
  return req;
}

void ClusterFront::originate_trace_id(Request& req) {
  // Non-deterministic mode only: a generated id in the response would
  // break byte-identity with a single-process run.
  if (req.trace_id.empty() && !cfg_.deterministic &&
      (req.front_op() || req.routable()))
    req.trace_id = generate_trace_id(trace_seq_.fetch_add(1));
}

std::pair<std::size_t, std::string> ClusterFront::route(
    const Request& req, const std::string& line) {
  // Propagate a front-generated trace_id to the worker by splicing it
  // into the forwarded line; the worker echoes it like a client-supplied
  // one. Client-supplied ids are already in the line (pass-through).
  std::string forwarded = line;
  if (req.routable() && !req.trace_id.empty() &&
      req.parsed->find("trace_id") == nullptr) {
    const std::size_t close = forwarded.rfind('}');
    if (close != std::string::npos)
      forwarded.insert(close, trace_id_member(req.trace_id));
  }
  // Anything without a graph key (malformed JSON, unknown op, undecodable
  // graph) routes by line hash and is answered by the worker's parser,
  // which renders exactly the bytes a single-process epgc_serve would.
  const std::optional<std::uint64_t> key =
      req.parsed ? graph_route_key(*req.parsed) : std::nullopt;
  const std::size_t worker =
      ring_.route(key ? *key : HashStream().mix(forwarded).digest());
  return {worker, std::move(forwarded)};
}

bool ClusterFront::submit(Worker& w, InFlight entry) {
  std::unique_lock<std::mutex> lock(w.mutex);
  if (w.closed || cfg_.delivery_attempts == 0) {
    lock.unlock();
    fail(w, entry);
    return true;
  }
  if (w.in_flight.size() >= cfg_.max_queue) return false;
  // A failed write means the connection is ending: shut it down so the
  // relay sees the end, respawns the worker and redelivers this entry.
  if (!w.conn.valid() || !w.conn.write_line(entry.line)) {
    if (w.conn.valid()) ::shutdown(w.conn.fd(), SHUT_RDWR);
    w.wake.notify_one();
  }
  w.in_flight.push_back(std::move(entry));
  return true;
}

std::optional<std::string> ClusterFront::forward(std::size_t worker,
                                                 const std::string& line,
                                                 const std::string& id_json) {
  InFlight entry;
  entry.line = line;
  entry.id_json = id_json;
  entry.waiter = std::make_shared<std::promise<std::string>>();
  std::future<std::string> reply = entry.waiter->get_future();
  if (!submit(*workers_[worker], std::move(entry))) return std::nullopt;
  return reply.get();
}

void ClusterFront::deliver(InFlight& entry, std::string_view reply) {
  if (entry.waiter) {
    entry.waiter->set_value(std::string(reply));
    return;
  }
  // handle_line's counting, for a request that never queued at the
  // front.
  requests_.requests.inc();
  requests_.queue_wait_ms.observe(0.0);
  requests_.latency_ms.observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - entry.arrived)
          .count());
  count_reply(reply);
  entry.client.send(reply);
}

void ClusterFront::count_reply(std::string_view reply) {
  // A raw '"' cannot occur inside a JSON string value, so this substring
  // test reads the response's actual ok field.
  if (reply.find("\"ok\":false") == std::string_view::npos)
    requests_.ok.inc();
  else
    requests_.errors.inc();
}

void ClusterFront::fail(const Worker& w, InFlight& entry) {
  deliver(entry, error_response(entry.id_json, kErrWorkerFailed,
                                "worker " + std::to_string(w.index) +
                                    " unavailable after " +
                                    std::to_string(cfg_.delivery_attempts) +
                                    " delivery attempts"));
}

bool ClusterFront::take_frame(const std::string& line,
                              const ReplySink& reply) {
  Request req = read_request(line);
  if (req.front_op()) return false;  // the executor answers front verbs
  originate_trace_id(req);
  auto [worker, forwarded] = route(req, line);
  InFlight entry;
  entry.line = std::move(forwarded);
  entry.id_json = std::move(req.id_json);
  entry.client = reply;
  entry.arrived = std::chrono::steady_clock::now();
  if (!submit(*workers_[worker], std::move(entry))) reply.send(reject(line));
  return true;
}

std::string ClusterFront::answer(const std::string& line, double queued_ms) {
  Request req = read_request(line);
  // The deadline is charged against the front's queue wait, exactly like
  // a single epgc_serve charges it against its own admission queue.
  const std::string expired =
      expire(req.id_json, req.deadline_ms, queued_ms, req.trace_id);
  if (!expired.empty()) return expired;

  originate_trace_id(req);
  if (req.front_op()) {
    try {
      check_request_proto(*req.parsed);
    } catch (const UnsupportedProtoError& e) {
      requests_.errors.inc();
      return error_response(req.id_json, kErrUnsupportedProto, e.what(),
                            req.trace_id);
    } catch (const std::exception& e) {
      requests_.errors.inc();
      return error_response(req.id_json, kErrBadRequest, e.what(),
                            req.trace_id);
    }
    requests_.ok.inc();  // before rendering, so stats counts itself
    if (req.op == "ping") return pong_response(req.id_json, req.trace_id);
    if (req.op == "shutdown") {
      stop_.store(true);
      return shutdown_response(req.id_json, req.trace_id);
    }
    if (req.op == "stats")
      return stats_response_line(req.id_json, req.trace_id);
    if (req.op == "metrics")
      return metrics_response_line(req.id_json, req.want_prometheus,
                                   req.trace_id);
    return health_response_line(req.id_json, req.trace_id);
  }

  // A frame behind a front verb on its connection (or a caller of
  // handle_line): forwarded the same way, and waited for here.
  auto [worker, forwarded] = route(req, line);
  const std::optional<std::string> resp =
      forward(worker, forwarded, req.id_json);
  if (!resp) {
    requests_.errors.inc();
    return reject(line);
  }
  count_reply(*resp);
  return *resp;
}

// ---- aggregated observability ---------------------------------------------

std::string ClusterFront::stats_response_line(const std::string& id_json,
                                              const std::string& trace_id) {
  // Live per-worker snapshots, summed into a cluster view; a worker that
  // cannot answer contributes a failure placeholder instead of stalling
  // the whole snapshot.
  const std::string probe = R"({"op":"stats","id":"__stats__"})";
  std::vector<StatsField> aggregate = stats_counter_fields({}, {});
  std::vector<std::string> per_worker(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    per_worker[i] = forward(i, probe, R"("__stats__")")
                        .value_or(queue_full_response(probe, max_queue()));
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
    std::lock_guard<std::mutex> lock(w.mutex);
    os << "{\"worker\":" << i << ",\"busy\":"
       << (w.in_flight.empty() ? "false" : "true") << ",\"up\":"
       << (w.pid > 0 && w.conn.valid() ? "true" : "false")
       << ",\"pid\":" << w.pid << ",\"in_flight\":" << w.in_flight.size();
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
    per_worker[i] = forward(i, probe, R"("__metrics__")")
                        .value_or(queue_full_response(probe, max_queue()));
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

// epgc_cluster — multi-worker front for the epgc_serve protocol.
//
// The front owns N worker `epgc_serve` processes (one Unix socket each,
// spawned and supervised by the front) and fans client requests across
// them by consistent-hashing the labelled-graph hash (cluster/hash_ring):
// the same graph always lands on the same worker, so every worker's
// in-memory cache progresses exactly as a single-process epgc_serve would
// for its shard — which is what keeps cluster responses byte-identical to
// single-process responses (the `ci/serve_e2e.sh` differential gate).
// Workers may additionally share one on-disk CompileResultStore
// (--store-dir); the store's rename-atomic writes make the sharing safe.
//
// Responsibilities, Katana-runtime style (ownership + supervision at the
// front, computation at the workers):
//   * routing    — compile/batch by graph hash; malformed or unknown-op
//                  lines by line hash (the worker renders the same error
//                  bytes a single process would); ping/stats/health/
//                  metrics/shutdown answered by the front itself.
//   * pipelined relay — the client's reader thread writes each routed
//                  frame straight onto its worker's connection and queues
//                  an in-flight entry; one relay thread per worker reads
//                  the worker's in-order replies and hands each, verbatim,
//                  to the entry's client. No lock is held across a round
//                  trip, so a worker has many requests in flight, and the
//                  front can never reformat (and thus never drift) a
//                  compile result.
//   * backpressure — each worker's in-flight entries are capped at the
//                  admission queue size the front gives the worker
//                  (--max-queue), so a worker never answers queue_full
//                  (nor oversized_frame: it gets the front's frame cap),
//                  either of which would overtake earlier replies; the
//                  front answers the excess queue_full itself.
//   * supervision — the relay respawns a worker whose connection ends
//                  and redelivers its in-flight requests in order, up to
//                  delivery_attempts, then answers `worker_failed`. A
//                  monitor thread probes idle workers with the same
//                  `health` verb external load balancers use and kills a
//                  worker that stops answering.
//   * draining shutdown — SIGTERM/`shutdown` stops accepting, answers
//                  everything already taken, shuts workers down cleanly,
//                  then returns.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "service/service.hpp"

namespace epg {

struct ClusterConfig {
  std::size_t workers = 3;
  /// Path to the epgc_serve binary the front spawns.
  std::string worker_bin = "epgc_serve";
  /// Directory for worker sockets (created when absent).
  std::string runtime_dir = "/tmp/epgc-cluster";
  /// Extra epgc_serve flags appended to every worker's command line
  /// (--deterministic, --store-dir, --inner-threads, ...).
  std::vector<std::string> worker_args;
  /// Front admission queue and each worker's in-flight cap; also the
  /// admission queue size the front gives each worker (--max-queue).
  std::size_t max_queue = 256;
  /// Frame cap; a frame over it is answered at the front, never forwarded.
  /// Workers are started with this cap plus room for the trace_id the
  /// front may add (--max-frame-bytes), so they never answer
  /// oversized_frame.
  std::size_t max_frame_bytes = std::size_t{64} << 20;
  /// Applied to requests that carry no deadline_ms (0 = none), and passed
  /// to the workers (--deadline-ms), whose queue a forwarded request waits
  /// in.
  double default_deadline_ms = 0.0;
  /// A worker's connection ended with requests in flight: respawn it and
  /// redeliver them, up to N total delivery attempts each, then answer
  /// worker_failed.
  std::size_t delivery_attempts = 3;
  /// Mirrors the workers' --deterministic flag. The front never injects a
  /// generated trace_id in deterministic mode (responses must stay
  /// byte-identical to a single-process run); client-supplied trace_ids
  /// pass through either way, since the workers echo the line verbatim.
  bool deterministic = false;
};

/// Shares ServingCore with epgc_serve: the same listener and request
/// metrics, in a registry the front owns. Forwarded frames never touch
/// the front's admission queue; only the front-answered verbs (and frames
/// behind one on the same connection) do.
class ClusterFront : public ServingCore {
 public:
  explicit ClusterFront(ClusterConfig cfg);
  ~ClusterFront() override;

  /// Spawn and connect every worker, start the relays and the monitor
  /// thread. Throws std::runtime_error when a worker cannot be brought
  /// up. Call before serve_socket/serve_tcp; the destructor drains and
  /// shuts the workers down. Each worker gets SIGTERM when the thread
  /// that spawned it ends, so call this from a thread that outlives the
  /// serve call; otherwise the relays respawn the workers once.
  void start();

  /// Send shutdown to every worker and reap the processes. Idempotent;
  /// the destructor calls it.
  void shutdown_workers();

  std::size_t workers() const { return workers_.size(); }
  /// Current pid of worker `i` (-1 when down); test/CI kill legs use it.
  pid_t worker_pid(std::size_t i) const;
  /// Total respawns across all workers since start().
  std::size_t respawns() const { return respawns_.value(); }

 private:
  /// One request written to a worker and not yet answered.
  struct InFlight {
    std::string line;     ///< the forwarded bytes, kept for redelivery
    std::string id_json;  ///< echoed by a worker_failed answer
    /// A client frame taken from its reader: the reply goes here...
    ReplySink client;
    std::chrono::steady_clock::time_point arrived;
    /// ...otherwise to a caller of forward(), waiting on this.
    std::shared_ptr<std::promise<std::string>> waiter;
    std::size_t attempts = 1;  ///< deliveries so far, counting a failed one
  };

  struct Worker {
    std::size_t index = 0;
    std::string socket_path;
    std::thread relay;
    /// Guards every field below. Held to write a request and queue its
    /// entry, to pop replies, and across a respawn; never across a round
    /// trip.
    std::mutex mutex;
    std::condition_variable wake;  ///< the relay waits here while down
    pid_t pid = -1;
    LineConn conn;  ///< written under `mutex`; read only by the relay
    /// Written to `conn` in this order, which is the order of its replies.
    std::deque<InFlight> in_flight;
    std::string last_health;  ///< last probe response (JSON)
    /// The relay has exited: nothing more is delivered.
    bool closed = false;
  };

  /// What the front reads from a request line to route or answer it.
  struct Request;
  Request read_request(const std::string& line);
  /// Give a front verb, compile or batch that carries no trace_id one
  /// generated by the front.
  void originate_trace_id(Request& req);
  /// The worker that owns `req`, and the line to forward to it.
  std::pair<std::size_t, std::string> route(const Request& req,
                                            const std::string& line);

  bool spawn_locked(Worker& w, std::string& err);
  /// Write `entry` to worker `w` and queue it for the relay; false (and
  /// nothing written) when `w` already has max_queue requests in flight.
  bool submit(Worker& w, InFlight entry);
  /// Submit `line` and wait for the reply; nullopt when the worker has no
  /// room.
  std::optional<std::string> forward(std::size_t worker,
                                     const std::string& line,
                                     const std::string& id_json);
  /// Hand `reply` to the entry's client or waiter.
  void deliver(InFlight& entry, std::string_view reply);
  /// Count a forwarded request ok or failed from its reply.
  void count_reply(std::string_view reply);
  /// Answer `entry` worker_failed.
  void fail(const Worker& w, InFlight& entry);
  /// The reader hook: forward a routed frame, answered by the relay.
  bool take_frame(const std::string& line, const ReplySink& reply);
  /// The executor's answer: front verbs, and frames the hook left.
  std::string answer(const std::string& line, double queued_ms) override;
  void relay_loop(Worker& w);
  /// Bring a worker whose connection ended back up and redeliver its
  /// in-flight requests; false once the workers are shutting down.
  bool reconnect_locked(Worker& w, std::unique_lock<std::mutex>& lock);
  std::string stats_response_line(const std::string& id_json,
                                  const std::string& trace_id);
  std::string health_response_line(const std::string& id_json,
                                   const std::string& trace_id);
  std::string metrics_response_line(const std::string& id_json,
                                    bool want_prometheus,
                                    const std::string& trace_id);
  void monitor_loop();

  ClusterConfig cfg_;
  HashRing ring_;
  Counter& respawns_;
  Counter& redeliveries_;
  Histogram& in_flight_seen_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread monitor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> workers_down_{false};
  std::atomic<std::uint64_t> trace_seq_{0};  ///< generated trace_id suffix
};

}  // namespace epg

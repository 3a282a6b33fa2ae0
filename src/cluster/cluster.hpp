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
//                  shutdown answered by the front itself.
//   * pass-through — a worker's response line is relayed verbatim, so the
//                  front can never reformat (and thus never drift) a
//                  compile result.
//   * backpressure — the front's own admission queue is bounded, and a
//                  worker's `queue_full` rejection is retried with backoff
//                  a bounded number of times, then passed through to the
//                  client: pressure is always visible, never buffered
//                  without bound.
//   * supervision — a monitor thread reaps dead workers and respawns
//                  them; a request whose worker dies mid-flight is
//                  retried on the respawned worker, then answered with
//                  `worker_failed`. Health probes ride the same `health`
//                  verb external load balancers use.
//   * draining shutdown — SIGTERM/`shutdown` stops accepting, answers
//                  everything already admitted, shuts workers down
//                  cleanly, then returns.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
  /// Front admission queue + frame cap (same discipline as epgc_serve).
  std::size_t max_queue = 256;
  std::size_t max_frame_bytes = std::size_t{64} << 20;
  /// Applied to requests that carry no deadline_ms (0 = none).
  double default_deadline_ms = 0.0;
  /// Worker connection died mid-request: respawn and retry, up to N total
  /// delivery attempts, then answer worker_failed.
  std::size_t delivery_attempts = 3;
  /// Mirrors the workers' --deterministic flag. The front never injects a
  /// generated trace_id in deterministic mode (responses must stay
  /// byte-identical to a single-process run); client-supplied trace_ids
  /// pass through either way, since the workers echo the line verbatim.
  bool deterministic = false;
};

/// Shares ServingCore with epgc_serve: the same listener, admission queue
/// and request metrics, in a registry the front owns.
class ClusterFront : public ServingCore {
 public:
  explicit ClusterFront(ClusterConfig cfg);
  ~ClusterFront() override;

  /// Spawn and connect every worker, start the monitor thread. Throws
  /// std::runtime_error when a worker cannot be brought up. Call before
  /// serve_socket/serve_tcp; the destructor drains and shuts the workers
  /// down.
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
  struct Worker {
    std::size_t index = 0;
    std::string socket_path;
    /// Guards pid/conn/last_health; held for the full request/response
    /// round-trip so one worker serves one request at a time per front.
    std::mutex mutex;
    pid_t pid = -1;
    LineConn conn;
    std::string last_health;  ///< last successful probe response (JSON)
  };

  bool spawn_locked(Worker& w, std::string& err);
  void respawn_locked(Worker& w);
  /// Forward with queue-full retry + died-mid-flight respawn/retry; a
  /// worker that stays unreachable yields a worker_failed error echoing
  /// `id_json`.
  std::string forward(std::size_t worker, const std::string& line,
                      const std::string& id_json);
  /// The routing core: answer locally or forward to the owning worker.
  std::string answer(const std::string& line, double queued_ms) override;
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
  Counter& queue_full_retries_;
  Counter& redeliveries_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread monitor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> workers_down_{false};
  std::atomic<std::uint64_t> trace_seq_{0};  ///< generated trace_id suffix
};

}  // namespace epg

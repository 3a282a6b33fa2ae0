// epgc-cluster: multi-worker front for the epgc_serve protocol.
//
// Spawns N epgc_serve workers (one Unix socket each), serves the same
// NDJSON protocol on a client-facing socket or TCP port, and routes each
// compile/batch request by consistent-hashed labelled-graph hash so every
// worker's in-memory cache progresses exactly as a single-process
// epgc_serve would for its shard — cluster responses stay byte-identical
// to single-process responses (ci/serve_e2e.sh proves it). Dead workers
// are respawned; in-flight requests on a dead worker are retried on the
// replacement. SIGTERM drains: stop accepting, answer what was admitted,
// shut the workers down, exit clean.
#include <unistd.h>

#include <csignal>
#include <iostream>

#include "cli_common.hpp"
#include "cluster/cluster.hpp"

namespace {

constexpr const char* kUsage = R"(usage: epgc_cluster [options]

Multi-worker compilation cluster speaking the epgc_serve NDJSON protocol
(docs/service.md). Compile/batch requests are consistent-hashed by
labelled-graph hash across N supervised epgc_serve workers; responses are
byte-identical to a single epgc_serve. ping/stats/health/metrics/shutdown
are answered by the front (stats, health, and metrics aggregate across
workers; metrics sums every worker's counters and merges histograms).

options:
  --workers N       worker processes to spawn (default 3)
  --worker-bin PATH epgc_serve binary (default: sibling of this binary)
  --runtime-dir DIR directory for worker sockets
                    (default /tmp/epgc-cluster-<pid>)
  --socket PATH     serve a Unix domain socket
  --tcp HOST:PORT   serve TCP (PORT alone binds 127.0.0.1; port 0 picks an
                    ephemeral port, printed as 'listening' on stderr)
  --max-queue N     front admission-queue capacity (default 256)
  --deadline-ms X   default per-request deadline when the request has none
  --store-dir DIR   persistent result store, shared by all workers (safe:
                    writes are rename-atomic)
  --store-cap-mb N  per-worker store LRU cap in MiB (default 0 = no cap)
  --jobs N          batch worker threads per worker process
  --inner-threads N intra-compile lanes per job (default: each worker's
                    --jobs; 0 = serial)
  --deterministic   leave wall-clock fields and generated trace ids out of
                    responses (front and workers), so they are bit-stable
  --trace-dir DIR   workers record per-request span trees and dump Chrome
                    trace JSON (trace-<trace_id>.json) into DIR
  --trace-slow-ms X only dump requests whose compute time is >= X ms
                    (default 0 = dump every traced request)
)";

epg::ClusterFront* g_front = nullptr;

// Draining shutdown (async-signal-safe atomic store).
void on_signal(int) {
  if (g_front != nullptr) g_front->stop();
}

// Default worker binary: the epgc_serve that was built next to this
// front, falling back to PATH lookup.
std::string sibling_worker_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "epgc_serve";
  std::string self(buf, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "epgc_serve";
  return self.substr(0, slash + 1) + "epgc_serve";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace epg;
  cli::Args args(argc, argv, {"deterministic"}, kUsage);
  if (!args.positional().empty())
    args.fail("epgc_cluster takes no positionals");
  if (args.has("socket") == args.has("tcp"))
    args.fail("serve exactly one of --socket or --tcp");

  ClusterConfig cfg;
  cfg.workers = args.get_u64("workers", 3);
  if (cfg.workers == 0) args.fail("--workers must be at least 1");
  cfg.worker_bin = args.get("worker-bin", sibling_worker_bin());
  cfg.runtime_dir = args.get(
      "runtime-dir", "/tmp/epgc-cluster-" + std::to_string(::getpid()));
  cfg.max_queue = args.get_u64("max-queue", 256);
  cfg.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  for (const char* flag : {"store-dir", "store-cap-mb", "jobs",
                           "inner-threads", "trace-dir", "trace-slow-ms"}) {
    if (args.has(flag)) {
      cfg.worker_args.push_back(std::string("--") + flag);
      cfg.worker_args.push_back(args.get(flag, ""));
    }
  }
  cfg.deterministic = args.has("deterministic");
  if (cfg.deterministic) cfg.worker_args.push_back("--deterministic");
  const std::optional<cli::TcpAddress> tcp = cli::tcp_flag(args);

  try {
    ClusterFront front(cfg);
    g_front = &front;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    front.start();
    if (tcp) return front.serve_tcp(tcp->host, tcp->port);
    return front.serve_socket(args.get("socket", ""));
  } catch (const std::exception& e) {
    std::cerr << "epgc_cluster: " << e.what() << '\n';
    return 1;
  }
}

// epgc-serve: long-lived compilation service.
//
// Serves the NDJSON protocol (docs/service.md) over stdin/stdout, over a
// Unix domain socket, or over TCP for remote clients and the epgc_cluster
// front. Every compile goes through one shared BatchCompiler — the
// in-memory result cache stays warm across requests — and, with
// --store-dir, through the persistent result store shared with
// epgc_compile and epgc_batch, so a result compiled anywhere is a disk
// read everywhere else. SIGTERM/SIGINT request a draining shutdown: stop
// accepting, answer everything already admitted, exit clean.
#include <csignal>
#include <iostream>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "cli_common.hpp"
#include "runtime/thread_pool.hpp"
#include "service/service.hpp"

namespace {

constexpr const char* kUsage = R"(usage: epgc_serve [options]

Long-lived graph-state compilation service (NDJSON request/response).

Requests arrive one JSON object per line on stdin (or the socket):
  {"op":"compile","id":1,"graph":"<graph6>","seed":7,"circuit":true}
  {"op":"batch","id":2,"jobs":[{"graph":"..."},{"graph":"..."}]}
  {"op":"stats","id":3}   {"op":"health","id":4}
  {"op":"metrics","id":5,"prometheus":true}
  {"op":"ping","id":6}    {"op":"shutdown","id":7}
Compile specs take the epgc_compile knobs (same defaults): compiler, hw,
gmax, lc, ne_factor, ne, seed, strategy, coarsen_floor, multilevel_inner,
verify, label, and deadline_ms (max admission wait).
Responses echo "id", carry "ok" and the protocol revision "proto";
requests may pin "proto" and unknown majors are rejected structurally.

options:
  --socket PATH     serve a Unix domain socket instead of stdin/stdout
  --tcp HOST:PORT   serve TCP (PORT alone binds 127.0.0.1; port 0 picks an
                    ephemeral port, printed as 'listening' on stderr)
  --store-dir DIR   persistent result store (shared with the other CLIs)
  --store-cap-mb N  LRU-evict the store beyond N MiB (default 0 = no cap)
  --jobs N          batch worker threads (default: hardware concurrency)
  --inner-threads N intra-compile lanes per job, borrowed from the --jobs pool
                    (default: --jobs, so a lone request uses every idle
                    lane; 0 = serial)
  --max-queue N     admission-queue capacity in socket mode (default 64)
  --max-frame-bytes N
                    per-line byte cap in socket mode; a longer line is
                    answered oversized_frame (default 67108864 = 64 MiB)
  --deadline-ms X   default per-request deadline when the request has none
  --deterministic   leave wall-clock fields and generated trace ids out of
                    responses, so they are bit-stable across runs
  --once            stream mode: answer one request, then exit
  --trace-dir DIR   record per-request span trees and dump Chrome trace
                    JSON (trace-<trace_id>.json) into DIR
  --trace-slow-ms X only dump requests whose compute time is >= X ms
                    (default 0 = dump every traced request)
)";

epg::Service* g_service = nullptr;

// Draining shutdown: stop accepting, answer what was already admitted,
// return from the serve loop. Service::stop() is an atomic store, so this
// is async-signal-safe.
void on_signal(int) {
  if (g_service != nullptr) g_service->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace epg;
#ifdef __GLIBC__
  // Compiles fan out over the pool's lanes (see --inner-threads), and glibc
  // would give every lane thread a malloc arena that keeps its own
  // high-water of search memory resident; two arenas bound that growth. It
  // also raises its mmap threshold to the largest block freed so far, after
  // which freed search memo tables stay in an arena; pinning the threshold
  // returns them to the OS on free.
  mallopt(M_ARENA_MAX, 2);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  cli::Args args(argc, argv, {"deterministic", "once"}, kUsage);
  if (!args.positional().empty()) args.fail("epgc_serve takes no positionals");

  ServiceConfig cfg;
  cfg.batch.threads = args.get_u64("jobs", 0);
  // A compile's inner lanes borrow the batch pool and its caller takes
  // part, so defaulting them to the pool width lets a lone request fan its
  // level searches across the idle lanes while concurrent requests share
  // the same lanes instead of oversubscribing.
  cfg.batch.inner_threads = args.get_u64(
      "inner-threads", cfg.batch.threads == 0 ? ThreadPool::hardware_default()
                                              : cfg.batch.threads);
  cfg.batch.deterministic = args.has("deterministic");
  cfg.store.dir = args.get("store-dir", "");
  cfg.store.max_bytes = args.get_u64("store-cap-mb", 0) * 1024 * 1024;
  cfg.max_queue = args.get_u64("max-queue", 64);
  cfg.max_frame_bytes = args.get_u64("max-frame-bytes", cfg.max_frame_bytes);
  if (cfg.max_frame_bytes == 0) args.fail("--max-frame-bytes must be at least 1");
  cfg.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  cfg.once = args.has("once");
  cfg.trace_dir = args.get("trace-dir", "");
  cfg.trace_slow_ms = args.get_double("trace-slow-ms", 0.0);
  // The process-global registry: one source for stats/health/metrics.
  cfg.metrics = std::shared_ptr<MetricsRegistry>(&global_metrics(),
                                                 [](MetricsRegistry*) {});
  if (args.has("socket") && args.has("tcp"))
    args.fail("--socket and --tcp are mutually exclusive");
  if (cfg.once && (args.has("socket") || args.has("tcp")))
    args.fail("--once is stream-mode only");
  const std::optional<cli::TcpAddress> tcp = cli::tcp_flag(args);

  try {
    Service service(cfg);
    g_service = &service;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    if (args.has("socket"))
      return service.serve_socket(args.get("socket", ""));
    if (tcp) return service.serve_tcp(tcp->host, tcp->port);
    return service.serve_stream(std::cin, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "epgc_serve: " << e.what() << '\n';
    return 1;
  }
}

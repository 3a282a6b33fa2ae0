// bench_store: persistent-store cold/warm latency and raw tier overhead.
//
// Phase 1 compiles N distinct Waxman instances through a BatchCompiler
// with a fresh store directory (cold: every job compiles, then writes
// back). Phase 2 repeats the identical batch through a NEW BatchCompiler
// and a NEW store handle on the same directory — the in-memory cache is
// empty, so every result must come off disk. The two runs' metrics are
// asserted bit-identical, and the report shows what the store tier costs
// (serialize+write per put) and saves (warm wall vs cold wall).
//
// usage: bench_store [--n N] [--size V] [--json FILE] [--keep]
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "runtime/batch_compiler.hpp"
#include "store/result_store.hpp"

namespace fs = std::filesystem;
using namespace epg;

namespace {

struct Options {
  std::size_t n = 40;      // distinct instances
  std::size_t size = 14;   // vertices per instance
  std::string json_path;
  bool keep = false;       // keep the store dir for inspection
};

std::vector<CompileJob> make_jobs(const Options& opt) {
  std::vector<CompileJob> jobs;
  jobs.reserve(opt.n);
  for (std::size_t i = 0; i < opt.n; ++i) {
    FrameworkConfig cfg = bench::framework_config(1.5, 1);
    jobs.push_back(make_framework_job("wax" + std::to_string(i),
                                      bench::waxman_instance(opt.size, i + 1),
                                      cfg));
  }
  return jobs;
}

bool same_metrics(const std::vector<JobResult>& a,
                  const std::vector<JobResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const CircuitStats& x = a[i].stats;
    const CircuitStats& y = b[i].stats;
    if (x.ee_cnot_count != y.ee_cnot_count ||
        x.emission_count != y.emission_count ||
        x.makespan_ticks != y.makespan_ticks ||
        x.duration_tau != y.duration_tau || x.t_loss_tau != y.t_loss_tau ||
        x.loss.state_survival != y.loss.state_survival ||
        a[i].ne_min != b[i].ne_min || a[i].ne_limit != b[i].ne_limit)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--n" && i + 1 < argc) opt.n = std::stoul(argv[++i]);
    else if (arg == "--size" && i + 1 < argc)
      opt.size = std::stoul(argv[++i]);
    else if (arg == "--json" && i + 1 < argc) opt.json_path = argv[++i];
    else if (arg == "--keep") opt.keep = true;
    else {
      std::cerr << "usage: bench_store [--n N] [--size V] [--json FILE] "
                   "[--keep]\n";
      return 2;
    }
  }

  const fs::path dir =
      fs::temp_directory_path() /
      ("epgc-store-bench-" + std::to_string(::getpid()));
  StoreConfig scfg;
  scfg.dir = dir.string();

  const std::vector<CompileJob> jobs = make_jobs(opt);
  std::cout << "bench_store: " << opt.n << " instances x " << opt.size
            << " vertices, store at " << dir << "\n\n";

  // Cold: empty store, every job compiles and writes back.
  BatchConfig cold_cfg;
  cold_cfg.keep_results = false;
  cold_cfg.store = std::make_shared<CompileResultStore>(scfg);
  BatchCompiler cold_batch(cold_cfg);
  Stopwatch cold_watch;
  const std::vector<JobResult> cold = cold_batch.run(jobs);
  const double cold_ms = cold_watch.elapsed_ms();
  const StoreStats cold_stats = cold_cfg.store->stats();

  // Warm: fresh compiler AND fresh store handle on the same directory —
  // nothing in memory, everything from disk.
  BatchConfig warm_cfg = cold_cfg;
  warm_cfg.store = std::make_shared<CompileResultStore>(scfg);
  BatchCompiler warm_batch(warm_cfg);
  Stopwatch warm_watch;
  const std::vector<JobResult> warm = warm_batch.run(jobs);
  const double warm_ms = warm_watch.elapsed_ms();
  const StoreStats warm_stats = warm_cfg.store->stats();

  const bool identical = same_metrics(cold, warm);
  const std::size_t store_hits = warm_batch.summary().store_hits;

  // Raw tier overhead: per-get parse+verify cost on the warm handle.
  auto probe_store = std::make_shared<CompileResultStore>(scfg);
  Stopwatch get_watch;
  std::size_t probe_hits = 0;
  for (const CompileJob& job : jobs) {
    if (probe_store->get(job.graph, config_fingerprint(job.framework),
                         CompilerKind::framework))
      ++probe_hits;
  }
  const double get_ms = get_watch.elapsed_ms();

  Table table({"phase", "wall ms", "per job ms", "compiled", "store hits"});
  auto row = [&](const char* phase, double ms, std::size_t compiled,
                 std::size_t hits) {
    table.add_row({phase, Table::num(ms, 1),
                   Table::num(ms / static_cast<double>(opt.n), 2),
                   Table::num(compiled), Table::num(hits)});
  };
  row("cold", cold_ms, cold_batch.summary().compiled, 0);
  row("warm", warm_ms, warm_batch.summary().compiled, store_hits);
  table.print(std::cout);
  std::cout << "\nwarm speedup      " << Table::num(cold_ms / warm_ms, 1)
            << "x\n";
  std::cout << "store get (parse+verify) "
            << Table::num(get_ms / static_cast<double>(opt.n), 3)
            << " ms/entry (" << probe_hits << "/" << opt.n << " hits)\n";
  std::cout << "store size        " << warm_stats.bytes << " bytes in "
            << warm_stats.entries << " entries\n";
  std::cout << "metrics identical " << (identical ? "yes" : "NO") << '\n';

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\"instances\": " << opt.n << ", \"vertices\": " << opt.size
        << ", \"cold_ms\": " << cold_ms << ", \"warm_ms\": " << warm_ms
        << ", \"warm_store_hits\": " << store_hits
        << ", \"cold_puts\": " << cold_stats.puts
        << ", \"get_ms_per_entry\": "
        << get_ms / static_cast<double>(opt.n)
        << ", \"store_bytes\": " << warm_stats.bytes
        << ", \"metrics_identical\": " << (identical ? "true" : "false")
        << "}\n";
    std::cout << "json written to " << opt.json_path << '\n';
  }

  if (!opt.keep) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  // A warm run that misses the store or drifts from the cold metrics is a
  // regression, not a slow day — fail loudly so CI can gate on it.
  return (identical && store_hits == opt.n) ? 0 : 1;
}

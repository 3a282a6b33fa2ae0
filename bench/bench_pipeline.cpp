// bench_pipeline: single-graph compile latency through the staged pipeline.
//
// PR 1 made *batches* scale; this bench tracks what the staged pipeline
// does for ONE compile_framework call — the paper's Fig. 10 scalability
// axis that batch parallelism cannot touch. Every (instance, partition
// strategy, inner-thread count) cell compiles the same graph and reports
// wall latency plus the per-stage breakdown; metrics must not move across
// thread counts (the pipeline's determinism contract), so the JSON doubles
// as a regression check and as the perf trajectory's data points.
//
// usage: bench_pipeline [--json FILE] [--reps N] [--quick] [--trace-out FILE]
//   --json FILE      also write machine-readable results (CI artifact)
//   --reps N         repetitions per cell, best-of (default 1)
//   --quick          smallest instances only (smoke mode)
//   --trace-out FILE record pipeline spans across every cell, write Chrome
//                    trace JSON (chrome://tracing / Perfetto)
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "partition/partition_strategy.hpp"

namespace {

using namespace epg;
using namespace epg::bench;

struct Cell {
  std::string instance;
  std::size_t n = 0;
  std::string strategy;
  std::size_t inner_threads = 0;
  double wall_ms = 0.0;
  std::vector<StageTiming> stage_ms;
  std::size_t ee_cnot = 0;
  std::uint64_t makespan_ticks = 0;
  std::size_t emitters = 0;
  std::size_t stems = 0;
  std::size_t level_searches = 0;
  std::size_t exhausted_searches = 0;
  bool verified = false;
};

FrameworkConfig bench_config(std::uint64_t seed) {
  FrameworkConfig cfg = framework_config(1.5, seed);
  // Structural budgets only (beam width, LC depth, node budget, restart
  // and iteration counts), so metrics are a pure function of (instance,
  // strategy, seed) and the cross-thread-count determinism check below
  // cannot be tripped by machine load.
  cfg.partition.max_lc_ops = 8;
  cfg.verify_seeds = 1;
  return cfg;
}

void write_json(std::ostream& os, const std::vector<Cell>& cells,
                std::size_t hw_lanes) {
  os << "{\n  \"bench\": \"pipeline_latency\",\n  \"hardware_lanes\": "
     << hw_lanes << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << "    {\"instance\": \"" << json_escape(c.instance)
       << "\", \"n\": " << c.n << ", \"strategy\": \""
       << json_escape(c.strategy) << "\", \"inner_threads\": "
       << c.inner_threads << ", \"wall_ms\": " << c.wall_ms
       << ", \"ee_cnot\": " << c.ee_cnot << ", \"makespan_ticks\": "
       << c.makespan_ticks << ", \"emitters\": " << c.emitters
       << ", \"stems\": " << c.stems
       << ", \"level_searches\": " << c.level_searches
       << ", \"exhausted_searches\": " << c.exhausted_searches
       << ", \"verified\": "
       << (c.verified ? "true" : "false") << ", \"stage_ms\": {";
    for (std::size_t s = 0; s < c.stage_ms.size(); ++s)
      os << (s ? ", " : "") << '"' << json_escape(c.stage_ms[s].stage)
         << "\": " << c.stage_ms[s].ms;
    os << "}}" << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  int reps = 1;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: bench_pipeline [--json FILE] [--reps N] "
                   "[--quick] [--trace-out FILE]\n";
      return 2;
    }
  }

  // Tracing stays opt-in so wall_ms cells remain comparable with and
  // without it — the recorder exists only when --trace-out was given.
  std::unique_ptr<TraceRecorder> recorder;
  if (!trace_path.empty()) recorder = std::make_unique<TraceRecorder>();
  ScopedTraceInstall trace_install(recorder.get());

  struct Instance {
    std::string label;
    Graph g;
  };
  std::vector<Instance> instances;
  if (quick) {
    instances.push_back({"lattice12", lattice_instance(12, 12)});
    instances.push_back({"tree12", tree_instance(12, 12)});
  } else {
    instances.push_back({"lattice30", lattice_instance(30, 30)});
    instances.push_back({"tree30", tree_instance(30, 30)});
    instances.push_back({"waxman24", waxman_instance(24, 24)});
  }

  const std::size_t hw = ThreadPool::hardware_default();
  const std::vector<std::size_t> thread_counts = {
      0, std::max<std::size_t>(2, hw)};
  const std::vector<std::string> strategies = partition_strategy_names();

  std::vector<Cell> cells;
  for (const Instance& inst : instances) {
    for (const std::string& strategy : strategies) {
      for (std::size_t threads : thread_counts) {
        FrameworkConfig cfg = bench_config(inst.g.vertex_count());
        cfg.partition.strategy = strategy;
        cfg.inner_threads = threads;
        Cell cell;
        cell.instance = inst.label;
        cell.n = inst.g.vertex_count();
        cell.strategy = strategy;
        cell.inner_threads = threads;
        cell.wall_ms = 1e300;
        for (int rep = 0; rep < reps; ++rep) {
          Stopwatch watch;
          const FrameworkResult r = compile_framework(inst.g, cfg);
          const double ms = watch.elapsed_ms();
          if (ms < cell.wall_ms) {
            cell.wall_ms = ms;
            cell.stage_ms = r.stage_ms;
          }
          cell.ee_cnot = r.stats().ee_cnot_count;
          cell.makespan_ticks = r.stats().makespan_ticks;
          cell.emitters = r.stats().emitters_used;
          cell.stems = r.stem_count;
          cell.level_searches = r.level_searches;
          cell.exhausted_searches = r.exhausted_searches;
          cell.verified = r.verified;
        }
        cells.push_back(std::move(cell));
      }
    }
  }

  Table table({"instance", "strategy", "inner", "wall(ms)", "partition(ms)",
               "subgraph(ms)", "ee-CZ", "makespan", "verified"});
  for (const Cell& c : cells) {
    double part_ms = 0.0, sub_ms = 0.0;
    for (const StageTiming& t : c.stage_ms) {
      if (t.stage == "partition") part_ms = t.ms;
      if (t.stage == "subgraph") sub_ms = t.ms;
    }
    table.add_row({c.instance, c.strategy, Table::num(c.inner_threads),
                   Table::num(c.wall_ms, 1), Table::num(part_ms, 1),
                   Table::num(sub_ms, 1), Table::num(c.ee_cnot),
                   Table::num(c.makespan_ticks),
                   c.verified ? "yes" : "NO"});
  }
  emit(table, "Pipeline latency: strategy x inner-threads (best of " +
                  std::to_string(reps) + ")");

  // Determinism cross-check: metrics must agree across thread counts of
  // the same (instance, strategy) cell.
  for (std::size_t i = 0; i + 1 < cells.size(); ++i)
    for (std::size_t j = i + 1; j < cells.size(); ++j)
      if (cells[i].instance == cells[j].instance &&
          cells[i].strategy == cells[j].strategy &&
          (cells[i].ee_cnot != cells[j].ee_cnot ||
           cells[i].makespan_ticks != cells[j].makespan_ticks ||
           cells[i].level_searches != cells[j].level_searches ||
           cells[i].exhausted_searches != cells[j].exhausted_searches)) {
        std::cerr << "DETERMINISM VIOLATION: " << cells[i].instance << '/'
                  << cells[i].strategy << " differs across thread counts\n";
        return 1;
      }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    write_json(out, cells, hw + 1);
    std::cout << "json written to " << json_path << '\n';
  }
  if (recorder) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write trace file '" << trace_path << "'\n";
      return 1;
    }
    recorder->write_chrome_trace(out);
    std::cout << "trace written to " << trace_path << " ("
              << recorder->event_count() << " events)\n";
  }
  return 0;
}

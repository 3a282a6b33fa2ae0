// bench_kernels: micro-bench tier over the compiler's hot kernels.
//
// The pipeline/scale benches time whole compiles; a regression in one
// kernel (say the matching loop going quadratic) hides inside a 5-stage
// wall time until it is large. This tier times the kernels the profiles
// say dominate, in isolation:
//
//   * matching      — one heavy-edge coarsening contraction (coarsen_once)
//   * cut_delta     — boundary move probing: per-vertex part-connection
//                     tallies through CsrView + DenseAccumulator, the
//                     multilevel refinement inner loop
//   * emitter_bound — the O(n+m) open-vertex emitter bound over a CSR view
//   * graphsim_lc_cz— GraphSim local complementations + CZ normalization
//   * seen_insert   — GraphSeenSet fingerprint dedup inserts
//   * partition_refine — partition_min_cut (12 restarts) on a paper-size
//                     Waxman graph: the move/swap refinement the beam and
//                     anneal strategies call for every scored candidate
//   * subgraph_level— compile_subgraph_level (paper Sec. IV.B branch-and-
//                     bound + synthesis) for every beam part of the same
//                     Waxman graph at ne_min..ne_min+2, under free-form and
//                     anchors-only; the checksum pins the search's node
//                     counts and circuits
//   * span_off      — obs::Span with no recorder installed: the disabled
//                     tracing hot path, which must stay a pointer test
//   * span_on       — obs::Span against a live TraceRecorder (records +
//                     timestamps): the enabled-path cost ceiling
//
// Every cell carries a deterministic `checksum` of the kernel's output,
// so the JSON doubles as a behavior pin: ci/check_perf.py compares the
// checksum exactly and gates wall latency against bench/baseline_kernels
// .json with host-speed normalization.
//
// usage: bench_kernels [--json FILE] [--reps N] [--quick]
//   --json FILE   write machine-readable results (CI artifact)
//   --reps N      repetitions per cell, best-of (default 3)
//   --quick       smaller instances (CI smoke / gate mode)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "compile/stem.hpp"
#include "compile/subgraph_compiler.hpp"
#include "graph/coarsen.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partition_strategy.hpp"
#include "partition/seen_set.hpp"
#include "runtime/batch_compiler.hpp"
#include "solver/partition_refine.hpp"
#include "stab/graphsim.hpp"

namespace {

using namespace epg;

struct Cell {
  std::string instance;  ///< graph family + size
  std::string kernel;    ///< maps to the JSON "strategy" key
  std::size_t n = 0;
  double wall_ms = 0.0;
  std::uint64_t checksum = 0;  ///< deterministic output pin
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// ---- kernels ---------------------------------------------------------------
// Each kernel returns a checksum over its outputs; the caller times it.

std::uint64_t kernel_matching(const Graph& g, int inner) {
  const CoarseGraph level0 = coarse_from_graph(g, Executor::serial());
  std::uint64_t h = 0;
  for (int i = 0; i < inner; ++i) {
    const CoarsenLevel lvl =
        coarsen_once(level0, 7, static_cast<std::uint64_t>(i + 1));
    h = mix(h, lvl.graph.n);
    h = mix(h, lvl.graph.total_edge_weight());
  }
  return h;
}

std::uint64_t kernel_cut_delta(const Graph& g, int inner) {
  // The multilevel refinement probe: for every vertex, tally its edge
  // weight into each adjacent part and take the best move delta.
  const std::size_t n = g.vertex_count();
  const std::uint32_t k = 16;
  ScratchArena arena;
  arena.csr.build(g);
  std::vector<std::uint32_t> labels(n);
  for (Vertex v = 0; v < n; ++v) labels[v] = v % k;
  std::uint64_t h = 0;
  for (int i = 0; i < inner; ++i) {
    arena.conn.reset(k);
    long best_total = 0;
    for (Vertex v = 0; v < n; ++v) {
      arena.conn.clear();
      arena.csr.for_each_neighbor(
          v, [&](Vertex u) { arena.conn.add(labels[u], 1); });
      const auto internal = static_cast<long>(arena.conn.get(labels[v]));
      long best = 0;
      for (std::uint32_t p : arena.conn.touched()) {
        if (p == labels[v]) continue;
        best = std::max(best,
                        static_cast<long>(arena.conn.get(p)) - internal);
      }
      best_total += best;
    }
    h = mix(h, static_cast<std::uint64_t>(best_total));
    std::rotate(labels.begin(), labels.begin() + 1, labels.end());
  }
  return h;
}

std::uint64_t kernel_emitter_bound(const Graph& g, int inner) {
  const CsrView csr(g);
  std::vector<Vertex> order(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
  Rng rng(11);
  std::uint64_t h = 0;
  for (int i = 0; i < inner; ++i) {
    h = mix(h, emitter_bound_for_order(csr, order));
    rng.shuffle(order);
  }
  return h;
}

std::uint64_t kernel_graphsim_lc_cz(const Graph& g, int inner) {
  const std::size_t n = g.vertex_count();
  std::uint64_t h = 0;
  Rng rng(5);
  for (int i = 0; i < inner; ++i) {
    GraphSim sim = GraphSim::from_graph(g);
    for (std::size_t step = 0; step < n; ++step) {
      sim.local_complement(rng.below(n));
      const std::size_t a = rng.below(n);
      const std::size_t b = rng.below(n);
      if (a != b) sim.cz(a, b);
    }
    h = mix(h, sim.graph().fingerprint());
    h = mix(h, sim.fallback_count());
  }
  return h;
}

std::uint64_t kernel_seen_insert(const Graph& g, int inner) {
  // Insert a stream of near-duplicate mutants: every even iteration
  // re-inserts the base graph (a guaranteed hit), odd ones toggle one
  // edge (mostly misses) — the mix a beam search produces.
  std::uint64_t h = 0;
  Rng rng(3);
  const std::size_t n = g.vertex_count();
  GraphSeenSet seen;
  seen.reserve(static_cast<std::size_t>(inner));
  Graph mutant = g;
  std::size_t fresh = 0;
  for (int i = 0; i < inner; ++i) {
    if (i % 2 == 0) {
      fresh += seen.insert(g) ? 1 : 0;
    } else {
      const Vertex a = static_cast<Vertex>(rng.below(n));
      const Vertex b = static_cast<Vertex>(rng.below(n));
      if (a != b) mutant.toggle_edge(a, b);
      fresh += seen.insert(mutant) ? 1 : 0;
    }
  }
  h = mix(h, fresh);
  h = mix(h, seen.size());
  return h;
}

std::uint64_t kernel_partition_refine(const Graph& g, int inner) {
  std::uint64_t h = 0;
  PartitionConfig cfg;
  cfg.max_part_size = 7;
  cfg.restarts = 12;
  for (int i = 0; i < inner; ++i) {
    cfg.seed = static_cast<std::uint64_t>(i + 1);
    const PartitionLabels labels = partition_min_cut(g, cfg);
    for (std::uint32_t p : labels) h = mix(h, p);
    h = mix(h, cut_edge_count(g, labels));
  }
  return h;
}

/// The beam strategy's parts of `g` (default config).
std::vector<SubgraphSpec> beam_parts(const Graph& g) {
  const PartitionOutcome outcome =
      find_partition_strategy("beam")->run(g, {}, Executor::serial());
  std::vector<SubgraphSpec> parts;
  for (PartPlan& part : plan_stems(outcome).parts)
    parts.push_back(std::move(part.spec));
  return parts;
}

std::uint64_t kernel_subgraph_level(const Graph& g, int inner) {
  // The partition is setup, not kernel: built once per process.
  static const std::vector<SubgraphSpec> parts = beam_parts(g);
  SubgraphCompileConfig cfg;
  std::uint64_t h = parts.size();
  for (int i = 0; i < inner; ++i) {
    for (const SubgraphSpec& spec : parts) {
      const std::uint32_t ne_min = subgraph_ne_min(spec.graph);
      for (const DanglerPolicy policy :
           {DanglerPolicy::free_form, DanglerPolicy::anchors_only}) {
        cfg.dangler = policy;
        for (std::uint32_t ne = ne_min; ne <= ne_min + 2; ++ne) {
          const SubgraphLevelResult r = compile_subgraph_level(spec, cfg, ne);
          h = mix(h, r.success ? 1 : 0);
          h = mix(h, r.nodes_explored);
          h = mix(h, r.sequences_found);
          if (!r.success) continue;
          const CircuitStats& s = r.best.stats;
          h = mix(h, r.best.ne_used);
          h = mix(h, s.ee_cnot_count);
          h = mix(h, s.emission_count);
          h = mix(h, s.local_count);
          h = mix(h, s.measure_count);
          h = mix(h, static_cast<std::uint64_t>(s.makespan_ticks));
        }
      }
    }
  }
  return h;
}

std::uint64_t kernel_span_off(const Graph& g, int inner) {
  // The zero-cost-when-disabled claim, measured: no recorder installed,
  // so every Span constructor/destructor must collapse to a thread-local
  // pointer test. The checksum folds loop state so the spans can't be
  // optimized away wholesale.
  std::uint64_t h = g.vertex_count();
  for (int i = 0; i < inner; ++i) {
    Span span("bench_span", "bench");
    h = mix(h, static_cast<std::uint64_t>(i));
  }
  h = mix(h, current_trace_recorder() == nullptr ? 1 : 0);
  return h;
}

std::uint64_t kernel_span_on(const Graph& g, int inner) {
  // Enabled-path ceiling: every span takes two steady_clock reads and one
  // per-thread buffer append. `inner` stays below the recorder's event
  // cap so no span hits the drop path.
  TraceRecorder recorder;
  ScopedTraceInstall install(&recorder);
  std::uint64_t h = g.vertex_count();
  for (int i = 0; i < inner; ++i) {
    Span span("bench_span", "bench");
    h = mix(h, static_cast<std::uint64_t>(i));
  }
  h = mix(h, recorder.event_count());
  h = mix(h, recorder.dropped());
  return h;
}

// ---- driver ----------------------------------------------------------------

void write_json(std::ostream& os, const std::vector<Cell>& cells) {
  os << "{\n  \"bench\": \"kernel_latency\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << "    {\"instance\": \"" << json_escape(c.instance)
       << "\", \"n\": " << c.n << ", \"strategy\": \""
       << json_escape(c.kernel) << "\", \"inner_threads\": 0"
       << ", \"wall_ms\": " << c.wall_ms << ", \"checksum\": " << c.checksum
       << "}" << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int reps = 3;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_kernels [--json FILE] [--reps N] "
                   "[--quick]\n";
      return 2;
    }
  }

  // Sparse random instances: the scale tier's family, where the bitset
  // vs CSR gap is widest. Inner counts are sized so every cell clears
  // the perf gate's jitter floor even in quick mode.
  const std::size_t n = quick ? 2000 : 20000;
  const Graph sparse = shuffle_labels(make_sparse_random(n, 4.0, n * 17 + 3),
                                      n);
  const std::size_t side = quick ? 20 : 64;
  const Graph lattice = shuffle_labels(make_lattice(side, side), side);
  struct Kernel {
    const char* name;
    std::uint64_t (*run)(const Graph&, int);
    int inner_quick, inner_full;
    const Graph* g;
  };
  const std::size_t sim_n = quick ? 128 : 512;
  const Graph sim_graph =
      shuffle_labels(make_erdos_renyi(sim_n, 6.0 / sim_n, 13), 2);
  // Paper-size instance (Section V.A): the same in both modes.
  const Graph waxman = shuffle_labels(make_waxman(24, 101), 24);
  const std::vector<Kernel> kernels = {
      {"matching", kernel_matching, 80, 10, &sparse},
      {"cut_delta", kernel_cut_delta, 1200, 20, &sparse},
      {"emitter_bound", kernel_emitter_bound, 600, 40, &sparse},
      {"graphsim_lc_cz", kernel_graphsim_lc_cz, 24, 12, &sim_graph},
      {"seen_insert", kernel_seen_insert, 4000, 20000, &lattice},
      {"partition_refine", kernel_partition_refine, 200, 2000, &waxman},
      {"subgraph_level", kernel_subgraph_level, 1, 1, &waxman},
      {"span_off", kernel_span_off, 20000000, 40000000, &lattice},
      {"span_on", kernel_span_on, 100000, 200000, &lattice},
  };

  std::vector<Cell> cells;
  for (const Kernel& k : kernels) {
    Cell cell;
    cell.instance = (k.g == &sparse    ? "sparse_random"
                     : k.g == &lattice ? "lattice"
                     : k.g == &waxman  ? "waxman"
                                       : "erdos_renyi") +
                    std::to_string(k.g->vertex_count());
    cell.kernel = k.name;
    cell.n = k.g->vertex_count();
    cell.wall_ms = 1e300;
    const int inner = quick ? k.inner_quick : k.inner_full;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      const std::uint64_t checksum = k.run(*k.g, inner);
      cell.wall_ms = std::min(cell.wall_ms, watch.elapsed_ms());
      if (rep > 0 && checksum != cell.checksum) {
        std::cerr << "DETERMINISM VIOLATION: kernel " << k.name
                  << " checksum differs across repetitions\n";
        return 1;
      }
      cell.checksum = checksum;
    }
    cells.push_back(std::move(cell));
  }

  Table table({"instance", "kernel", "n", "wall(ms)", "checksum"});
  for (const Cell& c : cells)
    table.add_row({c.instance, c.kernel, Table::num(c.n),
                   Table::num(c.wall_ms, 2), Table::num(c.checksum)});
  std::cout << "== Kernel latency (best of " << reps << ") ==\n";
  table.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    write_json(out, cells);
    std::cout << "json written to " << json_path << '\n';
  }
  return 0;
}

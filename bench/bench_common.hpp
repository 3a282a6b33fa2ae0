// Shared scaffolding for the paper-reproduction benchmarks.
//
// Instances follow Section V.A: 2D lattices (MBQC), random trees with router
// degree caps (QRAM / tree codes), and Waxman random graphs (distributed QC
// topologies), with vertex labels randomly permuted — a compiler must not
// receive a secretly optimal emission order from the generator. Both
// compilers share the quantum-dot hardware model and the same emitter
// budget Ne_limit = factor * Ne_min.
#pragma once

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "compile/baseline_compiler.hpp"
#include "compile/framework.hpp"
#include "graph/generators.hpp"
#include "metrics/report.hpp"
#include "runtime/batch_compiler.hpp"

namespace epg::bench {

inline Graph lattice_instance(std::size_t n, std::uint64_t seed) {
  // Factor n into the most square rows x cols lattice.
  std::size_t rows = 1;
  for (std::size_t r = 2; r * r <= n; ++r)
    if (n % r == 0) rows = r;
  return shuffle_labels(make_lattice(rows, n / rows), seed);
}

inline Graph tree_instance(std::size_t n, std::uint64_t seed) {
  return shuffle_labels(make_random_tree(n, seed * 13 + 1, 3), seed);
}

inline Graph waxman_instance(std::size_t n, std::uint64_t seed) {
  return shuffle_labels(make_waxman(n, seed * 17 + 3), seed);
}

inline FrameworkConfig framework_config(double ne_factor, std::uint64_t seed) {
  FrameworkConfig cfg;
  cfg.partition.g_max = 7;        // paper: g_max = 7
  cfg.partition.max_lc_ops = 15;  // paper: l = 15
  cfg.subgraph.node_budget = 20000;
  cfg.ne_limit_factor = ne_factor;
  cfg.verify_seeds = 1;  // every instance is still checked end-to-end
  cfg.seed = seed;
  return cfg;
}

inline BaselineConfig baseline_config(std::uint64_t seed) {
  BaselineConfig cfg;
  cfg.order_restarts = 3;  // GraphiQ-style budgeted exploration
  cfg.seed = seed;
  return cfg;
}

/// GraphiQ-faithful baseline: the paper's comparator runs GraphiQ's
/// AlternateTargetSolver under a 30-minute timeout, which at these sizes
/// cannot explore alternative targets/orders and effectively compiles the
/// default (shuffled) emission order once. Our `baseline_config` above adds
/// budgeted random-order restarts — a *stronger* baseline than the paper
/// ever faced; the figures report both.
inline BaselineConfig faithful_baseline_config(std::uint64_t seed) {
  BaselineConfig cfg;
  cfg.order_restarts = 0;
  cfg.seed = seed;
  return cfg;
}

struct ThreeWayRow {
  CircuitStats ours;
  CircuitStats faithful;  ///< GraphiQ-faithful baseline
  CircuitStats strong;    ///< restart-enhanced baseline
  std::size_t stem_count = 0;
};

/// Batch runtime shared by the figure benches: all cores, metrics only by
/// default. Every figure is a pure function of (instance, seed): the
/// anytime searches stop on work budgets, not on machine load.
inline BatchCompiler make_bench_batch(bool keep_results = false) {
  BatchConfig cfg;
  cfg.keep_results = keep_results;
  return BatchCompiler(cfg);
}

inline const JobResult& checked(const JobResult& r) {
  if (!r.ok)
    throw std::runtime_error("job '" + r.label + "' failed: " + r.error);
  return r;
}

struct ThreeWayInstance {
  std::string label;
  Graph g;
  double ne_factor = 1.5;
  std::uint64_t seed = 1;
};

/// Framework vs both baseline strengths under a shared emitter budget,
/// fanned across the batch runtime: one framework phase for every
/// instance, then both baseline strengths under the emitter budgets the
/// first phase produced.
inline std::vector<ThreeWayRow> compare_three_way_batch(
    const std::vector<ThreeWayInstance>& instances, BatchCompiler& batch) {
  std::vector<CompileJob> fw_jobs;
  fw_jobs.reserve(instances.size());
  for (const ThreeWayInstance& inst : instances)
    fw_jobs.push_back(make_framework_job(
        inst.label, inst.g, framework_config(inst.ne_factor, inst.seed)));
  const std::vector<JobResult> ours = batch.run(fw_jobs);

  std::vector<CompileJob> base_jobs;
  base_jobs.reserve(2 * instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    base_jobs.push_back(make_baseline_job(
        instances[i].label + "/faithful", instances[i].g,
        faithful_baseline_config(instances[i].seed),
        checked(ours[i]).ne_limit));
    base_jobs.push_back(make_baseline_job(
        instances[i].label + "/strong", instances[i].g,
        baseline_config(instances[i].seed), ours[i].ne_limit));
  }
  const std::vector<JobResult> base = batch.run(base_jobs);

  std::vector<ThreeWayRow> rows(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    rows[i].ours = ours[i].stats;
    rows[i].stem_count = ours[i].stem_count;
    rows[i].faithful = checked(base[2 * i]).stats;
    rows[i].strong = checked(base[2 * i + 1]).stats;
  }
  return rows;
}

inline void emit(const Table& table, const std::string& title) {
  std::cout << "== " << title << " ==\n";
  table.print(std::cout);
  std::cout << "\n-- csv --\n";
  table.print_csv(std::cout);
  std::cout << std::endl;
}

/// Shared driver of the Fig. 10d/e/f duration figures: for every size, the
/// instance is compiled under both emitter budgets Ne_limit in
/// {1.5, 2} x Ne_min against the GraphiQ-faithful baseline, with the whole
/// sweep fanned across the batch runtime.
inline void run_duration_figure(const std::string& label,
                                Graph (*make)(std::size_t, std::uint64_t),
                                const std::vector<std::size_t>& sizes,
                                const std::string& title) {
  std::vector<ComparisonRequest> requests;
  requests.reserve(2 * sizes.size());
  for (std::size_t n : sizes) {
    const Graph g = make(n, n);
    requests.push_back(
        {label, g, framework_config(1.5, n), faithful_baseline_config(n)});
    requests.push_back({label, g, framework_config(2.0, n + 1),
                        faithful_baseline_config(n + 1)});
  }
  BatchCompiler batch = make_bench_batch();
  const std::vector<ComparisonRow> rows2 =
      compare_compilers_batch(requests, batch);

  Table table({"#qubit", "GraphiQ(1.5Ne)", "Ours(1.5Ne)", "Red1.5(%)",
               "GraphiQ(2Ne)", "Ours(2Ne)", "Red2(%)"});
  double red15 = 0.0, red20 = 0.0;
  int rows = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const ComparisonRow& a = rows2[2 * i];
    const ComparisonRow& b = rows2[2 * i + 1];
    table.add_row({Table::num(sizes[i]),
                   Table::num(a.baseline.duration_tau, 2),
                   Table::num(a.ours.duration_tau, 2),
                   Table::num(a.duration_reduction_pct(), 1),
                   Table::num(b.baseline.duration_tau, 2),
                   Table::num(b.ours.duration_tau, 2),
                   Table::num(b.duration_reduction_pct(), 1)});
    red15 += a.duration_reduction_pct();
    red20 += b.duration_reduction_pct();
    ++rows;
  }
  emit(table, title);
  std::cout << "average reduction: 1.5Ne " << Table::num(red15 / rows, 1)
            << "%, 2Ne " << Table::num(red20 / rows, 1) << "%\n";
  std::cout << "batch: " << summary_line(batch.totals()) << '\n';
}

}  // namespace epg::bench

// Benchmark reporting helpers: run ours vs the baseline across the batch
// runtime and collect the quantities the paper's figures plot
// (compare_compilers_batch, batch_metrics_table, batch_csv/batch_json).
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "compile/baseline_compiler.hpp"
#include "compile/framework.hpp"
#include "runtime/batch_compiler.hpp"

namespace epg {

struct ComparisonRow {
  std::string label;
  std::size_t num_qubits = 0;
  std::size_t num_edges = 0;
  CircuitStats baseline;
  CircuitStats ours;
  std::size_t ne_min = 0;
  std::uint32_t ne_limit = 0;
  std::size_t stem_count = 0;

  double duration_reduction_pct() const;
  /// Fig. 11a's figure of merit: baseline state loss / ours (higher = more
  /// suppression).
  double loss_improvement_factor() const;
};

double reduction_pct(double baseline, double ours);

/// One ours-vs-baseline comparison to be fanned across the batch runtime.
struct ComparisonRequest {
  std::string label;
  Graph graph;
  FrameworkConfig framework;
  BaselineConfig baseline;
};

/// Ours vs the baseline under a shared emitter budget: phase 1 compiles
/// every framework job in parallel, phase 2 compiles every baseline under
/// the Ne_limit = ceil(factor * Ne_min) budget phase 1 produced (unless
/// the request pins num_emitters).
std::vector<ComparisonRow> compare_compilers_batch(
    const std::vector<ComparisonRequest>& requests, BatchCompiler& batch);

/// Per-job metrics table (one row per JobResult, batch order).
Table batch_metrics_table(const std::vector<JobResult>& results);

struct StoreStats;  // store/result_store.hpp

/// Machine-readable renderings of a batch run; `batch_json` also embeds
/// the aggregate summary (with a per-tier hit breakdown) and, when a
/// persistent store was attached, its counters under "store".
std::string batch_csv(const std::vector<JobResult>& results);
std::string batch_json(const std::vector<JobResult>& results,
                       const BatchSummary& summary,
                       const StoreStats* store = nullptr);

/// One JobResult as the comma-separated body of a JSON object (no
/// surrounding braces). Shared by batch_json and the epgc_serve protocol
/// so the two renderings can never drift. `include_wall` = false omits
/// the wall_ms field (deterministic service responses must be bit-stable
/// across runs).
void job_result_json_fields(std::ostream& os, const JobResult& r,
                            bool include_wall = true);

/// One-line human summary ("N jobs, M compiled, ...").
std::string summary_line(const BatchSummary& summary);

}  // namespace epg

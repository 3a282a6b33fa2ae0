#include "metrics/report.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "graph/metrics.hpp"
#include "store/result_store.hpp"

namespace epg {

double reduction_pct(double baseline, double ours) {
  if (baseline <= 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

double ComparisonRow::duration_reduction_pct() const {
  return reduction_pct(baseline.duration_tau, ours.duration_tau);
}

double ComparisonRow::loss_improvement_factor() const {
  if (ours.loss.state_loss <= 0.0) return 1.0;
  return baseline.loss.state_loss / ours.loss.state_loss;
}

std::vector<ComparisonRow> compare_compilers_batch(
    const std::vector<ComparisonRequest>& requests, BatchCompiler& batch) {
  std::vector<CompileJob> fw_jobs;
  fw_jobs.reserve(requests.size());
  for (const ComparisonRequest& req : requests)
    fw_jobs.push_back(
        make_framework_job(req.label, req.graph, req.framework));
  const std::vector<JobResult> ours = batch.run(fw_jobs);

  std::vector<CompileJob> base_jobs;
  base_jobs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Throw before phase 2: a failed framework job has no emitter budget
    // to hand the baseline, and compiling one anyway wastes a full job.
    if (!ours[i].ok)
      throw std::runtime_error("framework job '" + ours[i].label +
                               "' failed: " + ours[i].error);
    base_jobs.push_back(make_baseline_job(requests[i].label,
                                          requests[i].graph,
                                          requests[i].baseline,
                                          ours[i].ne_limit));
  }
  const std::vector<JobResult> base = batch.run(base_jobs);

  std::vector<ComparisonRow> rows;
  rows.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!base[i].ok)
      throw std::runtime_error("baseline job '" + base[i].label +
                               "' failed: " + base[i].error);
    ComparisonRow row;
    row.label = requests[i].label;
    row.num_qubits = requests[i].graph.vertex_count();
    row.num_edges = requests[i].graph.edge_count();
    row.ours = ours[i].stats;
    row.ne_min = ours[i].ne_min;
    row.ne_limit = ours[i].ne_limit;
    row.stem_count = ours[i].stem_count;
    row.baseline = base[i].stats;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

const char* kind_name(CompilerKind kind) {
  return kind == CompilerKind::framework ? "framework" : "baseline";
}

std::vector<std::string> result_cells(const JobResult& r) {
  return {r.label,
          kind_name(r.kind),
          Table::num(r.num_qubits),
          Table::num(r.num_edges),
          Table::num(r.stats.ee_cnot_count),
          Table::num(r.stats.emission_count),
          Table::num(r.stats.duration_tau, 2),
          Table::num(r.stats.t_loss_tau, 2),
          Table::num(r.stats.emitters_used),
          Table::num(static_cast<std::size_t>(r.ne_limit)),
          Table::num(r.stats.loss.state_survival, 4),
          r.ok ? (r.verified ? "yes" : "skipped") : "FAILED",
          r.cache_hit() ? tier_name(r.tier) : "miss",
          Table::num(r.wall_ms, 1)};
}

}  // namespace

Table batch_metrics_table(const std::vector<JobResult>& results) {
  Table table({"label", "kind", "#qubit", "#edge", "ee-CNOT", "emissions",
               "duration", "T_loss", "emitters", "cap", "survival",
               "verified", "cache", "ms"});
  for (const JobResult& r : results) table.add_row(result_cells(r));
  return table;
}

std::string batch_csv(const std::vector<JobResult>& results) {
  std::ostringstream os;
  batch_metrics_table(results).print_csv(os);
  return os.str();
}

namespace {

void json_field(std::ostream& os, const char* key, const std::string& value,
                bool quote, bool last = false) {
  os << '"' << key << "\":";
  if (quote)
    os << '"' << json_escape(value) << '"';
  else
    os << value;
  if (!last) os << ',';
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string batch_json(const std::vector<JobResult>& results,
                       const BatchSummary& summary,
                       const StoreStats* store) {
  std::ostringstream os;
  os << "{\"summary\":{";
  json_field(os, "jobs", std::to_string(summary.jobs), false);
  json_field(os, "compiled", std::to_string(summary.compiled), false);
  json_field(os, "cache_hits", std::to_string(summary.cache_hits), false);
  json_field(os, "memory_hits", std::to_string(summary.memory_hits),
             false);
  json_field(os, "store_hits", std::to_string(summary.store_hits), false);
  json_field(os, "dedup_hits", std::to_string(summary.dedup_hits), false);
  json_field(os, "failures", std::to_string(summary.failures), false);
  json_field(os, "wall_ms", fmt(summary.wall_ms), false);
  json_field(os, "compile_ms", fmt(summary.compile_ms), false);
  json_field(os, "speedup", fmt(summary.speedup()), false, true);
  os << '}';
  if (store != nullptr) {
    os << ",\"store\":{";
    json_field(os, "hits", std::to_string(store->hits), false);
    json_field(os, "misses", std::to_string(store->misses), false);
    json_field(os, "puts", std::to_string(store->puts), false);
    json_field(os, "evictions", std::to_string(store->evictions), false);
    json_field(os, "corrupt_skipped",
               std::to_string(store->corrupt_skipped), false);
    json_field(os, "bytes", std::to_string(store->bytes), false);
    json_field(os, "entries", std::to_string(store->entries), false, true);
    os << '}';
  }
  os << ",\"jobs\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i) os << ',';
    os << '{';
    job_result_json_fields(os, results[i]);
    os << '}';
  }
  os << "]}";
  return os.str();
}

void job_result_json_fields(std::ostream& os, const JobResult& r,
                            bool include_wall) {
  json_field(os, "index", std::to_string(r.index), false);
  json_field(os, "label", r.label, true);
  json_field(os, "kind", kind_name(r.kind), true);
  json_field(os, "ok", r.ok ? "true" : "false", false);
  if (!r.ok) json_field(os, "error", r.error, true);
  json_field(os, "cache_hit", r.cache_hit() ? "true" : "false", false);
  json_field(os, "tier", tier_name(r.tier), true);
  if (include_wall) json_field(os, "wall_ms", fmt(r.wall_ms), false);
  json_field(os, "num_qubits", std::to_string(r.num_qubits), false);
  json_field(os, "num_edges", std::to_string(r.num_edges), false);
  json_field(os, "graph_hash", std::to_string(r.graph_hash), true);
  json_field(os, "canonical_hash", std::to_string(r.canonical_hash), true);
  json_field(os, "ee_cnot_count", std::to_string(r.stats.ee_cnot_count),
             false);
  json_field(os, "emission_count", std::to_string(r.stats.emission_count),
             false);
  json_field(os, "local_count", std::to_string(r.stats.local_count),
             false);
  json_field(os, "measure_count", std::to_string(r.stats.measure_count),
             false);
  json_field(os, "emitters_used", std::to_string(r.stats.emitters_used),
             false);
  json_field(os, "ne_min", std::to_string(r.ne_min), false);
  json_field(os, "ne_limit", std::to_string(r.ne_limit), false);
  json_field(os, "stem_count", std::to_string(r.stem_count), false);
  json_field(os, "makespan_ticks", std::to_string(r.stats.makespan_ticks),
             false);
  json_field(os, "duration_tau", fmt(r.stats.duration_tau), false);
  json_field(os, "t_loss_tau", fmt(r.stats.t_loss_tau), false);
  json_field(os, "state_survival", fmt(r.stats.loss.state_survival),
             false);
  json_field(os, "ee_fidelity_estimate", fmt(r.stats.ee_fidelity_estimate),
             false);
  json_field(os, "verified", r.verified ? "true" : "false", false, true);
}

std::string summary_line(const BatchSummary& s) {
  std::ostringstream os;
  os << s.jobs << " jobs: " << s.compiled << " compiled, " << s.cache_hits
     << " cache hits (" << s.memory_hits << " mem / " << s.store_hits
     << " store / " << s.dedup_hits << " dup), " << s.failures
     << " failures; " << Table::num(s.wall_ms, 1) << " ms wall / "
     << Table::num(s.compile_ms, 1) << " ms compile ("
     << Table::num(s.speedup(), 2) << "x)";
  return os.str();
}

}  // namespace epg

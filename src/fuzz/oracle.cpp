#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "compile/verify.hpp"
#include "graph/metrics.hpp"
#include "partition/partition_strategy.hpp"
#include "stab/graphsim.hpp"

namespace epg::fuzz {
namespace {

void add(OracleReport& report, std::string check, std::string compiler,
         std::string message) {
  report.violations.push_back(
      {std::move(check), std::move(compiler), std::move(message)});
}

/// Gate-kind recount: these four fields are pure functions of the gate
/// list, whatever scheduler produced it.
struct GateCounts {
  std::size_t ee_cnot = 0, emission = 0, local = 0, measure = 0;
};

GateCounts count_gates(const Circuit& c) {
  GateCounts counts;
  for (const Gate& g : c.gates()) {
    switch (g.kind) {
      case GateKind::ee_cz:
      case GateKind::ee_cnot: ++counts.ee_cnot; break;
      case GateKind::emission: ++counts.emission; break;
      case GateKind::local: ++counts.local; break;
      case GateKind::measure_reset: ++counts.measure; break;
    }
  }
  return counts;
}

void check_gate_counts(OracleReport& report, const std::string& compiler,
                       const CircuitStats& reported, const Circuit& circuit,
                       const HardwareModel& hw) {
  const GateCounts counts = count_gates(circuit);
  std::ostringstream os;
  if (reported.ee_cnot_count != counts.ee_cnot)
    os << "ee_cnot_count " << reported.ee_cnot_count << " != recount "
       << counts.ee_cnot << "; ";
  if (reported.emission_count != counts.emission)
    os << "emission_count " << reported.emission_count << " != recount "
       << counts.emission << "; ";
  if (reported.local_count != counts.local)
    os << "local_count " << reported.local_count << " != recount "
       << counts.local << "; ";
  if (reported.measure_count != counts.measure)
    os << "measure_count " << reported.measure_count << " != recount "
       << counts.measure << "; ";
  const double fid = std::pow(hw.ee_cnot_fidelity,
                              static_cast<double>(counts.ee_cnot));
  if (std::abs(reported.ee_fidelity_estimate - fid) > 1e-12)
    os << "ee_fidelity_estimate " << reported.ee_fidelity_estimate
       << " != fidelity^ee_cnot " << fid << "; ";
  const std::string msg = os.str();
  if (!msg.empty()) add(report, "stats", compiler, msg);
}

void check_schedule_times(OracleReport& report, const std::string& compiler,
                          const FrameworkResult& r, const HardwareModel& hw) {
  const GlobalSchedule& sched = r.schedule;
  Tick max_end = 0;
  for (Tick t : sched.gate_end) max_end = std::max(max_end, t);
  std::ostringstream os;
  if (sched.makespan != max_end)
    os << "schedule makespan " << sched.makespan
       << " != max gate end " << max_end << "; ";
  if (sched.stats.makespan_ticks != sched.makespan)
    os << "stats makespan " << sched.stats.makespan_ticks
       << " != schedule makespan " << sched.makespan << "; ";
  const double tau = hw.ticks_to_tau(sched.makespan);
  if (std::abs(sched.stats.duration_tau - tau) > 1e-9)
    os << "duration_tau " << sched.stats.duration_tau << " != "
       << tau << "; ";
  if (sched.gate_end.size() != sched.circuit.gates().size() ||
      sched.gate_start.size() != sched.circuit.gates().size())
    os << "gate time arrays do not cover the circuit; ";
  const std::string msg = os.str();
  if (!msg.empty()) add(report, "stats", compiler, msg);
}

void check_framework(OracleReport& report, const Graph& g,
                     const OracleConfig& cfg, const OracleSubject& s,
                     std::size_t independent_ne_min) {
  const FrameworkResult& r = *s.fw;
  const std::string& who = s.compiler;

  if (cfg.base.verify_seeds > 0 && !r.verified)
    add(report, "verify", who, "framework reported verified = false");

  // Independent stabilizer replay with seeds the compiler never saw.
  if (cfg.verify_seeds > 0) {
    const VerifyReport v = verify_generates(r.schedule.circuit, g,
                                            cfg.verify_seeds,
                                            cfg.verify_seed0);
    if (!v.ok) add(report, "stabilizer", who, v.message);
  }

  // LC claims: the sequence must fit the budget and must actually map the
  // target onto the transformed graph (replayed on the second simulator).
  if (r.partition.lc_sequence.size() > cfg.base.partition.max_lc_ops)
    add(report, "lc_budget", who,
        "lc_sequence length " +
            std::to_string(r.partition.lc_sequence.size()) +
            " exceeds max_lc_ops " +
            std::to_string(cfg.base.partition.max_lc_ops));
  GraphSim sim = GraphSim::from_graph(g);
  bool lc_valid = true;
  for (Vertex v : r.partition.lc_sequence) {
    if (v >= g.vertex_count() || sim.graph().degree(v) == 0) {
      add(report, "lc_replay", who,
          "lc move at invalid/isolated vertex " + std::to_string(v));
      lc_valid = false;
      break;
    }
    sim.local_complement(v);
  }
  if (lc_valid && !(sim.graph() == r.partition.transformed))
    add(report, "lc_replay", who,
        "GraphSim replay of the LC sequence does not reproduce the "
        "transformed graph");

  // Partition shape.
  const PartitionOutcome& part = r.partition;
  if (part.labels.size() != g.vertex_count())
    add(report, "partition", who, "label array does not cover the graph");
  std::size_t covered = 0;
  for (const auto& p : part.parts) {
    covered += p.size();
    if (p.empty()) add(report, "partition", who, "empty part");
    if (p.size() > cfg.base.partition.g_max)
      add(report, "partition", who,
          "part of size " + std::to_string(p.size()) + " exceeds g_max " +
              std::to_string(cfg.base.partition.g_max));
  }
  if (covered != g.vertex_count())
    add(report, "partition", who, "parts cover " + std::to_string(covered) +
                                      " of " +
                                      std::to_string(g.vertex_count()) +
                                      " vertices");

  // Emitter accounting. The scheduler may legitimately keep a lowest-peak
  // plan above Ne_limit (it then reports limit_respected = false), so the
  // invariants are consistency ones: the flag, the stats, and the circuit
  // width must all describe the same peak.
  if (r.schedule.limit_respected !=
      (r.schedule.peak_usage <= r.ne_limit))
    add(report, "emitter_cap", who,
        "limit_respected flag disagrees with peak " +
            std::to_string(r.schedule.peak_usage) + " vs cap " +
            std::to_string(r.ne_limit));
  if (r.stats().emitters_used != r.schedule.peak_usage)
    add(report, "emitter_cap", who,
        "stats emitters_used " + std::to_string(r.stats().emitters_used) +
            " != schedule peak " + std::to_string(r.schedule.peak_usage));
  if (r.schedule.peak_usage != r.schedule.circuit.num_emitters())
    add(report, "emitter_cap", who,
        "schedule peak " + std::to_string(r.schedule.peak_usage) +
            " != circuit emitter register width " +
            std::to_string(r.schedule.circuit.num_emitters()));

  // Ne_min / Ne_limit are pure functions of (graph, config); recompute.
  if (r.ne_min != independent_ne_min)
    add(report, "ne_min", who,
        "reported Ne_min " + std::to_string(r.ne_min) +
            " != height-function recomputation " +
            std::to_string(independent_ne_min));
  const std::uint32_t expect_limit =
      cfg.base.ne_limit_override > 0
          ? cfg.base.ne_limit_override
          : static_cast<std::uint32_t>(std::max<double>(
                1.0, std::ceil(cfg.base.ne_limit_factor *
                               static_cast<double>(r.ne_min))));
  if (r.ne_limit != expect_limit)
    add(report, "ne_limit", who,
        "reported Ne_limit " + std::to_string(r.ne_limit) +
            " does not follow from Ne_min and the config (expected " +
            std::to_string(expect_limit) + ")");

  // Metric recount (with the test-only fault hook applied to the reported
  // side, so a planted reporting bug is visible to the comparison).
  CircuitStats reported = r.stats();
  if (cfg.stats_fault) cfg.stats_fault(g, reported);
  check_gate_counts(report, who, reported, r.schedule.circuit, cfg.base.hw);
  check_schedule_times(report, who, r, cfg.base.hw);
}

void check_baseline(OracleReport& report, const Graph& g,
                    const OracleConfig& cfg, const OracleSubject& s) {
  const BaselineResult& r = *s.bl;
  const std::string& who = s.compiler;
  if (!r.success) {
    add(report, "crash", who, "baseline reported failure");
    return;
  }
  if (cfg.verify_seeds > 0) {
    const VerifyReport v = verify_generates(r.circuit, g, cfg.verify_seeds,
                                            cfg.verify_seed0);
    if (!v.ok) add(report, "stabilizer", who, v.message);
  }
  // The protocol's height bound is sufficient, but the baseline's greedy
  // row choices may pin up to two extra emitters (it retries with slack).
  const std::size_t cap =
      std::max<std::size_t>(cfg.baseline.num_emitters, r.ne_min + 2);
  if (r.stats.emitters_used > cap)
    add(report, "emitter_cap", who,
        "baseline uses " + std::to_string(r.stats.emitters_used) +
            " emitters over its height-function bound + slack " +
            std::to_string(cap));
  CircuitStats reported = r.stats;
  if (cfg.stats_fault) cfg.stats_fault(g, reported);
  check_gate_counts(report, who, reported, r.circuit, cfg.baseline.hw);
}

}  // namespace

std::string OracleReport::signature() const {
  std::set<std::string> keys;
  for (const OracleViolation& v : violations)
    keys.insert(v.check + ":" + v.compiler);
  std::string out;
  for (const std::string& k : keys) out += (out.empty() ? "" : ",") + k;
  return out;
}

OracleConfig default_oracle_config() {
  OracleConfig cfg;
  cfg.base.partition.g_max = 6;
  cfg.base.partition.max_lc_ops = 6;
  cfg.base.partition.beam_width = 4;
  cfg.base.partition.anneal_iterations = 400;
  cfg.base.partition.portfolio_width = 3;
  // Production multilevel delegates to the flat search below 192
  // vertices, which fuzz-sized mutants never exceed; lowering the floor
  // (and keeping the race, which guarantees the flat comparison still
  // runs) makes every mutant above 24 vertices exercise the coarsening,
  // refinement and LC-move machinery under the oracle.
  cfg.base.partition.coarsen_floor = 24;
  cfg.base.partition.multilevel_race_limit = 192;
  cfg.base.verify_seeds = 1;
  cfg.verify_seeds = 1;
  cfg.include_baseline = true;
  return cfg;
}

std::vector<std::string> oracle_strategies(const OracleConfig& cfg) {
  return cfg.strategies.empty() ? partition_strategy_names()
                                : cfg.strategies;
}

std::vector<CompileJob> oracle_jobs(const Graph& g, const OracleConfig& cfg,
                                    const std::string& label_prefix) {
  std::vector<CompileJob> jobs;
  for (const std::string& strategy : oracle_strategies(cfg)) {
    FrameworkConfig fw = cfg.base;
    fw.partition.strategy = strategy;
    jobs.push_back(
        make_framework_job(label_prefix + "/" + strategy, g, std::move(fw)));
  }
  if (cfg.include_baseline)
    jobs.push_back(
        make_baseline_job(label_prefix + "/baseline", g, cfg.baseline));
  return jobs;
}

OracleReport evaluate_oracle(const Graph& g, const OracleConfig& cfg,
                             const std::vector<JobResult>& results) {
  const std::vector<std::string> strategies = oracle_strategies(cfg);
  const std::size_t expected =
      strategies.size() + (cfg.include_baseline ? 1 : 0);
  EPG_REQUIRE(results.size() == expected,
              "evaluate_oracle needs one JobResult per oracle job");
  std::vector<OracleSubject> subjects;
  subjects.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    OracleSubject s;
    s.compiler = i < strategies.size() ? strategies[i] : "baseline";
    s.ok = results[i].ok;
    s.error = results[i].error;
    s.fw = results[i].framework_result;
    s.bl = results[i].baseline_result;
    if (s.ok && !s.fw && !s.bl) {
      s.ok = false;
      s.error = "job result carries no compiler output (keep_results off?)";
    }
    subjects.push_back(std::move(s));
  }
  return evaluate_subjects(g, cfg, subjects);
}

OracleReport evaluate_subjects(const Graph& g, const OracleConfig& cfg,
                               const std::vector<OracleSubject>& subjects) {
  OracleReport report;
  // One independent Ne_min recomputation, shared by the per-leg checks
  // (the pipeline evaluates the height function on the natural order).
  std::vector<Vertex> order(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
  const std::size_t independent_ne_min =
      std::max<std::size_t>(min_emitters_for_order(g, order), 1);

  std::vector<const OracleSubject*> frameworks;
  for (const OracleSubject& s : subjects) {
    ++report.compiles;
    if (!s.ok) {
      add(report, "crash", s.compiler, s.error);
      continue;
    }
    if (s.fw) {
      check_framework(report, g, cfg, s, independent_ne_min);
      frameworks.push_back(&s);
    } else if (s.bl) {
      check_baseline(report, g, cfg, s);
    }
  }

  // Cross-strategy consistency: Ne_min/Ne_limit are graph+config facts.
  for (std::size_t i = 1; i < frameworks.size(); ++i) {
    const FrameworkResult& a = *frameworks[0]->fw;
    const FrameworkResult& b = *frameworks[i]->fw;
    if (a.ne_min != b.ne_min || a.ne_limit != b.ne_limit)
      add(report, "ne_consistency", frameworks[i]->compiler,
          "Ne_min/Ne_limit (" + std::to_string(b.ne_min) + "/" +
              std::to_string(b.ne_limit) + ") disagree with " +
              frameworks[0]->compiler + " (" + std::to_string(a.ne_min) +
              "/" + std::to_string(a.ne_limit) + ")");
  }
  return report;
}

OracleReport run_oracle(const Graph& g, const OracleConfig& cfg) {
  std::vector<OracleSubject> subjects;
  for (const std::string& strategy : oracle_strategies(cfg)) {
    OracleSubject s;
    s.compiler = strategy;
    try {
      FrameworkConfig fw = cfg.base;
      fw.partition.strategy = strategy;
      s.fw = std::make_shared<FrameworkResult>(compile_framework(g, fw));
      s.ok = true;
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    subjects.push_back(std::move(s));
  }
  if (cfg.include_baseline) {
    OracleSubject s;
    s.compiler = "baseline";
    try {
      s.bl = std::make_shared<BaselineResult>(
          compile_baseline(g, cfg.baseline));
      s.ok = true;
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    subjects.push_back(std::move(s));
  }
  return evaluate_subjects(g, cfg, subjects);
}

}  // namespace epg::fuzz

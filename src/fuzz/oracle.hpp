// Differential oracle — the judgment half of the fuzzer.
//
// A candidate graph is compiled through every registered PartitionStrategy
// (one framework compile each) plus the Li/GraphiQ-class baseline, and the
// results are cross-checked against each other and against independent
// recomputations:
//
//   crash         — a compiler threw, or the baseline reported failure;
//   verify        — the framework's own end-to-end verification came back
//                   negative (it normally throws, so this doubles as a
//                   belt check on the `verified` flag);
//   stabilizer    — an *independent* verify_generates replay (fresh seeds)
//                   rejects the circuit: the output state is not |G>;
//   lc_replay     — replaying the reported LC sequence on the GraphSim
//                   (Anders-Briegel) simulator does not reproduce the
//                   transformed graph the partition claims;
//   lc_budget     — the LC sequence exceeds cfg.partition.max_lc_ops;
//   partition     — malformed partition (label/part mismatch, empty part,
//                   part larger than g_max);
//   emitter_cap   — the schedule uses more emitters than Ne_limit admits;
//   ne_min        — reported Ne_min disagrees with an independent
//                   height-function recomputation on the target;
//   ne_limit      — Ne_limit does not follow from Ne_min and the config;
//   ne_consistency— strategies disagree on Ne_min/Ne_limit (both are pure
//                   functions of the graph + config);
//   stats         — reported metrics disagree with a recount of the gate
//                   list / the explicit schedule times / the derived-field
//                   relations (duration, fidelity estimate).
//
// `stats_fault` is a test-only fault-injection hook: it perturbs the
// *reported* stats before the recount comparison, simulating a metric bug
// in a compiler's reporting path. The planted-bug smoke test uses it to
// prove the oracle + shrinker actually catch and minimize such bugs.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compile/baseline_compiler.hpp"
#include "compile/framework.hpp"
#include "runtime/batch_compiler.hpp"

namespace epg::fuzz {

struct OracleConfig {
  /// Framework configuration shared by every strategy leg (budgets, g_max,
  /// verify_seeds, hardware). partition.strategy is overridden per leg.
  FrameworkConfig base;
  /// Strategies to race; empty = every registered PartitionStrategy.
  std::vector<std::string> strategies;
  bool include_baseline = true;
  BaselineConfig baseline;
  /// Seeds for the independent stabilizer replay (0 skips the check; the
  /// framework's internal verification still runs via base.verify_seeds).
  int verify_seeds = 1;
  std::uint64_t verify_seed0 = 0xFA57C0DE;
  /// Test-only fault injection: perturb the reported stats before the
  /// recount comparison (see header comment).
  std::function<void(const Graph&, CircuitStats&)> stats_fault;
};

struct OracleViolation {
  std::string check;     ///< category slug (see header comment)
  std::string compiler;  ///< "baseline" or the strategy name
  std::string message;
};

struct OracleReport {
  std::vector<OracleViolation> violations;
  std::size_t compiles = 0;  ///< compiler legs that ran
  bool ok() const { return violations.empty(); }
  /// Sorted, deduplicated "check:compiler" keys — the violation signature
  /// the shrinker preserves while minimizing.
  std::string signature() const;
};

/// One compiled leg handed to the evaluator.
struct OracleSubject {
  std::string compiler;  ///< "baseline" or the strategy name
  bool ok = false;
  std::string error;     ///< exception text when !ok
  std::shared_ptr<const FrameworkResult> fw;
  std::shared_ptr<const BaselineResult> bl;
};

/// The production fuzzing configuration — the single source of truth
/// shared by the epgc_fuzz CLI defaults and the golden-corpus replay
/// suite, so a persisted violation always reproduces under the config it
/// was found with: small structural budgets (g_max 6, LC depth 6, beam 4,
/// anneal 400, portfolio 3, multilevel coarsen floor 24 so fuzz-sized
/// mutants exercise the coarsening path), one internal + one independent
/// verification seed, baseline included.
OracleConfig default_oracle_config();

/// Strategy list after defaulting (cfg.strategies or the registry).
std::vector<std::string> oracle_strategies(const OracleConfig& cfg);

/// The BatchCompiler jobs for one candidate, one per leg, in
/// oracle_strategies order with the baseline (when enabled) last. Labels
/// are "<label_prefix>/<compiler>". Jobs require keep_results.
std::vector<CompileJob> oracle_jobs(const Graph& g, const OracleConfig& cfg,
                                    const std::string& label_prefix);

/// Cross-check the legs of one candidate. `results` must be the JobResults
/// of oracle_jobs(g, cfg, …) in order, compiled with keep_results = true.
OracleReport evaluate_oracle(const Graph& g, const OracleConfig& cfg,
                             const std::vector<JobResult>& results);

/// Lower-level entry for callers that compiled the legs themselves.
OracleReport evaluate_subjects(const Graph& g, const OracleConfig& cfg,
                               const std::vector<OracleSubject>& subjects);

/// Compile every leg serially in this thread and evaluate — the shrinker's
/// predicate and the CLI replay mode.
OracleReport run_oracle(const Graph& g, const OracleConfig& cfg);

}  // namespace epg::fuzz

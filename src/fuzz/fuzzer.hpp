// The differential fuzzing loop (apps/epgc_fuzz and the nightly CI job).
//
// Rounds of mutants are derived from the generator-family seeds (plus any
// golden corpus entries), compiled in parallel through the BatchCompiler —
// one job per (mutant, strategy) plus a baseline leg — and cross-checked
// by the differential oracle. Violating mutants are minimized with the
// ddmin shrinker while preserving the violation signature, then persisted
// twice: a JSON crash report (provenance, violations, replay command) and
// a corpus entry, so every bug the fuzzer ever finds becomes a permanent
// regression input for test_fuzz_corpus.
//
// The mutant stream is a pure function of the master seed (one Rng,
// deterministic batch compiles), so mutant #k is the same on every host
// and a crash replays from (seed, its graph6) alone. Note the *count* of
// mutants a time-budget-bounded run covers is host-dependent — only a
// max_mutants-bounded run visits an identical set everywhere.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/mutators.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrinker.hpp"

namespace epg::fuzz {

struct FuzzConfig {
  std::uint64_t seed = 1;
  double time_budget_s = 60.0;
  /// Stop after this many mutants (0 = run until the time budget).
  std::size_t max_mutants = 0;
  std::size_t mutations = 3;      ///< catalog moves per mutant
  std::size_t max_vertices = 28;  ///< mutant size cap
  /// Mutants per batch round (0 = twice the batch parallelism).
  std::size_t round_size = 0;
  OracleConfig oracle;
  bool shrink = true;
  ShrinkConfig shrink_cfg;
  /// Directory of golden *.epgc entries: loaded as extra seeds, and new
  /// minimized violations are saved here. Empty = neither.
  std::string corpus_dir;
  /// Directory for JSON crash reports. Empty = not written.
  std::string report_dir;
  /// Batch runtime knobs (threads / inner_threads).
  BatchConfig batch;
};

struct CrashReport {
  MutantSpec mutant;       ///< the violating graph + derivation
  OracleReport report;     ///< what the oracle objected to
  Graph minimized;         ///< shrinker output (== mutant when disabled)
  std::size_t shrink_tests = 0;
  std::string json_path;   ///< written report ("" when report_dir unset)
  std::string corpus_path; ///< written corpus entry ("" when unset)
};

struct FuzzStats {
  std::size_t mutants = 0;
  std::size_t compiles = 0;   ///< compiler legs executed
  std::size_t seeds = 0;      ///< seed-pool size (families + corpus)
  double elapsed_s = 0.0;
};

struct FuzzOutcome {
  FuzzStats stats;
  std::vector<CrashReport> crashes;
  bool ok() const { return crashes.empty(); }
};

/// Run the loop; progress lines go to `log` when non-null.
FuzzOutcome run_fuzzer(const FuzzConfig& cfg, std::ostream* log = nullptr);

/// The JSON document run_fuzzer writes per crash (exposed for tests).
std::string crash_report_json(const CrashReport& crash);

}  // namespace epg::fuzz

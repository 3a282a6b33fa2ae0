#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "io/graph_io.hpp"

namespace epg::fuzz {
namespace {

namespace fs = std::filesystem;

struct SeedGraph {
  Graph graph;
  std::string origin;
};

std::vector<SeedGraph> build_seed_pool(const FuzzConfig& cfg) {
  std::vector<SeedGraph> pool;
  for (std::size_t family = 0; family < seed_family_count(); ++family)
    for (std::size_t size_class = 0; size_class < 2; ++size_class) {
      Graph g = make_seed_graph(family, size_class, cfg.seed ^ (family << 4));
      if (g.vertex_count() > cfg.max_vertices) continue;
      pool.push_back({std::move(g), seed_family_name(family) + "/s" +
                                        std::to_string(size_class)});
    }
  if (!cfg.corpus_dir.empty() && fs::is_directory(cfg.corpus_dir)) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(cfg.corpus_dir))
      if (e.path().extension() == ".epgc") files.push_back(e.path());
    std::sort(files.begin(), files.end());  // deterministic order
    for (const fs::path& p : files) {
      CorpusEntry entry = load_corpus_file(p.string());
      if (entry.graph.vertex_count() < 3 ||
          entry.graph.vertex_count() > cfg.max_vertices)
        continue;
      pool.push_back({std::move(entry.graph), "corpus/" + entry.name});
    }
  }
  EPG_REQUIRE(!pool.empty(), "fuzzer seed pool is empty (max_vertices too "
                             "small?)");
  return pool;
}

std::string hex_fingerprint(const Graph& g) {
  std::ostringstream os;
  os << std::hex << g.fingerprint();
  return os.str();
}

}  // namespace

std::string crash_report_json(const CrashReport& crash) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"epgc_fuzz\",\n";
  os << "  \"signature\": \"" << json_escape(crash.report.signature())
     << "\",\n";
  os << "  \"origin\": \"" << json_escape(crash.mutant.origin) << "\",\n";
  os << "  \"trace\": [";
  for (std::size_t i = 0; i < crash.mutant.trace.size(); ++i)
    os << (i ? ", " : "") << "{\"op\": \""
       << json_escape(crash.mutant.trace[i].op) << "\", \"detail\": \""
       << json_escape(crash.mutant.trace[i].detail) << "\"}";
  os << "],\n";
  os << "  \"graph6\": \"" << json_escape(write_graph6(crash.mutant.graph))
     << "\",\n";
  os << "  \"vertices\": " << crash.mutant.graph.vertex_count() << ",\n";
  os << "  \"minimized_graph6\": \""
     << json_escape(write_graph6(crash.minimized)) << "\",\n";
  os << "  \"minimized_vertices\": " << crash.minimized.vertex_count()
     << ",\n";
  os << "  \"shrink_tests\": " << crash.shrink_tests << ",\n";
  os << "  \"violations\": [\n";
  for (std::size_t i = 0; i < crash.report.violations.size(); ++i) {
    const OracleViolation& v = crash.report.violations[i];
    os << "    {\"check\": \"" << json_escape(v.check)
       << "\", \"compiler\": \"" << json_escape(v.compiler)
       << "\", \"message\": \"" << json_escape(v.message) << "\"}"
       << (i + 1 < crash.report.violations.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  const std::string repro =
      crash.corpus_path.empty()
          ? "<save minimized_graph6 to repro.g6>  epgc_fuzz --replay repro.g6"
          : "epgc_fuzz --replay " + crash.corpus_path;
  os << "  \"replay\": \"" << json_escape(repro) << "\"\n}\n";
  return os.str();
}

FuzzOutcome run_fuzzer(const FuzzConfig& cfg, std::ostream* log) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  FuzzOutcome out;
  const std::vector<SeedGraph> pool = build_seed_pool(cfg);
  out.stats.seeds = pool.size();

  BatchConfig bcfg = cfg.batch;
  bcfg.keep_results = true;  // the oracle inspects full compiler outputs
  BatchCompiler batch(bcfg);
  const std::size_t round_size =
      cfg.round_size > 0 ? cfg.round_size : 2 * batch.parallelism();

  Rng rng(cfg.seed ^ 0xF0CCF0CCULL);
  std::size_t crash_serial = 0;

  if (!cfg.report_dir.empty()) fs::create_directories(cfg.report_dir);
  if (!cfg.corpus_dir.empty()) fs::create_directories(cfg.corpus_dir);

  while (elapsed_s() < cfg.time_budget_s &&
         (cfg.max_mutants == 0 || out.stats.mutants < cfg.max_mutants)) {
    // ---- derive one round of mutants ------------------------------------
    std::vector<MutantSpec> mutants;
    std::size_t want = round_size;
    if (cfg.max_mutants > 0)
      want = std::min(want, cfg.max_mutants - out.stats.mutants);
    for (std::size_t i = 0; i < want; ++i) {
      const SeedGraph& seed = pool[rng.pick_index(pool)];
      mutants.push_back(make_mutant(seed.graph, seed.origin, cfg.mutations,
                                    cfg.max_vertices, rng));
    }

    // ---- compile every leg of every mutant in one batch ------------------
    std::vector<CompileJob> jobs;
    std::vector<std::size_t> first_job(mutants.size());
    for (std::size_t m = 0; m < mutants.size(); ++m) {
      first_job[m] = jobs.size();
      std::vector<CompileJob> mine = oracle_jobs(
          mutants[m].graph, cfg.oracle,
          "m" + std::to_string(out.stats.mutants + m));
      for (CompileJob& j : mine) jobs.push_back(std::move(j));
    }
    const std::size_t legs = jobs.size() / std::max<std::size_t>(1, mutants.size());
    const std::vector<JobResult> results = batch.run(jobs);
    out.stats.compiles += results.size();

    // ---- judge ----------------------------------------------------------
    for (std::size_t m = 0; m < mutants.size(); ++m) {
      ++out.stats.mutants;
      std::vector<JobResult> mine(results.begin() + first_job[m],
                                  results.begin() + first_job[m] + legs);
      OracleReport report =
          evaluate_oracle(mutants[m].graph, cfg.oracle, mine);
      if (report.ok()) continue;

      CrashReport crash;
      crash.mutant = mutants[m];
      crash.report = std::move(report);
      crash.minimized = mutants[m].graph;

      if (cfg.shrink) {
        // Preserve the bug class: a candidate still fails when it triggers
        // at least one of the original "check:compiler" keys.
        std::set<std::string> keys;
        std::set<std::string> offenders;
        bool needs_reference = false;  // cross-strategy checks need a peer
        for (const OracleViolation& v : crash.report.violations) {
          keys.insert(v.check + ":" + v.compiler);
          offenders.insert(v.compiler);
          if (v.check == "ne_consistency") needs_reference = true;
        }
        // The predicate re-runs the oracle on every ddmin candidate, so
        // compile only the legs the signature names (plus the reference
        // strategy for consistency keys — it is strategies[0], the leg
        // ne_consistency compares against).
        OracleConfig shrink_oracle = cfg.oracle;
        const std::vector<std::string> all = oracle_strategies(cfg.oracle);
        shrink_oracle.strategies.clear();
        for (const std::string& s : all)
          if (offenders.count(s) > 0 ||
              (needs_reference && s == all.front()))
            shrink_oracle.strategies.push_back(s);
        shrink_oracle.include_baseline = offenders.count("baseline") > 0;
        if (shrink_oracle.strategies.empty())
          // Baseline-only signature: an empty list would mean "all
          // registered", so pin one framework leg instead.
          shrink_oracle.strategies.push_back(all.front());
        const auto still_fails = [&](const Graph& candidate) {
          if (candidate.vertex_count() == 0) return false;
          const OracleReport r = run_oracle(candidate, shrink_oracle);
          for (const OracleViolation& v : r.violations)
            if (keys.count(v.check + ":" + v.compiler) > 0) return true;
          return false;
        };
        // Shrinking must not run far past the loop's own wall budget: cap
        // each crash at the remaining budget (10 s grace so a last-second
        // find still gets a useful pass), on top of the configured cap.
        ShrinkConfig scfg = cfg.shrink_cfg;
        scfg.time_budget_ms = std::min(
            scfg.time_budget_ms,
            std::max(10000.0,
                     (cfg.time_budget_s - elapsed_s()) * 1000.0));
        const ShrinkResult s =
            shrink_graph(mutants[m].graph, still_fails, scfg);
        crash.minimized = s.graph;
        crash.shrink_tests = s.tests;
      }

      const std::string stem =
          "crash-" + std::to_string(crash_serial++) + "-" +
          hex_fingerprint(crash.minimized);
      if (!cfg.corpus_dir.empty()) {
        CorpusEntry entry;
        entry.name = stem;
        entry.meta.emplace_back("origin", crash.mutant.origin);
        entry.meta.emplace_back("signature", crash.report.signature());
        entry.meta.emplace_back("fuzz_seed", std::to_string(cfg.seed));
        for (const MutationRecord& rec : crash.mutant.trace)
          entry.meta.emplace_back("trace", rec.op + " " + rec.detail);
        entry.graph = crash.minimized;
        crash.corpus_path =
            (fs::path(cfg.corpus_dir) / (stem + ".epgc")).string();
        save_corpus_file(entry, crash.corpus_path);
      }
      if (!cfg.report_dir.empty()) {
        crash.json_path =
            (fs::path(cfg.report_dir) / (stem + ".json")).string();
        std::ofstream json(crash.json_path);
        json << crash_report_json(crash);
      }
      if (log)
        *log << "VIOLATION " << crash.report.signature() << " on "
             << crash.mutant.origin << " ("
             << crash.mutant.graph.vertex_count() << " -> "
             << crash.minimized.vertex_count() << " vertices)\n";
      out.crashes.push_back(std::move(crash));
    }

    if (log)
      *log << "round done: " << out.stats.mutants << " mutants, "
           << out.stats.compiles << " compiles, " << out.crashes.size()
           << " violation(s), " << static_cast<int>(elapsed_s()) << "s\n";
  }

  out.stats.elapsed_s = elapsed_s();
  return out;
}

}  // namespace epg::fuzz

// Golden-corpus regression replay: every entry under corpus/ — generator
// family representatives plus fuzz-found "interesting" graphs (dangler
// fallback, emitter-cap overshoot, deep LC sequences) and any minimized
// violation the fuzzer ever persists — is compiled through every
// registered partition strategy plus the baseline and must come out
// oracle-clean. A failure here means a past behavior regressed on an
// input that once mattered.
//
// EPGC_CORPUS_DIR is injected by CMake and points at <repo>/corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/oracle.hpp"
#include "io/graph_io.hpp"

namespace epg::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(EPGC_CORPUS_DIR))
    if (e.path().extension() == ".epgc") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}


TEST(FuzzCorpus, ReplayMatrixIncludesEveryBuiltInStrategy) {
  // The replay legs default to every registered strategy; a strategy
  // that silently fell out of the registry would shrink this matrix and
  // stop being regression-tested, so pin the expected built-ins —
  // "multilevel" included, whose coarsening path the fuzz config's
  // lowered coarsen_floor exercises on corpus-sized graphs.
  const std::vector<std::string> strategies =
      oracle_strategies(default_oracle_config());
  for (const char* name : {"beam", "anneal", "portfolio", "multilevel"})
    EXPECT_NE(std::find(strategies.begin(), strategies.end(), name),
              strategies.end())
        << name << " missing from the replay matrix";
}

TEST(FuzzCorpus, DirectoryHasGoldenEntries) {
  ASSERT_TRUE(fs::is_directory(EPGC_CORPUS_DIR))
      << "corpus directory missing: " << EPGC_CORPUS_DIR;
  EXPECT_GE(corpus_files().size(), 12u);
}

TEST(FuzzCorpus, EntriesParseAndCarryProvenance) {
  for (const fs::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusEntry entry = load_corpus_file(path.string());
    EXPECT_EQ(entry.name + ".epgc", path.filename().string());
    EXPECT_GE(entry.graph.vertex_count(), 3u);
    bool has_origin = false;
    for (const auto& [key, value] : entry.meta)
      if (key == "origin" && !value.empty()) has_origin = true;
    EXPECT_TRUE(has_origin) << "golden entries record their origin";
  }
}

class FuzzCorpusReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FuzzCorpusReplay, OracleCleanOnEveryStrategyAndBaseline) {
  const std::vector<fs::path> files = corpus_files();
  if (GetParam() >= files.size()) GTEST_SKIP() << "empty replay slot";
  const fs::path& path = files[GetParam()];
  SCOPED_TRACE(path.filename().string());
  const CorpusEntry entry = load_corpus_file(path.string());

  // Batch all legs through the shared runtime exactly like the fuzzer,
  // under the same configuration the fuzzer persists entries with.
  const OracleConfig cfg = default_oracle_config();
  BatchConfig bcfg;
  bcfg.threads = 2;
  BatchCompiler batch(bcfg);
  const OracleReport report = evaluate_oracle(
      entry.graph, cfg, batch.run(oracle_jobs(entry.graph, cfg, entry.name)));
  EXPECT_TRUE(report.ok())
      << report.signature() << ": "
      << (report.violations.empty() ? "" : report.violations[0].message);
}

// 16 slots leave headroom over the seeded 12 so newly persisted crash
// repros are picked up without touching this file; empty slots skip, and
// the count test below fails loudly if the corpus ever outgrows them.
INSTANTIATE_TEST_SUITE_P(Entries, FuzzCorpusReplay,
                         ::testing::Range<std::size_t>(0, 16));

TEST(FuzzCorpus, ReplaySlotsCoverTheWholeCorpus) {
  EXPECT_LE(corpus_files().size(), 16u)
      << "corpus outgrew the replay slots; widen the Range in "
         "INSTANTIATE_TEST_SUITE_P";
}

}  // namespace
}  // namespace epg::fuzz

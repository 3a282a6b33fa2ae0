// Pinned compile outputs: every golden-corpus graph plus shuffled lattice,
// tree and Waxman graphs of 12-24 vertices, compiled with the paper-scale
// settings the serving benchmark uses (lc 4, serial), must reproduce a
// fixed result_fingerprint — circuit bytes, gate/photon times, every stat,
// stem count and subgraph_nodes.
//
// The expected strings were recorded once from the compiler before its
// cold-path speed-ups and are never regenerated: a performance change that
// alters any compiled output fails here. A deliberate output change belongs
// behind a result_schema bump together with a fresh set of strings.
//
// EPGC_CORPUS_DIR is injected by CMake and points at <repo>/corpus.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compile/framework.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "result_fingerprint.hpp"
#include "runtime/batch_compiler.hpp"

namespace epg {
namespace {

struct PinnedCase {
  std::string name;
  Graph graph;
  std::string strategy;
};

std::vector<PinnedCase> pinned_cases() {
  std::vector<PinnedCase> cases;
  for (const char* entry :
       {"family-balanced_tree", "family-erdos_renyi", "family-lattice",
        "family-linear", "family-random_tree", "family-repeater",
        "family-ring", "family-star", "family-waxman",
        "mutant-cap-overshoot-1", "mutant-dangler-fallback-0",
        "mutant-dangler-fallback-2", "shape-coarsen-danglers"}) {
    const CorpusEntry e = load_corpus_file(std::string(EPGC_CORPUS_DIR) +
                                           "/" + entry + ".epgc");
    cases.push_back({entry, e.graph, "beam"});
  }
  const std::pair<std::size_t, std::size_t> lattices[] = {
      {3, 4}, {2, 7}, {3, 5}, {4, 4}, {3, 6}, {4, 5}, {3, 7}, {4, 6}};
  std::uint64_t seed = 1;
  for (const auto& [rows, cols] : lattices) {
    cases.push_back({"lattice-" + std::to_string(rows) + "x" +
                         std::to_string(cols),
                     shuffle_labels(make_lattice(rows, cols), seed), "beam"});
    ++seed;
  }
  for (std::size_t n : {12, 14, 15, 17, 18, 20, 22, 24}) {
    cases.push_back({"tree-" + std::to_string(n),
                     shuffle_labels(make_random_tree(n, seed, 3), seed + 50),
                     "beam"});
    ++seed;
  }
  for (std::size_t n : {12, 13, 15, 16, 18, 20, 21, 24}) {
    cases.push_back({"waxman-" + std::to_string(n),
                     shuffle_labels(make_waxman(n, seed), seed + 50),
                     "beam"});
    ++seed;
  }
  // One graph through each of the other strategies.
  cases.push_back({"anneal-waxman-16",
                   shuffle_labels(make_waxman(16, 101), 7), "anneal"});
  cases.push_back({"portfolio-lattice-4x4",
                   shuffle_labels(make_lattice(4, 4), 8), "portfolio"});
  cases.push_back({"multilevel-tree-20",
                   shuffle_labels(make_random_tree(20, 103, 3), 9),
                   "multilevel"});
  return cases;
}

FrameworkConfig pinned_config(const std::string& strategy) {
  FrameworkConfig cfg;
  cfg.partition.max_lc_ops = 4;
  cfg.partition.strategy = strategy;
  // Forces the coarsen-refine path on a 20-vertex graph.
  cfg.partition.coarsen_floor = 8;
  cfg.inner_threads = 0;
  return cfg;
}

// name -> result_fingerprint, recorded once (see the header comment).
const std::vector<std::pair<std::string, std::string>> kExpected = {
    {"family-balanced_tree", "3 2 81601 5 0 3 13 21 4 4 83 cc583c9730946eb2"},
    {"family-erdos_renyi", "5 2 575883 9 1 9 12 33 5 5 214 275d333176384e02"},
    {"family-lattice", "3 2 335926 6 0 7 12 20 4 4 95 fb596897d0999e99"},
    {"family-linear", "1 2 48847 5 0 1 10 12 2 2 55 c132da44b6239125"},
    {"family-random_tree", "1 2 27684 6 0 1 12 16 2 2 42 6b97f7ba1559ca29"},
    {"family-repeater", "5 2 623948 8 0 10 12 41 11 11 137 250e9c5ad1af9ae7"},
    {"family-ring", "2 2 119764 6 0 2 8 10 2 2 102 26810b6f502f9cf2"},
    {"family-star", "1 2 24542 2 0 1 8 10 2 2 38 82578327992ed6d"},
    {"family-waxman", "1 2 458745 8 0 5 14 22 4 4 115 8aced71f49aca622"},
    {"mutant-cap-overshoot-1", "2 2 115698 3 0 5 9 32 5 5 181 3e8226ab8df6bea"},
    {"mutant-dangler-fallback-0", "5 2 1274636 9 1 16 13 36 9 9 144 c22fed770c8109e2"},
    {"mutant-dangler-fallback-2", "3 2 783108 8 1 8 12 39 6 6 92 781cee6a31faf113"},
    {"shape-coarsen-danglers", "15 10 709684 27 0 17 66 98 18 18 150 544a656befdd57c1"},
    {"lattice-3x4", "3 2 336385 9 0 7 12 20 4 4 95 a702f833f803e4b3"},
    {"lattice-2x7", "3 2 1312736 9 1 7 14 22 4 4 101 2fb0de28c14fc88e"},
    {"lattice-3x5", "6 3 244578 9 0 11 15 22 5 5 175 4533153292e0858"},
    {"lattice-4x4", "7 3 1504725 11 1 16 16 30 10 10 133 79bbe10a30c7afd"},
    {"lattice-3x6", "6 3 947933 12 1 19 18 34 12 12 106 ec1940d952908ba7"},
    {"lattice-4x5", "8 3 750711 12 0 14 20 32 6 6 248 5283c660f3dbd86b"},
    {"lattice-3x7", "8 3 1942804 12 1 16 21 42 7 7 198 f1bb4bfc6dc1517e"},
    {"lattice-4x6", "12 4 2003770 15 1 23 24 45 11 11 280 5fde8d17eae314e9"},
    {"tree-12", "1 2 20516 6 0 1 12 18 2 2 40 33fd843c5a8cadbf"},
    {"tree-14", "2 2 133112 6 0 2 14 21 3 3 65 8cbdceb3744a59ad"},
    {"tree-15", "2 3 120909 8 0 2 15 18 3 3 62 5d88322071e89b58"},
    {"tree-17", "2 3 88831 11 0 2 17 22 3 3 65 36d64d95d5695856"},
    {"tree-18", "3 3 130765 8 0 3 18 24 4 4 89 9e8a05f5057b007e"},
    {"tree-20", "2 3 318729 12 0 3 20 26 4 4 90 18edcc9ae5921c3f"},
    {"tree-22", "3 4 111263 11 0 3 22 34 4 4 118 381d2f591c4886bd"},
    {"tree-24", "3 4 357570 15 0 4 24 37 5 5 86 853ec9bf3b04372a"},
    {"waxman-12", "1 2 269373 8 0 4 12 19 3 3 99 25fd80e4c588822f"},
    {"waxman-13", "1 2 59615 6 0 1 13 17 2 2 46 b7e5fff391b045"},
    {"waxman-15", "3 3 230945 6 0 5 15 24 5 5 168 f3436f554338a045"},
    {"waxman-16", "2 3 59292 9 0 2 16 23 3 3 62 1b80f2c2375cda5a"},
    {"waxman-18", "5 3 1011043 11 1 11 18 33 7 7 206 1b45b5998c94350c"},
    {"waxman-20", "12 3 1426166 14 1 26 20 55 12 12 226 1d72eeb7d018da2f"},
    {"waxman-21", "14 3 640730 15 0 22 21 49 8 8 423 ce84fcf9567fdb90"},
    {"waxman-24", "13 4 2219185 15 1 33 24 50 19 15 260 1da4da31b5195904"},
    {"anneal-waxman-16", "6 3 294074 9 0 10 16 28 6 6 187 46a589552aa5590"},
    {"portfolio-lattice-4x4", "7 3 667710 11 1 12 16 41 6 6 229 189287567340a90"},
    {"multilevel-tree-20", "3 3 322647 9 0 4 20 29 5 5 117 4e785f2eb84445e6"},
};

TEST(PinnedOutputs, EveryCaseMatchesItsRecordedFingerprint) {
  const std::vector<PinnedCase> cases = pinned_cases();
  EXPECT_EQ(cases.size(), kExpected.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PinnedCase& c = cases[i];
    SCOPED_TRACE(c.name);
    const FrameworkResult r =
        compile_framework(c.graph, pinned_config(c.strategy));
    EXPECT_TRUE(r.verified);
    const std::string got = result_fingerprint(r);
    const bool known = i < kExpected.size() && kExpected[i].first == c.name;
    EXPECT_TRUE(known && got == kExpected[i].second)
        << "    {\"" << c.name << "\", \"" << got << "\"},";
  }
}

}  // namespace
}  // namespace epg

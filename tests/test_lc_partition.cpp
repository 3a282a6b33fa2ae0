#include "partition/lc_partition_search.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/local_complement.hpp"

namespace epg {
namespace {

TEST(LcPartition, OutcomeConsistency) {
  const Graph g = make_waxman(20, 3);
  LcPartitionConfig cfg;
  const PartitionOutcome out = search_lc_partition(g, cfg);
  // Labels cover every vertex; parts non-empty and within g_max.
  EXPECT_EQ(out.labels.size(), g.vertex_count());
  std::size_t covered = 0;
  for (const auto& part : out.parts) {
    EXPECT_FALSE(part.empty());
    EXPECT_LE(part.size(), cfg.g_max);
    covered += part.size();
  }
  EXPECT_EQ(covered, g.vertex_count());
  // K equals the recomputed cut of the transformed graph.
  EXPECT_EQ(out.stem_edge_count,
            cut_edge_count(out.transformed, out.labels));
  EXPECT_EQ(out.stem_edges().size(), out.stem_edge_count);
  // The transformed graph is reachable from g via the LC sequence.
  Graph replay = g;
  apply_lc_sequence(replay, out.lc_sequence);
  EXPECT_EQ(replay, out.transformed);
  EXPECT_LE(out.lc_sequence.size(), cfg.max_lc_ops);
}

TEST(LcPartition, ZeroLcMeansPurePartition) {
  const Graph g = make_lattice(4, 5);
  LcPartitionConfig cfg;
  cfg.max_lc_ops = 0;
  const PartitionOutcome out = search_lc_partition(g, cfg);
  EXPECT_TRUE(out.lc_sequence.empty());
  EXPECT_EQ(out.transformed, g);
}

TEST(LcPartition, LcReducesCutOnCompleteBipartiteCore) {
  // K5: LC at any vertex turns the 4-clique among its neighbors off; as a
  // partition problem, the LC-equivalent star cuts with K=1 instead of K>=4.
  const Graph g = make_complete(8);
  LcPartitionConfig with_lc;
  with_lc.g_max = 4;
  with_lc.max_lc_ops = 15;
  LcPartitionConfig no_lc = with_lc;
  no_lc.max_lc_ops = 0;
  const auto k_with = search_lc_partition(g, with_lc).stem_edge_count;
  const auto k_without = search_lc_partition(g, no_lc).stem_edge_count;
  EXPECT_LT(k_with, k_without);
  // K8 cut into 4+4 without LC costs 16 edges; LC gets far below that.
  EXPECT_EQ(k_without, 16u);
  EXPECT_LE(k_with, 4u);
}

TEST(LcPartition, LcNeverHurtsOnAverage) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Graph g = make_waxman(18, seed);
    LcPartitionConfig with_lc;
    LcPartitionConfig no_lc = with_lc;
    no_lc.max_lc_ops = 0;
    EXPECT_LE(search_lc_partition(g, with_lc).stem_edge_count,
              search_lc_partition(g, no_lc).stem_edge_count);
  }
}

TEST(LcPartition, DeterministicForSeed) {
  const Graph g = make_waxman(16, 4);
  LcPartitionConfig cfg;
  cfg.max_lc_ops = 4;
  const PartitionOutcome a = search_lc_partition(g, cfg);
  const PartitionOutcome b = search_lc_partition(g, cfg);
  EXPECT_EQ(a.lc_sequence, b.lc_sequence);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.stem_edge_count, b.stem_edge_count);
}

TEST(LcPartition, WorkLedgerReportsBudgetCut) {
  // The shuffled 10x10 lattice (`epgc_graphgen lattice --rows 10 --cols 10
  // --seed 3 --shuffle`) at lc 15 is the size where the beam's search
  // outgrows kPartitionWorkBudget; a 12-vertex graph at lc 4 is not.
  LcPartitionConfig cfg;
  cfg.max_lc_ops = 15;
  const PartitionOutcome cut =
      search_lc_partition(shuffle_labels(make_lattice(10, 10), 3 * 977 + 3),
                          cfg);
  EXPECT_TRUE(cut.work_exhausted);
  EXPECT_GE(cut.work, kPartitionWorkBudget);

  const Graph small = make_waxman(12, 3);
  cfg.max_lc_ops = 4;
  const PartitionOutcome beam = search_lc_partition(small, cfg);
  EXPECT_FALSE(beam.work_exhausted);
  EXPECT_GT(beam.work, 0u);
  EXPECT_LT(beam.work, kPartitionWorkBudget);
  // The portfolio's slot 0 is this same beam run; the ledger sums members.
  cfg.strategy = "portfolio";
  const PartitionOutcome portfolio = search_lc_partition(small, cfg);
  EXPECT_FALSE(portfolio.work_exhausted);
  EXPECT_GT(portfolio.work, beam.work);
}

TEST(LcPartition, SmallGraphSinglePart) {
  const Graph g = make_ring(6);
  LcPartitionConfig cfg;
  const PartitionOutcome out = search_lc_partition(g, cfg);
  EXPECT_EQ(out.parts.size(), 1u);
  EXPECT_EQ(out.stem_edge_count, 0u);
}

}  // namespace
}  // namespace epg

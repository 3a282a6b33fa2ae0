// CsrView / DenseAccumulator / ScratchArena contracts (graph/csr.hpp):
//
//   * equivalence — for every vertex of every graph, the CSR row lists
//     exactly Graph::neighbors(v) in ascending order, and
//     CsrView::for_each_neighbor visits the same vertices in the same
//     order as Graph::for_each_neighbor. This is the bit-identity
//     contract every hot loop that switched representations relies on,
//     pinned across all 9 generator families AND fuzz-mutated graphs;
//   * lane independence — parallel row fill equals the serial build;
//   * snapshot refresh — rebuilding after a mutation matches a fresh
//     view (reused buffers leak nothing across builds);
//   * arena reuse — a DenseAccumulator reused across epochs and domain
//     sizes tallies exactly what a fresh one does, and release() leaves
//     the arena rebuildable;
//   * consumers — the CSR overload of emitter_bound_for_order agrees
//     with the bitset overload on every family.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/mutators.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "neighbor_list.hpp"

namespace epg {
namespace {

/// The fuzzer's 9 seed families at corpus-like sizes.
std::vector<std::pair<std::string, Graph>> nine_families() {
  return {{"lattice", make_lattice(5, 6)},
          {"linear", make_linear_cluster(24)},
          {"ring", make_ring(24)},
          {"star", make_star(20)},
          {"balanced_tree", make_balanced_tree(3, 3)},
          {"random_tree", make_random_tree(30, 11, 3)},
          {"waxman", make_waxman(26, 7)},
          {"erdos_renyi", make_erdos_renyi(22, 0.18, 3)},
          {"repeater", make_repeater_graph_state(5)}};
}

/// Row-by-row equality with the bitset representation, including visit
/// order (for_each_neighbor on both sides).
void expect_csr_matches(const Graph& g, const CsrView& csr) {
  ASSERT_EQ(csr.vertex_count(), g.vertex_count());
  ASSERT_EQ(csr.edge_count(), g.edge_count());
  ASSERT_EQ(csr.xadj().size(), g.vertex_count() + 1);
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const std::vector<Vertex> nb = neighbor_list(g, v);
    ASSERT_EQ(csr.degree(v), nb.size());
    ASSERT_EQ(csr.degree(v), g.degree(v));
    // Row contents and order match neighbors() (which is ascending)...
    ASSERT_TRUE(std::equal(csr.row_begin(v), csr.row_end(v), nb.begin(),
                           nb.end()));
    EXPECT_TRUE(std::is_sorted(csr.row_begin(v), csr.row_end(v)));
    // ...and the visitor walks the identical sequence the bitset word
    // scan produces — the order every digest downstream depends on.
    std::vector<Vertex> via_csr, via_bitset;
    csr.for_each_neighbor(v, [&](Vertex u) { via_csr.push_back(u); });
    g.for_each_neighbor(v, [&](Vertex u) { via_bitset.push_back(u); });
    EXPECT_EQ(via_csr, via_bitset);
  }
}

TEST(Csr, MatchesBitsetOnNineFamilies) {
  for (const auto& [name, g] : nine_families()) {
    SCOPED_TRACE(name);
    expect_csr_matches(g, CsrView(g));
  }
}

TEST(Csr, ParallelBuildEqualsSerial) {
  const Graph g = shuffle_labels(make_waxman(180, 5), 9);
  const CsrView serial(g, Executor::serial());
  for (std::size_t threads : {2u, 8u}) {
    const Executor exec(threads);
    const CsrView parallel(g, exec);
    EXPECT_EQ(serial.xadj(), parallel.xadj());
    EXPECT_EQ(serial.adjncy(), parallel.adjncy());
  }
}

TEST(Csr, MatchesBitsetOnFuzzMutants) {
  Rng rng(0xC5A0);
  for (std::size_t family = 0; family < fuzz::seed_family_count();
       ++family) {
    SCOPED_TRACE(fuzz::seed_family_name(family));
    const Graph seed = fuzz::make_seed_graph(family, 1, 21);
    const fuzz::MutantSpec mutant =
        fuzz::make_mutant(seed, fuzz::seed_family_name(family), 6, 96, rng);
    expect_csr_matches(mutant.graph, CsrView(mutant.graph));
  }
}

TEST(Csr, RebuildAfterMutationMatchesFreshView) {
  // One view object rebuilt across different graphs (the arena pattern)
  // must match a cold view each time — no state leaks across builds.
  Graph g = make_waxman(60, 3);
  CsrView reused(g);
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    const Vertex a = static_cast<Vertex>(rng.below(g.vertex_count()));
    const Vertex b = static_cast<Vertex>(rng.below(g.vertex_count()));
    if (a != b) g.toggle_edge(a, b);
    if (round == 3) g.add_vertex();  // exercise a domain-size change
    reused.build(g);
    expect_csr_matches(g, reused);
    const CsrView fresh(g);
    EXPECT_EQ(reused.xadj(), fresh.xadj());
    EXPECT_EQ(reused.adjncy(), fresh.adjncy());
  }
  reused.clear();
  EXPECT_EQ(reused.vertex_count(), 0u);
  EXPECT_EQ(reused.edge_count(), 0u);
  reused.build(g);  // clear() keeps the view rebuildable
  expect_csr_matches(g, reused);
}

TEST(Csr, DenseAccumulatorReuseMatchesFresh) {
  // Tally random (key, weight) streams through one reused accumulator
  // and one fresh per round; values, touched sets and first-touch order
  // must agree every round, across shrinking and growing domains.
  DenseAccumulator reused;
  Rng rng(0xACC);
  for (int round = 0; round < 20; ++round) {
    const std::size_t domain = 3 + rng.below(40);
    DenseAccumulator fresh;
    reused.reset(domain);
    fresh.reset(domain);
    for (int i = 0; i < 64; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.below(domain));
      const std::uint64_t w = rng.below(5);  // zero weights still touch
      reused.add(key, w);
      fresh.add(key, w);
    }
    EXPECT_EQ(reused.touched(), fresh.touched());
    for (std::uint32_t key = 0; key < domain; ++key)
      EXPECT_EQ(reused.get(key), fresh.get(key));
    // clear() is an epoch bump, not a wipe: stale values must read 0.
    reused.clear();
    for (std::uint32_t key = 0; key < domain; ++key)
      EXPECT_EQ(reused.get(key), 0u);
    EXPECT_TRUE(reused.touched().empty());
    reused.add(1, 2);
    EXPECT_EQ(reused.get(1), 2u);  // value from before clear() is gone
  }
}

TEST(Csr, ScratchArenaReleaseLeavesArenaRebuildable) {
  ScratchArena arena;
  const Graph g = make_erdos_renyi(40, 0.2, 11);
  arena.csr.build(g);
  arena.conn.reset(8);
  arena.conn.add(3, 5);
  arena.cands.assign({1, 2, 3});
  arena.verts.assign({4, 5});
  arena.release();
  EXPECT_EQ(arena.csr.vertex_count(), 0u);
  EXPECT_TRUE(arena.cands.empty());
  EXPECT_TRUE(arena.verts.empty());
  arena.csr.build(g);
  expect_csr_matches(g, arena.csr);
  arena.conn.reset(8);
  EXPECT_EQ(arena.conn.get(3), 0u);
}

TEST(Csr, EmitterBoundAgreesWithBitsetOverload) {
  Rng rng(31);
  for (const auto& [name, g] : nine_families()) {
    SCOPED_TRACE(name);
    const CsrView csr(g);
    std::vector<Vertex> order(g.vertex_count());
    for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
    EXPECT_EQ(emitter_bound_for_order(csr, order),
              emitter_bound_for_order(g, order));
    rng.shuffle(order);
    EXPECT_EQ(emitter_bound_for_order(csr, order),
              emitter_bound_for_order(g, order));
  }
}

}  // namespace
}  // namespace epg

#include "compile/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>

#include "compile/stem.hpp"
#include "compile/verify.hpp"
#include "graph/generators.hpp"
#include "partition/lc_partition_search.hpp"

namespace epg {
namespace {

const HardwareModel kHw = HardwareModel::quantum_dot();

CompiledPart make_part(const SubgraphSpec& spec,
                       const std::vector<Vertex>& to_global,
                       std::uint32_t ne) {
  SubgraphCompileConfig cfg;
  cfg.ne_limit = ne;
  cfg.node_budget = 15000;
  const auto r = compile_subgraph(spec, cfg);
  EXPECT_TRUE(r.success);
  return {r.best, to_global};
}

CompiledPart make_part(const Graph& g, const std::vector<bool>& boundary,
                       const std::vector<Vertex>& to_global,
                       std::uint32_t ne) {
  return make_part(SubgraphSpec(g, boundary), to_global, ne);
}

TEST(Scheduler, SinglePartPassThrough) {
  const Graph g = make_linear_cluster(5);
  const CompiledPart part =
      make_part(g, std::vector<bool>(5, false), {0, 1, 2, 3, 4}, 1);
  ScheduleConfig cfg;
  cfg.ne_limit = 2;
  const GlobalSchedule s = schedule_parts({part}, {}, {}, {}, 5, cfg);
  EXPECT_TRUE(s.limit_respected);
  EXPECT_EQ(s.stats.ee_cnot_count, part.circuit.stats.ee_cnot_count);
  EXPECT_EQ(s.circuit.num_photons(), 5u);
  EXPECT_EQ(s.makespan, s.stats.makespan_ticks);
}

TEST(Scheduler, IndependentPartsOverlapUnderRoomyLimit) {
  const Graph half = make_linear_cluster(4);
  const CompiledPart a =
      make_part(half, std::vector<bool>(4, false), {0, 1, 2, 3}, 1);
  const CompiledPart b =
      make_part(half, std::vector<bool>(4, false), {4, 5, 6, 7}, 1);
  ScheduleConfig roomy;
  roomy.ne_limit = 4;
  const GlobalSchedule parallel =
      schedule_parts({a, b}, {}, {}, {}, 8, roomy);
  ScheduleConfig tight;
  tight.ne_limit = 1;
  const GlobalSchedule serial = schedule_parts({a, b}, {}, {}, {}, 8, tight);
  EXPECT_TRUE(parallel.limit_respected);
  EXPECT_TRUE(serial.limit_respected);
  EXPECT_LT(parallel.makespan, serial.makespan);
  EXPECT_LE(serial.peak_usage, 1u);
}

TEST(Scheduler, SequentialAblationIsLongerOrEqual) {
  const Graph half = make_ring(5);
  const CompiledPart a =
      make_part(half, std::vector<bool>(5, false), {0, 1, 2, 3, 4}, 2);
  const CompiledPart b =
      make_part(half, std::vector<bool>(5, false), {5, 6, 7, 8, 9}, 2);
  ScheduleConfig tetris;
  tetris.ne_limit = 6;
  ScheduleConfig sequential = tetris;
  sequential.alap_tetris = false;
  const auto fast = schedule_parts({a, b}, {}, {}, {}, 10, tetris);
  const auto slow = schedule_parts({a, b}, {}, {}, {}, 10, sequential);
  EXPECT_LE(fast.makespan, slow.makespan);
}

TEST(Scheduler, StemCzAddedAndOrdered) {
  // Two 2-vertex parts joined by one stem edge between globals 1 and 2.
  const Graph pair = make_linear_cluster(2);
  const CompiledPart a = make_part(pair, {false, true}, {0, 1}, 2);
  const CompiledPart b = make_part(pair, {true, false}, {2, 3}, 2);
  ScheduleConfig cfg;
  cfg.ne_limit = 4;
  const GlobalSchedule s =
      schedule_parts({a, b}, {{1, 2}}, {}, {}, 4, cfg);
  // Exactly one stem CZ beyond the parts' internal entangling gates.
  EXPECT_EQ(s.stats.ee_cnot_count, a.circuit.stats.ee_cnot_count +
                                       b.circuit.stats.ee_cnot_count + 1);
  // The stem CZ ends before the emissions of both endpoints.
  std::ptrdiff_t cz_index = -1;
  for (std::size_t i = 0; i < s.circuit.size(); ++i) {
    const Gate& g = s.circuit.gates()[i];
    if (g.kind == GateKind::ee_cz) cz_index = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(cz_index, 0);
  EXPECT_LE(s.gate_end[cz_index], s.photon_emit[1]);
  EXPECT_LE(s.gate_end[cz_index], s.photon_emit[2]);
}

TEST(Scheduler, PhotonEmissionTimesFilled) {
  const Graph g = make_linear_cluster(4);
  const CompiledPart part =
      make_part(g, std::vector<bool>(4, false), {0, 1, 2, 3}, 1);
  ScheduleConfig cfg;
  cfg.ne_limit = 2;
  const GlobalSchedule s = schedule_parts({part}, {}, {}, {}, 4, cfg);
  for (Tick t : s.photon_emit) {
    EXPECT_GT(t, 0u);
    EXPECT_LE(t, s.makespan);
  }
}

TEST(Scheduler, CausalityOnEveryWire) {
  const Graph seg = make_linear_cluster(3);
  const CompiledPart a = make_part(seg, {false, false, true}, {0, 1, 2}, 2);
  const CompiledPart b = make_part(seg, {true, false, false}, {3, 4, 5}, 2);
  ScheduleConfig cfg;
  cfg.ne_limit = 3;
  const GlobalSchedule s =
      schedule_parts({a, b}, {{2, 3}}, {}, {}, 6, cfg);
  // For every qubit, gate intervals must not overlap and must follow the
  // circuit's list order.
  std::map<std::pair<int, std::uint32_t>, Tick> last_end;
  for (std::size_t i = 0; i < s.circuit.size(); ++i) {
    const Gate& g = s.circuit.gates()[i];
    auto check = [&](QubitId q) {
      const auto key = std::make_pair(static_cast<int>(q.kind), q.index);
      EXPECT_GE(s.gate_start[i], last_end[key]) << "gate " << g.str();
      last_end[key] = std::max(last_end[key], s.gate_end[i]);
    };
    check(g.a);
    if (g.is_two_qubit()) check(g.b);
  }
}

TEST(Scheduler, DanglerWindowStemsVerifyEndToEnd) {
  // Two 3-vertex paths joined by a stem between their endpoints, compiled
  // so the boundary photons leave through dangler host windows rather than
  // dedicated anchors; the scheduled global circuit must generate the
  // 6-vertex path exactly.
  const Graph seg = make_linear_cluster(3);
  const CompiledPart a = make_part(seg, {false, false, true}, {0, 1, 2}, 1);
  const CompiledPart b = make_part(seg, {true, false, false}, {3, 4, 5}, 1);
  // The 1-emitter compilation of a path hosts its boundary via a dangler.
  ASSERT_EQ(a.circuit.anchors.size(), 1u);
  ASSERT_EQ(b.circuit.anchors.size(), 1u);
  EXPECT_FALSE(a.circuit.anchors[0].via_swap);
  EXPECT_FALSE(b.circuit.anchors[0].via_swap);

  ScheduleConfig cfg;
  cfg.ne_limit = 2;
  const GlobalSchedule s = schedule_parts({a, b}, {{2, 3}}, {}, {}, 6, cfg);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.stats.ee_cnot_count,
            a.circuit.stats.ee_cnot_count + b.circuit.stats.ee_cnot_count +
                1);  // exactly the stem CZ on top

  Graph target = make_linear_cluster(6);  // 0-1-2-3-4-5 via the 2-3 stem
  const VerifyReport report = verify_generates(s.circuit, target, 3, 99);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(Scheduler, MultiStemAnchorSharedAcrossPartners) {
  // A hub vertex carrying two stems must swap onto a dedicated anchor; its
  // two CZs serialize inside the single anchor window and the result is
  // the 5-vertex star... assembled from three parts.
  Graph hub_graph(1);
  const CompiledPart hub = make_part(
      hub_graph, {true},
      {0}, 1);
  const Graph leaf_pair = make_linear_cluster(2);
  const CompiledPart left =
      make_part(leaf_pair, {true, false}, {1, 2}, 1);
  const CompiledPart right =
      make_part(leaf_pair, {true, false}, {3, 4}, 1);
  ScheduleConfig cfg;
  cfg.ne_limit = 3;
  const GlobalSchedule s = schedule_parts(
      {hub, left, right}, {{0, 1}, {0, 3}}, {}, {}, 5, cfg);
  EXPECT_FALSE(s.deadlocked);
  Graph target(5);
  target.add_edge(0, 1);
  target.add_edge(1, 2);
  target.add_edge(0, 3);
  target.add_edge(3, 4);
  const VerifyReport report = verify_generates(s.circuit, target, 3, 41);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(Scheduler, DeadlockReportsOnlyStemsThatReachACycle) {
  // `epgc_graphgen waxman --n 20 --seed 1 --shuffle`, partitioned at lc 4
  // into 3 parts joined by 9 stems, every part compiled at ne 2 under the
  // default dangler policy: crossing dangler-host windows deadlock. All 9
  // stem nodes are left unprocessed, but 3 of them only sit downstream of
  // the cycle, so the report names the hosts of the other 6 stems, in
  // serialization order.
  const Graph g = shuffle_labels(make_waxman(20, 1), 1 * 977 + 3);
  LcPartitionConfig pcfg;
  pcfg.max_lc_ops = 4;
  const StemPlan plan = plan_stems(search_lc_partition(g, pcfg));
  ASSERT_EQ(plan.parts.size(), 3u);
  ASSERT_EQ(plan.stem_edges.size(), 9u);
  std::vector<CompiledPart> parts;
  for (const PartPlan& part : plan.parts)
    parts.push_back(make_part(part.spec, part.to_global, 2));
  ScheduleConfig cfg;
  cfg.ne_limit = 8;
  const GlobalSchedule s =
      schedule_parts(parts, plan.stem_edges, {}, {}, g.vertex_count(), cfg);
  EXPECT_TRUE(s.deadlocked);
  EXPECT_FALSE(s.limit_respected);
  EXPECT_EQ(s.deadlock_parts, (std::vector<std::uint32_t>{
                                  0, 2, 2, 0, 0, 1, 2, 1, 0, 2, 2, 0}));
}

TEST(Scheduler, PeakUsageHonest) {
  const Graph g = make_ring(6);
  const CompiledPart part =
      make_part(g, std::vector<bool>(6, false), {0, 1, 2, 3, 4, 5}, 2);
  ScheduleConfig cfg;
  cfg.ne_limit = 8;
  const GlobalSchedule s = schedule_parts({part}, {}, {}, {}, 6, cfg);
  EXPECT_EQ(s.peak_usage, s.circuit.num_emitters());
  EXPECT_LE(s.peak_usage, 8u);
}

}  // namespace
}  // namespace epg

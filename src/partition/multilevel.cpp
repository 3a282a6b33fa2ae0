#include "partition/multilevel.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/assert.hpp"
#include "graph/coarsen.hpp"
#include "graph/csr.hpp"
#include "graph/local_complement.hpp"

namespace epg {
namespace {

constexpr Vertex kUnassigned = Graph::kNoVertex;

/// Greedy weighted packing of the coarsest clusters into parts: heaviest
/// cluster first (ties: smaller id), into the already-open part it is
/// most strongly connected to among those with spare weight capacity; a
/// cluster with no positive connection opens its own part (gluing
/// unrelated clusters would not reduce the cut but would burn capacity).
PartitionLabels pack_coarsest(const CoarseGraph& g, std::uint64_t cap,
                              ScratchArena& arena) {
  std::vector<Vertex> order(g.n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return std::make_pair(~g.vwgt[a], a) < std::make_pair(~g.vwgt[b], b);
  });

  PartitionLabels labels(g.n, kUnassigned);
  std::vector<std::uint64_t> part_weight;
  // Per-cluster connection tallies. The dense O(P) wipe the old
  // `conn.assign(part_weight.size(), 0)` paid per cluster made the whole
  // packing O(n * P); the accumulator clears in O(1) and only the parts
  // actually adjacent to `c` are visited below (sorted ascending, so the
  // smallest-id-wins tie-break of the old full scan is preserved).
  DenseAccumulator& conn = arena.conn;
  conn.reset(g.n);  // part ids are bounded by the cluster count
  for (Vertex c : order) {
    conn.clear();
    for (std::uint32_t s = g.xadj[c]; s < g.xadj[c + 1]; ++s) {
      const std::uint32_t p = labels[g.adjncy[s]];
      if (p != kUnassigned) conn.add(p, g.adjwgt[s]);
    }
    arena.cands.assign(conn.touched().begin(), conn.touched().end());
    std::sort(arena.cands.begin(), arena.cands.end());
    std::uint32_t best = kUnassigned;
    std::uint64_t best_conn = 0;
    for (std::uint32_t p : arena.cands) {
      const std::uint64_t w = conn.get(p);
      if (w == 0 || part_weight[p] + g.vwgt[c] > cap) continue;
      if (best == kUnassigned || w > best_conn) {
        best = p;
        best_conn = w;
      }
    }
    if (best == kUnassigned) {
      best = static_cast<std::uint32_t>(part_weight.size());
      part_weight.push_back(0);
    }
    labels[c] = best;
    part_weight[best] += g.vwgt[c];
  }
  return labels;
}

/// Boundary move sweeps on a weighted graph: each vertex may hop to the
/// neighboring part it is most connected to when that strictly reduces
/// the weighted cut and the part has weight capacity left. Deterministic:
/// ascending vertex order, ties prefer the smaller part id.
void refine_level(const CoarseGraph& g, PartitionLabels& labels,
                  std::uint64_t cap, int passes, ScratchArena& arena) {
  std::size_t num_parts = 0;
  for (std::uint32_t p : labels) num_parts = std::max<std::size_t>(num_parts, p + 1);
  std::vector<std::uint64_t> part_weight(num_parts, 0);
  for (Vertex v = 0; v < g.n; ++v) part_weight[labels[v]] += g.vwgt[v];

  // Per-move tallies through the arena instead of a fresh unordered_map
  // fill per vertex: no hashing, no rehash churn, O(1) clear.
  DenseAccumulator& conn = arena.conn;
  conn.reset(num_parts);
  for (int pass = 0; pass < passes; ++pass) {
    bool improved = false;
    for (Vertex v = 0; v < g.n; ++v) {
      const std::uint32_t from = labels[v];
      conn.clear();
      for (std::uint32_t s = g.xadj[v]; s < g.xadj[v + 1]; ++s)
        conn.add(labels[g.adjncy[s]], g.adjwgt[s]);
      const std::uint64_t stay = conn.get(from);
      std::uint32_t best = from;
      std::uint64_t best_gain = 0;
      // Iterate candidate parts in ascending id for a stable tie-break.
      std::vector<std::uint32_t>& cands = arena.cands;
      cands.clear();
      for (std::uint32_t p : conn.touched())
        if (p != from) cands.push_back(p);
      std::sort(cands.begin(), cands.end());
      for (std::uint32_t p : cands) {
        if (part_weight[p] + g.vwgt[v] > cap) continue;
        const std::uint64_t w = conn.get(p);
        if (w > stay && w - stay > best_gain) {
          best = p;
          best_gain = w - stay;
        }
      }
      if (best != from) {
        part_weight[from] -= g.vwgt[v];
        part_weight[best] += g.vwgt[v];
        labels[v] = best;
        improved = true;
      }
    }
    if (!improved) break;
  }
}

/// Compress part ids to 0..P-1 in order of first appearance (empty parts
/// left behind by refinement moves drop out of the id space).
void normalize_labels(PartitionLabels& labels) {
  std::vector<std::uint32_t> remap;
  constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);
  std::uint32_t next = 0;
  for (std::uint32_t& l : labels) {
    if (l >= remap.size()) remap.resize(l + 1, kUnseen);
    if (remap[l] == kUnseen) remap[l] = next++;
    l = remap[l];
  }
}

/// Greedy part merging: the packing and the per-level moves can leave
/// many underfull parts (a coarsening of a tree stalls at mixed cluster
/// weights), and a move pass can never fuse two parts. Contract the
/// part-quotient graph with the same heavy-edge matching the hierarchy
/// uses — every merge removes that pair's whole connection weight from
/// the cut and keeps part weights within the cap — until it stops
/// shrinking.
void merge_parts(const CoarseGraph& g, PartitionLabels& labels,
                 std::uint64_t cap, std::uint64_t seed) {
  for (int round = 0; round < 64; ++round) {
    normalize_labels(labels);
    const CoarseGraph q = quotient_graph(g, labels);
    if (q.n <= 1) return;
    const CoarsenLevel merged = coarsen_once(q, cap, seed + round);
    if (merged.graph.n == q.n) return;
    for (std::uint32_t& l : labels) l = merged.cluster_of[l];
  }
}

/// LC-aware moves skip vertices above this degree: an LC try costs
/// O(degree^2) edge probes, and the cap keeps hub vertices of huge graphs
/// from dominating a refinement sweep.
constexpr std::size_t kLcDegreeCap = 64;

/// LC-aware sweep at the finest level: a local complementation at v
/// toggles every edge among N(v); with the labelling held fixed the cut
/// delta is the signed count of toggled cut edges, computable in
/// O(degree^2) bitset probes without touching the graph. Strictly
/// improving moves are applied (the cut decreases monotonically, so the
/// loop terminates) and recorded in `lc_sequence`.
bool lc_refine_pass(Graph& t, const PartitionLabels& labels,
                    std::vector<Vertex>& lc_sequence,
                    const LcPartitionConfig& cfg, ScratchArena& arena) {
  bool improved = false;
  // Neighbor lists come from the live bitset rows (an accepted LC rewires
  // N(v), so a prebuilt CSR snapshot would go stale mid-pass) but land in
  // one reused arena buffer instead of a fresh vector per vertex.
  std::vector<Vertex>& nb = arena.verts;
  for (Vertex v = 0; v < t.vertex_count(); ++v) {
    if (lc_sequence.size() >= cfg.max_lc_ops) break;
    const std::size_t d = t.degree(v);
    if (d < 2 || d > kLcDegreeCap) continue;
    nb.clear();
    t.for_each_neighbor(v, [&](Vertex u) { nb.push_back(u); });
    long delta = 0;
    for (std::size_t i = 0; i < nb.size(); ++i)
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        if (labels[nb[i]] == labels[nb[j]]) continue;
        delta += t.has_edge(nb[i], nb[j]) ? -1 : +1;
      }
    if (delta < 0) {
      local_complement(t, v);
      lc_sequence.push_back(v);
      improved = true;
    }
  }
  return improved;
}

/// Boundary-refinement sweeps per uncoarsening level, and the cap on LC
/// move rounds at the finest level.
constexpr int kRefinePasses = 6;

class MultilevelStrategy final : public PartitionStrategy {
 public:
  std::string_view name() const override { return "multilevel"; }

  PartitionOutcome run(const Graph& g, const LcPartitionConfig& cfg,
                       const Executor& exec) const override {
    EPG_REQUIRE(cfg.g_max >= 1, "g_max must be positive");
    const PartitionStrategy* inner =
        find_partition_strategy(cfg.multilevel_inner);
    EPG_REQUIRE(inner != nullptr && inner != this,
                "multilevel_inner must name a registered flat strategy");
    const std::size_t n = g.vertex_count();
    if (n <= cfg.coarsen_floor) return inner->run(g, cfg, exec);

    // 1. Coarsen. The cap is g_max, so any cluster fits one part.
    CoarsenOptions opt;
    opt.floor_vertices = cfg.coarsen_floor;
    opt.cluster_weight_cap = cfg.g_max;
    opt.seed = cfg.seed;
    const CoarsenHierarchy hier = coarsen_to_floor(g, opt, exec);

    // One scratch arena serves every packing/refinement kernel across all
    // levels: tally buffers warm up once and are reused level to level.
    ScratchArena arena;

    // Per-level polish: move sweeps, then part merging (moves can never
    // fuse two underfull parts), then one more move sweep to clean up
    // the merged boundaries.
    const auto polish = [&](const CoarseGraph& level,
                            PartitionLabels& labels) {
      refine_level(level, labels, cfg.g_max, kRefinePasses, arena);
      merge_parts(level, labels, cfg.g_max, cfg.seed);
      refine_level(level, labels, cfg.g_max, kRefinePasses, arena);
    };

    // 2. Initial packing + polish on the coarsest graph.
    PartitionLabels labels = pack_coarsest(hier.coarsest(), cfg.g_max, arena);
    polish(hier.coarsest(), labels);

    // 3. Uncoarsen: project one level down, polish, repeat. maps[i]
    //    lifts level-i vertices into level-i+1 clusters.
    for (std::size_t lvl = hier.maps.size(); lvl-- > 0;) {
      labels = project_labels(hier.maps[lvl], labels);
      polish(hier.graphs[lvl], labels);
    }

    // 4. Finest level: interleave LC-aware local moves with plain move
    //    sweeps until neither improves (every accepted step strictly
    //    reduces the cut, so this terminates).
    Graph t = g;
    std::vector<Vertex> lc_sequence;
    if (cfg.max_lc_ops > 0) {
      for (int round = 0; round < kRefinePasses; ++round) {
        const bool lc = lc_refine_pass(t, labels, lc_sequence, cfg, arena);
        if (lc) refine_level(coarse_from_graph(t, exec), labels,
                             cfg.g_max, 1, arena);
        if (!lc) break;
      }
    }

    PartitionOutcome out =
        make_outcome(std::move(t), std::move(lc_sequence), labels);

    // 5. Race the flat search while it is still affordable; the better
    //    cut (then the shorter LC sequence, then the flat result, whose
    //    finalize already compared against the identity) wins.
    if (n <= cfg.multilevel_race_limit) {
      PartitionOutcome flat = inner->run(g, cfg, exec);
      const auto key = [](const PartitionOutcome& o, int rank) {
        return std::make_tuple(o.stem_edge_count, o.lc_sequence.size(),
                               rank);
      };
      if (key(flat, 0) <= key(out, 1)) return flat;
      out.work = flat.work;
      out.work_exhausted = flat.work_exhausted;
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<PartitionStrategy> make_multilevel_strategy() {
  return std::make_unique<MultilevelStrategy>();
}

}  // namespace epg

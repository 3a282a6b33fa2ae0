#include "graph/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bitmat.hpp"
#include "graph/csr.hpp"

namespace epg {

std::size_t cut_edge_count(const Graph& g, const PartitionLabels& labels) {
  EPG_REQUIRE(labels.size() == g.vertex_count(),
              "partition labels size mismatch");
  std::size_t cut = 0;
  for (Vertex u = 0; u < g.vertex_count(); ++u)
    g.for_each_neighbor(u, [&](Vertex v) {
      if (u < v && labels[u] != labels[v]) ++cut;
    });
  return cut;
}

std::vector<Edge> cut_edges(const Graph& g, const PartitionLabels& labels) {
  EPG_REQUIRE(labels.size() == g.vertex_count(),
              "partition labels size mismatch");
  std::vector<Edge> out;
  for (Vertex u = 0; u < g.vertex_count(); ++u)
    g.for_each_neighbor(u, [&](Vertex v) {
      if (u < v && labels[u] != labels[v]) out.emplace_back(u, v);
    });
  return out;
}

std::size_t cut_rank(const Graph& g, const std::vector<Vertex>& side) {
  const std::size_t n = g.vertex_count();
  std::vector<bool> in_side(n, false);
  for (Vertex v : side) {
    EPG_REQUIRE(v < n, "cut_rank vertex out of range");
    in_side[v] = true;
  }
  std::vector<Vertex> complement;
  for (Vertex v = 0; v < n; ++v)
    if (!in_side[v]) complement.push_back(v);
  if (side.empty() || complement.empty()) return 0;

  BitMat block(side.size(), complement.size());
  for (std::size_t r = 0; r < side.size(); ++r)
    for (std::size_t c = 0; c < complement.size(); ++c)
      if (g.has_edge(side[r], complement[c])) block.set(r, c, true);
  return block.rank();
}

std::vector<std::size_t> height_function(const Graph& g,
                                         const std::vector<Vertex>& order) {
  EPG_REQUIRE(order.size() == g.vertex_count(),
              "height_function: order must list every vertex once");
  std::vector<std::size_t> h(order.size() + 1, 0);
  std::vector<Vertex> prefix;
  prefix.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    prefix.push_back(order[i]);
    h[i + 1] = cut_rank(g, prefix);
  }
  return h;
}

std::size_t min_emitters_for_order(const Graph& g,
                                   const std::vector<Vertex>& order) {
  const auto h = height_function(g, order);
  return *std::max_element(h.begin(), h.end());
}

namespace {

/// Shared core of the two emitter_bound_for_order overloads; `neighbors`
/// is any callable(v, fn) visiting v's neighbors.
template <typename NeighborFn>
std::size_t emitter_bound_impl(std::size_t n,
                               const std::vector<Vertex>& order,
                               NeighborFn&& neighbors) {
  EPG_REQUIRE(order.size() == n,
              "emitter_bound_for_order: order must list every vertex once");
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t i = 0; i < n; ++i) pos[order[i]] = i;
  // Vertex v is open exactly for cuts i in (pos[v], last_neighbor_pos(v)];
  // accumulate the open count per cut with a difference array.
  std::vector<std::int64_t> diff(n + 2, 0);
  for (Vertex v = 0; v < n; ++v) {
    std::size_t last = pos[v];
    neighbors(v, [&](Vertex u) { last = std::max(last, pos[u]); });
    if (last > pos[v]) {
      ++diff[pos[v] + 1];
      --diff[last + 1];
    }
  }
  std::size_t best = 0;
  std::int64_t open = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    open += diff[i];
    best = std::max(best, static_cast<std::size_t>(open));
  }
  return best;
}

}  // namespace

std::size_t emitter_bound_for_order(const Graph& g,
                                    const std::vector<Vertex>& order) {
  return emitter_bound_impl(g.vertex_count(), order,
                            [&](Vertex v, auto&& fn) {
                              g.for_each_neighbor(v, fn);
                            });
}

std::size_t emitter_bound_for_order(const CsrView& csr,
                                    const std::vector<Vertex>& order) {
  return emitter_bound_impl(csr.vertex_count(), order,
                            [&](Vertex v, auto&& fn) {
                              csr.for_each_neighbor(v, fn);
                            });
}

std::size_t max_degree(const Graph& g) {
  std::size_t d = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    d = std::max(d, g.degree(v));
  return d;
}

double average_degree(const Graph& g) {
  if (g.vertex_count() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.edge_count()) /
         static_cast<double>(g.vertex_count());
}

}  // namespace epg

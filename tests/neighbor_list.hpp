// Test helper: v's neighbors as an ascending list, for assertions that
// compare or iterate whole neighborhoods (the library itself walks rows
// with Graph::for_each_neighbor and never materializes these).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace epg {

inline std::vector<Vertex> neighbor_list(const Graph& g, Vertex v) {
  std::vector<Vertex> out;
  g.for_each_neighbor(v, [&](Vertex u) { out.push_back(u); });
  return out;
}

}  // namespace epg

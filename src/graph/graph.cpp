#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/assert.hpp"

namespace epg {

Graph::Graph(std::size_t n)
    : n_(n), words_((n + 63) / 64), adj_(n * words_, 0) {}

bool Graph::has_edge(Vertex u, Vertex v) const {
  EPG_REQUIRE(u < n_ && v < n_, "Graph::has_edge out of range");
  if (u == v) return false;
  return bit(u, v);
}

bool Graph::add_edge(Vertex u, Vertex v) {
  EPG_REQUIRE(u < n_ && v < n_, "Graph::add_edge out of range");
  EPG_REQUIRE(u != v, "graph states have no self-loops");
  if (bit(u, v)) return false;
  adj_[u * words_ + v / 64] |= 1ULL << (v % 64);
  adj_[v * words_ + u / 64] |= 1ULL << (u % 64);
  ++edge_count_;
  return true;
}

bool Graph::remove_edge(Vertex u, Vertex v) {
  EPG_REQUIRE(u < n_ && v < n_, "Graph::remove_edge out of range");
  if (u == v || !bit(u, v)) return false;
  adj_[u * words_ + v / 64] &= ~(1ULL << (v % 64));
  adj_[v * words_ + u / 64] &= ~(1ULL << (u % 64));
  --edge_count_;
  return true;
}

void Graph::toggle_edge(Vertex u, Vertex v) {
  if (has_edge(u, v))
    remove_edge(u, v);
  else
    add_edge(u, v);
}

std::size_t Graph::degree(Vertex v) const {
  EPG_REQUIRE(v < n_, "Graph::degree out of range");
  std::size_t d = 0;
  for (std::size_t w = 0; w < words_; ++w)
    d += static_cast<std::size_t>(std::popcount(adj_[v * words_ + w]));
  return d;
}

bool Graph::same_neighborhood(Vertex u, Vertex v) const {
  EPG_REQUIRE(u < n_ && v < n_, "Graph::same_neighborhood out of range");
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t a = adj_[u * words_ + w];
    std::uint64_t b = adj_[v * words_ + w];
    // Ignore the mutual bits: compare N(u)\{v} against N(v)\{u}.
    if (w == u / 64) b &= ~(1ULL << (u % 64));
    if (w == v / 64) a &= ~(1ULL << (v % 64));
    if (a != b) return false;
  }
  return true;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (Vertex u = 0; u < n_; ++u)
    for_each_neighbor(u, [&](Vertex v) {
      if (u < v) out.emplace_back(u, v);
    });
  return out;
}

Vertex Graph::add_vertex() {
  const std::size_t new_n = n_ + 1;
  const std::size_t new_words = (new_n + 63) / 64;
  if (new_words != words_) {
    std::vector<std::uint64_t> grown(new_n * new_words, 0);
    for (std::size_t r = 0; r < n_; ++r)
      std::copy_n(&adj_[r * words_], words_, &grown[r * new_words]);
    adj_ = std::move(grown);
    words_ = new_words;
  } else {
    adj_.resize(new_n * words_, 0);
  }
  n_ = new_n;
  return static_cast<Vertex>(n_ - 1);
}

void Graph::isolate(Vertex v) {
  EPG_REQUIRE(v < n_, "Graph::isolate out of range");
  for_each_neighbor(v, [&](Vertex u) {
    adj_[u * words_ + v / 64] &= ~(1ULL << (v % 64));
    --edge_count_;
  });
  std::fill_n(&adj_[v * words_], words_, 0);
}

std::vector<std::vector<Vertex>> Graph::connected_components() const {
  std::vector<std::vector<Vertex>> comps;
  std::vector<bool> seen(n_, false);
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < n_; ++s) {
    if (seen[s]) continue;
    comps.emplace_back();
    stack.push_back(s);
    seen[s] = true;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      comps.back().push_back(v);
      for_each_neighbor(v, [&](Vertex u) {
        if (!seen[u]) {
          seen[u] = true;
          stack.push_back(u);
        }
      });
    }
    std::sort(comps.back().begin(), comps.back().end());
  }
  return comps;
}

bool Graph::is_connected() const {
  if (n_ <= 1) return true;
  return connected_components().size() == 1;
}

Graph Graph::induced(const std::vector<Vertex>& keep,
                     std::vector<Vertex>* old_to_new) const {
  Graph sub(keep.size());
  std::vector<Vertex> map(n_, kNoVertex);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EPG_REQUIRE(keep[i] < n_, "Graph::induced vertex out of range");
    EPG_REQUIRE(map[keep[i]] == kNoVertex,
                "Graph::induced duplicate vertex");
    map[keep[i]] = static_cast<Vertex>(i);
  }
  for (std::size_t i = 0; i < keep.size(); ++i)
    for_each_neighbor(keep[i], [&](Vertex u) {
      if (map[u] != kNoVertex && map[u] > i)
        sub.add_edge(static_cast<Vertex>(i), map[u]);
    });
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return sub;
}

std::uint64_t adjacency_fingerprint(std::size_t n, const std::uint64_t* rows,
                                    std::size_t count) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * 0x2545f4914f6cdd1dULL);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t x = rows[i] + 0x9e3779b97f4a7c15ULL + i;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= x ^ (x >> 31);
    h *= 0xff51afd7ed558ccdULL;
  }
  return h;
}

std::uint64_t Graph::fingerprint() const {
  return adjacency_fingerprint(n_, adj_.data(), adj_.size());
}

bool Graph::operator==(const Graph& other) const {
  return n_ == other.n_ && adj_ == other.adj_;
}

const std::uint64_t* Graph::row(Vertex v) const {
  EPG_REQUIRE(v < n_, "Graph::row out of range");
  return &adj_[v * words_];
}

std::string to_string(const Graph& g) {
  std::ostringstream os;
  os << "Graph(n=" << g.vertex_count() << ", m=" << g.edge_count()
     << ", edges=[";
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    if (!first) os << ", ";
    os << '(' << u << ',' << v << ')';
    first = false;
  }
  os << "])";
  return os.str();
}

}  // namespace epg

#include "solver/anneal.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "graph/local_complement.hpp"

namespace epg {

double anneal_acceptance(double delta, double temperature) {
  if (delta <= 0.0) return 1.0;
  if (temperature <= 0.0) return 0.0;
  return std::exp(-delta / temperature);
}

namespace {

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The annealing state: the LC-transformed graph kept incrementally in
/// sync with its generating sequence. LC is an involution, so append and
/// pop are exact inverses of each other.
struct Chain {
  Graph graph;
  std::vector<Vertex> seq;

  void append(Vertex v) {
    local_complement(graph, v);
    seq.push_back(v);
  }
  void pop() {
    local_complement(graph, seq.back());
    seq.pop_back();
  }
};

/// Vertices where an LC move changes edges (degree >= 2), does not
/// immediately cancel the previous move, and is not `avoid` (the vertex a
/// replace move just popped — re-appending it would propose the current
/// state again).
std::vector<Vertex> eligible_moves(const Chain& chain, const Vertex* avoid) {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < chain.graph.vertex_count(); ++v) {
    if (chain.graph.degree(v) < 2) continue;
    if (!chain.seq.empty() && chain.seq.back() == v) continue;
    if (avoid != nullptr && *avoid == v) continue;
    out.push_back(v);
  }
  return out;
}

}  // namespace

PartitionOutcome search_lc_partition_anneal(const Graph& g,
                                            const LcPartitionConfig& cfg,
                                            const Executor& exec) {
  EPG_REQUIRE(cfg.g_max >= 1, "g_max must be positive");
  (void)exec;  // single sequential chain; see header
  if (cfg.max_lc_ops == 0 || cfg.anneal_iterations <= 0)
    return lc_partition_finalize(g, g, {}, cfg);

  Stopwatch clock;
  std::uint64_t work = g.vertex_count() + g.edge_count();
  Rng rng(mix_seed(cfg.seed, 0xA22EA7));

  Chain current{g, {}};
  double current_e = static_cast<double>(
      lc_partition_quick_cut(g, cfg, mix_seed(cfg.seed, 0)));
  Graph best_graph = g;
  std::vector<Vertex> best_seq;
  double best_e = current_e;

  // Cut deltas are small integers; scale the start temperature with the
  // initial cut so dense graphs still explore.
  AnnealSchedule schedule;
  schedule.iterations = cfg.anneal_iterations;
  schedule.temp_start = std::max(2.0, 0.25 * current_e);
  schedule.temp_end = 0.05;

  bool exhausted = false;
  for (int it = 0; it < schedule.iterations; ++it) {
    // Budget check before every move: the work budget truncates at a
    // move boundary, so a completed prefix is a pure function of (g, cfg).
    if (work >= kPartitionWorkBudget || clock.expired(cfg.time_budget_ms)) {
      exhausted = true;
      break;
    }
    const double frac =
        schedule.iterations <= 1
            ? 1.0
            : static_cast<double>(it) / (schedule.iterations - 1);
    const double temp =
        schedule.temp_start *
        std::pow(schedule.temp_end / schedule.temp_start, frac);

    // Propose: append (grow), replace (sideways), or pop (shrink); the
    // depth cap and an empty sequence restrict the menu.
    enum class Move { append, replace, pop };
    Move move = Move::append;
    if (!current.seq.empty()) {
      const double roll = rng.uniform();
      if (current.seq.size() >= cfg.max_lc_ops)
        move = roll < 0.6 ? Move::replace : Move::pop;
      else if (roll < 0.5)
        move = Move::append;
      else if (roll < 0.8)
        move = Move::replace;
      else
        move = Move::pop;
    }

    Vertex popped = 0;
    bool did_pop = false;
    if (move != Move::append) {
      popped = current.seq.back();
      current.pop();
      did_pop = true;
    }
    Vertex added = 0;
    bool did_append = false;
    if (move != Move::pop) {
      const std::vector<Vertex> options =
          eligible_moves(current, move == Move::replace ? &popped : nullptr);
      if (!options.empty()) {
        added = options[rng.pick_index(options)];
        current.append(added);
        did_append = true;
      } else if (!did_pop) {
        continue;  // nothing to propose at all
      }
    }
    if (!did_pop && !did_append) continue;

    work += current.graph.vertex_count() + current.graph.edge_count();
    const double cand_e = static_cast<double>(lc_partition_quick_cut(
        current.graph, cfg, mix_seed(cfg.seed, static_cast<std::uint64_t>(it) + 1)));
    if (rng.chance(anneal_acceptance(cand_e - current_e, temp))) {
      current_e = cand_e;
      if (cand_e < best_e) {  // strict: earliest best wins ties
        best_e = cand_e;
        best_graph = current.graph;
        best_seq = current.seq;
      }
    } else {
      // Reject: unwind in reverse order via the involution.
      if (did_append) current.pop();
      if (did_pop) current.append(popped);
    }
  }

  PartitionOutcome out = lc_partition_finalize(g, std::move(best_graph),
                                               std::move(best_seq), cfg);
  out.work = work;
  out.work_exhausted = exhausted;
  return out;
}

}  // namespace epg

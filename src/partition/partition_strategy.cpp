#include "partition/partition_strategy.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <tuple>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "graph/local_complement.hpp"
#include "partition/multilevel.hpp"
#include "partition/seen_set.hpp"
#include "solver/anneal.hpp"

namespace epg {
namespace {

/// splitmix64-style mix: one derived, statistically independent seed per
/// (search position, candidate) pair, so parallel scoring draws the same
/// stream a serial loop would.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (a * 1315423911ULL + b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- beam ------------------------------------------------------------------

class BeamStrategy final : public PartitionStrategy {
 public:
  std::string_view name() const override { return "beam"; }

  PartitionOutcome run(const Graph& g, const LcPartitionConfig& cfg,
                       const Executor& exec) const override {
    EPG_REQUIRE(cfg.g_max >= 1, "g_max must be positive");
    Stopwatch clock;
    std::uint64_t work = g.vertex_count() + g.edge_count();
    // Both conditions only ever turn true, and every true check truncates
    // the search, so the last answer says whether the budget cut it.
    bool exhausted = false;
    const auto out_of_budget = [&] {
      exhausted = work >= kPartitionWorkBudget ||
                  clock.expired(cfg.time_budget_ms);
      return exhausted;
    };

    struct Entry {
      Graph graph;
      std::vector<Vertex> lc_sequence;
      std::uint64_t seed = 0;
      std::size_t score = 0;
    };

    Entry best{g, {}, 0, lc_partition_quick_cut(g, cfg, cfg.seed)};
    std::vector<Entry> beam;
    beam.push_back(best);
    GraphSeenSet seen;
    // One step proposes at most beam_width * n candidates; pre-size for a
    // step's worth (capped — a long search grows by doubling from there).
    seen.reserve(std::min<std::size_t>(
        1 + cfg.beam_width * g.vertex_count(), std::size_t{1} << 20));
    seen.insert(g);

    for (std::size_t step = 0; step < cfg.max_lc_ops; ++step) {
      // Budget checks between steps, between beam entries while
      // expanding, and between scoring chunks: overshoot is bounded by one
      // chunk, and the work budget is charged per finished chunk, so it
      // truncates at a point that is a pure function of (g, cfg) — lane
      // count only changes how fast a chunk finishes, never what it
      // computes. An optional wall deadline is checked at the same
      // points.
      if (out_of_budget()) break;

      // 1. Expand serially in fixed (entry, vertex) order — graph copies
      //    are cheap next to scoring, and determinism needs a fixed
      //    candidate list before the parallel phase.
      std::vector<Entry> candidates;
      for (const Entry& entry : beam) {
        if (out_of_budget()) break;
        for (Vertex v = 0; v < entry.graph.vertex_count(); ++v) {
          // LC at a vertex of degree < 2 is the identity on edges.
          if (entry.graph.degree(v) < 2) continue;
          if (!entry.lc_sequence.empty() && entry.lc_sequence.back() == v)
            continue;  // immediate repeat cancels
          Graph next = entry.graph;
          local_complement(next, v);
          if (!seen.insert(next)) continue;
          Entry cand;
          cand.lc_sequence = entry.lc_sequence;
          cand.lc_sequence.push_back(v);
          cand.seed = derive_seed(cfg.seed, step, v);
          cand.graph = std::move(next);
          candidates.push_back(std::move(cand));
        }
      }
      if (candidates.empty()) break;

      // 2. Quick-score in parallel, a fixed-size chunk per barrier: every
      //    index owns its slot and its derived seed, so scores are
      //    lane-count independent; a spent budget drops the unscored tail
      //    (anytime truncation at a chunk boundary).
      constexpr std::size_t kScoreChunk = 16;
      std::size_t scored = 0;
      while (scored < candidates.size()) {
        const std::size_t chunk_end =
            std::min(scored + kScoreChunk, candidates.size());
        exec.parallel_for(chunk_end - scored, [&](std::size_t i) {
          Entry& cand = candidates[scored + i];
          cand.score = lc_partition_quick_cut(cand.graph, cfg, cand.seed);
        });
        for (; scored < chunk_end; ++scored)
          work += candidates[scored].graph.vertex_count() +
                  candidates[scored].graph.edge_count();
        if (scored < candidates.size() && out_of_budget()) {
          candidates.resize(scored);
          break;
        }
      }

      // 3. Deterministic selection: total order with a generation-index
      //    tie-break, so equal-score candidates never reorder.
      std::vector<std::size_t> order(candidates.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return std::make_tuple(candidates[a].score,
                                         candidates[a].lc_sequence.size(),
                                         a) <
                         std::make_tuple(candidates[b].score,
                                         candidates[b].lc_sequence.size(),
                                         b);
                });
      const std::size_t keep =
          std::min<std::size_t>(cfg.beam_width, order.size());
      std::vector<Entry> next_beam;
      next_beam.reserve(keep);
      for (std::size_t k = 0; k < keep; ++k)
        next_beam.push_back(std::move(candidates[order[k]]));
      if (next_beam.front().score < best.score) best = next_beam.front();
      beam = std::move(next_beam);
    }

    PartitionOutcome out = lc_partition_finalize(
        g, std::move(best.graph), std::move(best.lc_sequence), cfg);
    out.work = work;
    out.work_exhausted = exhausted;
    return out;
  }
};

// ---- anneal ----------------------------------------------------------------

class AnnealStrategy final : public PartitionStrategy {
 public:
  std::string_view name() const override { return "anneal"; }

  PartitionOutcome run(const Graph& g, const LcPartitionConfig& cfg,
                       const Executor& exec) const override {
    EPG_REQUIRE(cfg.g_max >= 1, "g_max must be positive");
    return search_lc_partition_anneal(g, cfg, exec);
  }
};

// ---- portfolio -------------------------------------------------------------

class PortfolioStrategy final : public PartitionStrategy {
 public:
  std::string_view name() const override { return "portfolio"; }

  PartitionOutcome run(const Graph& g, const LcPartitionConfig& cfg,
                       const Executor& exec) const override {
    EPG_REQUIRE(cfg.g_max >= 1, "g_max must be positive");
    const std::size_t width = std::max<std::size_t>(1, cfg.portfolio_width);
    const BeamStrategy beam;
    const AnnealStrategy anneal;
    const PartitionStrategy* const engines[] = {&beam, &anneal};

    // Race restarts: slots 0/1 are the plain beam and anneal runs at the
    // caller's seed, slots >= 2 re-seed. The winner is picked by stem count
    // alone, so its cut is never worse than plain beam's or anneal's, but
    // the compiled circuit can be (fewer stems need not mean fewer ee-CZs
    // once the parts compile). Members run serial chains — the racing
    // itself is the parallelism, and each member stays deterministic on
    // its own.
    std::vector<PartitionOutcome> outcomes(width);
    exec.parallel_for(width, [&](std::size_t slot) {
      LcPartitionConfig member = cfg;
      if (slot >= 2)
        member.seed = derive_seed(cfg.seed, 0x5EEDF0110ULL, slot);
      const PartitionStrategy* engine = engines[slot % 2];
      Span span("strategy_attempt", "partition");
      span.arg("slot", static_cast<std::uint64_t>(slot));
      span.arg("engine", engine->name());
      outcomes[slot] = engine->run(g, member, Executor::serial());
    });

    // Deterministic reduction: best cut, then fewest LC corrections, then
    // the lowest slot index — independent of completion order.
    std::size_t winner = 0;
    for (std::size_t slot = 1; slot < width; ++slot) {
      const auto key = [&](std::size_t s) {
        return std::make_tuple(outcomes[s].stem_edge_count,
                               outcomes[s].lc_sequence.size(), s);
      };
      if (key(slot) < key(winner)) winner = slot;
    }
    std::uint64_t work = 0;
    bool exhausted = false;
    for (const PartitionOutcome& o : outcomes) {
      work += o.work;
      exhausted = exhausted || o.work_exhausted;
    }
    PartitionOutcome out = std::move(outcomes[winner]);
    out.work = work;
    out.work_exhausted = exhausted;
    return out;
  }
};

// ---- built-in table --------------------------------------------------------

/// The four built-ins, sorted by name.
const std::array<const PartitionStrategy*, 4>& builtin_strategies() {
  static const AnnealStrategy anneal;
  static const BeamStrategy beam;
  static const std::unique_ptr<PartitionStrategy> multilevel =
      make_multilevel_strategy();
  static const PortfolioStrategy portfolio;
  static const std::array<const PartitionStrategy*, 4> table = {
      &anneal, &beam, multilevel.get(), &portfolio};
  return table;
}

}  // namespace

const PartitionStrategy* find_partition_strategy(std::string_view name) {
  for (const PartitionStrategy* s : builtin_strategies())
    if (s->name() == name) return s;
  return nullptr;
}

std::vector<std::string> partition_strategy_names() {
  std::vector<std::string> names;
  for (const PartitionStrategy* s : builtin_strategies())
    names.emplace_back(s->name());
  return names;
}

}  // namespace epg

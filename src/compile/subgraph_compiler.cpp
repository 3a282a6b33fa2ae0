#include "compile/subgraph_compiler.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>

#include "circuit/simulate.hpp"
#include "circuit/timing.hpp"
#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "graph/metrics.hpp"
#include "stab/tableau.hpp"

namespace epg {
namespace {

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

std::uint64_t pack_cost(std::uint32_t disconnects, std::uint32_t swaps) {
  return (static_cast<std::uint64_t>(disconnects) << 32) | swaps;
}

/// Open-addressed, size-capped replacement for the search's old
/// unordered_map<hash, cost> memo. Below the cap it reproduces the map's
/// behavior exactly (same keys, same prune decisions); at the cap it stops
/// admitting *new* states — pruning through already-stored states and
/// cost updates keep working — so memory stays bounded on pathological
/// parts instead of growing with every explored node.
///
/// A slot is 12 bytes: the 64-bit state hash as two 32-bit halves beside
/// the cost packed as `disconnects << 16 | swaps`. That packing preserves
/// pack_cost's order whenever both counts fit in 16 bits (checked), so the
/// memo's comparisons, and with them its prune decisions, are unchanged.
class FlatMemo {
 public:
  void reset(std::size_t cap_entries) {
    cap_ = std::max<std::size_t>(cap_entries, 16);
    slots_.assign(1024, Slot{});
    size_ = 0;
    zero_used_ = false;
    zero_cost_ = 0;
  }

  std::size_t size() const { return size_ + (zero_used_ ? 1 : 0); }

  /// unordered_map semantics of the DFS memo check: skip (return false)
  /// when `key` is stored with cost <= `cost`; otherwise store/update and
  /// visit. When the table is saturated at the cap, unseen keys are not
  /// inserted but the node is still visited.
  bool should_visit(std::uint64_t key, std::uint64_t cost) {
    const std::uint32_t packed = compact(cost);
    if (key == 0) {  // the sentinel slot value, kept out of the table
      if (zero_used_ && zero_cost_ <= packed) return false;
      zero_used_ = true;
      zero_cost_ = packed;
      return true;
    }
    const Slot probe = Slot::of(key, packed);
    std::size_t i = index_of(key);
    while (!slots_[i].empty()) {
      if (slots_[i].same_key(probe)) {
        if (slots_[i].cost <= packed) return false;
        slots_[i].cost = packed;
        return true;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    if (size_ < cap_) {
      slots_[i] = probe;
      ++size_;
      maybe_grow();
    }
    return true;
  }

 private:
  struct Slot {
    std::uint32_t key_lo = 0;
    std::uint32_t key_hi = 0;
    std::uint32_t cost = 0;

    static Slot of(std::uint64_t key, std::uint32_t cost) {
      return {static_cast<std::uint32_t>(key),
              static_cast<std::uint32_t>(key >> 32), cost};
    }
    std::uint64_t key() const {
      return (static_cast<std::uint64_t>(key_hi) << 32) | key_lo;
    }
    bool empty() const { return (key_lo | key_hi) == 0; }
    bool same_key(const Slot& o) const {
      return key_lo == o.key_lo && key_hi == o.key_hi;
    }
  };
  static_assert(sizeof(Slot) == 12);

  /// pack_cost(d, s) as d << 16 | s, the same order for 16-bit counts.
  static std::uint32_t compact(std::uint64_t cost) {
    const std::uint64_t disconnects = cost >> 32;
    const std::uint64_t swaps = cost & 0xffffffffULL;
    EPG_CHECK(disconnects <= 0xffff && swaps <= 0xffff,
              "search cost exceeds the memo's 16-bit counts");
    return static_cast<std::uint32_t>(disconnects << 16 | swaps);
  }

  std::size_t index_of(std::uint64_t key) const {
    // Fibonacci mixing; the probe start must depend on high bits too.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           (slots_.size() - 1);
  }

  void maybe_grow() {
    // Keep load under ~0.7 while below the cap; once slots cover the cap,
    // the size_ < cap_ guard above stops further inserts (the table always
    // keeps >= 30% headroom, so probes terminate).
    if (size_ * 10 < slots_.size() * 7) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.empty()) continue;
      std::size_t i = index_of(s.key());
      while (!slots_[i].empty()) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t cap_ = 16;
  bool zero_used_ = false;
  std::uint32_t zero_cost_ = 0;
};

/// One search move: a mutation and its operands. `a` is the emitter of an
/// absorption or the first emitter of a disconnect, else the photon or LC
/// vertex; `b` is the absorbed photon or the second emitter.
struct Move {
  ReduceOpKind kind = ReduceOpKind::swap_photon;
  Vertex a = 0;
  Vertex b = 0;
};

template <class State>
void apply(State& s, const Move& m) {
  switch (m.kind) {
    case ReduceOpKind::swap_photon: s.swap_photon(m.a); break;
    case ReduceOpKind::absorb_leaf: s.absorb_leaf(m.a, m.b); break;
    case ReduceOpKind::absorb_dangler: s.absorb_dangler(m.a, m.b); break;
    case ReduceOpKind::absorb_twin: s.absorb_twin(m.a, m.b); break;
    case ReduceOpKind::disconnect: s.disconnect(m.a, m.b); break;
    case ReduceOpKind::local_comp: s.local_comp(m.a); break;
    case ReduceOpKind::retire_emitter:
      EPG_CHECK(false, "retirement is not a search move");
  }
}

/// Per-depth scratch: one reusable state per DFS level, so a child is
/// produced by copy-*assignment* into the state left at this depth by the
/// previous candidate — one same-size buffer copy, no allocation.
/// unique_ptr keeps the states address-stable while the arena vector grows
/// under live references held by outer frames.
template <class State>
struct DepthScratch {
  State state;
  /// The move from this depth's node to the child being searched; moves
  /// at depths 0..d-1 are the path to the current node at depth d.
  Move move;
  /// Live photons in swap-move order, each packed as
  /// (degree << 32) | (2^32 - 1 - vertex): descending keys order photons by
  /// degree, high first, then by vertex, low first.
  std::vector<std::uint64_t> swap_order;

  explicit DepthScratch(const State& proto) : state(proto) {}
};

template <class State>
struct SearchContext {
  const SubgraphCompileConfig* cfg = nullptr;
  Stopwatch clock;
  std::size_t nodes = 0;
  bool out_of_budget = false;
  /// The node or time budget (not stop_at_first) ended the search.
  bool budget_hit = false;
  /// Large-part mode: unwind as soon as one reduction is recorded.
  bool stop_at_first = false;
  std::uint64_t best_cost = ~0ULL;
  /// `nodes` when best_cost last fell; 0 while it never did.
  std::size_t last_change_node = 0;
  std::vector<std::vector<ReduceOp>> candidates;
  FlatMemo memo;
  std::size_t memo_peak = 0;
  std::vector<std::unique_ptr<DepthScratch<State>>> arena;

  void init(const SubgraphCompileConfig& config) {
    cfg = &config;
    memo.reset(config.memo_cap);
  }

  DepthScratch<State>& scratch(std::size_t depth, const State& proto) {
    while (arena.size() <= depth)
      arena.push_back(std::make_unique<DepthScratch<State>>(proto));
    return *arena[depth];
  }

  bool budget_exhausted() {
    if (out_of_budget) return true;
    if (nodes > cfg->node_budget ||
        ((nodes & 0x3ff) == 0 && clock.expired(cfg->time_budget_ms)))
      out_of_budget = budget_hit = true;
    return out_of_budget;
  }
};

/// Cheapest reduction sequences a search keeps for the T_loss selection.
constexpr std::size_t kKeepCandidates = 6;

/// Keeps the reduced node `state` at `depth` when it ties or beats the
/// incumbent: its ops come from replaying the moves that led to it on a
/// fresh state that logs them.
template <class State>
void record_solution(SearchContext<State>& ctx, const State& state,
                     std::size_t depth) {
  const std::uint64_t cost =
      pack_cost(state.disconnect_count(), state.swap_count());
  if (cost < ctx.best_cost) {
    ctx.best_cost = cost;
    ctx.last_change_node = ctx.nodes;
    ctx.candidates.clear();
  }
  if (cost == ctx.best_cost && ctx.candidates.size() < kKeepCandidates) {
    std::vector<ReduceOp>& ops = ctx.candidates.emplace_back();
    ReductionState replay(state.spec(), state.ne_limit(), state.policy(),
                          &ops);
    for (std::size_t d = 0; d < depth; ++d) apply(replay, ctx.arena[d]->move);
    replay.finalize();
  }
  if (ctx.stop_at_first) ctx.out_of_budget = true;
}

template <class State>
void dfs(SearchContext<State>& ctx, const State& state, std::size_t depth) {
  if (ctx.budget_exhausted()) return;
  ++ctx.nodes;

  const std::uint64_t cost =
      pack_cost(state.disconnect_count(), state.swap_count());
  if (cost > ctx.best_cost) return;
  if (state.reduced()) {
    record_solution(ctx, state, depth);
    return;
  }
  if (!ctx.memo.should_visit(state.state_hash(), cost)) return;
  ctx.memo_peak = std::max(ctx.memo_peak, ctx.memo.size());
  DepthScratch<State>& sc = ctx.scratch(depth, state);
  State& next = sc.state;

  const std::size_t words = state.words();
  // The state is const while moves are generated, so its role masks stay
  // valid for the whole node; every family walks them in ascending vertex
  // order.
  const std::uint64_t* photons = state.photon_mask();
  const std::uint64_t* emitters = state.emitter_mask();
  const std::uint64_t* boundary = state.boundary_mask();
  // Walks the set bits of word(w) over all words. Leaf and twin
  // absorptions and LC never apply at a boundary vertex, so those families
  // drop boundary vertices before any legality check.
  const auto for_each_in = [&](auto&& word, auto&& fn) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t bits = word(w);
      if (!for_each_set_bit(&bits, 1, [&](Vertex b) {
            return fn(static_cast<Vertex>(w * 64 + b));
          }))
        return false;
    }
    return true;
  };
  const auto inner_photons = [&](std::size_t w) {
    return photons[w] & ~boundary[w];
  };
  // Runs one child of cost `child_cost` and reports whether to keep going.
  // A child that costs more than the incumbent would only count itself and
  // return (the top of dfs), so it is counted the same way without being
  // built.
  const auto visit = [&](std::uint64_t child_cost, ReduceOpKind kind,
                         Vertex a, Vertex b = 0) {
    if (child_cost > ctx.best_cost) {
      if (!ctx.budget_exhausted()) ++ctx.nodes;
    } else {
      sc.move = {kind, a, b};
      next = state;
      apply(next, sc.move);
      dfs(ctx, next, depth + 1);
    }
    return !ctx.budget_exhausted();
  };
  const std::uint64_t swap_cost = pack_cost(state.disconnect_count(),
                                            state.swap_count() + 1);
  const std::uint64_t disconnect_cost = pack_cost(
      state.disconnect_count() + 1, state.swap_count());

  // Move enumeration, cheapest first. Absorptions cost nothing; swaps cost a
  // measurement; LC costs local gates; disconnects cost an ee-CZ.
  // 1) absorb_leaf
  if (!for_each_in(inner_photons, [&](Vertex p) {
        const Vertex e = state.sole_neighbor(p);
        if (e == Graph::kNoVertex || !state.can_absorb_leaf(e, p)) return true;
        return visit(cost, ReduceOpKind::absorb_leaf, e, p);
      }))
    return;
  // 2) absorb_twin
  if (!for_each_set_bit(emitters, words, [&](Vertex e) {
        return for_each_in(inner_photons, [&](Vertex p) {
          if (!state.can_absorb_twin(e, p)) return true;
          return visit(cost, ReduceOpKind::absorb_twin, e, p);
        });
      }))
    return;
  // 3) absorb_dangler
  if (!for_each_set_bit(emitters, words, [&](Vertex e) {
        const Vertex p = state.sole_neighbor(e);
        if (p == Graph::kNoVertex || !state.can_absorb_dangler(e, p))
          return true;
        return visit(cost, ReduceOpKind::absorb_dangler, e, p);
      }))
    return;
  // 4) swaps, high-degree photons first (hubs become emitters so their
  //    edges are realized by emissions rather than ee-CZs), ties in
  //    ascending vertex order: an insertion sort of the packed keys.
  if (state.has_free_capacity()) {
    std::vector<std::uint64_t>& order = sc.swap_order;
    order.clear();
    for_each_set_bit(photons, words, [&](Vertex p) {
      const std::uint64_t key =
          (std::uint64_t{state.degree(p)} << 32) | (~p & 0xffffffffULL);
      std::size_t i = order.size();
      order.push_back(key);
      for (; i > 0 && order[i - 1] < key; --i) order[i] = order[i - 1];
      order[i] = key;
    });
    for (const std::uint64_t key : order) {
      const auto p = static_cast<Vertex>(~key & 0xffffffffULL);
      if (!visit(swap_cost, ReduceOpKind::swap_photon, p)) return;
    }
  }
  // 5) local complementation (bounded) at live vertices.
  if (state.lc_count() < ctx.cfg->max_lc_ops &&
      !for_each_in(
          [&](std::size_t w) {
            return (photons[w] | emitters[w]) & ~boundary[w];
          },
          [&](Vertex v) {
            if (!state.can_local_comp(v)) return true;
            return visit(cost, ReduceOpKind::local_comp, v);
          }))
    return;
  // 6) disconnects over emitter neighbors, each pair once (e1 < e2).
  for_each_set_bit(emitters, words, [&](Vertex e1) {
    const std::uint64_t* r = state.row(e1);
    return for_each_in([&](std::size_t w) { return r[w] & emitters[w]; },
                       [&](Vertex e2) {
      if (e2 < e1 || !state.can_disconnect(e1, e2)) return true;
      return visit(disconnect_cost, ReduceOpKind::disconnect, e1, e2);
    });
  });
}

// ---------------------------------------------------------------------------
// Synthesis
// ---------------------------------------------------------------------------

/// Expected tableau for a partially reduced state: live vertices form the
/// graph state, absorbed/retired wires are |0>.
Tableau expected_state(const Graph& g, const std::vector<Role>& roles) {
  Tableau t(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    if (roles[v] != Role::done) t.h(v);
  for (const auto& [u, v] : g.edges()) t.cz(u, v);
  return t;
}

struct AbsorbGates {
  Clifford1 pre_e;  ///< emitter local before the CNOT (reverse order)
  Clifford1 pre_p;  ///< photon local before the CNOT
};

AbsorbGates absorb_gates(const ReduceOp& op) {
  switch (op.kind) {
    case ReduceOpKind::absorb_leaf:
      return {Clifford1::identity(), Clifford1::h()};
    case ReduceOpKind::absorb_dangler:
      return {Clifford1::h(), Clifford1::identity()};
    case ReduceOpKind::absorb_twin:
      if (op.twin_adjacent)
        return {Clifford1::sqrt_x(), Clifford1::sqrt_x_dag()};
      return {Clifford1::h(), Clifford1::h()};
    default:
      EPG_CHECK(false, "not an absorption op");
  }
  return {};
}

struct OpCalibration {
  bool x_fix = false;   ///< photon left in |1>: X correction
  Clifford1 fix_e;      ///< emitter correction restoring graph form
};

/// Replay the reverse sequence on a tableau, deriving for every absorption
/// the local corrections that restore exact graph form. The replayed
/// ReductionState supplies the expected graph after each op.
std::vector<OpCalibration> calibrate(const SubgraphSpec& spec,
                                     const std::vector<ReduceOp>& ops) {
  const std::size_t n = spec.graph.vertex_count();
  Tableau t = Tableau::graph_state(spec.graph);
  ReductionState replay(spec, static_cast<std::uint32_t>(n) + 1);
  std::vector<OpCalibration> calib(ops.size());

  auto roles = [&] {
    std::vector<Role> r(n);
    for (Vertex v = 0; v < n; ++v) r[v] = replay.role(v);
    return r;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ReduceOp& op = ops[i];
    switch (op.kind) {
      case ReduceOpKind::swap_photon:
        replay.swap_photon(op.p);  // pure relabel: tableau unchanged
        break;
      case ReduceOpKind::retire_emitter: {
        // finalize() emits anchor retires; mid-sequence retires were
        // recorded by the replayed mutations themselves. Either way the
        // wire holds |+> and H returns it to |0>.
        t.h(op.e);
        EPG_CHECK(t.is_zero_state(op.e), "retired emitter must reach |0>");
        break;
      }
      case ReduceOpKind::disconnect:
        t.cz(op.e, op.p);
        replay.disconnect(op.e, op.p);
        break;
      case ReduceOpKind::local_comp: {
        // |LC_v(G)> = sqrt(X)^dag_v (x) S_N |G>.
        t.sqrt_x_dag(op.p);
        for (const auto& [v, slot] : op.lc_emitter_neighbors) {
          (void)slot;
          t.s(v);
        }
        for (Vertex v : op.lc_photon_neighbors) t.s(v);
        replay.local_comp(op.p);
        break;
      }
      case ReduceOpKind::absorb_leaf:
      case ReduceOpKind::absorb_dangler:
      case ReduceOpKind::absorb_twin: {
        const AbsorbGates gates = absorb_gates(op);
        t.apply(op.e, gates.pre_e);
        t.apply(op.p, gates.pre_p);
        t.cnot(op.e, op.p);
        const auto z = t.peek_z(op.p);
        EPG_CHECK(z.has_value(), "absorbed photon must collapse to Z basis");
        if (*z) {
          t.x(op.p);
          calib[i].x_fix = true;
        }
        if (op.kind == ReduceOpKind::absorb_leaf)
          replay.absorb_leaf(op.e, op.p);
        else if (op.kind == ReduceOpKind::absorb_dangler)
          replay.absorb_dangler(op.e, op.p);
        else
          replay.absorb_twin(op.e, op.p);

        // The replay auto-appends retire ops; roles after it are the
        // ground truth for the expected state.
        const Tableau want = expected_state(replay.graph(), roles());
        bool found = false;
        for (std::uint8_t c = 0; c < Clifford1::group_order && !found; ++c) {
          const Clifford1 cand = Clifford1::from_index(c);
          Tableau probe = t;
          probe.apply(op.e, cand);
          // A retire op may follow in `ops`; the expected state already has
          // the emitter live or |0>-via-H handled there, so compare against
          // the live form: if the replay retired it, undo the H for the
          // comparison by checking against |+>-form instead.
          if (replay.role(op.e) == Role::done) probe.h(op.e);
          if (probe.same_state_as(want)) {
            calib[i].fix_e = cand;
            found = true;
          }
        }
        EPG_CHECK(found, "no local correction restores graph form (op " +
                             std::to_string(i) + ", kind " +
                             std::to_string(static_cast<int>(op.kind)) +
                             ", e=" + std::to_string(op.e) +
                             ", p=" + std::to_string(op.p) +
                             (op.twin_adjacent ? ", adjacent" : "") +
                             (op.anchor ? ", anchor" : "") + ")");
        t.apply(op.e, calib[i].fix_e);
        break;
      }
    }
  }
  return calib;
}

/// Trace label of a dangler policy (the `level_search` span's arg).
std::string_view policy_name(DanglerPolicy policy) {
  switch (policy) {
    case DanglerPolicy::free_form: return "free_form";
    case DanglerPolicy::key_ordered: return "key_ordered";
    case DanglerPolicy::anchors_only: return "anchors_only";
  }
  return "";
}

/// Trace label of a search cost: "disconnects/swaps", or "none" before
/// any reduction is found.
std::string cost_label(std::uint64_t cost) {
  if (cost == ~0ULL) return "none";
  return std::to_string(cost >> 32) + "/" +
         std::to_string(cost & 0xffffffffULL);
}

/// Synthesize (and calibrate) the forward circuit for a finalized reduction
/// op sequence.
SubgraphCircuit synthesize_forward(const SubgraphSpec& spec,
                                   const std::vector<ReduceOp>& ops,
                                   std::uint32_t slots_used,
                                   const HardwareModel& hw) {
  const std::vector<OpCalibration> calib = calibrate(spec, ops);
  const std::size_t n = spec.graph.vertex_count();
  SubgraphCircuit out;
  out.circuit = Circuit(n, slots_used);
  out.ops = ops;
  Circuit& c = out.circuit;

  // Anchor bookkeeping indexed directly by emitter slot (slots are dense
  // 0..slots_used-1), replacing a hashed map on the synthesis hot path.
  std::vector<AnchorInfo> anchor_by_slot(slots_used);
  std::vector<bool> anchor_slot_used(slots_used, false);

  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const ReduceOp& op = ops[idx];
    switch (op.kind) {
      case ReduceOpKind::retire_emitter: {
        if (op.anchor) {
          AnchorInfo info;
          info.slot = op.slot_e;
          info.init_gate = c.size();
          EPG_CHECK(op.slot_e < anchor_by_slot.size(),
                    "anchor retire references an out-of-range slot");
          anchor_by_slot[op.slot_e] = info;
          anchor_slot_used[op.slot_e] = true;
        }
        c.local(QubitId::emitter(op.slot_e), Clifford1::h());
        break;
      }
      case ReduceOpKind::disconnect:
        c.ee_cz(op.slot_e, op.slot_p);
        break;
      case ReduceOpKind::local_comp: {
        // Forward image of LC(v) is the inverse unitary: sqrt(X) on v,
        // S^dag on every neighbor (at the roles of op time).
        const QubitId v = op.lc_on_emitter ? QubitId::emitter(op.lc_slot)
                                           : QubitId::photon(op.p);
        c.local(v, Clifford1::sqrt_x());
        for (const auto& [vtx, slot] : op.lc_emitter_neighbors) {
          (void)vtx;
          c.local(QubitId::emitter(slot), Clifford1::sdg());
        }
        for (Vertex w : op.lc_photon_neighbors)
          c.local(QubitId::photon(w), Clifford1::sdg());
        break;
      }
      case ReduceOpKind::swap_photon: {
        if (op.anchor) {
          EPG_CHECK(op.slot_p < anchor_by_slot.size() &&
                        anchor_slot_used[op.slot_p],
                    "anchor swap without matching init");
          anchor_by_slot[op.slot_p].vertex = op.p;
          anchor_by_slot[op.slot_p].tail_begin = c.size();
        }
        c.emission(op.slot_p, op.p);
        c.local(QubitId::emitter(op.slot_p), Clifford1::h());
        c.measure_reset(op.slot_p,
                        {{QubitId::photon(op.p), PauliOp::Z}});
        break;
      }
      case ReduceOpKind::absorb_leaf:
      case ReduceOpKind::absorb_dangler:
      case ReduceOpKind::absorb_twin: {
        const AbsorbGates gates = absorb_gates(op);
        const OpCalibration& fix = calib[idx];
        if (op.kind == ReduceOpKind::absorb_dangler && op.anchor) {
          // Boundary photon emitted via a dangler host: its stem CZs must
          // land right before this gate cluster, where the slot still holds
          // the photon's full neighborhood in graph form.
          AnchorInfo host;
          host.vertex = op.p;
          host.slot = op.slot_e;
          host.init_gate = c.size();
          host.tail_begin = c.size();
          host.via_swap = false;
          out.anchors.push_back(host);
        }
        c.local(QubitId::emitter(op.slot_e), fix.fix_e.inverse());
        c.emission(op.slot_e, op.p);
        Clifford1 photon_local = gates.pre_p.inverse();
        if (fix.x_fix) photon_local = Clifford1::x().then(photon_local);
        c.local(QubitId::photon(op.p), photon_local);
        c.local(QubitId::emitter(op.slot_e), gates.pre_e.inverse());
        break;
      }
    }
  }

  for (std::uint32_t slot = 0; slot < anchor_by_slot.size(); ++slot)
    if (anchor_slot_used[slot]) out.anchors.push_back(anchor_by_slot[slot]);
  std::sort(out.anchors.begin(), out.anchors.end(),
            [](const AnchorInfo& a, const AnchorInfo& b) {
              return std::tie(a.slot, a.tail_begin) <
                     std::tie(b.slot, b.tail_begin);
            });
  c.check_well_formed();
  const CircuitTiming timing = analyze_timing(c, hw);
  out.ne_used = timing.peak_usage();
  out.stats = compute_stats(c, timing, hw);
  return out;
}

}  // namespace

std::uint32_t subgraph_ne_min(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0) return 0;
  std::vector<Vertex> identity(n);
  for (Vertex v = 0; v < n; ++v) identity[v] = v;
  std::vector<Vertex> reversed(identity.rbegin(), identity.rend());
  // BFS order from vertex 0 (append unreached vertices afterwards).
  std::vector<Vertex> bfs;
  {
    std::vector<bool> seen(n, false);
    for (Vertex s = 0; s < n; ++s) {
      if (seen[s]) continue;
      std::vector<Vertex> queue{s};
      seen[s] = true;
      for (std::size_t h = 0; h < queue.size(); ++h) {
        bfs.push_back(queue[h]);
        g.for_each_neighbor(queue[h], [&](Vertex u) {
          if (!seen[u]) {
            seen[u] = true;
            queue.push_back(u);
          }
        });
      }
    }
  }
  std::size_t best = min_emitters_for_order(g, identity);
  best = std::min(best, min_emitters_for_order(g, reversed));
  best = std::min(best, min_emitters_for_order(g, bfs));
  return static_cast<std::uint32_t>(std::max<std::size_t>(best, 1));
}

SubgraphLevelResult compile_subgraph_level(const SubgraphSpec& spec,
                                           const SubgraphCompileConfig& cfg,
                                           std::uint32_t ne) {
  EPG_REQUIRE(spec.graph.vertex_count() > 0, "empty subgraph");
  Span span("level_search", "subgraph");
  span.arg("ne", std::uint64_t{ne});
  span.arg("policy", policy_name(cfg.dangler));
  SubgraphLevelResult result;
  const auto n = static_cast<std::uint32_t>(spec.graph.vertex_count());

  // Scalability path for oversized subgraphs: the exhaustive branch-and-
  // bound is exponential in the part size, so past the threshold only the
  // LC-free search runs and it stops at the first reduction found
  // (deterministic: the enumeration order is fixed).
  const bool large = n >= cfg.large_part_threshold;

  // Phase 1: a quick LC-free pass establishes a strong incumbent so the
  // full branch-and-bound can prune deep LC branches early. Each search's
  // context (memo table, depth scratch) is freed before the next phase
  // starts, so a level holds at most one memo table at a time and none
  // during synthesis.
  SubgraphCompileConfig lc_free = cfg;
  lc_free.max_lc_ops = 0;
  if (cfg.max_lc_ops > 0 && !large) {
    lc_free.node_budget = std::max<std::size_t>(cfg.node_budget / 8, 2000);
    lc_free.time_budget_ms = cfg.time_budget_ms / 4;
  }
  std::uint64_t best_cost = ~0ULL;
  std::size_t last_change_node = 0;
  std::vector<std::vector<ReduceOp>> candidates;
  // Runs one search from `root`, seeded with the incumbent, and returns
  // its node count at its last strict improvement (0 for none).
  const auto search = [&](const auto& root, const SubgraphCompileConfig& config,
                          bool stop_at_first) {
    SearchContext<std::remove_cvref_t<decltype(root)>> ctx;
    ctx.init(config);
    ctx.stop_at_first = stop_at_first;
    ctx.best_cost = best_cost;
    ctx.candidates = std::move(candidates);
    dfs(ctx, root, 0);
    result.nodes_explored += ctx.nodes;
    result.memo_peak = std::max(result.memo_peak, ctx.memo_peak);
    result.exhausted = ctx.budget_hit;
    best_cost = ctx.best_cost;
    candidates = std::move(ctx.candidates);
    return ctx.last_change_node;
  };
  // The row width is fixed once per level: one word serves every part of
  // at most 64 vertices.
  const auto both_searches = [&](const auto& root) {
    search(root, lc_free, large);
    span.arg("warmup_cost", cost_label(best_cost));
    if (cfg.max_lc_ops > 0 && !large)
      last_change_node = search(root, cfg, false);
  };
  if (spec.graph.words_per_row() == 1)
    both_searches(BasicReductionState<1>(spec, ne, cfg.dangler));
  else
    both_searches(ReductionState(spec, ne, cfg.dangler));
  span.arg("nodes", static_cast<std::uint64_t>(result.nodes_explored));
  span.arg("exhausted", std::uint64_t{result.exhausted ? 1u : 0u});
  span.arg("cost", cost_label(best_cost));
  span.arg("last_change_node", std::uint64_t{last_change_node});
  if (candidates.empty()) return result;

  result.success = true;
  result.sequences_found = candidates.size();

  // Paper step 2: among min-CNOT candidates pick the min photon-loss one.
  bool first = true;
  for (const auto& ops : candidates) {
    std::uint32_t slots = 0;
    for (const ReduceOp& op : ops)
      if (op.kind == ReduceOpKind::swap_photon)
        slots = std::max(slots, op.slot_p + 1);
    SubgraphCircuit circ = synthesize_forward(spec, ops, slots, cfg.hw);
    if (first || circ.stats.t_loss_tau < result.best.stats.t_loss_tau) {
      result.best = std::move(circ);
      first = false;
    }
  }
  if (cfg.verify) {
    Rng rng(0xE5C4A9);
    for (int trial = 0; trial < 2; ++trial) {
      SimulationResult sim = simulate(result.best.circuit, rng);
      const Tableau want = Tableau::graph_state(
          spec.graph, result.best.circuit.num_emitters());
      EPG_CHECK(sim.state.same_state_as(want),
                "subgraph circuit failed verification");
    }
  }
  return result;
}

SubgraphCompileResult walk_subgraph_levels(
    std::uint32_t first_ne, std::uint32_t last_ne,
    const std::function<std::shared_ptr<const SubgraphLevelResult>(
        std::uint32_t)>& level) {
  SubgraphCompileResult result;
  for (std::uint32_t ne = first_ne; ne <= last_ne; ++ne) {
    const std::shared_ptr<const SubgraphLevelResult> r = level(ne);
    result.nodes_explored += r->nodes_explored;
    result.memo_peak = std::max(result.memo_peak, r->memo_peak);
    if (!r->success) continue;
    result.success = true;
    result.relaxed_ne = ne != first_ne;
    result.ne_limit_used = ne;
    result.sequences_found = r->sequences_found;
    result.best = r->best;
    break;
  }
  return result;
}

SubgraphCompileResult compile_subgraph(const SubgraphSpec& spec,
                                       const SubgraphCompileConfig& cfg) {
  EPG_REQUIRE(spec.graph.vertex_count() > 0, "empty subgraph");
  const auto n = static_cast<std::uint32_t>(spec.graph.vertex_count());
  return walk_subgraph_levels(cfg.ne_limit, n + 1, [&](std::uint32_t ne) {
    return std::make_shared<const SubgraphLevelResult>(
        compile_subgraph_level(spec, cfg, ne));
  });
}

}  // namespace epg

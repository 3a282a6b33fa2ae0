// Time-reversed graph reduction (paper Section II.C, Fig. 2/3).
//
// The compiler searches for a sequence of *reverse* operations that reduces
// the target graph state to the vacuum; replaying the inverses in reverse
// order yields the forward generation circuit. The state during reduction is
// always a pure graph state over the subgraph's vertices; a vertex's role
// says how its wire is currently interpreted:
//   photon  : not yet absorbed (in forward time: already emitted),
//   emitter : taken over by an emitter (via the swap op),
//   done    : absorbed photon, or a freed emitter.
//
// Reverse operations and their forward images:
//   swap_photon       (a) photon p is replaced by a fresh/free emitter;
//                         forward: emission CNOT + H + measure + cond. Z —
//                         the emission of p with measurement-based transfer.
//   absorb_leaf       (b) an emitter absorbs a photon whose only neighbor
//                         it is; forward: emission CNOT + H(photon).
//   absorb_dangler    (c) a dangling emitter (deg 1) absorbs its photon
//                         neighbor and inherits that photon's edges;
//                         forward: emission CNOT + H(emitter).
//   absorb_twin       (d) an emitter absorbs a photon with the same
//                         neighborhood (adjacent or not); forward: emission
//                         CNOT + fixed local Cliffords.
//   disconnect        (e) removes an emitter-emitter edge; forward: CZ —
//                         the expensive op whose count the search minimizes.
//   local_comp        LC at a live vertex; forward: sqrt(X) on it and
//                         S^dag on its neighbors.
//   retire_emitter    an isolated emitter leaves the graph (|+> -H-> |0>);
//                         forward: the H that initializes the emitter.
//
// Boundary vertices (endpoints of inter-subgraph stem edges) may only leave
// via swap_photon; their emitter ("anchor") keeps a dedicated slot and stays
// until the end of the reduction, carrying the stem edges. Anchor-internal
// ops are legal against the *local* graph because the top-level scheduler
// places every stem CZ after all internal anchor gates (equivalently, the
// global reverse order disconnects the stems first); only local
// complementation at an anchor stays forbidden, as it would rewire the
// anchor's external neighborhood.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"

namespace epg {

enum class Role : std::uint8_t { photon, emitter, done };

struct SubgraphSpec {
  /// stem_key value for boundary vertices that carry more than one stem
  /// edge: they must leave via swap (a dangler window hosts exactly one
  /// stem CZ — see stem_key below).
  static constexpr std::uint32_t must_swap = ~0u;

  Graph graph;                 ///< local vertex ids 0..n-1
  std::vector<bool> boundary;  ///< true for stem-edge endpoints
  /// Global rank of each boundary vertex's unique stem edge (or must_swap).
  /// Within a part, dangler-hosted boundary photons must be emitted in
  /// increasing key order; because both endpoints of a stem share its key,
  /// every window-precedence edge then goes from a smaller key to a larger
  /// one and the cross-part stem-CZ constraint graph is provably acyclic.
  std::vector<std::uint32_t> stem_key;

  explicit SubgraphSpec(Graph g)
      : graph(std::move(g)), boundary(graph.vertex_count(), false) {
    default_keys();
  }
  SubgraphSpec(Graph g, std::vector<bool> b)
      : graph(std::move(g)), boundary(std::move(b)) {
    default_keys();
  }
  SubgraphSpec(Graph g, std::vector<bool> b, std::vector<std::uint32_t> keys)
      : graph(std::move(g)),
        boundary(std::move(b)),
        stem_key(std::move(keys)) {}

 private:
  void default_keys() {
    stem_key.resize(graph.vertex_count());
    for (Vertex v = 0; v < graph.vertex_count(); ++v) stem_key[v] = v;
  }
};

enum class ReduceOpKind : std::uint8_t {
  swap_photon,
  absorb_leaf,
  absorb_dangler,
  absorb_twin,
  disconnect,
  local_comp,
  retire_emitter,
};

struct ReduceOp {
  ReduceOpKind kind = ReduceOpKind::swap_photon;
  Vertex p = 0;  ///< photon operand; LC vertex; second emitter (disconnect)
  Vertex e = 0;  ///< emitter operand; first emitter (disconnect)
  std::uint32_t slot_p = 0;  ///< emitter slot bound by swap / retired slot
  std::uint32_t slot_e = 0;  ///< slot of the absorbing/first emitter
  bool twin_adjacent = false;     ///< absorb_twin flavor
  bool anchor = false;            ///< swap created / retire released an anchor
  /// local_comp context captured at op time.
  bool lc_on_emitter = false;
  std::uint32_t lc_slot = 0;
  std::vector<std::pair<Vertex, std::uint32_t>> lc_emitter_neighbors;
  std::vector<Vertex> lc_photon_neighbors;
};

/// How freely boundary photons may leave via absorb_dangler hosts. The
/// forward emission transfers the host emitter's entire neighborhood to the
/// photon, so a stem CZ applied to the host right before the emission rides
/// onto the photon; the scheduler places stem CZs in exactly that window.
/// Windows from different parts can form precedence cycles at
/// recombination; the framework ladders offending parts through the
/// stricter policies until the schedule closes (anchor-only never
/// deadlocks).
enum class DanglerPolicy : std::uint8_t {
  /// Any boundary photon may leave through a dangler host; one window may
  /// host several stem CZs.
  free_form,
  /// Dangler-hosted boundary photons carry one stem each and are emitted
  /// in increasing stem-key order within the part (strictly decreasing
  /// along the reverse sequence). This removes most cross-part window
  /// cycles.
  key_ordered,
  /// Every boundary photon leaves through its own anchor (paper Sec. IV.B).
  anchors_only,
};

/// Calls fn(v) for every set bit v of a `words`-word mask, ascending. A
/// bool-returning fn stops the walk by returning false; the result says
/// whether the walk ran to the end.
template <typename Fn>
bool for_each_set_bit(const std::uint64_t* mask, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      const auto v = static_cast<Vertex>(
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
      if constexpr (std::is_same_v<decltype(fn(v)), bool>) {
        if (!fn(v)) return false;
      } else {
        fn(v);
      }
      bits &= bits - 1;
    }
  }
  return true;
}

/// Copyable search state for the subgraph compiler's DFS.
///
/// The state is one flat word buffer plus a few scalars, so copying a
/// state into a preallocated one of the same part is a single same-size
/// buffer copy with no allocation. With n vertices and W words per row,
/// the buffer holds, in order:
///   masks       photon, emitter and boundary masks, W words each (a
///               vertex in neither of the first two is done),
///   adjacency   n rows of W words, laid out exactly like Graph's rows
///               (so state_hash can fingerprint them as a Graph would),
///   slot        the emitter slot of each emitter vertex, kSlotBits bits
///               per vertex packed into words,
///   free slots  the stack of retired, reusable slots, packed the same way.
///
/// The word count is a template parameter: `kWords` 1 serves every part of
/// at most 64 vertices (every part at the default gmax) with the row loops
/// fixed at one word and 8-bit slots; `kWords` 0 reads W = ceil(n/64) from
/// the spec, for any size (the part-size cap is a user setting), with
/// 32-bit slots. `ReductionState` is the run-time-width form; the search
/// picks its instantiation once per level from the part's size.
///
/// The spec is held by pointer, not copied: it is immutable during a
/// reduction (boundary flags and stem keys never change), so every copy
/// of a state shares it. The spec must therefore outlive the state and
/// every copy made from it — true for the DFS (the spec frames the whole
/// search) and for calibration replays.
///
/// Ops are recorded only into a log handed over at construction; without
/// one (the search's states) nothing is recorded. A copy writes into the
/// same log as its original, so only states without a log are branched.
/// The search keeps the move it took at each depth instead, and rebuilds a
/// kept candidate's ops by replaying that path on a fresh, logged state.
template <std::size_t kWords>
class BasicReductionState {
  static_assert(kWords <= 1, "rows are one word or chosen at run time");

 public:
  BasicReductionState(const SubgraphSpec& spec, std::uint32_t ne_limit,
                      DanglerPolicy policy = DanglerPolicy::free_form,
                      std::vector<ReduceOp>* log = nullptr);
  /// A temporary spec would dangle behind the stored pointer — callers
  /// must keep the spec alive for the state's whole lifetime.
  BasicReductionState(SubgraphSpec&&, std::uint32_t,
                      DanglerPolicy = DanglerPolicy::free_form,
                      std::vector<ReduceOp>* = nullptr) = delete;

  /// The current graph, built on demand (calibration and tests; the
  /// search reads the rows below).
  Graph graph() const;
  std::size_t words() const { return kWords != 0 ? kWords : words_; }
  /// Bitset row of v's neighbors (words() words).
  const std::uint64_t* row(Vertex v) const {
    return buf_.data() + (3 + std::size_t{v}) * words();
  }
  const std::uint64_t* photon_mask() const { return buf_.data(); }
  const std::uint64_t* emitter_mask() const { return buf_.data() + words(); }
  const std::uint64_t* boundary_mask() const {
    return buf_.data() + 2 * words();
  }
  bool has_edge(Vertex u, Vertex v) const { return test(row(u), v); }
  std::size_t degree(Vertex v) const;
  /// v's only neighbor, or Graph::kNoVertex unless v has degree exactly 1.
  /// Bit tricks instead of popcounts: without a popcount instruction in
  /// the target ISA each std::popcount is a library call.
  Vertex sole_neighbor(Vertex v) const;

  Role role(Vertex v) const {
    return test(photon_mask(), v)    ? Role::photon
           : test(emitter_mask(), v) ? Role::emitter
                                     : Role::done;
  }
  bool is_boundary(Vertex v) const { return test(boundary_mask(), v); }
  std::uint32_t slot_of(Vertex v) const;

  const SubgraphSpec& spec() const { return *spec_; }
  DanglerPolicy policy() const { return policy_; }
  std::uint32_t ne_limit() const { return ne_limit_; }
  std::uint32_t active_emitters() const { return active_; }
  std::uint32_t slots_used() const { return slots_used_; }
  bool has_free_capacity() const { return active_ < ne_limit_; }

  std::size_t photons_left() const { return photons_left_; }
  /// Terminal: every photon emitted, every non-anchor emitter retired, and
  /// anchors isolated. finalize() must still be called to retire anchors.
  bool reduced() const;

  // Legality checks (pure graph conditions).
  bool can_swap(Vertex p) const {
    return is_photon(p) && active_ < ne_limit_;
  }
  bool can_absorb_leaf(Vertex e, Vertex p) const;
  bool can_absorb_dangler(Vertex e, Vertex p) const;
  bool can_absorb_twin(Vertex e, Vertex p) const;
  bool can_disconnect(Vertex e1, Vertex e2) const {
    return is_emitter(e1) && is_emitter(e2) && has_edge(e1, e2);
  }
  bool can_local_comp(Vertex v) const {
    // LC toggles edges among N(v); anchors would leak the change onto
    // their external stem edges, and the forward unitary on v is not
    // Z-diagonal. Needs degree >= 2.
    return (is_photon(v) || is_emitter(v)) && !is_boundary(v) &&
           !isolated(v) && sole_neighbor(v) == Graph::kNoVertex;
  }

  // Mutations (require the corresponding can_*; record ops into the log,
  // if any, and auto-retire emitters that become isolated).
  void swap_photon(Vertex p);
  void absorb_leaf(Vertex e, Vertex p);
  void absorb_dangler(Vertex e, Vertex p);
  void absorb_twin(Vertex e, Vertex p);
  void disconnect(Vertex e1, Vertex e2);
  void local_comp(Vertex v);

  /// Retire the anchors once reduced(); afterwards the log is complete.
  void finalize();

  // Search bookkeeping.
  std::uint32_t disconnect_count() const { return disconnects_; }
  std::uint32_t swap_count() const { return swaps_; }
  std::uint32_t lc_count() const { return lcs_; }
  /// The search memo's key: adjacency_fingerprint over the row words (the
  /// same value as graph().fingerprint()), then each vertex's role, the LC
  /// count, and — under the key-ordered policy — the key watermark.
  std::uint64_t state_hash() const;

 private:
  /// Bits per packed slot: slots count up to n, and one-word parts have
  /// n <= 64.
  static constexpr unsigned kSlotBits = kWords == 1 ? 8 : 32;
  static constexpr unsigned kSlotsPerWord = 64 / kSlotBits;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

  static bool test(const std::uint64_t* mask, Vertex v) {
    return (mask[v >> 6] >> (v & 63)) & 1ULL;
  }
  static void set(std::uint64_t* mask, Vertex v) {
    mask[v >> 6] |= 1ULL << (v & 63);
  }
  static void clear(std::uint64_t* mask, Vertex v) {
    mask[v >> 6] &= ~(1ULL << (v & 63));
  }
  static std::uint32_t lane(const std::uint64_t* lanes, std::uint32_t i) {
    return static_cast<std::uint32_t>(
        (lanes[i / kSlotsPerWord] >> (i % kSlotsPerWord * kSlotBits)) &
        kSlotMask);
  }
  static void set_lane(std::uint64_t* lanes, std::uint32_t i,
                       std::uint32_t value) {
    const unsigned shift = i % kSlotsPerWord * kSlotBits;
    std::uint64_t& w = lanes[i / kSlotsPerWord];
    w = (w & ~(kSlotMask << shift)) | (std::uint64_t{value} << shift);
  }
  std::uint64_t* row(Vertex v) {
    return buf_.data() + (3 + std::size_t{v}) * words();
  }
  std::uint64_t* photon_mask() { return buf_.data(); }
  std::uint64_t* emitter_mask() { return buf_.data() + words(); }
  const std::uint64_t* slots() const {
    return buf_.data() + (n_ + 3) * words();
  }
  std::uint64_t* slots() { return buf_.data() + (n_ + 3) * words(); }
  std::uint64_t* free_slots() { return slots() + slot_words_; }
  bool is_photon(Vertex v) const { return test(photon_mask(), v); }
  bool is_emitter(Vertex v) const { return test(emitter_mask(), v); }
  void remove_edge(Vertex u, Vertex v) {
    clear(row(u), v);
    clear(row(v), u);
  }
  bool isolated(Vertex v) const;

  const SubgraphSpec* spec_ = nullptr;  ///< shared, immutable; not owned
  // 32-bit sizes: a uint64_t buffer store cannot alias them, so the
  // compiler keeps them in registers across mutations.
  std::uint32_t n_ = 0;
  std::uint32_t words_ = 0;       ///< W (read through words())
  std::uint32_t slot_words_ = 0;  ///< words of each packed slot array
  std::vector<std::uint64_t> buf_;  ///< see the class comment
  std::uint32_t ne_limit_ = 0;
  DanglerPolicy policy_;
  /// Key watermark for the key-ordered policy: keys of dangler-hosted
  /// boundary photons must strictly decrease along the reverse sequence —
  /// i.e. increase along forward emission time on every wire chain.
  std::int64_t last_dangler_key_ = std::numeric_limits<std::int64_t>::max();
  std::uint32_t active_ = 0;
  std::uint32_t slots_used_ = 0;
  std::uint32_t free_count_ = 0;  ///< depth of the free-slot stack
  std::uint32_t photons_left_ = 0;
  std::uint32_t disconnects_ = 0, swaps_ = 0, lcs_ = 0;
  std::vector<ReduceOp>* log_ = nullptr;  ///< not owned; may be null

  /// A new op of `kind` appended to the log, or null without a log.
  ReduceOp* record(ReduceOpKind kind) {
    if (log_ == nullptr) return nullptr;
    ReduceOp& op = log_->emplace_back();
    op.kind = kind;
    return &op;
  }
  void maybe_retire(Vertex v);
  void remove_photon(Vertex p);
};

/// The run-time-width state: any part size (tests, calibration, replays
/// and the search on parts wider than 64 vertices).
using ReductionState = BasicReductionState<0>;

extern template class BasicReductionState<0>;
extern template class BasicReductionState<1>;

// ---- inline hot path: the search calls these once per candidate move ----

template <std::size_t kWords>
inline std::size_t BasicReductionState<kWords>::degree(Vertex v) const {
  const std::uint64_t* r = row(v);
  std::size_t d = 0;
  for (std::size_t w = 0; w < words(); ++w)
    d += static_cast<std::size_t>(std::popcount(r[w]));
  return d;
}

template <std::size_t kWords>
inline Vertex BasicReductionState<kWords>::sole_neighbor(Vertex v) const {
  const std::uint64_t* r = row(v);
  Vertex found = Graph::kNoVertex;
  for (std::size_t w = 0; w < words(); ++w) {
    const std::uint64_t x = r[w];
    if (x == 0) continue;
    if ((x & (x - 1)) != 0 || found != Graph::kNoVertex)
      return Graph::kNoVertex;
    found = static_cast<Vertex>(
        w * 64 + static_cast<std::size_t>(__builtin_ctzll(x)));
  }
  return found;
}

template <std::size_t kWords>
inline bool BasicReductionState<kWords>::isolated(Vertex v) const {
  const std::uint64_t* r = row(v);
  for (std::size_t w = 0; w < words(); ++w)
    if (r[w] != 0) return false;
  return true;
}

// Anchors may perform any absorption: legality is evaluated on the local
// graph (without stem edges), which matches the global reverse order because
// the scheduler disconnects an anchor's stems before (in reverse time) any
// of its internal operations — i.e. places stem CZs after all internal
// anchor gates in the forward circuit.

template <std::size_t kWords>
inline bool BasicReductionState<kWords>::can_absorb_leaf(Vertex e,
                                                         Vertex p) const {
  // (b): p's single neighborhood edge goes to e. Boundary photons must keep
  // their identity until their swap.
  return is_emitter(e) && is_photon(p) && !is_boundary(p) &&
         sole_neighbor(p) == e;
}

template <std::size_t kWords>
inline bool BasicReductionState<kWords>::can_absorb_dangler(Vertex e,
                                                            Vertex p) const {
  // (c): e inherits p's edges. Unlike leaf/twin absorption, the forward
  // emission hands the host's *entire* neighborhood to the photon, so a
  // boundary photon may leave this way too: its stem CZs are applied to the
  // host in the window right before the emission and ride onto the photon.
  if (!is_emitter(e) || !is_photon(p)) return false;
  if (is_boundary(p)) {
    // Anchor-only refuses every boundary photon. A window may host any
    // number of stem CZs in free form; the key-ordered policy needs one
    // stem per window (unique keys) and strictly decreasing keys along the
    // reverse sequence for its acyclicity proof.
    if (policy_ == DanglerPolicy::anchors_only) return false;
    if (policy_ == DanglerPolicy::key_ordered) {
      const std::uint32_t key = spec_->stem_key[p];
      if (key == SubgraphSpec::must_swap) return false;
      if (static_cast<std::int64_t>(key) >= last_dangler_key_) return false;
    }
  }
  return sole_neighbor(e) == p;
}

template <std::size_t kWords>
inline bool BasicReductionState<kWords>::can_absorb_twin(Vertex e,
                                                         Vertex p) const {
  // (d): same neighborhood modulo each other: N(e)\{p} == N(p)\{e}.
  if (!is_emitter(e) || !is_photon(p) || is_boundary(p)) return false;
  const std::uint64_t* re = row(e);
  const std::uint64_t* rp = row(p);
  for (std::size_t w = 0; w < words(); ++w) {
    std::uint64_t a = re[w];
    std::uint64_t b = rp[w];
    if (w == p / 64) a &= ~(1ULL << (p % 64));
    if (w == e / 64) b &= ~(1ULL << (e % 64));
    if (a != b) return false;
  }
  return true;
}

}  // namespace epg

#include "compile/reduction.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace epg {

template <std::size_t kWords>
BasicReductionState<kWords>::BasicReductionState(const SubgraphSpec& spec,
                                                 std::uint32_t ne_limit,
                                                 DanglerPolicy policy,
                                                 std::vector<ReduceOp>* log)
    : spec_(&spec),
      n_(static_cast<std::uint32_t>(spec.graph.vertex_count())),
      words_(static_cast<std::uint32_t>(spec.graph.words_per_row())),
      slot_words_((n_ + kSlotsPerWord - 1) / kSlotsPerWord),
      ne_limit_(ne_limit),
      policy_(policy),
      photons_left_(n_),
      log_(log) {
  EPG_REQUIRE(kWords == 0 || words_ == kWords,
              "the part's row width does not match the state's");
  EPG_REQUIRE(ne_limit >= 1, "need at least one emitter");
  EPG_REQUIRE(spec.boundary.size() == n_, "boundary flag per vertex required");
  EPG_REQUIRE(spec.stem_key.size() == n_, "stem key per vertex required");
  buf_.assign((n_ + 3) * std::size_t{words_} + 2 * std::size_t{slot_words_},
              0);
  for (Vertex v = 0; v < n_; ++v) {
    std::copy_n(spec.graph.row(v), words(), row(v));
    set(photon_mask(), v);
    if (spec.boundary[v]) set(buf_.data() + 2 * words(), v);
  }
}

template <std::size_t kWords>
Graph BasicReductionState<kWords>::graph() const {
  Graph g(n_);
  for (Vertex u = 0; u < n_; ++u)
    for_each_set_bit(row(u), words(), [&](Vertex v) {
      if (u < v) g.add_edge(u, v);
    });
  return g;
}

template <std::size_t kWords>
std::uint32_t BasicReductionState<kWords>::slot_of(Vertex v) const {
  EPG_REQUIRE(is_emitter(v), "slot_of needs an emitter vertex");
  return lane(slots(), v);
}

template <std::size_t kWords>
bool BasicReductionState<kWords>::reduced() const {
  if (photons_left_ != 0) return false;
  // Only isolated anchors may remain.
  const std::uint64_t* em = emitter_mask();
  const std::uint64_t* bd = boundary_mask();
  for (std::size_t w = 0; w < words(); ++w)
    if ((em[w] & ~bd[w]) != 0) return false;
  return for_each_set_bit(em, words(), [&](Vertex v) { return isolated(v); });
}

template <std::size_t kWords>
void BasicReductionState<kWords>::maybe_retire(Vertex v) {
  if (!is_emitter(v) || is_boundary(v) || !isolated(v)) return;
  const std::uint32_t slot = lane(slots(), v);
  if (ReduceOp* op = record(ReduceOpKind::retire_emitter)) {
    op->e = v;
    op->slot_e = slot;
  }
  set_lane(free_slots(), free_count_++, slot);
  clear(emitter_mask(), v);
  --active_;
}

template <std::size_t kWords>
void BasicReductionState<kWords>::remove_photon(Vertex p) {
  clear(photon_mask(), p);
  --photons_left_;
}

template <std::size_t kWords>
void BasicReductionState<kWords>::swap_photon(Vertex p) {
  EPG_REQUIRE(can_swap(p), "illegal swap");
  const bool anchor = is_boundary(p);
  std::uint32_t slot;
  if (!anchor && free_count_ != 0) {
    slot = lane(free_slots(), --free_count_);
  } else {
    // Anchors always take a dedicated fresh slot: their forward emission
    // tail may be delayed by the scheduler and must not collide with a
    // reused slot.
    slot = slots_used_++;
  }
  if (ReduceOp* op = record(ReduceOpKind::swap_photon)) {
    op->p = p;
    op->slot_p = slot;
    op->anchor = anchor;
  }

  remove_photon(p);
  set(emitter_mask(), p);
  set_lane(slots(), p, slot);
  ++active_;
  ++swaps_;
  maybe_retire(p);  // a degree-0 photon swaps into an instantly-free emitter
}

template <std::size_t kWords>
void BasicReductionState<kWords>::absorb_leaf(Vertex e, Vertex p) {
  EPG_REQUIRE(can_absorb_leaf(e, p), "illegal absorb_leaf");
  if (ReduceOp* op = record(ReduceOpKind::absorb_leaf)) {
    op->p = p;
    op->e = e;
    op->slot_e = lane(slots(), e);
    op->anchor = is_boundary(e);
  }
  remove_edge(e, p);
  remove_photon(p);
  maybe_retire(e);
}

template <std::size_t kWords>
void BasicReductionState<kWords>::absorb_dangler(Vertex e, Vertex p) {
  EPG_REQUIRE(can_absorb_dangler(e, p), "illegal absorb_dangler");
  // A boundary photon's emission carries its stems: the host window.
  const bool stem_carrier = is_boundary(p);
  if (ReduceOp* op = record(ReduceOpKind::absorb_dangler)) {
    op->p = p;
    op->e = e;
    op->slot_e = lane(slots(), e);
    op->anchor = stem_carrier;
  }
  if (stem_carrier)
    last_dangler_key_ = static_cast<std::int64_t>(spec_->stem_key[p]);
  // e's only edge went to p: after removing it e is isolated, so e
  // inherits p's row as is and every neighbor u of p swaps its p bit for
  // an e bit.
  remove_edge(e, p);
  std::uint64_t* rp = row(p);
  for_each_set_bit(rp, words(), [&](Vertex u) {
    clear(row(u), p);
    set(row(u), e);
  });
  std::copy_n(rp, words(), row(e));
  std::fill_n(rp, words(), 0);
  remove_photon(p);
  maybe_retire(e);
}

template <std::size_t kWords>
void BasicReductionState<kWords>::absorb_twin(Vertex e, Vertex p) {
  EPG_REQUIRE(can_absorb_twin(e, p), "illegal absorb_twin");
  if (ReduceOp* op = record(ReduceOpKind::absorb_twin)) {
    op->p = p;
    op->e = e;
    op->slot_e = lane(slots(), e);
    op->twin_adjacent = has_edge(e, p);
  }
  std::uint64_t* rp = row(p);
  for_each_set_bit(rp, words(), [&](Vertex u) { clear(row(u), p); });
  std::fill_n(rp, words(), 0);
  remove_photon(p);
  maybe_retire(e);
}

template <std::size_t kWords>
void BasicReductionState<kWords>::disconnect(Vertex e1, Vertex e2) {
  EPG_REQUIRE(can_disconnect(e1, e2), "illegal disconnect");
  if (ReduceOp* op = record(ReduceOpKind::disconnect)) {
    op->e = e1;
    op->p = e2;
    op->slot_e = lane(slots(), e1);
    op->slot_p = lane(slots(), e2);
  }
  remove_edge(e1, e2);
  ++disconnects_;
  maybe_retire(e1);
  maybe_retire(e2);
}

template <std::size_t kWords>
void BasicReductionState<kWords>::local_comp(Vertex v) {
  EPG_REQUIRE(can_local_comp(v), "illegal local complementation");
  const std::uint64_t* nv = row(v);
  if (ReduceOp* op = record(ReduceOpKind::local_comp)) {
    op->p = v;
    op->lc_on_emitter = is_emitter(v);
    if (op->lc_on_emitter) op->lc_slot = lane(slots(), v);
    for_each_set_bit(nv, words(), [&](Vertex u) {
      if (is_emitter(u))
        op->lc_emitter_neighbors.emplace_back(u, lane(slots(), u));
      else
        op->lc_photon_neighbors.push_back(u);
    });
  }
  // Complement N(v): each neighbor a toggles its edges to N(v) \ {a}. v's
  // own row is untouched (v is not in N(v)), so it can be read throughout.
  for_each_set_bit(nv, words(), [&](Vertex a) {
    std::uint64_t* ra = row(a);
    for (std::size_t w = 0; w < words(); ++w) ra[w] ^= nv[w];
    ra[a >> 6] ^= 1ULL << (a & 63);  // undo the self toggle
  });
  ++lcs_;
}

template <std::size_t kWords>
void BasicReductionState<kWords>::finalize() {
  EPG_REQUIRE(reduced(), "finalize requires a fully reduced state");
  for (Vertex v = 0; v < n_; ++v) {
    if (!is_emitter(v)) continue;
    EPG_CHECK(is_boundary(v), "only anchors survive reduction");
    if (ReduceOp* op = record(ReduceOpKind::retire_emitter)) {
      op->e = v;
      op->slot_e = lane(slots(), v);
      op->anchor = true;
    }
    clear(emitter_mask(), v);
    --active_;
  }
}

template <std::size_t kWords>
std::uint64_t BasicReductionState<kWords>::state_hash() const {
  std::uint64_t h =
      adjacency_fingerprint(n_, row(0), std::size_t{n_} * words());
  // role(v) per vertex, branch-free: photon 0, emitter 1, done 2.
  static_assert(static_cast<int>(Role::photon) == 0 &&
                static_cast<int>(Role::emitter) == 1 &&
                static_cast<int>(Role::done) == 2);
  const std::uint64_t* ph = photon_mask();
  const std::uint64_t* em = emitter_mask();
  for (Vertex v = 0; v < n_; ++v) {
    const std::uint64_t not_photon = ~ph[v >> 6] >> (v & 63);
    const std::uint64_t done = ~(ph[v >> 6] | em[v >> 6]) >> (v & 63);
    h = h * 0x100000001b3ULL ^ ((not_photon & 1) + (done & 1));
  }
  h = h * 0x100000001b3ULL ^ lcs_;
  // The key watermark gates future boundary absorbs, so it is part of the
  // memoized state where active.
  if (policy_ == DanglerPolicy::key_ordered)
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(last_dangler_key_);
  return h;
}

template class BasicReductionState<0>;
template class BasicReductionState<1>;

}  // namespace epg

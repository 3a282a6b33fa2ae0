#include "compile/reduction.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace epg {

ReductionState::ReductionState(const SubgraphSpec& spec,
                               std::uint32_t ne_limit, DanglerPolicy policy)
    : spec_(&spec),
      n_(static_cast<std::uint32_t>(spec.graph.vertex_count())),
      words_(static_cast<std::uint32_t>(spec.graph.words_per_row())),
      buf_((n_ + 3) * std::size_t{words_} + 2 * std::size_t{n_}, 0),
      ne_limit_(ne_limit),
      policy_(policy),
      photons_left_(n_) {
  EPG_REQUIRE(ne_limit >= 1, "need at least one emitter");
  EPG_REQUIRE(spec.boundary.size() == n_, "boundary flag per vertex required");
  EPG_REQUIRE(spec.stem_key.size() == n_, "stem key per vertex required");
  for (Vertex v = 0; v < n_; ++v) {
    std::copy_n(spec.graph.row(v), words_, row(v));
    set(photon_mask(), v);
    if (spec.boundary[v]) set(buf_.data() + 2 * words_, v);
  }
}

Graph ReductionState::graph() const {
  Graph g(n_);
  for (Vertex u = 0; u < n_; ++u)
    for_each_set_bit(row(u), words_, [&](Vertex v) {
      if (u < v) g.add_edge(u, v);
    });
  return g;
}

const std::vector<ReduceOp>& ReductionState::ops() const {
  EPG_REQUIRE(ops_sink_ == nullptr,
              "ops() needs own recording mode; use ops_copy() after "
              "share_op_log()");
  return ops_own_;
}

std::vector<ReduceOp> ReductionState::ops_copy() const {
  if (ops_sink_ == nullptr) return ops_own_;
  return std::vector<ReduceOp>(ops_sink_->begin(),
                               ops_sink_->begin() + ops_len_);
}

void ReductionState::share_op_log(std::vector<ReduceOp>& sink) {
  EPG_REQUIRE(ops_own_.empty() && ops_sink_ == nullptr,
              "share_op_log must be called before any op is recorded");
  ops_sink_ = &sink;
  ops_len_ = 0;
}

ReduceOp& ReductionState::append_op(ReduceOpKind kind) {
  ReduceOp* op;
  if (ops_sink_ == nullptr) {
    op = &ops_own_.emplace_back();
  } else {
    // Overwrite the dead tail beyond this state's prefix in place.
    if (ops_len_ == ops_sink_->size()) ops_sink_->emplace_back();
    op = &(*ops_sink_)[ops_len_++];
  }
  op->kind = kind;
  op->p = op->e = 0;
  op->slot_p = op->slot_e = op->lc_slot = 0;
  op->twin_adjacent = op->anchor = op->lc_on_emitter = false;
  op->lc_emitter_neighbors.clear();
  op->lc_photon_neighbors.clear();
  return *op;
}

std::uint32_t ReductionState::slot_of(Vertex v) const {
  EPG_REQUIRE(is_emitter(v), "slot_of needs an emitter vertex");
  return static_cast<std::uint32_t>(slots()[v]);
}

bool ReductionState::reduced() const {
  if (photons_left_ != 0) return false;
  // Only isolated anchors may remain.
  const std::uint64_t* em = emitter_mask();
  const std::uint64_t* bd = boundary_mask();
  for (std::size_t w = 0; w < words_; ++w)
    if ((em[w] & ~bd[w]) != 0) return false;
  return for_each_set_bit(em, words_, [&](Vertex v) { return isolated(v); });
}

void ReductionState::maybe_retire(Vertex v) {
  if (!is_emitter(v) || is_boundary(v) || !isolated(v)) return;
  ReduceOp& op = append_op(ReduceOpKind::retire_emitter);
  op.e = v;
  op.slot_e = static_cast<std::uint32_t>(slots()[v]);
  free_slots()[free_count_++] = slots()[v];
  clear(emitter_mask(), v);
  --active_;
}

void ReductionState::remove_photon(Vertex p) {
  clear(photon_mask(), p);
  --photons_left_;
}

void ReductionState::swap_photon(Vertex p) {
  EPG_REQUIRE(can_swap(p), "illegal swap");
  const bool anchor = is_boundary(p);
  std::uint32_t slot;
  if (!anchor && free_count_ != 0) {
    slot = static_cast<std::uint32_t>(free_slots()[--free_count_]);
  } else {
    // Anchors always take a dedicated fresh slot: their forward emission
    // tail may be delayed by the scheduler and must not collide with a
    // reused slot.
    slot = slots_used_++;
  }
  ReduceOp& op = append_op(ReduceOpKind::swap_photon);
  op.p = p;
  op.slot_p = slot;
  op.anchor = anchor;

  remove_photon(p);
  set(emitter_mask(), p);
  slots()[p] = slot;
  ++active_;
  ++swaps_;
  maybe_retire(p);  // a degree-0 photon swaps into an instantly-free emitter
}

void ReductionState::absorb_leaf(Vertex e, Vertex p) {
  EPG_REQUIRE(can_absorb_leaf(e, p), "illegal absorb_leaf");
  ReduceOp& op = append_op(ReduceOpKind::absorb_leaf);
  op.p = p;
  op.e = e;
  op.slot_e = static_cast<std::uint32_t>(slots()[e]);
  op.anchor = is_boundary(e);
  remove_edge(e, p);
  remove_photon(p);
  maybe_retire(e);
}

void ReductionState::absorb_dangler(Vertex e, Vertex p) {
  EPG_REQUIRE(can_absorb_dangler(e, p), "illegal absorb_dangler");
  ReduceOp& op = append_op(ReduceOpKind::absorb_dangler);
  op.p = p;
  op.e = e;
  op.slot_e = static_cast<std::uint32_t>(slots()[e]);
  op.anchor = is_boundary(p);  // stem-carrying emission: host window needed
  if (op.anchor)
    last_dangler_key_ = static_cast<std::int64_t>(spec_->stem_key[p]);
  // e's only edge went to p: after removing it e is isolated, so e
  // inherits p's row as is and every neighbor u of p swaps its p bit for
  // an e bit.
  remove_edge(e, p);
  std::uint64_t* rp = row(p);
  for_each_set_bit(rp, words_, [&](Vertex u) {
    clear(row(u), p);
    set(row(u), e);
  });
  std::copy_n(rp, words_, row(e));
  std::fill_n(rp, words_, 0);
  remove_photon(p);
  maybe_retire(e);
}

void ReductionState::absorb_twin(Vertex e, Vertex p) {
  EPG_REQUIRE(can_absorb_twin(e, p), "illegal absorb_twin");
  ReduceOp& op = append_op(ReduceOpKind::absorb_twin);
  op.p = p;
  op.e = e;
  op.slot_e = static_cast<std::uint32_t>(slots()[e]);
  op.twin_adjacent = has_edge(e, p);
  std::uint64_t* rp = row(p);
  for_each_set_bit(rp, words_, [&](Vertex u) { clear(row(u), p); });
  std::fill_n(rp, words_, 0);
  remove_photon(p);
  maybe_retire(e);
}

void ReductionState::disconnect(Vertex e1, Vertex e2) {
  EPG_REQUIRE(can_disconnect(e1, e2), "illegal disconnect");
  ReduceOp& op = append_op(ReduceOpKind::disconnect);
  op.e = e1;
  op.p = e2;
  op.slot_e = static_cast<std::uint32_t>(slots()[e1]);
  op.slot_p = static_cast<std::uint32_t>(slots()[e2]);
  remove_edge(e1, e2);
  ++disconnects_;
  maybe_retire(e1);
  maybe_retire(e2);
}

void ReductionState::local_comp(Vertex v) {
  EPG_REQUIRE(can_local_comp(v), "illegal local complementation");
  ReduceOp& op = append_op(ReduceOpKind::local_comp);
  op.p = v;
  op.lc_on_emitter = is_emitter(v);
  if (op.lc_on_emitter) op.lc_slot = static_cast<std::uint32_t>(slots()[v]);
  const std::uint64_t* nv = row(v);
  for_each_set_bit(nv, words_, [&](Vertex u) {
    if (is_emitter(u))
      op.lc_emitter_neighbors.emplace_back(
          u, static_cast<std::uint32_t>(slots()[u]));
    else
      op.lc_photon_neighbors.push_back(u);
  });
  // Complement N(v): each neighbor a toggles its edges to N(v) \ {a}. v's
  // own row is untouched (v is not in N(v)), so it can be read throughout.
  for_each_set_bit(nv, words_, [&](Vertex a) {
    std::uint64_t* ra = row(a);
    for (std::size_t w = 0; w < words_; ++w) ra[w] ^= nv[w];
    ra[a >> 6] ^= 1ULL << (a & 63);  // undo the self toggle
  });
  ++lcs_;
}

void ReductionState::finalize() {
  EPG_REQUIRE(reduced(), "finalize requires a fully reduced state");
  for (Vertex v = 0; v < n_; ++v) {
    if (!is_emitter(v)) continue;
    EPG_CHECK(is_boundary(v), "only anchors survive reduction");
    ReduceOp& op = append_op(ReduceOpKind::retire_emitter);
    op.e = v;
    op.slot_e = static_cast<std::uint32_t>(slots()[v]);
    op.anchor = true;
    clear(emitter_mask(), v);
    --active_;
  }
}

std::uint64_t ReductionState::state_hash() const {
  std::uint64_t h = adjacency_fingerprint(n_, row(0), std::size_t{n_} * words_);
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

}  // namespace epg

#include "compile/reduction.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/local_complement.hpp"

namespace epg {
namespace {

TEST(Reduction, SwapTurnsPhotonIntoEmitter) {
  const SubgraphSpec st_spec((make_linear_cluster(3)));

  ReductionState st(st_spec, 2);
  EXPECT_EQ(st.photons_left(), 3u);
  EXPECT_TRUE(st.can_swap(1));
  st.swap_photon(1);
  EXPECT_EQ(st.role(1), Role::emitter);
  EXPECT_EQ(st.photons_left(), 2u);
  EXPECT_EQ(st.active_emitters(), 1u);
  EXPECT_EQ(st.slot_of(1), 0u);
}

TEST(Reduction, SwapCapacityLimit) {
  const SubgraphSpec st_spec((make_complete(4)));

  ReductionState st(st_spec, 1);
  st.swap_photon(0);
  EXPECT_FALSE(st.can_swap(1));
  EXPECT_THROW(st.swap_photon(1), std::invalid_argument);
}

TEST(Reduction, LeafAbsorption) {
  // Path 0-1-2: make 1 an emitter, absorb leaf 0.
  const SubgraphSpec st_spec((make_linear_cluster(3)));

  ReductionState st(st_spec, 2);
  st.swap_photon(1);
  EXPECT_TRUE(st.can_absorb_leaf(1, 0));
  EXPECT_TRUE(st.can_absorb_leaf(1, 2));   // 2 is a leaf on the emitter too
  EXPECT_FALSE(st.can_absorb_leaf(1, 1));  // not a photon
  st.absorb_leaf(1, 0);
  EXPECT_EQ(st.role(0), Role::done);
  EXPECT_FALSE(st.graph().has_edge(0, 1));
}

TEST(Reduction, DanglerAbsorptionInheritsNeighbors) {
  // Path 0-1-2-3: emitter at 0 (dangling), absorbs 1 and inherits 2.
  const SubgraphSpec st_spec((make_linear_cluster(4)));

  ReductionState st(st_spec, 2);
  st.swap_photon(0);
  EXPECT_TRUE(st.can_absorb_dangler(0, 1));
  st.absorb_dangler(0, 1);
  EXPECT_TRUE(st.graph().has_edge(0, 2));
  EXPECT_EQ(st.role(1), Role::done);
  EXPECT_EQ(st.graph().degree(0), 1u);
}

TEST(Reduction, TwinAbsorption) {
  // C4 0-1-2-3: 0 and 2 share neighborhood {1,3}.
  const SubgraphSpec st_spec((make_ring(4)));

  ReductionState st(st_spec, 2);
  st.swap_photon(0);
  EXPECT_TRUE(st.can_absorb_twin(0, 2));
  st.absorb_twin(0, 2);
  EXPECT_EQ(st.role(2), Role::done);
  EXPECT_TRUE(st.graph().is_isolated(2));
  EXPECT_EQ(st.graph().degree(0), 2u);
}

TEST(Reduction, DisconnectCostsTracked) {
  const SubgraphSpec st_spec((make_linear_cluster(2)));

  ReductionState st(st_spec, 2);
  st.swap_photon(0);
  st.swap_photon(1);
  EXPECT_TRUE(st.can_disconnect(0, 1));
  st.disconnect(0, 1);
  EXPECT_EQ(st.disconnect_count(), 1u);
  // Both emitters became isolated and retire automatically.
  EXPECT_EQ(st.active_emitters(), 0u);
  EXPECT_TRUE(st.reduced());
}

TEST(Reduction, AutoRetireFreesSlotForReuse) {
  const SubgraphSpec st_spec((make_linear_cluster(3)));

  ReductionState st(st_spec, 1);
  st.swap_photon(2);
  st.absorb_dangler(2, 1);
  st.absorb_leaf(2, 0);  // emitter isolates -> auto retire
  EXPECT_EQ(st.active_emitters(), 0u);
  EXPECT_TRUE(st.reduced());
  EXPECT_EQ(st.slots_used(), 1u);
  // Ops: swap, dangler, leaf, retire.
  ASSERT_EQ(st.ops().size(), 4u);
  EXPECT_EQ(st.ops().back().kind, ReduceOpKind::retire_emitter);
}

TEST(Reduction, BoundaryPhotonExitRules) {
  // Boundary photons may never be absorbed as leaves or twins (those
  // emissions do not transfer the host's neighborhood, so stems cannot
  // ride); they may leave via swap (dedicated anchor) or, when enabled,
  // via absorb_dangler (stem CZs ride on the host's pre-emission window).
  SubgraphSpec spec(make_linear_cluster(2), {true, false});
  ReductionState st(spec, 2);
  st.swap_photon(1);
  EXPECT_FALSE(st.can_absorb_leaf(1, 0));    // 0 is boundary
  EXPECT_TRUE(st.can_absorb_dangler(1, 0));  // dangler transfer carries stems
  EXPECT_TRUE(st.can_swap(0));
  st.swap_photon(0);
  st.disconnect(0, 1);
  // Anchor 0 remains (isolated), non-anchor 1 retired.
  EXPECT_EQ(st.role(0), Role::emitter);
  EXPECT_TRUE(st.reduced());
  st.finalize();
  EXPECT_EQ(st.role(0), Role::done);
  EXPECT_TRUE(st.ops().back().anchor);
}

TEST(Reduction, BoundaryDanglerCanBeDisabled) {
  SubgraphSpec spec(make_linear_cluster(2), {true, false});
  ReductionState st(spec, 2, DanglerPolicy::anchors_only);
  st.swap_photon(1);
  EXPECT_FALSE(st.can_absorb_dangler(1, 0));  // anchor-only fallback mode
  // Non-boundary photons are unaffected by the policy.
  SubgraphSpec plain(make_linear_cluster(2));
  ReductionState st2(plain, 2, DanglerPolicy::anchors_only);
  st2.swap_photon(1);
  EXPECT_TRUE(st2.can_absorb_dangler(1, 0));
}

TEST(Reduction, BoundaryDanglerKeyOrder) {
  // Keys must strictly decrease along the reverse sequence when the
  // key-ordered policy is active (= increase along forward emission time).
  SubgraphSpec spec(make_linear_cluster(4), {true, true, false, false},
                    {5, 2, 0, 0});
  ReductionState st(spec, 2, DanglerPolicy::key_ordered);
  st.swap_photon(3);
  st.absorb_dangler(3, 2);  // plain photon: no key constraint
  EXPECT_TRUE(st.can_absorb_dangler(3, 1));
  st.absorb_dangler(3, 1);  // watermark now 2
  EXPECT_FALSE(st.can_absorb_dangler(3, 0));  // key 5 >= 2: refused
  // The free-form policy accepts the same move.
  ReductionState free_st(spec, 2, DanglerPolicy::free_form);
  free_st.swap_photon(3);
  free_st.absorb_dangler(3, 2);
  free_st.absorb_dangler(3, 1);
  EXPECT_TRUE(free_st.can_absorb_dangler(3, 0));
}

TEST(Reduction, MultiStemBoundaryMustSwapUnderKeyOrder) {
  SubgraphSpec spec(make_linear_cluster(2), {true, false},
                    {SubgraphSpec::must_swap, 0});
  ReductionState st(spec, 2, DanglerPolicy::key_ordered);
  st.swap_photon(1);
  EXPECT_FALSE(st.can_absorb_dangler(1, 0));  // two stems: must anchor
  EXPECT_TRUE(st.can_swap(0));
  // Free form hosts multi-stem windows (several CZs in one window).
  ReductionState free_st(spec, 2, DanglerPolicy::free_form);
  free_st.swap_photon(1);
  EXPECT_TRUE(free_st.can_absorb_dangler(1, 0));
}

TEST(Reduction, BoundaryDanglerRecordsStemCarrier) {
  SubgraphSpec spec(make_linear_cluster(3), {true, false, false});
  ReductionState st(spec, 2);
  st.swap_photon(2);
  st.absorb_dangler(2, 1);  // plain absorb: not a stem carrier
  EXPECT_FALSE(st.ops().back().anchor);
  const std::size_t idx = st.ops().size();
  st.absorb_dangler(2, 0);  // boundary photon: op marked as stem-carrying
  EXPECT_EQ(st.ops()[idx].kind, ReduceOpKind::absorb_dangler);
  EXPECT_TRUE(st.ops()[idx].anchor);
  // The host became isolated and auto-retired right after the absorb.
  EXPECT_EQ(st.ops().back().kind, ReduceOpKind::retire_emitter);
  EXPECT_TRUE(st.reduced());
}

TEST(Reduction, AnchorsUseDedicatedSlots) {
  // Path 0-1-2-3 with both endpoints on stem edges. Anchors take dedicated
  // slots and survive isolation; the interior emitter's slot is recycled the
  // moment it disconnects.
  SubgraphSpec spec(make_linear_cluster(4), {true, false, false, true});
  ReductionState st(spec, 3);
  st.swap_photon(0);                    // anchor slot 0
  st.swap_photon(3);                    // anchor slot 1
  st.swap_photon(1);                    // regular slot 2
  EXPECT_EQ(st.active_emitters(), 3u);
  st.disconnect(0, 1);                  // anchor 0 now isolated, keeps slot
  EXPECT_EQ(st.active_emitters(), 3u);
  st.absorb_dangler(3, 2);              // anchor 3 inherits the edge to 1
  st.disconnect(1, 3);                  // emitter 1 isolated -> auto-retired
  EXPECT_EQ(st.active_emitters(), 2u);  // only the two anchors remain
  EXPECT_TRUE(st.reduced());
  st.finalize();
  EXPECT_EQ(st.active_emitters(), 0u);
}

TEST(Reduction, LocalComplementRules) {
  SubgraphSpec spec(make_ring(4), {true, false, false, false});
  ReductionState st(spec, 2);
  EXPECT_FALSE(st.can_local_comp(0));  // boundary
  EXPECT_TRUE(st.can_local_comp(1));
  st.local_comp(1);
  EXPECT_TRUE(st.graph().has_edge(0, 2));  // chord added
  EXPECT_EQ(st.lc_count(), 1u);
  const ReduceOp& op = st.ops().back();
  EXPECT_EQ(op.kind, ReduceOpKind::local_comp);
  EXPECT_EQ(op.lc_photon_neighbors.size(), 2u);  // 0 and 2 are photons
}

TEST(Reduction, FinalizeRequiresReduced) {
  const SubgraphSpec st_spec((make_ring(4)));

  ReductionState st(st_spec, 2);
  EXPECT_THROW(st.finalize(), std::invalid_argument);
}

TEST(Reduction, HashDistinguishesStates) {
  const SubgraphSpec a_spec((make_ring(5)));

  ReductionState a(a_spec, 2);
  ReductionState b = a;
  b.swap_photon(0);
  EXPECT_NE(a.state_hash(), b.state_hash());
}

TEST(Reduction, IsolatedPhotonSwapInstantRetire) {
  Graph g(2);  // two isolated vertices
  const SubgraphSpec st_spec((std::move(g)));

  ReductionState st(st_spec, 1);
  st.swap_photon(0);
  EXPECT_EQ(st.active_emitters(), 0u);  // retired immediately
  st.swap_photon(1);
  EXPECT_TRUE(st.reduced());
  EXPECT_EQ(st.swap_count(), 2u);
}

// ---- randomized cross-check against a Graph-backed reference -------------

/// The reduction rules restated over a Graph, independent of
/// ReductionState's flat bitmask layout: legality, mutations, slot
/// bookkeeping and the memo hash (Graph::fingerprint, then roles, LC count,
/// and the key watermark under the key-ordered policy).
struct Reference {
  const SubgraphSpec& spec;
  DanglerPolicy policy;
  std::uint32_t ne_limit;
  Graph g;
  std::vector<Role> role;
  std::vector<std::uint32_t> slot;
  std::vector<std::uint32_t> free_slots;
  std::int64_t last_key = std::numeric_limits<std::int64_t>::max();
  std::uint32_t active = 0, slots_used = 0, lcs = 0;

  Reference(const SubgraphSpec& s, std::uint32_t ne, DanglerPolicy p)
      : spec(s),
        policy(p),
        ne_limit(ne),
        g(s.graph),
        role(s.graph.vertex_count(), Role::photon),
        slot(s.graph.vertex_count(), 0) {}

  bool photon(Vertex v) const { return role[v] == Role::photon; }
  bool emitter(Vertex v) const { return role[v] == Role::emitter; }
  bool boundary(Vertex v) const { return spec.boundary[v]; }

  bool can_swap(Vertex p) const { return photon(p) && active < ne_limit; }
  bool can_leaf(Vertex e, Vertex p) const {
    return emitter(e) && photon(p) && !boundary(p) && g.degree(p) == 1 &&
           g.has_edge(e, p);
  }
  bool can_dangler(Vertex e, Vertex p) const {
    if (!emitter(e) || !photon(p)) return false;
    if (boundary(p)) {
      if (policy == DanglerPolicy::anchors_only) return false;
      const std::uint32_t key = spec.stem_key[p];
      if (policy == DanglerPolicy::key_ordered &&
          (key == SubgraphSpec::must_swap || std::int64_t{key} >= last_key))
        return false;
    }
    return g.degree(e) == 1 && g.has_edge(e, p);
  }
  bool can_twin(Vertex e, Vertex p) const {
    return emitter(e) && photon(p) && !boundary(p) &&
           g.same_neighborhood(e, p);
  }
  bool can_disconnect(Vertex a, Vertex b) const {
    return a != b && emitter(a) && emitter(b) && g.has_edge(a, b);
  }
  bool can_lc(Vertex v) const {
    return role[v] != Role::done && !boundary(v) && g.degree(v) >= 2;
  }

  void retire_if_free(Vertex v) {
    if (!emitter(v) || boundary(v) || !g.is_isolated(v)) return;
    free_slots.push_back(slot[v]);
    role[v] = Role::done;
    --active;
  }
  void swap(Vertex p) {
    if (!boundary(p) && !free_slots.empty()) {
      slot[p] = free_slots.back();
      free_slots.pop_back();
    } else {
      slot[p] = slots_used++;
    }
    role[p] = Role::emitter;
    ++active;
    retire_if_free(p);
  }
  void leaf(Vertex e, Vertex p) {
    g.remove_edge(e, p);
    role[p] = Role::done;
    retire_if_free(e);
  }
  void dangler(Vertex e, Vertex p) {
    if (boundary(p)) last_key = spec.stem_key[p];
    g.remove_edge(e, p);
    std::vector<Vertex> moved;
    g.for_each_neighbor(p, [&](Vertex u) { moved.push_back(u); });
    for (Vertex u : moved) {
      g.remove_edge(p, u);
      g.add_edge(e, u);
    }
    role[p] = Role::done;
    retire_if_free(e);
  }
  void twin(Vertex e, Vertex p) {
    g.isolate(p);
    role[p] = Role::done;
    retire_if_free(e);
  }
  void disconnect(Vertex a, Vertex b) {
    g.remove_edge(a, b);
    retire_if_free(a);
    retire_if_free(b);
  }
  void lc(Vertex v) {
    local_complement(g, v);
    ++lcs;
  }

  std::uint64_t hash() const {
    std::uint64_t h = g.fingerprint();
    for (const Role r : role)
      h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(r);
    h = h * 0x100000001b3ULL ^ lcs;
    if (policy == DanglerPolicy::key_ordered)
      h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(last_key);
    return h;
  }
};

void expect_matches(const ReductionState& st, const Reference& ref) {
  ASSERT_TRUE(st.graph() == ref.g);
  std::size_t photons = 0;
  for (Vertex v = 0; v < ref.g.vertex_count(); ++v) {
    ASSERT_EQ(st.role(v), ref.role[v]) << "vertex " << v;
    if (ref.emitter(v)) {
      ASSERT_EQ(st.slot_of(v), ref.slot[v]) << "vertex " << v;
    }
    photons += ref.photon(v) ? 1 : 0;
  }
  ASSERT_EQ(st.photons_left(), photons);
  ASSERT_EQ(st.active_emitters(), ref.active);
  ASSERT_EQ(st.slots_used(), ref.slots_used);
  ASSERT_EQ(st.lc_count(), ref.lcs);
  ASSERT_EQ(st.state_hash(), ref.hash());
}

enum class Move { swap, leaf, dangler, twin, disconnect, lc };

struct Candidate {
  Move move;
  Vertex a, b;
};

/// Every move legal in `st`, with each legality check compared against
/// the reference.
std::vector<Candidate> legal_moves(const ReductionState& st,
                                   const Reference& ref) {
  std::vector<Candidate> legal;
  const auto n = static_cast<Vertex>(ref.g.vertex_count());
  for (Vertex a = 0; a < n; ++a) {
    EXPECT_EQ(st.can_swap(a), ref.can_swap(a)) << a;
    if (st.can_swap(a)) legal.push_back({Move::swap, a, 0});
    EXPECT_EQ(st.can_local_comp(a), ref.can_lc(a)) << a;
    if (st.can_local_comp(a)) legal.push_back({Move::lc, a, 0});
    for (Vertex b = 0; b < n; ++b) {
      const std::pair<bool, bool> checks[] = {
          {st.can_absorb_leaf(a, b), ref.can_leaf(a, b)},
          {st.can_absorb_dangler(a, b), ref.can_dangler(a, b)},
          {st.can_absorb_twin(a, b), ref.can_twin(a, b)},
          {st.can_disconnect(a, b), ref.can_disconnect(a, b)}};
      const Move moves[] = {Move::leaf, Move::dangler, Move::twin,
                            Move::disconnect};
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(checks[k].first, checks[k].second)
            << "move " << k << " (" << a << ", " << b << ")";
        if (checks[k].first) legal.push_back({moves[k], a, b});
      }
    }
  }
  return legal;
}

void apply(const Candidate& c, ReductionState& st, Reference& ref) {
  switch (c.move) {
    case Move::swap: st.swap_photon(c.a); ref.swap(c.a); break;
    case Move::leaf: st.absorb_leaf(c.a, c.b); ref.leaf(c.a, c.b); break;
    case Move::dangler:
      st.absorb_dangler(c.a, c.b);
      ref.dangler(c.a, c.b);
      break;
    case Move::twin: st.absorb_twin(c.a, c.b); ref.twin(c.a, c.b); break;
    case Move::disconnect:
      st.disconnect(c.a, c.b);
      ref.disconnect(c.a, c.b);
      break;
    case Move::lc: st.local_comp(c.a); ref.lc(c.a); break;
  }
}

TEST(Reduction, RandomMovesMatchGraphReference) {
  Rng rng(0x5eed);
  struct Shape {
    std::size_t n;
    int specs;
    std::size_t max_moves;
  };
  // The 70-vertex spec has two-word rows.
  for (const Shape shape : {Shape{4, 25, 30}, Shape{7, 25, 40},
                            Shape{12, 8, 60}, Shape{70, 2, 60}}) {
    for (int s = 0; s < shape.specs; ++s) {
      const double p = shape.n > 12 ? 4.0 / static_cast<double>(shape.n)
                                    : 0.2 + 0.5 * rng.uniform();
      Graph g = make_erdos_renyi(shape.n, p, rng.next());
      std::vector<bool> boundary(shape.n);
      std::vector<std::uint32_t> keys(shape.n);
      for (std::size_t v = 0; v < shape.n; ++v) {
        boundary[v] = rng.chance(0.3);
        keys[v] = rng.chance(0.15) ? SubgraphSpec::must_swap
                                   : static_cast<std::uint32_t>(rng.below(40));
      }
      const SubgraphSpec spec(std::move(g), boundary, keys);
      for (const DanglerPolicy policy :
           {DanglerPolicy::free_form, DanglerPolicy::key_ordered,
            DanglerPolicy::anchors_only}) {
        const auto ne = static_cast<std::uint32_t>(1 + rng.below(4));
        SCOPED_TRACE("n=" + std::to_string(shape.n) + " spec " +
                     std::to_string(s) + " policy " +
                     std::to_string(static_cast<int>(policy)));
        ReductionState st(spec, ne, policy);
        std::vector<ReduceOp> log;
        if (rng.chance(0.5)) st.share_op_log(log);
        Reference ref(spec, ne, policy);
        expect_matches(st, ref);
        if (HasFatalFailure()) return;
        for (std::size_t m = 0; m < shape.max_moves && !st.reduced(); ++m) {
          const std::vector<Candidate> legal = legal_moves(st, ref);
          if (HasFailure() || legal.empty()) break;
          // Mutate a copy and assign it back: the search's copy path.
          ReductionState next = st;
          apply(legal[rng.below(legal.size())], next, ref);
          st = next;
          expect_matches(st, ref);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(Reduction, StateHashValuesArePinned) {
  // Memo keys recorded before the flat-state rewrite; a change here
  // changes which search nodes the memo prunes.
  const SubgraphSpec ring5(make_ring(5));
  EXPECT_EQ(ReductionState(ring5, 2).state_hash(), 16137544847785220100ULL);

  const SubgraphSpec path4(make_linear_cluster(4), {true, true, false, false},
                           {5, 2, 0, 0});
  ReductionState keyed(path4, 2, DanglerPolicy::key_ordered);
  keyed.swap_photon(3);
  keyed.absorb_dangler(3, 2);
  keyed.absorb_dangler(3, 1);
  EXPECT_EQ(keyed.state_hash(), 14027500704945305065ULL);

  const SubgraphSpec ring6(make_ring(6));
  ReductionState lc(ring6, 2);
  lc.swap_photon(0);
  lc.local_comp(2);
  EXPECT_EQ(lc.state_hash(), 17719877620394440733ULL);

  const SubgraphSpec ring70(make_ring(70));  // two words per row
  ReductionState wide(ring70, 3);
  wide.swap_photon(1);
  wide.local_comp(0);
  wide.swap_photon(69);
  wide.disconnect(1, 69);
  EXPECT_EQ(wide.state_hash(), 5030357019142563286ULL);
}

}  // namespace
}  // namespace epg

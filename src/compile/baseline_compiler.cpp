#include "compile/baseline_compiler.hpp"

#include <algorithm>
#include <optional>

#include "circuit/simulate.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graph/metrics.hpp"
#include "stab/tableau.hpp"

namespace epg {
namespace {

// ---------------------------------------------------------------------------
// Reverse-op recording
// ---------------------------------------------------------------------------

enum class RevKind : std::uint8_t {
  photon_local,
  emitter_local,
  ee_cnot,
  absorb_emission,
  trm_swap,
};

struct RevOp {
  RevKind kind;
  std::uint32_t a = 0;  ///< photon vertex or emitter index (see kind)
  std::uint32_t b = 0;  ///< second emitter / photon vertex
  Clifford1 local;
};

// ---------------------------------------------------------------------------
// Pauli-row helpers
// ---------------------------------------------------------------------------

void conjugate_1q(PauliString& p, std::size_t wire, Clifford1 c) {
  const PauliOp op = p.op_at(wire);
  if (op == PauliOp::I) return;
  const SignedPauli1 img = c.conjugate({op, false});
  p.set_op(wire, img.op);
  if (img.negative) p.negate();
}

void conjugate_cnot(PauliString& p, std::size_t control, std::size_t target) {
  const bool xc = p.x_bit(control), zc = p.z_bit(control);
  const bool xt = p.x_bit(target), zt = p.z_bit(target);
  if (xc && zt && xt == zc) p.negate();
  // x_target ^= x_control ; z_control ^= z_target, preserving the Y-phase
  // convention via set_op.
  const bool new_xt = xt ^ xc, new_zc = zc ^ zt;
  auto compose = [](bool x, bool z) {
    if (x && z) return PauliOp::Y;
    if (x) return PauliOp::X;
    if (z) return PauliOp::Z;
    return PauliOp::I;
  };
  p.set_op(target, compose(new_xt, zt));
  p.set_op(control, compose(xc, new_zc));
}

/// Gaussian elimination of the rows over the x- and z-columns of `wires`;
/// afterwards, rows beyond the returned pivot count have no support there.
std::size_t eliminate_over(std::vector<PauliString>& rows,
                           const std::vector<std::size_t>& wires) {
  std::size_t pivot = 0;
  auto bit = [](const PauliString& p, std::size_t wire, bool z_part) {
    return z_part ? p.z_bit(wire) : p.x_bit(wire);
  };
  for (std::size_t w : wires) {
    for (bool z_part : {false, true}) {
      std::size_t sel = pivot;
      while (sel < rows.size() && !bit(rows[sel], w, z_part)) ++sel;
      if (sel == rows.size()) continue;
      std::swap(rows[pivot], rows[sel]);
      for (std::size_t r = 0; r < rows.size(); ++r)
        if (r != pivot && bit(rows[r], w, z_part)) rows[r] *= rows[pivot];
      ++pivot;
      if (pivot == rows.size()) return pivot;
    }
  }
  return pivot;
}

bool supported_on(const PauliString& p, std::size_t wire) {
  return p.op_at(wire) != PauliOp::I;
}

/// The single-qubit Clifford rotating the given Pauli to Z (sign ignored —
/// signs are repaired afterwards with an X on the emitter).
Clifford1 rotate_to_z(PauliOp op) {
  switch (op) {
    case PauliOp::Z: return Clifford1::identity();
    case PauliOp::X: return Clifford1::h();
    case PauliOp::Y: return Clifford1::sqrt_x();  // Y -> Z
    case PauliOp::I: break;
  }
  EPG_CHECK(false, "cannot rotate identity to Z");
  return Clifford1::identity();
}

// ---------------------------------------------------------------------------
// One compilation for a fixed emission order
// ---------------------------------------------------------------------------

struct ProtocolRun {
  const Graph* g = nullptr;
  std::size_t n = 0, ne = 0;
  Tableau t{1};
  std::vector<RevOp> ops;
  std::size_t ee_cnots = 0;

  std::size_t emitter_wire(std::size_t e) const { return n + e; }

  std::vector<PauliString> stab_rows() const {
    std::vector<PauliString> rows;
    rows.reserve(n + ne);
    for (std::size_t i = 0; i < n + ne; ++i) rows.push_back(t.stabilizer(i));
    return rows;
  }

  void photon_local(std::uint32_t v, Clifford1 c) {
    if (c.is_identity()) return;
    t.apply(v, c);
    ops.push_back({RevKind::photon_local, v, 0, c});
  }
  void emitter_local(std::uint32_t e, Clifford1 c) {
    if (c.is_identity()) return;
    t.apply(emitter_wire(e), c);
    ops.push_back({RevKind::emitter_local, e, 0, c});
  }
  void ee_cnot(std::uint32_t control, std::uint32_t target) {
    t.cnot(emitter_wire(control), emitter_wire(target));
    ops.push_back({RevKind::ee_cnot, control, target, Clifford1::identity()});
    ++ee_cnots;
  }

  /// A free emitter is one unentangled with everything else (it has a
  /// single-qubit stabilizer); a local rotation recycles it to |0>.
  std::optional<std::uint32_t> acquire_free_emitter() {
    for (std::size_t e = 0; e < ne; ++e) {
      const std::size_t wire = emitter_wire(e);
      for (PauliOp op : {PauliOp::Z, PauliOp::X, PauliOp::Y}) {
        for (bool negative : {false, true}) {
          PauliString p = PauliString::single(n + ne, wire, op);
          if (negative) p.negate();
          if (!t.stabilizes(p)) continue;
          const Clifford1 w = rotate_to_z(op);
          emitter_local(static_cast<std::uint32_t>(e), w);
          if (w.conjugate({op, negative}).negative)
            emitter_local(static_cast<std::uint32_t>(e), Clifford1::x());
          EPG_CHECK(t.is_zero_state(wire), "recycled emitter must be |0>");
          return static_cast<std::uint32_t>(e);
        }
      }
    }
    return std::nullopt;
  }

  /// Contract `row`'s emitter support onto one wire: rotate every emitter
  /// component to Z, CNOT every other support wire onto the target (the
  /// first support wire, or the last when `onto_last`), then fix the sign
  /// with X, leaving +Z on the target. Returns the target emitter.
  std::uint32_t contract(PauliString& row, bool onto_last) {
    for (std::size_t e = 0; e < ne; ++e) {
      const PauliOp op = row.op_at(emitter_wire(e));
      if (op == PauliOp::I || op == PauliOp::Z) continue;
      const Clifford1 c = rotate_to_z(op);
      emitter_local(static_cast<std::uint32_t>(e), c);
      conjugate_1q(row, emitter_wire(e), c);
    }
    std::vector<std::uint32_t> support;
    for (std::size_t e = 0; e < ne; ++e)
      if (row.op_at(emitter_wire(e)) == PauliOp::Z)
        support.push_back(static_cast<std::uint32_t>(e));
    EPG_CHECK(!support.empty(), "contracted row must touch an emitter");
    const std::uint32_t target = onto_last ? support.back() : support[0];
    for (const std::uint32_t f : support) {
      if (f == target) continue;
      // CNOT(control=f, target=e) maps Z_e -> Z_f Z_e, cancelling Z_f.
      ee_cnot(f, target);
      conjugate_cnot(row, emitter_wire(f), emitter_wire(target));
    }
    if (row.sign() < 0) {
      emitter_local(target, Clifford1::x());
      row.negate();
    }
    return target;
  }

  std::vector<std::size_t> emitter_wires() const {
    std::vector<std::size_t> wires(ne);
    for (std::size_t e = 0; e < ne; ++e) wires[e] = emitter_wire(e);
    return wires;
  }

  std::size_t emitter_weight(const PauliString& p) const {
    std::size_t w = 0;
    for (std::size_t e = 0; e < ne; ++e)
      if (supported_on(p, emitter_wire(e))) ++w;
    return w;
  }

  /// The emitter wire `r` holds in |0>: r is +Z on that one emitter wire
  /// and acts on no other emitter.
  std::optional<std::size_t> zero_wire(const PauliString& r) const {
    if (emitter_weight(r) != 1 || r.sign() < 0) return std::nullopt;
    for (std::size_t e = 0; e < ne; ++e)
      if (r.op_at(emitter_wire(e)) == PauliOp::Z) return emitter_wire(e);
    return std::nullopt;
  }

  /// Strip removable emitter support from `row` using a *canonical*
  /// emitter-only basis. As in GraphiQ, only components on already-free
  /// wires (pure +Z basis singles) are removed — required so contraction
  /// never re-entangles a |0> emitter.
  void thin_with(PauliString& row,
                 const std::vector<PauliString>& basis) const {
    for (const PauliString& r : basis) {
      const std::optional<std::size_t> wire = zero_wire(r);
      if (wire && row.z_bit(*wire) && !row.x_bit(*wire)) row *= r;
    }
  }

  /// Absorb or transfer photon v given the still-active photons.
  bool reduce_photon(std::uint32_t v, const std::vector<std::size_t>& others) {
    std::vector<PauliString> rows = stab_rows();
    // Remove support on every other photon wire (active or absorbed).
    const std::size_t pivots = eliminate_over(rows, others);
    // Split the tail into rows touching v and an emitter-only block, and
    // canonicalize the latter so that thinning cannot re-entangle wires
    // that are already |0>.
    std::vector<PauliString> tail(rows.begin() + pivots, rows.end());
    const std::size_t vpiv = eliminate_over(tail, {v});
    if (vpiv == 0) return false;  // needs a time-reversed measurement
    std::vector<PauliString> emitter_only(tail.begin() + vpiv, tail.end());
    eliminate_over(emitter_only, emitter_wires());

    std::vector<PauliString> options(tail.begin(), tail.begin() + vpiv);
    if (vpiv == 2) {
      PauliString product = options[0];
      product *= options[1];
      if (supported_on(product, v)) options.push_back(product);
    }
    std::optional<PauliString> candidate;
    for (PauliString opt : options) {
      thin_with(opt, emitter_only);
      if (emitter_weight(opt) == 0) continue;  // cannot drive an emission
      if (!candidate || emitter_weight(opt) < emitter_weight(*candidate))
        candidate = opt;
    }
    if (!candidate) return false;  // isolated |+>-like photon: transfer
    // Rotate the photon component to Z.
    const Clifford1 w = rotate_to_z(candidate->op_at(v));
    photon_local(v, w);
    conjugate_1q(*candidate, v, w);
    // The row is now +Z_v Z_target: a reversed emission (CNOT emitter ->
    // photon) decouples the photon.
    const std::uint32_t target = contract(*candidate, /*onto_last=*/false);
    t.cnot(emitter_wire(target), v);
    ops.push_back(
        {RevKind::absorb_emission, target, v, Clifford1::identity()});
    EPG_CHECK(t.is_zero_state(v), "photon must decouple after absorption");
    return true;
  }

  bool trm(std::uint32_t v) {
    const auto free = acquire_free_emitter();
    if (!free) return false;  // caller retries with one more emitter
    t.swap_qubits(emitter_wire(*free), v);
    ops.push_back({RevKind::trm_swap, *free, v, Clifford1::identity()});
    return true;
  }

  /// Return every remaining emitter to |0>, counting the CNOTs.
  void disentangle_emitters() {
    std::vector<std::size_t> photon_wires(n);
    for (std::size_t v = 0; v < n; ++v) photon_wires[v] = v;
    for (std::size_t guard = 0; guard <= ne; ++guard) {
      std::vector<PauliString> rows = stab_rows();
      const std::size_t pivots = eliminate_over(rows, photon_wires);
      // Canonicalize the emitter-only block so |0> wires appear as pure
      // +Z singles and no other row touches them.
      std::vector<PauliString> block(rows.begin() + pivots, rows.end());
      eliminate_over(block, emitter_wires());
      // Pick the lightest row that still entangles wires.
      std::optional<PauliString> pick;
      std::size_t pick_weight = 0;
      for (const PauliString& row : block) {
        const std::size_t weight = emitter_weight(row);
        if (weight == 0 || zero_wire(row)) continue;
        if (!pick || weight < pick_weight) {
          pick = row;
          pick_weight = weight;
        }
      }
      if (!pick) return;  // every emitter is back in |0>
      contract(*pick, /*onto_last=*/true);  // that wire is now |0>
    }
    EPG_CHECK(false, "emitter disentangling did not converge; state:\n" +
                         t.str());
  }
};

Circuit forward_circuit(const ProtocolRun& run) {
  Circuit c(run.n, run.ne);
  for (std::size_t i = run.ops.size(); i-- > 0;) {
    const RevOp& op = run.ops[i];
    switch (op.kind) {
      case RevKind::photon_local:
        c.local(QubitId::photon(op.a), op.local.inverse());
        break;
      case RevKind::emitter_local:
        c.local(QubitId::emitter(op.a), op.local.inverse());
        break;
      case RevKind::ee_cnot:
        c.ee_cnot(op.a, op.b);
        break;
      case RevKind::absorb_emission:
        c.emission(op.a, op.b);
        break;
      case RevKind::trm_swap:
        c.emission(op.a, op.b);
        c.local(QubitId::emitter(op.a), Clifford1::h());
        c.measure_reset(op.a, {{QubitId::photon(op.b), PauliOp::Z}});
        break;
    }
  }
  return c;
}

std::optional<BaselineResult> compile_for_order(
    const Graph& g, const std::vector<Vertex>& order,
    const BaselineConfig& cfg) {
  const std::size_t n = g.vertex_count();
  const std::size_t ne_min = std::max<std::size_t>(
      min_emitters_for_order(g, order), 1);

  // The height bound is sufficient for the canonical protocol; greedy row
  // choices may occasionally pin one extra emitter, so retry with slack.
  ProtocolRun run;
  bool reduced = false;
  for (std::size_t slack = 0; slack <= 2 && !reduced; ++slack) {
    run = ProtocolRun{};
    run.g = &g;
    run.n = n;
    run.ne = std::max(ne_min + slack, std::max<std::size_t>(
                                          cfg.num_emitters, 1));
    run.t = Tableau::graph_state(g, run.ne);
    reduced = true;
    // Photons leave in reverse emission order.
    for (std::size_t idx = n; idx-- > 0 && reduced;) {
      const Vertex v = order[idx];
      std::vector<std::size_t> others;
      for (std::size_t k = 0; k < n; ++k)
        if (k != v) others.push_back(k);
      if (!run.reduce_photon(v, others)) reduced = run.trm(v);
    }
  }
  if (!reduced) return std::nullopt;
  run.disentangle_emitters();

  BaselineResult result;
  result.success = true;
  result.circuit = forward_circuit(run);
  result.circuit.check_well_formed();
  result.stats = compute_stats(result.circuit, cfg.hw);
  result.ne_min = ne_min;
  result.emission_order = order;

  if (cfg.verify) {
    Rng rng(0xBA5E11);
    const SimulationResult sim = simulate(result.circuit, rng);
    const Tableau want = Tableau::graph_state(g, run.ne);
    if (!sim.state.same_state_as(want)) return std::nullopt;
  }
  return result;
}

}  // namespace

BaselineResult compile_baseline(const Graph& target,
                                const BaselineConfig& cfg) {
  EPG_REQUIRE(target.vertex_count() > 0, "empty target graph");
  Rng rng(cfg.seed);

  std::vector<Vertex> natural(target.vertex_count());
  for (Vertex v = 0; v < target.vertex_count(); ++v) natural[v] = v;

  BaselineResult best;
  auto consider = [&](const std::vector<Vertex>& order) {
    const auto r = compile_for_order(target, order, cfg);
    if (!r) return;
    if (!best.success ||
        std::make_pair(r->stats.ee_cnot_count, r->stats.makespan_ticks) <
            std::make_pair(best.stats.ee_cnot_count,
                           best.stats.makespan_ticks))
      best = *r;
  };
  consider(natural);
  for (int i = 0; i < cfg.order_restarts; ++i) {
    std::vector<Vertex> order = natural;
    rng.shuffle(order);
    consider(order);
  }
  EPG_CHECK(best.success, "baseline compilation failed on every order");
  return best;
}

}  // namespace epg

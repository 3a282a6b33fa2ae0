#include "compile/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <tuple>
#include <utility>

#include "circuit/timing.hpp"
#include "common/assert.hpp"

namespace epg {
namespace {

struct PartLayout {
  CircuitTiming timing;
  double priority = 0.0;
  std::vector<std::uint32_t> usage;  // local usage curve
  /// pmin[t] = min over reversed-curve offsets 0..t-1 of the usage value
  /// (pmin[0] = "none"): the thinnest usage any LATER first-fit alignment
  /// can still place on a tick that failed at offset t. Lets the packer
  /// skip provably dead alignments without changing the chosen drop.
  std::vector<std::uint32_t> pmin;
};

struct MergedGate {
  Tick release = 0;
  std::uint32_t part = 0;      ///< parts.size() marks a stem CZ
  std::uint32_t index = 0;     ///< local gate index / serialization rank
};

/// Host lookup: global boundary vertex -> (part, AnchorInfo) plus the slot
/// gates preceding its window.
struct HostRef {
  std::uint32_t part = 0;
  const AnchorInfo* info = nullptr;
  std::vector<std::size_t> prev_gates;  ///< slot gates before tail_begin
};

/// Whether `g` operates on emitter `slot`.
bool touches_slot(const Gate& g, std::uint32_t slot) {
  return (g.a.kind == QubitKind::emitter && g.a.index == slot) ||
         (g.is_two_qubit() && g.b.kind == QubitKind::emitter &&
          g.b.index == slot);
}

using DagEdge = std::pair<std::uint32_t, std::uint32_t>;  ///< (from, to)

/// Compressed adjacency over nodes [0, n): the successors of node v are
/// adj[head[v], head[v + 1]), in the order their edges were listed.
struct Csr {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> adj;

  Csr() = default;
  Csr(std::size_t n, const std::vector<DagEdge>& edges) : head(n + 1, 0) {
    for (const auto& [from, to] : edges) ++head[from + 1];
    for (std::size_t v = 0; v < n; ++v) head[v + 1] += head[v];
    adj.resize(edges.size());
    std::vector<std::uint32_t> cursor(head.begin(), head.end() - 1);
    for (const auto& [from, to] : edges) adj[cursor[from]++] = to;
  }
};

/// Everything about one scheduling instance that does not depend on the
/// packing headroom. schedule_parts retries the headroom-limited packing
/// many times (and the flexible-ne pass re-enters with one variant
/// swapped), so the per-part timing analysis, the placement orders, the
/// host records and the whole precedence DAG are computed once here and
/// shared by every schedule_once trial.
struct SchedulePrepass {
  std::vector<PartLayout> layout;
  std::vector<std::vector<std::uint32_t>> partners;
  std::vector<std::uint32_t> order;  ///< placement order (priority-sorted)

  std::vector<std::size_t> gate_base;  ///< prefix sums of circuit sizes
  std::size_t total_gates = 0;
  std::vector<HostRef> hosts;
  std::vector<std::int32_t> host_at;  ///< global vertex -> host index or -1

  // Precedence DAG in CSR form. Node layout: [gates | stems | per-host
  // collectors]; stem nodes are indexed by original stem_edges position so
  // the edges are independent of the per-trial serialization order. A
  // collector folds "max release over the slot gates preceding the host's
  // window" so each incident stem needs one in-edge, not |prev_gates|.
  std::size_t stem_node = 0;
  std::size_t coll_node = 0;
  std::size_t n_nodes = 0;
  Csr dag;
  std::vector<std::uint32_t> indeg;

  std::vector<std::uint32_t> slot_base;  ///< prefix sums of num_emitters
};

SchedulePrepass build_prepass(const std::vector<CompiledPart>& parts,
                              const std::vector<Edge>& stem_edges,
                              std::size_t num_global_photons,
                              const ScheduleConfig& cfg) {
  SchedulePrepass pre;

  // ---- local analysis ----------------------------------------------------
  pre.layout.resize(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    CircuitTiming& timing = pre.layout[p].timing;
    timing = analyze_timing(parts[p].circuit.circuit, cfg.hw);
    // An anchor idles in |0>/|+> until its first real operation; push its
    // init H right up against that op so the slot is not reserved earlier.
    const Circuit& c = parts[p].circuit.circuit;
    for (const AnchorInfo& a : parts[p].circuit.anchors) {
      if (!a.via_swap) continue;  // dangler hosts have no idle init to push
      Tick next = timing.makespan;
      for (std::size_t i = 0; i < c.size(); ++i)
        if (i != a.init_gate && touches_slot(c.gates()[i], a.slot))
          next = std::min(next, timing.gate_start[i]);
      const Tick dur =
          timing.gate_end[a.init_gate] - timing.gate_start[a.init_gate];
      if (next >= dur && timing.gate_end[a.init_gate] < next) {
        timing.gate_start[a.init_gate] = next - dur;
        timing.gate_end[a.init_gate] = next;
        timing.emitter_busy[a.slot].begin = next - dur;
      }
    }
    const double dur =
        std::max<double>(1.0, static_cast<double>(timing.makespan));
    pre.layout[p].priority =
        static_cast<double>(parts[p].circuit.circuit.num_photons()) / dur;
    pre.layout[p].usage = timing.usage_curve();
    const auto& u = pre.layout[p].usage;
    auto& pmin = pre.layout[p].pmin;
    pmin.assign(u.size() + 1, ~0u);
    for (std::size_t t = 0; t < u.size(); ++t)
      pmin[t + 1] = std::min(pmin[t], u[u.size() - 1 - t]);
  }

  // Stem partners: parts joined by a stem edge want temporal overlap, or
  // their anchors wait (occupying emitters) for the partner to start.
  pre.partners.resize(parts.size());
  {
    std::vector<std::uint32_t> owner;
    for (std::uint32_t p = 0; p < parts.size(); ++p)
      for (Vertex v : parts[p].to_global) {
        if (owner.size() <= v) owner.resize(v + 1, 0);
        owner[v] = p;
      }
    for (const auto& [u, v] : stem_edges) {
      pre.partners[owner[u]].push_back(owner[v]);
      pre.partners[owner[v]].push_back(owner[u]);
    }
  }

  // Tetris: highest priority first = placed latest (smallest reversed
  // offset). Sequential ablation: lowest priority earliest.
  pre.order.resize(parts.size());
  std::iota(pre.order.begin(), pre.order.end(), 0u);
  std::sort(pre.order.begin(), pre.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double pa = pre.layout[a].priority;
              const double pb = pre.layout[b].priority;
              if (pa != pb) return cfg.alap_tetris ? pa > pb : pa < pb;
              return a < b;
            });

  // ---- hosts -------------------------------------------------------------
  pre.gate_base.assign(parts.size() + 1, 0);
  for (std::size_t p = 0; p < parts.size(); ++p)
    pre.gate_base[p + 1] = pre.gate_base[p] + parts[p].circuit.circuit.size();
  pre.total_gates = pre.gate_base.back();

  // Every boundary vertex owns one host record; the last writer wins on
  // (impossible) duplicates, matching the former map-assignment behavior.
  pre.host_at.assign(num_global_photons, -1);
  for (std::uint32_t p = 0; p < parts.size(); ++p) {
    const Circuit& c = parts[p].circuit.circuit;
    for (const AnchorInfo& a : parts[p].circuit.anchors) {
      HostRef ref;
      ref.part = p;
      ref.info = &a;
      for (std::size_t i = 0; i < a.tail_begin; ++i)
        if (touches_slot(c.gates()[i], a.slot)) ref.prev_gates.push_back(i);
      const Vertex gv = parts[p].to_global[a.vertex];
      if (pre.host_at[gv] >= 0) {
        pre.hosts[pre.host_at[gv]] = std::move(ref);
      } else {
        pre.host_at[gv] = static_cast<std::int32_t>(pre.hosts.size());
        pre.hosts.push_back(std::move(ref));
      }
    }
  }

  // ---- precedence DAG ----------------------------------------------------
  pre.stem_node = pre.total_gates;
  pre.coll_node = pre.total_gates + stem_edges.size();
  pre.n_nodes = pre.coll_node + pre.hosts.size();

  std::vector<DagEdge> dag_edges;
  dag_edges.reserve(2 * pre.total_gates + 4 * stem_edges.size());
  {
    // Wire-chain edges inside each part, mirroring a release cascade: a
    // gate follows the last gate that *operated* on each of its wires plus
    // every conditional-correction writer to those wires since then.
    std::size_t max_wires = 0;
    for (const CompiledPart& part : parts)
      max_wires = std::max(max_wires, part.circuit.circuit.num_emitters() +
                                          part.circuit.circuit.num_photons());
    std::vector<std::int64_t> last_op(max_wires, -1);
    std::vector<std::vector<std::uint32_t>> pending(max_wires);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const Circuit& c = parts[p].circuit.circuit;
      const std::size_t ne = c.num_emitters();
      const std::size_t wires = ne + c.num_photons();
      for (std::size_t w = 0; w < wires; ++w) {
        last_op[w] = -1;
        pending[w].clear();
      }
      auto wid = [&](QubitId q) {
        return q.kind == QubitKind::emitter
                   ? static_cast<std::size_t>(q.index)
                   : ne + static_cast<std::size_t>(q.index);
      };
      for (std::size_t i = 0; i < c.size(); ++i) {
        const Gate& g = c.gates()[i];
        const auto node = static_cast<std::uint32_t>(pre.gate_base[p] + i);
        auto link = [&](std::size_t w) {
          if (last_op[w] >= 0)
            dag_edges.push_back(
                {static_cast<std::uint32_t>(last_op[w]), node});
          for (std::uint32_t src : pending[w]) dag_edges.push_back({src, node});
        };
        link(wid(g.a));
        if (g.is_two_qubit()) link(wid(g.b));
        auto claim = [&](std::size_t w) {
          last_op[w] = node;
          pending[w].clear();
        };
        claim(wid(g.a));
        if (g.is_two_qubit()) claim(wid(g.b));
        for (const auto& corr : g.if_one)
          pending[wid(corr.target)].push_back(node);
      }
    }
  }
  for (std::size_t h = 0; h < pre.hosts.size(); ++h)
    for (std::size_t i : pre.hosts[h].prev_gates)
      dag_edges.push_back(
          {static_cast<std::uint32_t>(pre.gate_base[pre.hosts[h].part] + i),
           static_cast<std::uint32_t>(pre.coll_node + h)});
  for (std::size_t s = 0; s < stem_edges.size(); ++s) {
    const auto& [u, v] = stem_edges[s];
    for (const Vertex end : {u, v}) {
      EPG_CHECK(pre.host_at[end] >= 0, "stem endpoint has no host record");
      const auto h = static_cast<std::size_t>(pre.host_at[end]);
      dag_edges.push_back({static_cast<std::uint32_t>(pre.coll_node + h),
                           static_cast<std::uint32_t>(pre.stem_node + s)});
      dag_edges.push_back(
          {static_cast<std::uint32_t>(pre.stem_node + s),
           static_cast<std::uint32_t>(pre.gate_base[pre.hosts[h].part] +
                                      pre.hosts[h].info->tail_begin)});
    }
  }

  pre.dag = Csr(pre.n_nodes, dag_edges);
  pre.indeg.assign(pre.n_nodes, 0);
  for (const auto& [from, to] : dag_edges) ++pre.indeg[to];

  // Emitter slots flatten to slot ids sid = slot_base[part] + slot, in
  // (part, slot) order; the colouring breaks interval ties by slot id.
  pre.slot_base.assign(parts.size() + 1, 0);
  for (std::size_t p = 0; p < parts.size(); ++p)
    pre.slot_base[p + 1] =
        pre.slot_base[p] +
        static_cast<std::uint32_t>(parts[p].circuit.circuit.num_emitters());
  return pre;
}

/// One full plan->legalize pass with the given packing headroom.
GlobalSchedule schedule_once(const std::vector<CompiledPart>& parts,
                             const std::vector<Edge>& stem_edges,
                             std::size_t num_global_photons,
                             const ScheduleConfig& cfg,
                             std::uint32_t packing_limit,
                             const SchedulePrepass& pre) {
  EPG_REQUIRE(!parts.empty(), "nothing to schedule");
  const Tick ee_dur = cfg.hw.ee_cnot_ticks;
  const std::vector<PartLayout>& layout = pre.layout;

  // ---- 1. placement ------------------------------------------------------
  std::vector<Tick> offset(parts.size(), 0);
  if (cfg.alap_tetris) {
    std::vector<std::uint32_t> global_usage;  // reversed time
    std::vector<Tick> rev_offset(parts.size(), 0);
    std::vector<bool> placed(parts.size(), false);
    for (std::uint32_t p : pre.order) {
      const auto& u = layout[p].usage;
      const std::size_t t_len = u.size();
      // A part whose own curve tops the cap (anchor slots stack on top of
      // its worker emitters) must still land somewhere: relax the cap to
      // its own peak so the drop search below always terminates. The
      // realized peak is reported honestly via limit_respected.
      std::uint32_t cap = packing_limit;
      for (std::uint32_t x : u) cap = std::max(cap, x);
      const std::vector<std::uint32_t>& pmin = layout[p].pmin;
      auto fits = [&](std::size_t r) {
        for (std::size_t t = 0; t < t_len; ++t) {
          const std::size_t g = r + t;
          const std::uint32_t cur =
              g < global_usage.size() ? global_usage[g] : 0;
          // Reversed-time usage of the part at reversed tick t.
          if (cur + u[t_len - 1 - t] > cap) return false;
        }
        return true;
      };
      // First-fit drop, identical to `while (!fits(r)) ++r` but skipping
      // provably dead alignments: when offset t fails on global tick g,
      // every later alignment still covering g places one of the curve's
      // first t reversed values there — if even the thinnest of those
      // (pmin[t]) tops the cap at g, the window restarts past g. The
      // tetris packing keeps long prefixes saturated, which made the
      // naive rescan-from-zero quadratic in the schedule length at scale.
      auto first_fit = [&]() {
        std::size_t r = 0, t = 0;
        while (t < t_len) {
          const std::size_t g = r + t;
          const std::uint32_t cur =
              g < global_usage.size() ? global_usage[g] : 0;
          if (cur + u[t_len - 1 - t] > cap) {
            const std::uint64_t thinnest =
                static_cast<std::uint64_t>(cur) + pmin[t];
            r = thinnest > cap ? g + 1 : r + 1;
            t = 0;
          } else {
            ++t;
          }
        }
        return r;
      };
      auto overlap_score = [&](std::size_t r) {
        Tick score = 0;
        for (std::uint32_t q : pre.partners[p]) {
          if (!placed[q]) continue;
          const Tick lo = std::max<Tick>(r, rev_offset[q]);
          const Tick hi = std::min<Tick>(r + t_len,
                                         rev_offset[q] +
                                             layout[q].timing.makespan);
          if (hi > lo) score += hi - lo;
        }
        return score;
      };
      std::size_t r = first_fit();
      // Scan a bounded window of later drops for better partner overlap.
      std::size_t best_r = r;
      Tick best_score = overlap_score(r);
      for (std::size_t probe = r + 1; probe <= r + 2 * t_len; ++probe) {
        if (!fits(probe)) continue;
        const Tick score = overlap_score(probe);
        if (score > best_score) {
          best_score = score;
          best_r = probe;
        }
      }
      r = best_r;
      rev_offset[p] = r;
      placed[p] = true;
      if (global_usage.size() < r + t_len) global_usage.resize(r + t_len, 0);
      for (std::size_t t = 0; t < t_len; ++t)
        global_usage[r + t] += u[t_len - 1 - t];
    }
    Tick total = 0;
    for (std::uint32_t p = 0; p < parts.size(); ++p)
      total = std::max(total, rev_offset[p] + layout[p].timing.makespan);
    for (std::uint32_t p = 0; p < parts.size(); ++p)
      offset[p] = total - rev_offset[p] - layout[p].timing.makespan;
  } else {
    Tick cursor = 0;
    for (std::uint32_t p : pre.order) {
      offset[p] = cursor;
      cursor += layout[p].timing.makespan;
    }
  }

  // ---- 2. stem CZ serialization ------------------------------------------
  // Per-host readiness: right after the slot's last gate before the window.
  std::vector<Tick> host_ready(pre.hosts.size(), 0);
  for (std::size_t h = 0; h < pre.hosts.size(); ++h) {
    const HostRef& ref = pre.hosts[h];
    Tick ready = 0;
    for (std::size_t i : ref.prev_gates)
      ready = std::max(ready,
                       offset[ref.part] + layout[ref.part].timing.gate_end[i]);
    host_ready[h] = ready;
  }

  auto host_idx = [&](Vertex v) {
    return static_cast<std::size_t>(pre.host_at[v]);
  };
  // Process stem edges by the earliest feasible time for fairness; the
  // sorted order is the serialization order, and each CZ's greedy time is
  // its release floor (val, indexed like the precedence DAG's nodes).
  std::vector<std::size_t> stem_order(stem_edges.size());
  std::iota(stem_order.begin(), stem_order.end(), std::size_t{0});
  auto ready_of = [&](std::size_t i) {
    const auto& [u, v] = stem_edges[i];
    return std::max(host_ready[host_idx(u)], host_ready[host_idx(v)]);
  };
  std::sort(stem_order.begin(), stem_order.end(),
            [&](std::size_t a, std::size_t b) {
              return ready_of(a) < ready_of(b);
            });
  std::vector<Tick> val(pre.n_nodes, 0);
  for (std::size_t i : stem_order) {
    const auto& [u, v] = stem_edges[i];
    const std::size_t hu = host_idx(u);
    const std::size_t hv = host_idx(v);
    const Tick t = std::max(host_ready[hu], host_ready[hv]);
    val[pre.stem_node + i] = t;
    host_ready[hu] = host_ready[hv] = t + ee_dur;
  }

  // ---- 3. releases: longest path over the precedence DAG ------------------
  // Gate releases start at the placed local times; dangler/anchor windows
  // and stem CZs layer cross-part precedence on top. Every constraint is a
  // monotone max (gate after the last gate on each of its wires, stem after
  // the slot gates preceding both host windows, window tail at least ee_dur
  // after each of its stem CZs), so the converged release assignment is the
  // least fixpoint of a max-plus system — i.e. longest path over the
  // precedence DAG, computed in one Kahn pass. A positive precedence cycle
  // leaves nodes unprocessed: deadlock.
  //
  // Floors: placed local starts for gates, the greedy serialization times
  // for stems (set above), and the post-serialization host readiness for
  // window tails.
  for (std::size_t p = 0; p < parts.size(); ++p)
    for (std::size_t i = 0; i < parts[p].circuit.circuit.size(); ++i)
      val[pre.gate_base[p] + i] = offset[p] + layout[p].timing.gate_start[i];
  for (std::size_t h = 0; h < pre.hosts.size(); ++h) {
    Tick& tail =
        val[pre.gate_base[pre.hosts[h].part] + pre.hosts[h].info->tail_begin];
    tail = std::max(tail, host_ready[h]);
  }

  // Kahn longest path. Stem nodes are the only weighted sources: their
  // (tail) successors start ee_dur after the CZ release.
  const Csr& dag = pre.dag;
  std::vector<std::uint32_t> indeg = pre.indeg;
  std::vector<std::uint32_t> topo;
  topo.reserve(pre.n_nodes);
  for (std::size_t n = 0; n < pre.n_nodes; ++n)
    if (indeg[n] == 0) topo.push_back(static_cast<std::uint32_t>(n));
  std::size_t processed = 0;
  for (std::size_t qi = 0; qi < topo.size(); ++qi) {
    const std::uint32_t n = topo[qi];
    ++processed;
    const Tick w = (n >= pre.stem_node && n < pre.coll_node)
                       ? ee_dur
                       : static_cast<Tick>(0);
    for (std::uint32_t k = dag.head[n]; k < dag.head[n + 1]; ++k) {
      const std::uint32_t m = dag.adj[k];
      val[m] = std::max(val[m], val[n] + w);
      if (--indeg[m] == 0) topo.push_back(m);
    }
  }

  // Unprocessed nodes sit on or downstream of a precedence cycle: the stem
  // windows deadlocked and no placement exists. Report only the parts whose
  // stems can still REACH a cycle — everything merely downstream is a
  // victim, not a cause, and tightening it cannot break the cycle. One
  // early cycle otherwise cascades into recompiling nearly every part on
  // stem-dense graphs, which used to dominate the schedule stage at scale.
  // The culprits are found by stripping the residual (unprocessed)
  // subgraph from its sinks: a reverse Kahn pass over residual out-degrees
  // leaves exactly the nodes with a forward path into a cycle.
  if (processed < pre.n_nodes) {
    std::vector<DagEdge> residual;  // reversed: (to, from)
    std::vector<std::uint32_t> outdeg(pre.n_nodes, 0);
    for (std::size_t n = 0; n < pre.n_nodes; ++n) {
      if (indeg[n] == 0) continue;  // processed
      for (std::uint32_t k = dag.head[n]; k < dag.head[n + 1]; ++k)
        if (indeg[dag.adj[k]] != 0) {
          residual.push_back({dag.adj[k], static_cast<std::uint32_t>(n)});
          ++outdeg[n];
        }
    }
    const Csr preds(pre.n_nodes, residual);
    std::vector<std::uint32_t> strip;
    for (std::size_t n = 0; n < pre.n_nodes; ++n)
      if (indeg[n] != 0 && outdeg[n] == 0)
        strip.push_back(static_cast<std::uint32_t>(n));
    for (std::size_t qi = 0; qi < strip.size(); ++qi) {
      const std::uint32_t n = strip[qi];
      for (std::uint32_t k = preds.head[n]; k < preds.head[n + 1]; ++k) {
        const std::uint32_t m = preds.adj[k];
        if (--outdeg[m] == 0) strip.push_back(m);
      }
    }
    GlobalSchedule out;
    out.deadlocked = true;
    for (std::size_t s : stem_order) {
      const std::size_t node = pre.stem_node + s;
      if (indeg[node] == 0 || outdeg[node] == 0) continue;
      const auto& [u, v] = stem_edges[s];
      out.deadlock_parts.push_back(pre.hosts[host_idx(u)].part);
      out.deadlock_parts.push_back(pre.hosts[host_idx(v)].part);
    }
    out.limit_respected = false;
    out.peak_usage = ~0u;
    return out;
  }

  // ---- 4. merge and legalize ---------------------------------------------
  // One circuit over emitter slots and global photons, in release order;
  // analyze_timing with the releases as start floors is the legalizer, and
  // its per-emitter busy intervals are the slot intervals to colour.
  std::vector<MergedGate> merged;
  merged.reserve(pre.total_gates + stem_order.size());
  for (std::uint32_t p = 0; p < parts.size(); ++p)
    for (std::uint32_t i = 0; i < parts[p].circuit.circuit.size(); ++i)
      merged.push_back({val[pre.gate_base[p] + i], p, i});
  for (std::uint32_t k = 0; k < stem_order.size(); ++k)
    merged.push_back({val[pre.stem_node + stem_order[k]],
                      static_cast<std::uint32_t>(parts.size()), k});
  std::sort(merged.begin(), merged.end(),
            [](const MergedGate& a, const MergedGate& b) {
              return std::tie(a.release, a.part, a.index) <
                     std::tie(b.release, b.part, b.index);
            });

  const std::uint32_t total_slots = pre.slot_base.back();
  auto slot_of = [&](Vertex host) {
    const HostRef& ref = pre.hosts[host_idx(host)];
    return pre.slot_base[ref.part] + ref.info->slot;
  };
  Circuit slots(num_global_photons, total_slots);
  std::vector<Tick> release;
  release.reserve(merged.size());
  for (const MergedGate& m : merged) {
    release.push_back(m.release);
    if (m.part == parts.size()) {
      const auto& [u, v] = stem_edges[stem_order[m.index]];
      slots.ee_cz(slot_of(u), slot_of(v));
      continue;
    }
    const CompiledPart& part = parts[m.part];
    auto relabel = [&](QubitId& q) {
      q.index = q.kind == QubitKind::photon ? part.to_global[q.index]
                                            : pre.slot_base[m.part] + q.index;
    };
    Gate g = part.circuit.circuit.gates()[m.index];
    relabel(g.a);
    if (g.is_two_qubit()) relabel(g.b);
    for (auto& corr : g.if_one) relabel(corr.target);
    slots.append(std::move(g));
  }
  const CircuitTiming timing = analyze_timing(slots, cfg.hw, release);

  // ---- 5. physical emitter assignment (interval coloring) ----------------
  // Greedy lowest-free-index coloring, heap-backed: `busy` orders active
  // colors by their interval end, `free_colors` yields the smallest
  // released index — the same color the former linear scan picked.
  std::vector<std::pair<std::pair<Tick, Tick>, std::uint32_t>> intervals;
  intervals.reserve(total_slots);
  for (std::uint32_t sid = 0; sid < total_slots; ++sid) {
    const EmitterInterval& iv = timing.emitter_busy[sid];
    if (iv.used) intervals.push_back({{iv.begin, iv.end}, sid});
  }
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::uint32_t> color_of(total_slots, 0);
  using BusyColor = std::pair<Tick, std::uint32_t>;  // (interval end, color)
  std::priority_queue<BusyColor, std::vector<BusyColor>,
                      std::greater<BusyColor>>
      busy;
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>>
      free_colors;
  std::uint32_t num_colors = 0;
  for (const auto& [iv, sid] : intervals) {
    while (!busy.empty() && busy.top().first <= iv.first) {
      free_colors.push(busy.top().second);
      busy.pop();
    }
    std::uint32_t c;
    if (!free_colors.empty()) {
      c = free_colors.top();
      free_colors.pop();
    } else {
      c = num_colors++;
    }
    color_of[sid] = c;
    busy.push({iv.second, c});
  }
  GlobalSchedule out;
  out.peak_usage = num_colors;
  out.limit_respected = out.peak_usage <= cfg.ne_limit;

  // ---- 6. emit the global circuit ----------------------------------------
  // stable: equal-start gates keep their dependency (merged) order.
  std::vector<std::uint32_t> by_start(slots.size());
  std::iota(by_start.begin(), by_start.end(), 0u);
  std::stable_sort(by_start.begin(), by_start.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return timing.gate_start[a] < timing.gate_start[b];
                   });
  auto recolor = [&](QubitId& q) {
    if (q.kind == QubitKind::emitter) q.index = color_of[q.index];
  };
  out.circuit = Circuit(num_global_photons, num_colors);
  out.gate_start.reserve(by_start.size());
  out.gate_end.reserve(by_start.size());
  for (std::uint32_t i : by_start) {
    Gate g = slots.gates()[i];
    recolor(g.a);
    if (g.is_two_qubit()) recolor(g.b);
    for (auto& corr : g.if_one) recolor(corr.target);
    out.circuit.append(std::move(g));
    out.gate_start.push_back(timing.gate_start[i]);
    out.gate_end.push_back(timing.gate_end[i]);
  }
  out.makespan = timing.makespan;
  out.photon_emit = timing.photon_emit_time;
  out.stats = compute_stats(slots, timing, cfg.hw);
  out.stats.emitters_used = out.peak_usage;
  return out;
}

}  // namespace

GlobalSchedule schedule_parts(const std::vector<CompiledPart>& parts,
                              const std::vector<Edge>& stem_edges,
                              const std::vector<std::uint32_t>& part_of,
                              const std::vector<Vertex>& local_of,
                              std::size_t num_global_photons,
                              const ScheduleConfig& cfg) {
  (void)part_of;
  (void)local_of;
  const SchedulePrepass pre =
      build_prepass(parts, stem_edges, num_global_photons, cfg);
  // Stem CZs and stretched emission tails occupy emitters beyond the local
  // usage curves the packer sees, so the legalized peak can overshoot the
  // cap. Retry the packing with growing headroom until the realized peak
  // fits; keep the lowest-peak plan otherwise.
  // The tightest cap worth packing under: the widest part's own emitters.
  std::uint32_t floor_limit = 1;
  for (const CompiledPart& p : parts)
    floor_limit = std::max<std::uint32_t>(floor_limit, p.circuit.ne_used);
  auto attempt = [&](std::uint32_t limit) {
    return schedule_once(parts, stem_edges, num_global_photons, cfg, limit,
                         pre);
  };
  GlobalSchedule best = attempt(cfg.ne_limit);
  // A window-precedence cycle is independent of the packing headroom — no
  // retry can fix it; the caller must recompile anchor-only.
  if (best.deadlocked) return best;
  if (!best.limit_respected && cfg.ne_limit > floor_limit) {
    // The realized peak shrinks as the packing cap tightens (parts overlap
    // less, so fewer slot intervals cross). Bisect for the loosest cap
    // whose realized peak fits instead of walking the cap down one step at
    // a time — the former linear descent cost O(ne_limit) full packing
    // passes, which dominated the schedule stage on stem-heavy graphs.
    GlobalSchedule at_floor = attempt(floor_limit);
    if (at_floor.deadlocked) return at_floor;
    if (!at_floor.limit_respected) {
      // No cap fits; keep the lower-peak packing (looser cap on ties).
      if (at_floor.peak_usage < best.peak_usage) best = std::move(at_floor);
    } else {
      std::uint32_t lo = floor_limit;       // respected
      std::uint32_t hi = cfg.ne_limit;      // not respected
      best = std::move(at_floor);
      // Each probe is a full packing pass; eight of them pin the loosest
      // respected cap to within 1/256 of the search range, and the caps
      // that close to the boundary pack near-identically. Deterministic:
      // the probe sequence is a pure function of (floor, ne_limit).
      for (int probe = 0; hi - lo > 1 && probe < 8; ++probe) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        GlobalSchedule trial = attempt(mid);
        if (trial.deadlocked) return trial;
        if (trial.limit_respected) {
          lo = mid;
          best = std::move(trial);
        } else {
          hi = mid;
        }
      }
    }
  }
  return best;
}

}  // namespace epg

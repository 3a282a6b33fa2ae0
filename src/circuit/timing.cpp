#include "circuit/timing.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace epg {

std::vector<Tick> CircuitTiming::photon_alive_ticks() const {
  std::vector<Tick> out;
  out.reserve(photon_emit_time.size());
  for (Tick t : photon_emit_time) {
    EPG_CHECK(t <= makespan, "emission after circuit end");
    out.push_back(makespan - t);
  }
  return out;
}

std::vector<std::uint32_t> CircuitTiming::usage_curve() const {
  std::vector<std::uint32_t> curve(makespan, 0);
  for (const auto& iv : emitter_busy) {
    if (!iv.used) continue;
    for (Tick t = iv.begin; t < iv.end && t < makespan; ++t) ++curve[t];
  }
  return curve;
}

std::uint32_t CircuitTiming::peak_usage() const {
  const auto curve = usage_curve();
  std::uint32_t peak = 0;
  for (std::uint32_t u : curve) peak = std::max(peak, u);
  return peak;
}

CircuitTiming analyze_timing(const Circuit& c, const HardwareModel& hw,
                             std::span<const Tick> release) {
  EPG_REQUIRE(release.empty() || release.size() == c.size(),
              "one release per gate");
  CircuitTiming t;
  t.gate_start.resize(c.size());
  t.gate_end.resize(c.size());
  t.photon_emit_time.assign(c.num_photons(), 0);
  t.emitter_busy.assign(c.num_emitters(), {});

  std::vector<Tick> photon_free(c.num_photons(), 0);
  std::vector<Tick> emitter_free(c.num_emitters(), 0);

  auto free_time = [&](QubitId q) -> Tick& {
    return q.kind == QubitKind::photon ? photon_free[q.index]
                                       : emitter_free[q.index];
  };

  for (std::size_t i = 0; i < c.size(); ++i) {
    const Gate& g = c.gates()[i];
    Tick start = std::max(release.empty() ? Tick{0} : release[i], free_time(g.a));
    if (g.is_two_qubit()) start = std::max(start, free_time(g.b));
    const Tick end = start + g.duration(hw);
    t.gate_start[i] = start;
    t.gate_end[i] = end;
    free_time(g.a) = end;
    if (g.is_two_qubit()) free_time(g.b) = end;
    // Corrections are frame updates: order-only dependencies, zero length.
    for (const auto& corr : g.if_one)
      free_time(corr.target) = std::max(free_time(corr.target), end);

    if (g.kind == GateKind::emission) t.photon_emit_time[g.b.index] = end;

    auto track = [&](QubitId q) {
      if (q.kind != QubitKind::emitter) return;
      auto& iv = t.emitter_busy[q.index];
      if (!iv.used) {
        iv.begin = start;
        iv.used = true;
      }
      iv.end = std::max(iv.end, end);
    };
    track(g.a);
    if (g.is_two_qubit()) track(g.b);
    t.makespan = std::max(t.makespan, end);
  }
  return t;
}

}  // namespace epg

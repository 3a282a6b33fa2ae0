// One text line summarizing everything a FrameworkResult commits to, shared
// by the suites that pin compiled outputs (test_properties' cross-process
// check, test_pinned_outputs' expected strings).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "circuit/serialize.hpp"
#include "compile/framework.hpp"

namespace epg {

/// Every CircuitStats metric, the structural counters, and an FNV-1a
/// digest of the serialized circuit plus the explicit per-gate and
/// per-photon schedule times.
inline std::string result_fingerprint(const FrameworkResult& r) {
  const std::string text = serialize_circuit(r.schedule.circuit);
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(text.data(), text.size());
  mix(r.schedule.gate_start.data(),
      r.schedule.gate_start.size() * sizeof(Tick));
  mix(r.schedule.gate_end.data(), r.schedule.gate_end.size() * sizeof(Tick));
  mix(r.schedule.photon_emit.data(),
      r.schedule.photon_emit.size() * sizeof(Tick));
  std::ostringstream os;
  os << r.stem_count << ' ' << r.partition.parts.size() << ' '
     << r.subgraph_nodes << ' ' << r.ne_limit << ' ' << r.dangler_fallback
     << ' ' << r.stats().ee_cnot_count << ' ' << r.stats().emission_count
     << ' ' << r.stats().local_count << ' ' << r.stats().measure_count << ' '
     << r.stats().emitters_used << ' ' << r.stats().makespan_ticks << ' '
     << std::hex << h;
  return os.str();
}

}  // namespace epg

// CompileSpec — the one user-facing description of "compile this graph
// with these knobs", shared by every surface that accepts compile options:
//
//   * epgc_compile flags        (--gmax 7 --partition-strategy beam ...)
//   * epgc_batch manifest keys  (gmax=7 strategy=beam lc=4 ...)
//   * the service JSON specs    ({"gmax":7,"strategy":"beam",...})
//
// All three used to triplicate the knob list, the defaults and the
// spec->config mapping, and had already drifted once. Now the defaults
// live in the struct initializers, the key names (and their '-'/'_'
// spelling variants) live in one table, and `make_compile_job` is the
// single path from a spec to the FrameworkConfig/BaselineConfig the
// compilers run — so `config_fingerprint` coverage of every knob is a
// property of this struct, not a per-caller promise (pinned by
// tests/test_compile_spec.cpp, which perturbs each field and asserts the
// fingerprint moves).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/batch_compiler.hpp"

namespace epg {

class JsonValue;

/// Every result-relevant compile knob, with the canonical defaults. Note
/// what is deliberately NOT here: execution-shape knobs (inner threads,
/// batch width, store wiring) that never change compiled results and are
/// excluded from config fingerprints.
struct CompileSpec {
  std::string compiler = "framework";  ///< framework | baseline
  std::string hw = "quantum_dot";      ///< quantum_dot|qd|nv|siv|rydberg
  std::uint64_t gmax = 7;              ///< max subgraph size (paper V.A)
  std::uint64_t lc = 15;               ///< max local complementations
  std::string strategy = "beam";       ///< partition strategy name
  std::uint64_t coarsen_floor = 192;   ///< multilevel: flat search <= N
  std::string multilevel_inner = "beam";  ///< multilevel: inner strategy
  double ne_factor = 1.5;              ///< Ne_limit = ceil(factor*Ne_min)
  std::uint64_t ne = 0;                ///< absolute emitter cap override
  std::uint64_t seed = 1;              ///< search seed
  bool verify = true;                  ///< stabilizer end-to-end check
};

/// Canonical key names (underscore spelling), in declaration order.
const std::vector<std::string>& compile_spec_keys();

/// True when `key` (either '-' or '_' spelling) names a CompileSpec knob.
bool is_compile_spec_key(const std::string& key);

/// Set one knob from its textual value (manifest / CLI surface). Throws
/// std::invalid_argument on an unknown key or an unparsable value.
void apply_compile_spec_key(CompileSpec& spec, const std::string& key,
                            const std::string& value);

/// Overlay the spec keys present in a JSON object (service surface);
/// absent keys keep their defaults, present keys of the wrong JSON type
/// throw. Non-spec members (op, id, graph, ...) are ignored.
void apply_compile_spec_json(CompileSpec& spec, const JsonValue& obj);

/// Shared hardware-model lookup (was triplicated across the CLIs and the
/// service). Throws std::invalid_argument on an unknown name.
HardwareModel hardware_by_name(const std::string& name);

/// The single spec -> job path: validates compiler/hw and builds the
/// exact FrameworkConfig/BaselineConfig the compilers (and their config
/// fingerprints) see. Throws std::invalid_argument on a bad spec.
CompileJob make_compile_job(const CompileSpec& spec, std::string label,
                            Graph graph);

/// Decode the graph of a JSON compile spec: exactly one of "graph"
/// (graph6) or "n" + "edges":[[u,v],...]. Shared by the service request
/// parser and the cluster front's routing path. Throws on bad input and
/// caps client-supplied vertex counts at the graph6 limit (alloc guard).
Graph graph_from_json_spec(const JsonValue& spec);

}  // namespace epg

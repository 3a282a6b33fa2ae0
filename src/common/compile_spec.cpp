#include "common/compile_spec.hpp"

#include <stdexcept>

#include "common/json_value.hpp"
#include "io/graph_io.hpp"

namespace epg {

namespace {

/// Canonical spelling: manifest keys use '-', JSON keys use '_'; both map
/// to the same knob.
std::string canonical_key(const std::string& key) {
  std::string out = key;
  for (char& c : out)
    if (c == '-') c = '_';
  return out;
}

std::uint64_t parse_u64_value(const std::string& key,
                              const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("key " + key + " needs an integer, got '" +
                                value + "'");
  }
}

double parse_double_value(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("key " + key + " needs a number, got '" +
                                value + "'");
  }
}

bool parse_bool_value(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument("key " + key + " needs 0/1/true/false, got '" +
                              value + "'");
}

}  // namespace

const std::vector<std::string>& compile_spec_keys() {
  static const std::vector<std::string> keys = {
      "compiler",      "hw",        "gmax", "lc",   "strategy",
      "coarsen_floor", "multilevel_inner", "ne_factor", "ne", "seed",
      "verify"};
  return keys;
}

bool is_compile_spec_key(const std::string& key) {
  const std::string k = canonical_key(key);
  for (const std::string& known : compile_spec_keys())
    if (k == known) return true;
  return false;
}

void apply_compile_spec_key(CompileSpec& spec, const std::string& key,
                            const std::string& value) {
  const std::string k = canonical_key(key);
  if (k == "compiler") spec.compiler = value;
  else if (k == "hw") spec.hw = value;
  else if (k == "gmax") spec.gmax = parse_u64_value(k, value);
  else if (k == "lc") spec.lc = parse_u64_value(k, value);
  else if (k == "strategy") spec.strategy = value;
  else if (k == "coarsen_floor")
    spec.coarsen_floor = parse_u64_value(k, value);
  else if (k == "multilevel_inner") spec.multilevel_inner = value;
  else if (k == "ne_factor") spec.ne_factor = parse_double_value(k, value);
  else if (k == "ne") spec.ne = parse_u64_value(k, value);
  else if (k == "seed") spec.seed = parse_u64_value(k, value);
  else if (k == "verify") spec.verify = parse_bool_value(k, value);
  else
    throw std::invalid_argument("unknown compile-spec key '" + key + "'");
}

void apply_compile_spec_json(CompileSpec& spec, const JsonValue& obj) {
  spec.compiler = obj.get_string("compiler", spec.compiler);
  spec.hw = obj.get_string("hw", spec.hw);
  spec.gmax = obj.get_u64("gmax", spec.gmax);
  spec.lc = obj.get_u64("lc", spec.lc);
  spec.strategy = obj.get_string("strategy", spec.strategy);
  spec.coarsen_floor = obj.get_u64("coarsen_floor", spec.coarsen_floor);
  spec.multilevel_inner =
      obj.get_string("multilevel_inner", spec.multilevel_inner);
  spec.ne_factor = obj.get_number("ne_factor", spec.ne_factor);
  spec.ne = obj.get_u64("ne", spec.ne);
  spec.seed = obj.get_u64("seed", spec.seed);
  spec.verify = obj.get_bool("verify", spec.verify);
}

HardwareModel hardware_by_name(const std::string& name) {
  if (name == "quantum_dot" || name == "qd")
    return HardwareModel::quantum_dot();
  if (name == "nv") return HardwareModel::nv_center();
  if (name == "siv") return HardwareModel::siv_center();
  if (name == "rydberg") return HardwareModel::rydberg();
  throw std::invalid_argument("unknown hardware model '" + name + "'");
}

CompileJob make_compile_job(const CompileSpec& spec, std::string label,
                            Graph graph) {
  CompileJob job;
  job.label = std::move(label);
  job.graph = std::move(graph);
  const HardwareModel hw = hardware_by_name(spec.hw);
  if (spec.compiler == "framework") {
    job.kind = CompilerKind::framework;
    job.framework.hw = hw;
    job.framework.subgraph.hw = hw;
    job.framework.partition.g_max = static_cast<std::uint32_t>(spec.gmax);
    job.framework.partition.max_lc_ops =
        static_cast<std::uint32_t>(spec.lc);
    job.framework.partition.strategy = spec.strategy;
    job.framework.partition.coarsen_floor = spec.coarsen_floor;
    job.framework.partition.multilevel_inner = spec.multilevel_inner;
    job.framework.ne_limit_factor = spec.ne_factor;
    job.framework.ne_limit_override = static_cast<std::uint32_t>(spec.ne);
    job.framework.seed = spec.seed;
    job.framework.verify_seeds = spec.verify ? 2 : 0;
  } else if (spec.compiler == "baseline") {
    job.kind = CompilerKind::baseline;
    job.baseline.hw = hw;
    job.baseline.seed = spec.seed;
    job.baseline.num_emitters = spec.ne;
    job.baseline.verify = spec.verify;
  } else {
    throw std::invalid_argument("unknown compiler '" + spec.compiler + "'");
  }
  return job;
}

Graph graph_from_json_spec(const JsonValue& spec) {
  const JsonValue* g6 = spec.find("graph");
  const JsonValue* edges = spec.find("edges");
  if ((g6 != nullptr) == (edges != nullptr))
    throw std::invalid_argument(
        "compile spec needs exactly one of \"graph\" (graph6) or "
        "\"edges\"");
  if (g6 != nullptr) return read_graph6(g6->as_string());
  const std::uint64_t n = spec.get_u64("n", 0);
  if (n == 0)
    throw std::invalid_argument("\"edges\" needs a vertex count \"n\"");
  // Same ceiling as the graph6 reader: a client-supplied count must not
  // be able to drive a long-lived service into a huge allocation.
  if (n > 258047)
    throw std::invalid_argument("\"n\" exceeds the 258047-vertex limit");
  Graph graph(n);
  for (const JsonValue& e : edges->items()) {
    if (e.items().size() != 2)
      throw std::invalid_argument("each edge must be a [u,v] pair");
    const double u = e.items()[0].as_number();
    const double v = e.items()[1].as_number();
    if (u < 0 || v < 0 || u >= static_cast<double>(n) ||
        v >= static_cast<double>(n) || u == v)
      throw std::invalid_argument("edge endpoint out of range");
    graph.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  return graph;
}

}  // namespace epg

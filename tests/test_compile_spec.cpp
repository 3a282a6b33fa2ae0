// CompileSpec — the shared knob surface of epgc_compile, epgc_batch and
// the service JSON specs: defaults, both key spellings, value validation,
// the JSON overlay, the spec->job path, graph decoding, and the property
// the header promises: every CompileSpec knob moves config_fingerprint.
#include "common/compile_spec.hpp"

#include <gtest/gtest.h>

#include "common/json_value.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"

namespace epg {
namespace {

TEST(CompileSpec, DefaultsMatchEpgcCompile) {
  const CompileSpec spec;
  EXPECT_EQ(spec.compiler, "framework");
  EXPECT_EQ(spec.hw, "quantum_dot");
  EXPECT_EQ(spec.gmax, 7u);
  EXPECT_EQ(spec.lc, 15u);
  EXPECT_EQ(spec.strategy, "beam");
  EXPECT_EQ(spec.coarsen_floor, 192u);
  EXPECT_EQ(spec.multilevel_inner, "beam");
  EXPECT_EQ(spec.ne_factor, 1.5);
  EXPECT_EQ(spec.ne, 0u);
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_TRUE(spec.verify);
}

TEST(CompileSpec, AcceptsBothKeySpellings) {
  CompileSpec a, b;
  apply_compile_spec_key(a, "coarsen_floor", "50");
  apply_compile_spec_key(b, "coarsen-floor", "50");
  EXPECT_EQ(a.coarsen_floor, 50u);
  EXPECT_EQ(b.coarsen_floor, 50u);
  EXPECT_TRUE(is_compile_spec_key("ne_factor"));
  EXPECT_TRUE(is_compile_spec_key("ne-factor"));
  EXPECT_FALSE(is_compile_spec_key("gseed"));  // generator key, not a knob
  EXPECT_FALSE(is_compile_spec_key(""));
}

TEST(CompileSpec, KeyListCoversEveryKnob) {
  // Declaration-order canonical names; a knob added to the struct must be
  // added to the table (and to the fingerprint test below).
  const std::vector<std::string> expected = {
      "compiler",      "hw",        "gmax", "lc",   "strategy",
      "coarsen_floor", "multilevel_inner", "ne_factor", "ne", "seed",
      "verify"};
  EXPECT_EQ(compile_spec_keys(), expected);
  for (const std::string& key : compile_spec_keys())
    EXPECT_TRUE(is_compile_spec_key(key)) << key;
}

TEST(CompileSpec, RejectsUnknownKeysAndBadValues) {
  CompileSpec spec;
  EXPECT_THROW(apply_compile_spec_key(spec, "frobnicate", "1"),
               std::invalid_argument);
  EXPECT_THROW(apply_compile_spec_key(spec, "gmax", "seven"),
               std::invalid_argument);
  EXPECT_THROW(apply_compile_spec_key(spec, "ne_factor", ""),
               std::invalid_argument);
  EXPECT_THROW(apply_compile_spec_key(spec, "verify", "maybe"),
               std::invalid_argument);
}

TEST(CompileSpec, JsonOverlayKeepsDefaultsForAbsentKeys) {
  CompileSpec spec;
  apply_compile_spec_json(
      spec, JsonValue::parse(
                R"({"op":"compile","id":1,"graph":"ignored",)"
                R"("gmax":5,"seed":9,"verify":false,"strategy":"greedy"})"));
  EXPECT_EQ(spec.gmax, 5u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_FALSE(spec.verify);
  EXPECT_EQ(spec.strategy, "greedy");
  EXPECT_EQ(spec.lc, 15u) << "absent keys keep their defaults";

  // A present key of the wrong JSON type must throw, never fall back.
  EXPECT_THROW(
      apply_compile_spec_json(spec, JsonValue::parse(R"({"gmax":"x"})")),
      std::invalid_argument);
}

TEST(CompileSpec, RetiredBudgetKeyIsIgnoredInJsonAndUnknownAsAKey) {
  // Compiles stop on work, so the spec has no wall budget: a JSON request
  // may still carry "budget_ms" and compiles exactly like one without it,
  // while the manifest/CLI key surface rejects it like any unknown key.
  CompileSpec with_budget;
  apply_compile_spec_json(with_budget,
                          JsonValue::parse(R"({"budget_ms":50})"));
  const Graph g = make_ring(6);
  EXPECT_EQ(
      config_fingerprint(make_compile_job(with_budget, "a", g).framework),
      config_fingerprint(make_compile_job(CompileSpec{}, "b", g).framework));
  EXPECT_FALSE(is_compile_spec_key("budget-ms"));
}

TEST(CompileSpec, MakeCompileJobValidates) {
  CompileSpec spec;
  EXPECT_EQ(make_compile_job(spec, "job", make_ring(6)).kind,
            CompilerKind::framework);
  spec.compiler = "baseline";
  EXPECT_EQ(make_compile_job(spec, "job", make_ring(6)).kind,
            CompilerKind::baseline);
  spec.compiler = "magic";
  EXPECT_THROW(make_compile_job(spec, "job", make_ring(6)),
               std::invalid_argument);
  spec.compiler = "framework";
  spec.hw = "abacus";
  EXPECT_THROW(make_compile_job(spec, "job", make_ring(6)),
               std::invalid_argument);
}

TEST(CompileSpec, HardwareLookupIsSharedAndStrict) {
  EXPECT_NO_THROW(hardware_by_name("quantum_dot"));
  EXPECT_NO_THROW(hardware_by_name("qd"));
  EXPECT_NO_THROW(hardware_by_name("nv"));
  EXPECT_NO_THROW(hardware_by_name("siv"));
  EXPECT_NO_THROW(hardware_by_name("rydberg"));
  EXPECT_THROW(hardware_by_name("abacus"), std::invalid_argument);
}

// The header's promise: every knob is result-relevant, so every knob must
// move the compiler config fingerprint (= the cache key). A knob that
// does not move it would let two different configurations share a cached
// result.
TEST(CompileSpec, EveryKnobMovesTheConfigFingerprint) {
  const Graph g = make_ring(6);
  const auto fingerprint = [&](const CompileSpec& spec) {
    const CompileJob job = make_compile_job(spec, "fp", g);
    return job.kind == CompilerKind::framework
               ? config_fingerprint(job.framework)
               : config_fingerprint(job.baseline);
  };
  const std::uint64_t base = fingerprint(CompileSpec{});

  const std::vector<std::pair<std::string, std::string>> perturbations = {
      {"hw", "nv"},          {"gmax", "5"},
      {"lc", "3"},           {"strategy", "greedy"},
      {"coarsen_floor", "64"},
      {"multilevel_inner", "greedy"}, {"ne_factor", "2.0"},
      {"ne", "4"},           {"seed", "2"},
      {"verify", "false"},
  };
  for (const auto& [key, value] : perturbations) {
    CompileSpec spec;
    apply_compile_spec_key(spec, key, value);
    EXPECT_NE(fingerprint(spec), base)
        << key << "=" << value << " did not move the fingerprint";
  }
  // compiler switches the fingerprint domain entirely.
  CompileSpec baseline;
  baseline.compiler = "baseline";
  EXPECT_NE(fingerprint(baseline), base);
}

// ---- graph_from_json_spec -------------------------------------------------

TEST(CompileSpec, DecodesGraph6AndEdgeLists) {
  const Graph ring = make_ring(5);
  const Graph from_g6 = graph_from_json_spec(
      JsonValue::parse("{\"graph\":\"" + write_graph6(ring) + "\"}"));
  EXPECT_TRUE(from_g6 == ring);

  const Graph from_edges = graph_from_json_spec(
      JsonValue::parse(R"({"n":3,"edges":[[0,1],[1,2]]})"));
  EXPECT_EQ(from_edges.vertex_count(), 3u);
  EXPECT_EQ(from_edges.edge_count(), 2u);
}

TEST(CompileSpec, RejectsBadGraphSpecs) {
  for (const char* bad : {
           R"({})",                              // neither form
           R"({"graph":"x","n":2,"edges":[]})",  // both forms
           R"({"graph":"!!!!"})",                // bad graph6
           R"({"n":2})",                         // edges missing
           R"({"edges":[[0,1]]})",               // n missing
           R"({"n":2,"edges":[[0,5]]})",         // vertex out of range
           R"({"n":2,"edges":[[0]]})",           // not a pair
           R"({"n":999999999,"edges":[]})",      // over the graph6 cap
       })
    EXPECT_THROW(graph_from_json_spec(JsonValue::parse(bad)),
                 std::invalid_argument)
        << bad;
}

}  // namespace
}  // namespace epg

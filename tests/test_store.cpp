// Persistent compile-result store: format round-trip, corruption
// robustness (truncation, bit flips, version/schema mismatches are skipped
// with a warning — never fatal), LRU byte-cap eviction, crash-mid-write
// recovery, concurrent writers, and the BatchCompiler read-through/
// write-back tier (warm runs bit-identical to cold).
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/build_info.hpp"
#include "graph/generators.hpp"
#include "runtime/batch_compiler.hpp"

namespace fs = std::filesystem;

namespace epg {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgc-store-test-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StoreConfig config(std::uint64_t max_bytes = 0) {
    StoreConfig cfg;
    cfg.dir = dir_.string();
    cfg.max_bytes = max_bytes;
    cfg.warn = false;  // keep test output clean; warnings are cosmetic
    return cfg;
  }

  fs::path dir_;
};

// A small but representative result: a couple of gates, non-trivial
// doubles (1/3 does not round-trip through %g — it must through %a).
StoredResult sample_result() {
  StoredResult r;
  r.stats.ee_cnot_count = 3;
  r.stats.emission_count = 6;
  r.stats.local_count = 9;
  r.stats.measure_count = 2;
  r.stats.emitters_used = 2;
  r.stats.makespan_ticks = 421;
  r.stats.duration_tau = 1.0 / 3.0;
  r.stats.t_loss_tau = 0.1;
  r.stats.loss.state_survival = 0.987654321012345;
  r.stats.loss.state_loss = 1.0 - 0.987654321012345;
  r.stats.loss.mean_photon_loss = 1e-3;
  r.stats.loss.mean_alive_tau = 7.25;
  r.stats.ee_fidelity_estimate = 0.970299;
  r.ne_min = 2;
  r.ne_limit = 3;
  r.stem_count = 1;
  r.parts = 2;
  r.lc_depth = 4;
  r.strategy = "beam";
  r.verified = true;
  Circuit c(2, 1);
  c.local(QubitId::emitter(0), Clifford1::h());
  c.emission(0, 0);
  c.emission(0, 1);
  c.measure_reset(0, {{QubitId::photon(0), PauliOp::Z}});
  r.circuit = c;
  return r;
}

StoreEntryData sample_entry() {
  StoreEntryData e;
  e.schema = build_info().result_schema;
  e.is_framework = true;
  e.config_hash = 0xDEADBEEFCAFEF00DULL;
  e.graph = make_ring(6);
  e.result = sample_result();
  return e;
}

// ---- entry format ---------------------------------------------------------

TEST_F(StoreTest, EntryRoundTripIsBitExact) {
  const StoreEntryData in = sample_entry();
  const StoreEntryData out = read_store_entry(write_store_entry(in));
  EXPECT_EQ(out.schema, in.schema);
  EXPECT_EQ(out.is_framework, in.is_framework);
  EXPECT_EQ(out.config_hash, in.config_hash);
  EXPECT_TRUE(out.graph == in.graph);
  const StoredResult& a = in.result;
  const StoredResult& b = out.result;
  EXPECT_EQ(b.stats.ee_cnot_count, a.stats.ee_cnot_count);
  EXPECT_EQ(b.stats.emission_count, a.stats.emission_count);
  EXPECT_EQ(b.stats.local_count, a.stats.local_count);
  EXPECT_EQ(b.stats.measure_count, a.stats.measure_count);
  EXPECT_EQ(b.stats.emitters_used, a.stats.emitters_used);
  EXPECT_EQ(b.stats.makespan_ticks, a.stats.makespan_ticks);
  // Bit-exact double round-trip is the store's core promise.
  EXPECT_EQ(b.stats.duration_tau, a.stats.duration_tau);
  EXPECT_EQ(b.stats.t_loss_tau, a.stats.t_loss_tau);
  EXPECT_EQ(b.stats.loss.state_survival, a.stats.loss.state_survival);
  EXPECT_EQ(b.stats.loss.state_loss, a.stats.loss.state_loss);
  EXPECT_EQ(b.stats.loss.mean_photon_loss, a.stats.loss.mean_photon_loss);
  EXPECT_EQ(b.stats.loss.mean_alive_tau, a.stats.loss.mean_alive_tau);
  EXPECT_EQ(b.stats.ee_fidelity_estimate, a.stats.ee_fidelity_estimate);
  EXPECT_EQ(b.ne_min, a.ne_min);
  EXPECT_EQ(b.ne_limit, a.ne_limit);
  EXPECT_EQ(b.stem_count, a.stem_count);
  EXPECT_EQ(b.parts, a.parts);
  EXPECT_EQ(b.lc_depth, a.lc_depth);
  EXPECT_EQ(b.strategy, a.strategy);
  EXPECT_EQ(b.verified, a.verified);
  EXPECT_EQ(serialize_circuit(b.circuit), serialize_circuit(a.circuit));
}

TEST_F(StoreTest, ParseRejectsBadMagic) {
  std::string text = write_store_entry(sample_entry());
  text.replace(0, 10, "not-a-stor");
  EXPECT_THROW(read_store_entry(text), std::invalid_argument);
}

TEST_F(StoreTest, ParseRejectsFormatVersionMismatch) {
  StoreEntryData e = sample_entry();
  std::string text = write_store_entry(e);
  const std::size_t nl = text.find('\n');
  text = "epgc-store 99\n" + text.substr(nl + 1);
  EXPECT_THROW(read_store_entry(text), std::invalid_argument);
}

TEST_F(StoreTest, ParseRejectsResultSchemaMismatch) {
  // A schema bump must orphan old entries instead of deserializing them.
  std::string text = write_store_entry(sample_entry());
  const std::string from = "schema " + std::to_string(
      build_info().result_schema);
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), "schema 0");
  EXPECT_THROW(read_store_entry(text), std::invalid_argument);
}

TEST_F(StoreTest, ParseRejectsTruncation) {
  const std::string text = write_store_entry(sample_entry());
  for (std::size_t keep : {text.size() / 4, text.size() / 2,
                           text.size() - 5, text.size() - 1})
    EXPECT_THROW(read_store_entry(text.substr(0, keep)),
                 std::invalid_argument)
        << "kept " << keep << " of " << text.size();
}

TEST_F(StoreTest, ParseRejectsTrailingGarbage) {
  EXPECT_THROW(read_store_entry(write_store_entry(sample_entry()) + "x\n"),
               std::invalid_argument);
}

TEST_F(StoreTest, ParseRejectsEveryPossibleBitFlip) {
  // The checksum makes silent value corruption impossible: flipping any
  // single payload character must either fail a structural check or the
  // checksum — never parse to different data.
  const std::string text = write_store_entry(sample_entry());
  for (std::size_t i = 0; i + 6 < text.size(); i += 7) {
    std::string flipped = text;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x08);
    if (flipped[i] == '\n' || text[i] == '\n') continue;  // keeps lines
    EXPECT_THROW(read_store_entry(flipped), std::invalid_argument)
        << "flip at byte " << i;
  }
}

// ---- store behaviour ------------------------------------------------------

TEST_F(StoreTest, PutGetRoundTripAndStats) {
  CompileResultStore store(config());
  const Graph g = make_ring(6);
  const StoredResult r = sample_result();
  EXPECT_FALSE(store.get(g, 1, CompilerKind::framework).has_value());
  store.put(g, 1, CompilerKind::framework, r);
  const auto hit = store.get(g, 1, CompilerKind::framework);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stats.duration_tau, r.stats.duration_tau);
  EXPECT_EQ(serialize_circuit(hit->circuit), serialize_circuit(r.circuit));
  // Different config / kind / graph are all misses.
  EXPECT_FALSE(store.get(g, 2, CompilerKind::framework).has_value());
  EXPECT_FALSE(store.get(g, 1, CompilerKind::baseline).has_value());
  EXPECT_FALSE(
      store.get(make_ring(7), 1, CompilerKind::framework).has_value());
  const StoreStats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST_F(StoreTest, KeyCollisionFallsBackToExactRecheck) {
  // Plant graph A's entry at graph B's path (what a 64-bit key collision
  // would look like). The exact-graph recheck must turn it into a miss.
  CompileResultStore store(config());
  const Graph a = make_ring(6);
  const Graph b = make_linear_cluster(6);
  store.put(a, 1, CompilerKind::framework, sample_result());
  fs::copy_file(store.entry_path(a, 1, CompilerKind::framework),
                store.entry_path(b, 1, CompilerKind::framework));
  EXPECT_FALSE(store.get(b, 1, CompilerKind::framework).has_value());
  // The planted file is valid, just mismatched — it must NOT be deleted.
  EXPECT_TRUE(
      fs::exists(store.entry_path(b, 1, CompilerKind::framework)));
  EXPECT_EQ(store.stats().corrupt_skipped, 0u);
}

TEST_F(StoreTest, CorruptEntriesAreSkippedNeverFatal) {
  CompileResultStore store(config());
  const Graph g = make_ring(6);
  store.put(g, 1, CompilerKind::framework, sample_result());
  const std::string path = store.entry_path(g, 1, CompilerKind::framework);

  // Truncate the file on disk.
  {
    std::string text;
    {
      std::ifstream in(path);
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_FALSE(store.get(g, 1, CompilerKind::framework).has_value());
  EXPECT_EQ(store.stats().corrupt_skipped, 1u);
  EXPECT_FALSE(fs::exists(path)) << "bad entries are deleted (self-heal)";

  // The store still works after the corruption.
  store.put(g, 1, CompilerKind::framework, sample_result());
  EXPECT_TRUE(store.get(g, 1, CompilerKind::framework).has_value());
}

TEST_F(StoreTest, LruEvictionRespectsByteCapAndRecency) {
  const std::uint64_t entry_bytes =
      write_store_entry(sample_entry()).size();
  // Room for two entries of this size, not three.
  CompileResultStore store(config(2 * entry_bytes + entry_bytes / 2));
  const Graph g = make_ring(6);
  store.put(g, 1, CompilerKind::framework, sample_result());
  store.put(g, 2, CompilerKind::framework, sample_result());
  EXPECT_EQ(store.stats().evictions, 0u);
  // Touch entry 1 so entry 2 is the LRU victim.
  EXPECT_TRUE(store.get(g, 1, CompilerKind::framework).has_value());
  store.put(g, 3, CompilerKind::framework, sample_result());
  const StoreStats s = store.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 2 * entry_bytes + entry_bytes / 2);
  EXPECT_TRUE(store.get(g, 1, CompilerKind::framework).has_value());
  EXPECT_FALSE(store.get(g, 2, CompilerKind::framework).has_value())
      << "least-recently-used entry should have been evicted";
  EXPECT_TRUE(store.get(g, 3, CompilerKind::framework).has_value());
}

TEST_F(StoreTest, MetricsOnlyGetSkipsCircuitDecode) {
  CompileResultStore store(config());
  const Graph g = make_ring(6);
  const StoredResult r = sample_result();
  store.put(g, 1, CompilerKind::framework, r);
  const auto hit =
      store.get(g, 1, CompilerKind::framework, /*with_circuit=*/false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->circuit.num_photons(), 0u) << "circuit decode skipped";
  EXPECT_EQ(hit->stats.duration_tau, r.stats.duration_tau);
  EXPECT_EQ(hit->stats.ee_cnot_count, r.stats.ee_cnot_count);
  EXPECT_EQ(hit->ne_limit, r.ne_limit);
}

TEST_F(StoreTest, BulkEvictionDropsOldestFirst) {
  const std::uint64_t entry_bytes =
      write_store_entry(sample_entry()).size();
  CompileResultStore store(config(entry_bytes + entry_bytes / 2));
  const Graph g = make_ring(6);
  for (std::uint64_t cfg_hash = 1; cfg_hash <= 5; ++cfg_hash)
    store.put(g, cfg_hash, CompilerKind::framework, sample_result());
  const StoreStats s = store.stats();
  EXPECT_EQ(s.evictions, 4u);
  EXPECT_EQ(s.entries, 1u);
  // Only the most recent put survives.
  for (std::uint64_t cfg_hash = 1; cfg_hash <= 4; ++cfg_hash)
    EXPECT_FALSE(store.get(g, cfg_hash, CompilerKind::framework));
  EXPECT_TRUE(store.get(g, 5, CompilerKind::framework).has_value());
}

TEST_F(StoreTest, CrashMidWriteLeavesStoreLoadable) {
  {
    CompileResultStore store(config());
    store.put(make_ring(6), 1, CompilerKind::framework, sample_result());
  }
  // Simulate a writer killed mid-write: temp debris next to a valid entry.
  const fs::path debris = dir_ / ".tmp-deadbeef.entry-9999-1";
  {
    std::ofstream out(debris);
    out << "epgc-store 1\nschema 1\nkind fram";  // torn write
  }
  CompileResultStore reopened(config());
  EXPECT_FALSE(fs::exists(debris)) << "stale temp files are cleaned up";
  EXPECT_TRUE(reopened.get(make_ring(6), 1, CompilerKind::framework)
                  .has_value());
  EXPECT_EQ(reopened.stats().entries, 1u);
}

TEST_F(StoreTest, ConcurrentWritersDoNotCorruptEntries) {
  // Separate store handles on one directory, racing puts (the multi-
  // process sharing story, minus fork). Every entry must be readable and
  // valid afterwards.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  const Graph g = make_ring(6);
  // Open every handle before racing: opening a store cleans stale temp
  // files, which is only safe while no sibling writer is mid-put (the
  // documented multi-process contract: open first, then write).
  std::vector<std::unique_ptr<CompileResultStore>> stores;
  for (int t = 0; t < kThreads; ++t)
    stores.push_back(std::make_unique<CompileResultStore>(config()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        StoredResult r = sample_result();
        r.stats.ee_cnot_count = static_cast<std::size_t>(t * 100 + i);
        stores[static_cast<std::size_t>(t)]->put(
            g, static_cast<std::uint64_t>(t * kPerThread + i),
            CompilerKind::framework, r);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  CompileResultStore reader(config());
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const auto hit =
          reader.get(g, static_cast<std::uint64_t>(t * kPerThread + i),
                     CompilerKind::framework);
      ASSERT_TRUE(hit.has_value()) << "entry " << t << "/" << i;
      EXPECT_EQ(hit->stats.ee_cnot_count,
                static_cast<std::size_t>(t * 100 + i));
    }
  EXPECT_EQ(reader.stats().corrupt_skipped, 0u);
}

// ---- BatchCompiler integration -------------------------------------------

std::vector<CompileJob> small_jobs() {
  std::vector<CompileJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) {
    FrameworkConfig cfg;
    cfg.verify_seeds = 1;
    cfg.seed = 1;
    jobs.push_back(make_framework_job(
        "j" + std::to_string(i), make_waxman(10, 40 + i), cfg));
  }
  BaselineConfig bcfg;
  bcfg.seed = 1;
  jobs.push_back(
      make_baseline_job("base", make_waxman(10, 40), bcfg));
  return jobs;
}

TEST_F(StoreTest, BatchWarmRunHitsStoreWithIdenticalMetrics) {
  const std::vector<CompileJob> jobs = small_jobs();

  BatchConfig cfg;
  cfg.threads = 1;
  cfg.keep_results = false;
  cfg.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler cold(cfg);
  const std::vector<JobResult> cold_results = cold.run(jobs);
  EXPECT_EQ(cold.summary().compiled, jobs.size());
  EXPECT_EQ(cold.summary().store_hits, 0u);
  for (const JobResult& r : cold_results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.tier, ResultTier::compiled);
  }

  // Fresh compiler + fresh store handle: memory empty, disk warm.
  BatchConfig warm_cfg = cfg;
  warm_cfg.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler warm(warm_cfg);
  const std::vector<JobResult> warm_results = warm.run(jobs);
  EXPECT_EQ(warm.summary().compiled, 0u);
  EXPECT_EQ(warm.summary().store_hits, jobs.size());
  EXPECT_EQ(warm.summary().cache_hits, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(warm_results[i].tier, ResultTier::store);
    EXPECT_TRUE(warm_results[i].cache_hit());
    EXPECT_EQ(warm_results[i].stats.ee_cnot_count,
              cold_results[i].stats.ee_cnot_count);
    EXPECT_EQ(warm_results[i].stats.makespan_ticks,
              cold_results[i].stats.makespan_ticks);
    EXPECT_EQ(warm_results[i].stats.duration_tau,
              cold_results[i].stats.duration_tau);
    EXPECT_EQ(warm_results[i].stats.loss.state_survival,
              cold_results[i].stats.loss.state_survival);
    EXPECT_EQ(warm_results[i].ne_min, cold_results[i].ne_min);
    EXPECT_EQ(warm_results[i].ne_limit, cold_results[i].ne_limit);
    EXPECT_EQ(warm_results[i].verified, cold_results[i].verified);
  }

  // A second run on the SAME warm compiler hits memory, not the store.
  const std::vector<JobResult> third = warm.run(jobs);
  EXPECT_EQ(warm.summary().memory_hits, jobs.size());
  EXPECT_EQ(warm.summary().store_hits, 0u);
  for (const JobResult& r : third) EXPECT_EQ(r.tier, ResultTier::memory);
}

TEST_F(StoreTest, RehydratedResultsCarryTheExactCircuit) {
  const std::vector<CompileJob> jobs = small_jobs();
  BatchConfig cfg;
  cfg.threads = 1;
  cfg.keep_results = true;
  cfg.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler cold(cfg);
  const std::vector<JobResult> cold_results = cold.run(jobs);

  BatchConfig warm_cfg = cfg;
  warm_cfg.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler warm(warm_cfg);
  const std::vector<JobResult> warm_results = warm.run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(warm_results[i].ok);
    EXPECT_EQ(warm_results[i].tier, ResultTier::store);
    // The banner scalars epgc_compile prints survive the store round trip.
    EXPECT_EQ(warm_results[i].parts, cold_results[i].parts);
    EXPECT_EQ(warm_results[i].lc_depth, cold_results[i].lc_depth);
    EXPECT_EQ(warm_results[i].stem_count, cold_results[i].stem_count);
    if (jobs[i].kind == CompilerKind::framework) {
      ASSERT_NE(warm_results[i].framework_result, nullptr);
      ASSERT_NE(cold_results[i].framework_result, nullptr);
      EXPECT_GT(cold_results[i].parts, 0u);
      EXPECT_EQ(cold_results[i].parts,
                cold_results[i].framework_result->partition.parts.size());
      EXPECT_EQ(
          cold_results[i].lc_depth,
          cold_results[i].framework_result->partition.lc_sequence.size());
      EXPECT_EQ(warm_results[i].framework_result->strategy,
                cold_results[i].framework_result->strategy);
      EXPECT_EQ(
          serialize_circuit(warm_results[i].framework_result->schedule
                                .circuit),
          serialize_circuit(cold_results[i].framework_result->schedule
                                .circuit));
    } else {
      ASSERT_NE(warm_results[i].baseline_result, nullptr);
      ASSERT_NE(cold_results[i].baseline_result, nullptr);
      EXPECT_EQ(serialize_circuit(warm_results[i].baseline_result->circuit),
                serialize_circuit(cold_results[i].baseline_result->circuit));
    }
  }
}

TEST_F(StoreTest, DeterministicModeSharesStoreEntries) {
  // Every compile stops on work, so the deterministic flag (which only
  // shapes service responses) compiles and fingerprints the same config:
  // a default-mode run replays the entry a deterministic run stored.
  std::vector<CompileJob> jobs = small_jobs();
  jobs.resize(1);

  BatchConfig det;
  det.threads = 1;
  det.deterministic = true;
  det.keep_results = false;
  det.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler(det).run(jobs);

  BatchConfig live = det;
  live.deterministic = false;
  live.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler live_batch(live);
  live_batch.run(jobs);
  EXPECT_EQ(live_batch.summary().store_hits, 1u);
  EXPECT_EQ(live_batch.summary().compiled, 0u);
}

TEST_F(StoreTest, NoCacheDisablesTheStoreTier) {
  std::vector<CompileJob> jobs = small_jobs();
  jobs.resize(1);
  BatchConfig cfg;
  cfg.threads = 1;
  cfg.use_cache = false;
  cfg.keep_results = false;
  cfg.store = std::make_shared<CompileResultStore>(config());
  BatchCompiler batch(cfg);
  batch.run(jobs);
  batch.run(jobs);
  EXPECT_EQ(batch.summary().store_hits, 0u);
  EXPECT_EQ(cfg.store->stats().puts, 0u);
}

}  // namespace
}  // namespace epg

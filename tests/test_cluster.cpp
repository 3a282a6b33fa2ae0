// epgc_cluster front: consistent-hash ring properties, byte-identity of
// cluster responses with a single-process epgc_serve (the differential
// contract ci/serve_e2e.sh enforces end-to-end), worker kill + respawn
// with redelivery, front-answered ops, and worker shutdown reaping.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "common/json_value.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "service/service.hpp"

namespace epg {
namespace {

// ---- hash ring ------------------------------------------------------------

TEST(HashRing, IsDeterministicAcrossInstances) {
  const HashRing a(5), b(5);
  for (std::uint64_t k = 0; k < 10000; ++k)
    ASSERT_EQ(a.route(k * 0x9e3779b97f4a7c15ULL),
              b.route(k * 0x9e3779b97f4a7c15ULL));
}

TEST(HashRing, RoutesEveryKeyToAValidWorker) {
  const HashRing ring(3);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::size_t w = ring.route(k * 0x2545F4914F6CDD1DULL);
    EXPECT_LT(w, 3u);
  }
  // Edge keys wrap, never fall off the ring.
  EXPECT_LT(ring.route(0), 3u);
  EXPECT_LT(ring.route(~std::uint64_t{0}), 3u);
}

TEST(HashRing, SpreadsKeysRoughlyEvenly) {
  const std::size_t workers = 4;
  const HashRing ring(workers);
  std::vector<std::size_t> counts(workers, 0);
  const std::size_t keys = 20000;
  for (std::uint64_t k = 0; k < keys; ++k)
    ++counts[ring.route(k * 0x9e3779b97f4a7c15ULL)];
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_GT(counts[w], keys / workers / 3) << "worker " << w << " starved";
    EXPECT_LT(counts[w], keys / workers * 3) << "worker " << w << " hot";
  }
}

TEST(HashRing, GrowingTheRingMovesOnlyAFractionOfKeys) {
  // The point of consistent hashing: adding a worker must not reshuffle
  // the world (which would cold-start every worker's cache).
  const HashRing before(4), after(5);
  const std::size_t keys = 20000;
  std::size_t moved = 0;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL;
    if (before.route(key) != after.route(key)) ++moved;
  }
  EXPECT_LT(moved, keys / 2) << "growing 4->5 should move ~1/5 of keys";
  EXPECT_GT(moved, 0u);
}

// ---- cluster front --------------------------------------------------------

// ctest runs with CWD = the build tree, where the worker binary lives.
constexpr const char* kWorkerBin = "./epgc_serve";

std::string fresh_runtime_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("epgc-cluster-test-" + tag + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

ClusterConfig test_cluster_config(const std::string& tag) {
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = kWorkerBin;
  cfg.runtime_dir = fresh_runtime_dir(tag);
  cfg.worker_args = {"--deterministic"};
  // Mirrors the worker flag, exactly as the epgc_cluster app wires it:
  // the front must not inject generated trace_ids into deterministic
  // responses (byte-identity with single-process is the contract here).
  cfg.deterministic = true;
  return cfg;
}

ServiceConfig single_process_config() {
  ServiceConfig cfg;
  cfg.batch.deterministic = true;
  return cfg;
}

#define REQUIRE_WORKER_BIN()                                       \
  do {                                                             \
    if (!std::filesystem::exists(kWorkerBin))                      \
      GTEST_SKIP() << "worker binary not in CWD (run under ctest)"; \
  } while (0)

TEST(ClusterFront, ResponsesAreByteIdenticalToSingleProcess) {
  REQUIRE_WORKER_BIN();
  const std::string r6 = write_graph6(make_ring(6));
  const std::string w10 = write_graph6(make_waxman(10, 3));
  const std::string w12 = write_graph6(make_waxman(12, 5));
  const std::vector<std::string> requests = {
      R"({"op":"ping","id":1})",
      "{\"op\":\"compile\",\"id\":2,\"graph\":\"" + r6 + "\"}",
      "{\"op\":\"compile\",\"id\":3,\"graph\":\"" + w10 +
          "\",\"seed\":5,\"circuit\":true}",
      "{\"op\":\"compile\",\"id\":4,\"graph\":\"" + w12 + "\"}",
      // Repeat: the tier field must match too (memory on both sides),
      // which only holds because routing is graph-stable.
      "{\"op\":\"compile\",\"id\":5,\"graph\":\"" + r6 + "\"}",
      "{\"op\":\"batch\",\"id\":6,\"jobs\":[{\"graph\":\"" + w10 +
          "\"},{\"graph\":\"" + w10 + "\"}]}",
      // Error paths must produce the worker's bytes, not a front rewrite.
      R"({"op":"frobnicate","id":7})",
      "not json at all",
      R"({"op":"compile","id":8})",
      R"({"op":"compile","id":9,"proto":99,"graph":"x"})",
  };

  ClusterFront front(test_cluster_config("diff"));
  front.start();
  Service single(single_process_config());
  for (const std::string& line : requests)
    EXPECT_EQ(front.handle_line(line), single.handle_line(line)) << line;
  front.shutdown_workers();
}

TEST(ClusterFront, KilledWorkerIsRespawnedAndRequestRedelivered) {
  REQUIRE_WORKER_BIN();
  const std::string line =
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_waxman(10, 3)) + "\"}";

  ClusterFront front(test_cluster_config("kill"));
  front.start();
  const std::string before = front.handle_line(line);
  EXPECT_EQ(JsonValue::parse(before).get_string("tier", ""), "compiled");

  // SIGKILL every worker: whichever owns this graph is gone, and the
  // in-flight-capable connection with it.
  std::vector<pid_t> old_pids;
  for (std::size_t i = 0; i < front.workers(); ++i) {
    const pid_t pid = front.worker_pid(i);
    ASSERT_GT(pid, 0);
    old_pids.push_back(pid);
    ::kill(pid, SIGKILL);
  }

  // The front must notice the dead connection, respawn, and redeliver.
  // The respawned worker's memory cache is empty, so the response equals
  // a fresh single process's bytes (tier "compiled" again).
  const std::string after = front.handle_line(line);
  Service fresh(single_process_config());
  EXPECT_EQ(after, fresh.handle_line(line));
  EXPECT_GE(front.respawns(), 1u);
  // The front's own registry counts the redelivery.
  const JsonValue metrics =
      JsonValue::parse(front.handle_line(R"({"op":"metrics","id":2})"));
  const JsonValue* front_counters = metrics.find("front");
  ASSERT_NE(front_counters, nullptr);
  front_counters = front_counters->find("counters");
  ASSERT_NE(front_counters, nullptr);
  EXPECT_GE(front_counters->get_u64("epgc_front_redeliveries_total", 0), 1u);

  // The worker that owned the request was respawned inline; the other one
  // is the monitor's job — poll until every worker runs under a new pid.
  const auto all_respawned = [&] {
    for (std::size_t i = 0; i < front.workers(); ++i) {
      const pid_t pid = front.worker_pid(i);
      if (pid <= 0 ||
          std::count(old_pids.begin(), old_pids.end(), pid) != 0)
        return false;
    }
    return true;
  };
  for (int i = 0; i < 200 && !all_respawned(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(all_respawned()) << "monitor must respawn the other worker";
  EXPECT_GE(front.respawns(), 2u);
  front.shutdown_workers();
}

TEST(ClusterFront, FrontAnswersPingStatsHealthLocally) {
  REQUIRE_WORKER_BIN();
  ClusterFront front(test_cluster_config("ops"));
  front.start();

  // ping comes from the shared renderer: identical bytes to a worker's.
  Service single(single_process_config());
  EXPECT_EQ(front.handle_line(R"({"op":"ping","id":1})"),
            single.handle_line(R"({"op":"ping","id":1})"));

  const JsonValue health =
      JsonValue::parse(front.handle_line(R"({"op":"health","id":2})"));
  EXPECT_TRUE(health.get_bool("ok", false));
  EXPECT_EQ(health.get_string("role", ""), "front");
  ASSERT_NE(health.find("workers"), nullptr);
  EXPECT_EQ(health.find("workers")->items().size(), front.workers());

  const JsonValue stats =
      JsonValue::parse(front.handle_line(R"({"op":"stats","id":3})"));
  EXPECT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.get_u64("workers_configured", 0), front.workers());
  ASSERT_NE(stats.find("aggregate"), nullptr);
  ASSERT_NE(stats.find("workers"), nullptr);
  EXPECT_EQ(stats.find("workers")->items().size(), front.workers());

  // An unsupported proto pin on a front-answered op is rejected
  // structurally, exactly like a worker rejects it.
  const JsonValue rejected = JsonValue::parse(
      front.handle_line(R"({"op":"ping","id":4,"proto":99})"));
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("code", ""), "unsupported_proto");
  front.shutdown_workers();
}

TEST(ClusterFront, CountsEachRequestOnceFromItsResponse) {
  REQUIRE_WORKER_BIN();
  ClusterConfig cfg = test_cluster_config("count");
  cfg.delivery_attempts = 0;  // every forward fails with worker_failed
  ClusterFront front(cfg);
  front.start();
  const JsonValue failed = JsonValue::parse(front.handle_line(
      "{\"op\":\"compile\",\"id\":1,\"graph\":\"" +
      write_graph6(make_ring(6)) + "\"}"));
  EXPECT_EQ(failed.get_string("code", ""), "worker_failed");
  // The stats answer is ok although every per-worker probe inside it
  // fails; only the client-visible answers count.
  const JsonValue stats =
      JsonValue::parse(front.handle_line(R"({"op":"stats","id":2})"));
  EXPECT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.get_u64("requests", 0),
            stats.get_u64("ok_count", 0) + stats.get_u64("errors", 0));
  EXPECT_EQ(stats.get_u64("errors", 0), 1u);
  front.shutdown_workers();
}

TEST(ClusterFront, DeadlineIsChargedAgainstFrontQueueWait) {
  REQUIRE_WORKER_BIN();
  ClusterFront front(test_cluster_config("deadline"));
  front.start();
  const std::string resp = front.handle_line(
      R"({"op":"compile","id":1,"graph":"x","deadline_ms":10})", 50.0);
  const JsonValue v = JsonValue::parse(resp);
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("code", ""), "deadline");
  front.shutdown_workers();
}

TEST(ClusterFront, ShutdownReapsEveryWorkerProcess) {
  REQUIRE_WORKER_BIN();
  ClusterFront front(test_cluster_config("shutdown"));
  front.start();
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < front.workers(); ++i) {
    const pid_t pid = front.worker_pid(i);
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  front.shutdown_workers();
  for (std::size_t i = 0; i < front.workers(); ++i)
    EXPECT_EQ(front.worker_pid(i), -1);
  // The processes are gone (reaped by the front, so kill(0) cannot find
  // them; ESRCH, not EPERM or success).
  for (const pid_t pid : pids) {
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH);
  }
  // Idempotent.
  front.shutdown_workers();
}

}  // namespace
}  // namespace epg
